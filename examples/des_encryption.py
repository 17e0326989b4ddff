#!/usr/bin/env python3
"""DES through the full pipeline (Table 6.2's DES-mem / DES-hw rows).

* validates the reference cipher against the classic known-answer vector;
* checks the IR core against the reference for both table variants;
* squashes the 16-round loop and re-verifies;
* contrasts the -mem (S-boxes on the memory bus) and -hw (S-box ROMs)
  hardware behaviour: jam congests only the former.

Run:  python examples/des_encryption.py
"""

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.hw import normalize
from repro.ir.interp import run_program
from repro.nimble import compile_variants
from repro.workloads import des


def main() -> None:
    tv = des.TEST_VECTOR
    ct = des.encrypt_block(tv["key"], tv["plaintext"])
    print(f"KAT: {ct:016x}  ({'OK' if ct == tv['ciphertext'] else 'FAIL'})")

    prog = des.build_program(m_blocks=4, variant="hw")
    exp = des.reference_output(prog.arrays["data_in"].init)
    got = run_program(prog).arrays["data_out"]
    print(f"IR core (4 blocks): {'OK' if list(got) == list(exp) else 'FAIL'}")

    nest = find_kernel_nests(prog)[0]
    for ds in (2, 4):
        res = unroll_and_squash(prog, nest, ds)
        got = run_program(res.program).arrays["data_out"]
        print(f"squash({ds}): ciphertext unchanged  "
              f"{'OK' if list(got) == list(exp) else 'FAIL'}")

    for variant in ("mem", "hw"):
        prog = des.build_program(m_blocks=32, variant=variant)
        nest = find_kernel_nests(prog)[0]
        vs = compile_variants(prog, nest, factors=(2, 4, 8, 16))
        base = vs.original
        jam_iis = [vs.jam[k].ii for k in (2, 4, 8, 16)]
        sq_iis = [vs.squash[k].ii for k in (2, 4, 8, 16)]
        print(f"\ndes-{variant}: original II={base.ii}, "
              f"pipelined II={vs.pipelined.ii}")
        print(f"  jam    II over factors: {jam_iis}"
              f"  <- {'congests (S-box loads on the bus)' if variant == 'mem' else 'flat (S-box ROMs are port-free)'}")
        print(f"  squash II over factors: {sq_iis}"
              f"  <- floor = memory ResMII" if variant == "mem"
              else f"  squash II over factors: {sq_iis}")
        best = max((normalize(base, p) for p in vs.all_points()),
                   key=lambda n: n.efficiency)
        print(f"  best efficiency: {best.point.label} "
              f"({best.efficiency:.2f} speedup/area)")


if __name__ == "__main__":
    main()
