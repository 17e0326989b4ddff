#!/usr/bin/env python3
"""Skipjack through the full pipeline (thesis Fig. 2.5 / Table 6.2 rows).

* validates the reference cipher against the NIST known-answer vector;
* runs the IR kernel and checks it against byte-level ECB encryption;
* squashes the 32-round loop by 2/4/8 and re-verifies the ciphertext;
* prices both the -mem and -hw variants on the ACEV model.

Run:  python examples/skipjack_encryption.py
"""

import numpy as np

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.hw import normalize
from repro.ir.interp import run_program
from repro.nimble import compile_variants
from repro.workloads import skipjack


def main() -> None:
    # 1. known-answer test
    tv = skipjack.TEST_VECTOR
    ct = skipjack.encrypt_block(tv["key"], tv["plaintext"])
    print(f"NIST KAT: {ct.hex()}  "
          f"({'OK' if ct == tv['ciphertext'] else 'FAIL'})")

    # 2. IR kernel == byte-level ECB
    prog = skipjack.build_program(m_blocks=8, variant="hw")
    words = prog.arrays["data_in"].init
    stream = b"".join(int(w).to_bytes(2, "big") for w in words)
    expected = skipjack.encrypt_ecb(tv["key"], stream)
    out = run_program(prog).arrays["data_out"]
    got = b"".join(int(w).to_bytes(2, "big") for w in out)
    print(f"IR kernel encrypts 8 blocks: "
          f"{'OK' if got == expected else 'FAIL'}")

    # 3. squash and re-verify the ciphertext
    nest = find_kernel_nests(prog)[0]
    for ds in (2, 4, 8):
        res = unroll_and_squash(prog, nest, ds)
        out = run_program(res.program).arrays["data_out"]
        sq = b"".join(int(w).to_bytes(2, "big") for w in out)
        status = "OK" if sq == expected else "FAIL"
        print(f"squash({ds}): ciphertext unchanged  {status}  "
              f"(steady ticks/block group: {res.emission.steady_ticks}, "
              f"pipeline registers: {res.pipeline_registers})")

    # 4. hardware evaluation, both table variants
    for variant in ("mem", "hw"):
        prog = skipjack.build_program(m_blocks=32, variant=variant)
        nest = find_kernel_nests(prog)[0]
        vs = compile_variants(prog, nest, factors=(2, 4, 8, 16))
        base = vs.original
        print(f"\nskipjack-{variant} on ACEV (2 mem ports):")
        print("  variant      II  area(rows)  regs  speedup  eff")
        for p in vs.all_points():
            nm = normalize(base, p)
            print(f"  {p.label:<12} {p.ii:>2}  {p.area_rows:>9.0f}  "
                  f"{p.registers:>4}  {nm.speedup:>7.2f}  {nm.efficiency:.2f}")


if __name__ == "__main__":
    main()
