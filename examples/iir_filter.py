#!/usr/bin/env python3
"""Floating-point IIR filter bank (Table 6.2's IIR row).

Filters 16 independent channels through 4 cascaded biquads (64 points
each), verifies the squashed kernel bit-for-bit, and shows the thesis's
floating-point result: squash efficiency *grows* with the unroll factor
because the deep FP recurrence (large original II) leaves a long way to
the memory floor.

Run:  python examples/iir_filter.py
"""

import numpy as np

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.hw import normalize
from repro.ir.interp import run_program
from repro.nimble import compile_variants
from repro.workloads import iir


def main() -> None:
    params = iir.default_params()

    prog = iir.build_program(m_channels=8, n_points=32)
    exp = iir.reference_output(prog.arrays["x_in"].init, 8, 32)
    got = run_program(prog, params=params).arrays["y_out"]
    assert np.array_equal(got, exp)
    print("IR kernel matches the reference filter bit-for-bit  OK")

    nest = find_kernel_nests(prog)[0]
    for ds in (2, 4, 8):
        res = unroll_and_squash(prog, nest, ds)
        got = run_program(res.program, params=params).arrays["y_out"]
        assert np.array_equal(got, exp), ds
        print(f"squash({ds}): filter output unchanged  OK  "
              f"(registers: {res.pipeline_registers})")

    prog = iir.build_program(m_channels=16, n_points=64)
    nest = find_kernel_nests(prog)[0]
    vs = compile_variants(prog, nest, factors=(2, 4, 8, 16))
    base = vs.original
    print(f"\nIIR on ACEV: original II={base.ii} (deep FP critical path), "
          f"pipelined II={vs.pipelined.ii} (recurrence-bound)")
    print("variant      II  area(rows)  speedup  efficiency")
    effs = []
    for p in vs.all_points():
        nm = normalize(base, p)
        print(f"{p.label:<12} {p.ii:>2}  {p.area_rows:>9.0f}  "
              f"{nm.speedup:>7.2f}  {nm.efficiency:>9.2f}")
        if p.variant == "squash":
            effs.append(nm.efficiency)
    assert effs == sorted(effs)
    print("\nsquash efficiency grows with DS on the FP kernel "
          "(thesis Fig. 6.3's 'obvious exception').")


if __name__ == "__main__":
    main()
