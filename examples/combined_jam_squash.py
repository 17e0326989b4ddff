#!/usr/bin/env python3
"""Combining the two transformations (Chapter 2's closing argument).

"Unroll-and-jam can be applied with an unroll factor that matches the
desired or available amount of operators, and then unroll-and-squash can
be used to further improve the performance and achieve better operator
utilization."

On the f/g nest: jam(2)+squash(2) quadruples throughput for 2x the
operators — better than jam(4) (same speedup, 4x operators) and better
than squash(4) alone (the II floor of 1 cycle was already reached at
DS=2, so extra stages no longer help; extra operators do).

Run:  python examples/combined_jam_squash.py
"""

import numpy as np

from repro.analysis import find_kernel_nests
from repro.core import jam_then_squash
from repro.hw import normalize
from repro.ir.interp import run_program
from repro.nimble import (
    compile_jam, compile_jam_squash, compile_original, compile_squash,
)
from repro.workloads.simple import build_fg_nest, fg_reference


def main() -> None:
    m, n = 32, 8
    prog = build_fg_nest(m=m, n=n)
    nest = find_kernel_nests(prog)[0]
    exp = fg_reference(prog.arrays["data_in"].init, n)

    # functional check of the composed transformation
    res = jam_then_squash(prog, nest, jam=2, ds=2)
    got = run_program(res.program).arrays["data_out"]
    assert list(got) == list(exp)
    print("jam(2) ∘ squash(2): output identical to the original  OK\n")

    base = compile_original(prog, nest)
    candidates = {
        "squash(2)": compile_squash(prog, nest, 2, base_ii=base.ii),
        "squash(4)": compile_squash(prog, nest, 4, base_ii=base.ii),
        "jam(4)": compile_jam(prog, nest, 4, base_ii=base.ii),
        "jam(2)+squash(2)": compile_jam_squash(prog, nest, 2, 2,
                                               base_ii=base.ii),
    }
    print("variant            II  op-rows  regs  speedup  efficiency")
    print(f"{'original':<17} {base.ii:>3}  {base.op_rows:>7}  "
          f"{base.registers:>4}  {1.0:>7.2f}  {1.0:>9.2f}")
    for label, p in candidates.items():
        nm = normalize(base, p)
        print(f"{label:<17} {p.ii:>3}  {p.op_rows:>7}  {p.registers:>4}  "
              f"{nm.speedup:>7.2f}  {nm.efficiency:>9.2f}")

    combo = normalize(base, candidates["jam(2)+squash(2)"])
    jam4 = normalize(base, candidates["jam(4)"])
    print(f"\n=> the combination reaches jam(4)'s speedup "
          f"({combo.speedup:.1f}x vs {jam4.speedup:.1f}x) at half the "
          f"operators — 'quadruples the performance but only doubles the "
          f"area'.")


if __name__ == "__main__":
    main()
