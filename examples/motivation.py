#!/usr/bin/env python3
"""Chapter 2 walk-through: why unroll-and-squash.

Reproduces the motivating comparison on the f/g nest (Figs. 2.1-2.4):
original vs unroll-and-jam(2) vs unroll-and-squash(2), with the emitted
code, the cycle counts, and the operator-occupancy timeline.

Run:  python examples/motivation.py
"""

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.harness import format_fig_2_4, run_fig_2_4
from repro.hw import normalize
from repro.ir import program_to_str
from repro.ir.interp import run_program
from repro.nimble import compile_jam, compile_original, compile_squash
from repro.transforms import unroll_and_jam
from repro.workloads.simple import build_fg_nest, fg_reference


def main() -> None:
    m, n = 8, 4
    prog = build_fg_nest(m=m, n=n)
    nest = find_kernel_nests(prog)[0]

    print("=== Fig 2.1: the original nest ===")
    print(program_to_str(prog))

    print("=== Fig 2.2: unroll-and-jam by 2 (operators double) ===")
    jammed = unroll_and_jam(prog, nest, 2)
    print(program_to_str(jammed))

    print("=== Fig 2.3: unroll-and-squash by 2 (registers only) ===")
    print("(data-set form: prolog, DS*(N-1)+1 steady ticks, epilog; each")
    print(" data set keeps its own copy of the outer body's variables)")
    res = unroll_and_squash(prog, nest, 2)
    print(program_to_str(res.program))

    # all three compute the same stream
    exp = fg_reference(prog.arrays["data_in"].init, n)
    for label, p in (("original", prog), ("jam(2)", jammed),
                     ("squash(2)", res.program)):
        out = run_program(p).arrays["data_out"]
        assert list(out) == list(exp), label
    print("all three variants produce identical output  OK\n")

    # the chapter's cycle arithmetic
    base = compile_original(prog, nest)
    jam2 = compile_jam(prog, nest, 2, base_ii=base.ii)
    sq2 = compile_squash(prog, nest, 2, base_ii=base.ii)
    print("variant      II  ops(rows)  total-cycles  speedup")
    for p in (base, jam2, sq2):
        nm = normalize(base, p)
        print(f"{p.label:<12} {p.ii:>2}  {p.op_rows:>9}  "
              f"{p.total_cycles:>12.0f}  {nm.speedup:>7.2f}")
    print()

    print(format_fig_2_4(run_fig_2_4(ds=2)))
    print("jam fills the area; squash fills the idle time slots (Fig. 2.4).")


if __name__ == "__main__":
    main()
