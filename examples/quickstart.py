#!/usr/bin/env python3
"""Quickstart: unroll-and-squash in five steps.

Builds the thesis's §4.3 running example (Fig. 4.1)::

    for (i=0; i<M; i++) {
      a = in[i];
      for (j=0; j<N; j++) { b = a + i; c = b - j; a = (c & 15) * k; }
      out[i] = a;
    }

then (1) checks legality, (2) shows the DFG with its registers and
cycles, (3) pipelines it into DS stages, (4) emits the transformed
software and verifies it bit-for-bit, and (5) prices the design on the
ACEV hardware model.

Run:  python examples/quickstart.py [DS]
"""

import sys

import numpy as np

from repro.analysis import find_kernel_nests
from repro.core import check_squash, unroll_and_squash
from repro.hw import normalize
from repro.ir import program_to_str
from repro.ir.interp import run_program
from repro.nimble import compile_original, compile_squash
from repro.workloads.simple import build_running_example


def main(ds: int = 4) -> None:
    prog = build_running_example(m=8, n=5)
    nest = find_kernel_nests(prog)[0]

    print("=== original program (Fig. 4.1) ===")
    print(program_to_str(prog))

    # 1. legality (§4.1)
    chk = check_squash(prog, nest, ds)
    print(f"legal for DS={ds}: {chk.ok}")
    print(f"  outer trip {chk.outer_trip}, inner trip {chk.inner_trip}")
    live = chk.liveness
    print(f"  live-in: {sorted(live.live_in)}  carried: {sorted(live.carried)}"
          f"  invariant: {sorted(live.invariant_reads)}\n")

    # 2-3. DFG + stage assignment
    res = unroll_and_squash(prog, nest, ds)
    print("=== DFG (registers / operators / cycles) ===")
    for node in res.dfg.nodes:
        if node.kind in ("reg", "inc") or node.is_operator:
            stage = res.stages.stage.get(node.nid, "-")
            print(f"  {node!r:<22} stage {stage}")
    backs = ", ".join(f"{e.src!r}->{e.dst!r}" for e in res.dfg.backedges())
    print(f"  backedges: {backs}")
    print(f"  critical path: {res.stages.critical_path} cycles; "
          f"pipeline registers: {res.pipeline_registers}\n")

    # 4. emitted software, verified against the original
    print(f"=== squashed program (DS={ds}) — prolog/steady/epilog ===")
    text = program_to_str(res.program)
    print(text if len(text) < 4000 else text[:4000] + "  ...\n")
    ref = run_program(prog, params={"k": 3}).arrays["out"]
    got = run_program(res.program, params={"k": 3}).arrays["out"]
    assert list(ref) == list(got)
    print(f"functional check: transformed output == original output  OK\n")

    # 5. hardware cost on the ACEV model
    base = compile_original(prog, nest)
    point = compile_squash(prog, nest, ds, base_ii=base.ii)
    n = normalize(base, point)
    print("=== hardware estimate (ACEV model) ===")
    print(f"  original : II={base.ii:>2}  area={base.area_rows:>5.0f} rows  "
          f"registers={base.registers}")
    print(f"  squash({ds}): II={point.ii:>2}  area={point.area_rows:>5.0f} rows  "
          f"registers={point.registers}")
    print(f"  speedup {n.speedup:.2f}x at {n.area_factor:.2f}x area  "
          f"=> efficiency {n.efficiency:.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
