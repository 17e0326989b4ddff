#!/usr/bin/env python3
"""Source-language quickstart: from a ``.lang`` file to a priced design.

Compiles ``examples/dotprod.lang`` through the front end
(lexer → parser → sema → lowering), prints the reconstructed source from
the IR printer (the two are round-trippable), squashes the kernel nest
with functional verification, and prices the design on the ACEV model —
the same flow ``python -m repro compile examples/dotprod.lang`` drives.

Run:  python examples/lang_quickstart.py [DS]
"""

import pathlib
import sys

import numpy as np

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.ir import program_to_str
from repro.ir.interp import run_program
from repro.lang import compile_file
from repro.nimble import compile_original, compile_squash
from repro.workloads import benchmark_by_name

HERE = pathlib.Path(__file__).resolve().parent


def main(ds: int = 4) -> None:
    path = HERE / "dotprod.lang"

    # 1. compile source -> validated IR
    prog, source = compile_file(path)
    print(f"=== {path.name}: kernel {prog.name!r} ===")

    # 2. the IR printer emits the same language back
    print(program_to_str(prog))
    assert "kernel dotprod {" in program_to_str(prog)

    # 3. squash the #pragma kernel nest, verify bit-for-bit
    nest = find_kernel_nests(prog)[0]
    res = unroll_and_squash(prog, nest, ds)
    ref = run_program(prog)
    got = run_program(res.program)
    assert np.array_equal(ref.arrays["out"], got.arrays["out"])
    print(f"squash({ds}) verified: outputs bit-identical")

    # 4. price original vs squash on the ACEV hardware model
    base = compile_original(prog, nest)
    point = compile_squash(prog, nest, ds, base_ii=base.ii)
    print(f"original  : II={base.ii:2d}  area={base.area_rows:5.0f} rows  "
          f"registers={base.registers}")
    print(f"squash({ds}) : II={point.ii:2d}  area={point.area_rows:5.0f} rows  "
          f"registers={point.registers}")

    # 5. .lang files are first-class benchmarks for the explorer: the
    #    lang:<path>#<digest> spec keys the persistent result cache by
    #    source *content*
    bm = benchmark_by_name(str(path))
    print(f"benchmark spec: {bm.name}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 4)
