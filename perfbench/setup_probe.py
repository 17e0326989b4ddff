"""Set-up probe: what a sweep pays before its first design compiles.

Usage::

    python3 perfbench/setup_probe.py explore <repro explore arguments>

Parses the arguments with the CLI's parser, imports what the ``explore``
command imports, and builds every kernel of the workload the way an
exploration worker does (suite kernels at evaluation scale, ``.lang``
sources through the front end), then exits without compiling a design.
The benchmark times this process from spawn to exit as ``setup_s``.
"""

from __future__ import annotations

import sys


def main(argv: "list[str]") -> int:
    from repro.cli import build_parser

    args = build_parser().parse_args(argv)
    from repro.analysis.loops import find_kernel_nests, find_loop_nests
    from repro.explore import DesignSpace, ResultCache, evaluate  # noqa: F401
    from repro.workloads import benchmark_by_name

    kernels = list(args.kernel or [])
    if args.source:
        from repro.lang.loader import lang_spec
        kernels += [lang_spec(path) for path in args.source]
    for name in kernels:
        bm = benchmark_by_name(name)
        prog = bm.build(**bm.eval_kwargs)
        if not (find_kernel_nests(prog) or find_loop_nests(prog)):
            print(f"{name}: no loop nest", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
