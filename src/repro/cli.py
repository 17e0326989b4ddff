"""Command-line interface: ``python -m repro.cli <command>`` (or just
``python -m repro``).

Commands
--------
``tables``      regenerate thesis tables/figures (1.1, 6.1, 6.2, 6.3,
                fig6.1-fig6.4, fig2.4) to stdout or a directory; the
                synthesis sweep runs through the exploration engine
                (``--jobs`` workers, persistent result cache);
``explore``     free-form design-space exploration: pick kernels,
                variants, DS/J factors, target specs, and scheduling
                strategies (``--scheduler``); evaluates the space in
                parallel through the persistent cache and reports the
                Pareto frontier (``--pareto``), the best-design ranking
                (``--best``), and skip records;
``compile``     compile a ``.lang`` source kernel (see :mod:`repro.lang`)
                through the pipeline: diagnostics, optional functional
                verification, and original/squash hardware estimates;
``verify``      recompile a set of designs with the independent artifact
                verifiers (:mod:`repro.verify`) forced on, once per
                ``--scheduler`` (repeatable), and report a per-design
                verdict; exit 1 if any design fails verification
                (legality/schedule rejects count as skips, not
                failures);
``lint``        statically lint ``.lang`` source files — unused
                declarations, out-of-bounds subscripts, literal
                overflow/narrowing, squashability pre-diagnosis — with
                no scheduling;
``profile``     Table 1.1-style loop profile of one benchmark;
``squash``      transform one benchmark kernel, verify it, and report the
                hardware estimate;
``stats``       validate an exported Chrome ``trace_event`` JSON file
                (``--trace out.json`` on tables/explore), summarize its
                events, and render the metrics summary embedded in it
                (per-stage/per-kernel percentiles, cache hit rates,
                scheduler search effort, supervision tallies), or the
                registered ``REPRO_*`` knob table (``--knobs``);
``list``        list available benchmarks.

Exploration examples::

    python -m repro explore --kernel iir --factors 2 4 8 --jobs 2 --pareto
    python -m repro explore --kernel des-mem --kernel des-hw \\
        --variants squash jam jam+squash --factors 2 4 --jam-factors 2 \\
        --target acev::ports=1 --best --out results.txt
    python -m repro explore --kernel iir --factors 2 4 \\
        --scheduler modulo --scheduler backtrack --pareto

The result cache lives under ``.repro_cache/`` (override with
``REPRO_CACHE_DIR``); ``--no-cache`` bypasses it and ``--clear-cache``
drops it before running.
"""

from __future__ import annotations

import argparse
import contextlib
import pathlib
import sys
from typing import NoReturn


@contextlib.contextmanager
def _scoped_env(name, value):
    """Set environment variable ``name`` to ``value`` for one command
    and restore it afterwards; ``None`` leaves it alone.

    Worker processes inherit the setting; in-process callers of
    :func:`main` find the environment as they left it.
    """
    if value is None:
        yield
        return
    import os

    saved = os.environ.get(name)
    os.environ[name] = str(value)
    try:
        yield
    finally:
        if saved is None:
            os.environ.pop(name, None)
        else:
            os.environ[name] = saved


@contextlib.contextmanager
def _tracing(out_path):
    """Force tracing on for one command and export the merged trace.

    ``--trace out.json`` support: turns ``REPRO_TRACE`` on for the
    duration (respecting an already-on ``1``/``full`` setting), restores
    the environment afterwards, and writes whatever the run buffered —
    supervisor spans plus every worker's shipped events — to
    ``out_path``.  The export runs even when the command fails, so an
    interrupted sweep still leaves an inspectable trace.
    """
    if not out_path:
        yield
        return
    from repro.env import TRACE_ENV
    from repro.obs import trace as obs_trace
    with _scoped_env(TRACE_ENV, None if obs_trace.enabled() else "1"):
        obs_trace.drain()  # an earlier command's events are not this run's
        try:
            yield
        finally:
            n = obs_trace.export_trace(out_path)
            print(f"wrote {out_path} ({n} trace events)", file=sys.stderr)


def _cmd_list(args) -> int:
    from repro.workloads import table_1_1_programs, table_6_1_benchmarks
    print("Table 6.1 kernels (hardware evaluation):")
    for bm in table_6_1_benchmarks():
        print(f"  {bm.name:<14} {bm.description}")
    print("Table 1.1 programs (loop profiling):")
    for bm in table_1_1_programs():
        print(f"  {bm.name:<14} {bm.description}")
    return 0


def _knobs_rejected() -> bool:
    """Check every ``REPRO_*`` knob before a command does any work: a
    bad value prints one stderr line naming the variable and its
    accepted values (the command then exits 2) instead of a traceback
    or a failure per design."""
    from repro.env import check_knobs
    from repro.errors import ReproError
    try:
        check_knobs()
    except ReproError as exc:
        print(f"repro: error: {exc}", file=sys.stderr)
        return True
    return False


def _cmd_tables(args) -> int:
    if _knobs_rejected():
        return 2
    with _tracing(args.trace):
        return _run_tables(args)


def _run_tables(args) -> int:
    from repro.harness import (
        format_fig_2_4, format_figure, format_table_1_1, format_table_6_1,
        format_table_6_2, format_table_6_3, run_fig_2_4, run_table_1_1,
        run_table_6_1, run_table_6_2, run_table_6_3,
    )
    factors = tuple(args.factors)
    artifacts: dict[str, str] = {}
    wanted = set(args.which) if args.which else None

    def want(name: str) -> bool:
        return wanted is None or name in wanted

    if want("1.1"):
        artifacts["table_1_1"] = format_table_1_1(run_table_1_1())
    if want("6.1"):
        artifacts["table_6_1"] = format_table_6_1(run_table_6_1())
    needs_sweep = any(want(x) for x in
                      ("6.2", "6.3", "fig6.1", "fig6.2", "fig6.3", "fig6.4"))
    if needs_sweep:
        kernels = None
        if args.source:
            from repro.lang.loader import lang_spec
            from repro.workloads import table_6_1_benchmarks
            kernels = [bm.name for bm in table_6_1_benchmarks()]
            kernels += [lang_spec(path) for path in args.source]
        sweep = run_table_6_2(factors, args.target, jobs=args.jobs,
                              scheduler=args.scheduler, kernels=kernels)
        if want("6.2"):
            artifacts["table_6_2"] = format_table_6_2(sweep)
        norm = run_table_6_3(sweep)
        if want("6.3"):
            artifacts["table_6_3"] = format_table_6_3(norm)
        for fig in ("6.1", "6.2", "6.3", "6.4"):
            if want(f"fig{fig}"):
                artifacts[f"fig_{fig.replace('.', '_')}"] = \
                    format_figure(fig, norm)
    if want("fig2.4"):
        artifacts["fig_2_4"] = format_fig_2_4(run_fig_2_4(ds=2))

    for name, text in artifacts.items():
        if args.out:
            out = pathlib.Path(args.out)
            out.mkdir(parents=True, exist_ok=True)
            (out / f"{name}.txt").write_text(text)
            print(f"wrote {out / f'{name}.txt'}")
        else:
            print("=" * 72)
            print(text)
    return 0


def _cmd_explore(args) -> int:
    if _knobs_rejected():
        return 2
    # --cache-dir roots every persistent cache (results and the artifact
    # store alike), in this process and in the workers it forks
    with _scoped_env("REPRO_CACHE_DIR", args.cache_dir), \
            _tracing(args.trace):
        return _run_explore(args)


def _run_explore(args) -> int:
    from repro.explore import (
        DesignSpace, NullCache, ResultCache, SweepInterrupted, evaluate,
        format_best, format_fails, format_pareto, format_skips,
        format_summary,
    )

    kernels = list(args.kernel or [])
    if args.source:
        from repro.lang.loader import lang_spec
        kernels += [lang_spec(path) for path in args.source]
    if not kernels:
        print("explore needs at least one --kernel or --source",
              file=sys.stderr)
        return 2

    space = DesignSpace(
        kernels=tuple(kernels),
        variants=tuple(args.variants),
        factors=tuple(args.factors),
        jam_factors=tuple(args.jam_factors),
        target_specs=tuple(args.target or ["acev"]),
        schedulers=tuple(args.scheduler or [""]),
    )
    if args.clear_cache:  # honor the clear even when bypassing the cache
        ResultCache(args.cache_dir).clear()
    if getattr(args, "resume", False) and args.no_cache:
        print("--resume needs the result cache; drop --no-cache",
              file=sys.stderr)
        return 2
    cache = NullCache() if args.no_cache else ResultCache(args.cache_dir)
    progress = None
    if args.progress and sys.stdout.isatty():
        # progress noise only makes sense on a live terminal; piped runs
        # (CI logs, `> out.txt`) silently drop it
        from repro.obs.progress import ProgressLine
        progress = ProgressLine()
    try:
        result = evaluate(space.enumerate(), jobs=args.jobs, cache=cache,
                          retries=args.retries,
                          batch_timeout=args.timeout,
                          on_progress=progress.update if progress else None)
    except SweepInterrupted as exc:
        # completed batches were committed before the pool came down
        print(f"\ninterrupted: {exc}", file=sys.stderr)
        if not args.no_cache:
            print("resume with the same command (add --resume to make "
                  "the intent explicit)", file=sys.stderr)
        return 130
    finally:
        if progress is not None:
            progress.finish()

    sections = [format_summary(result)]
    if args.pareto:
        sections.append(format_pareto(result))
    if args.best:
        sections.append(format_best(result, objective=args.objective))
    skips = format_skips(result)
    if skips:
        sections.append(skips)
    fails = format_fails(result)
    if fails:
        sections.append(fails)
    text = "\n".join(sections)
    print(text)
    if args.out:
        path = pathlib.Path(args.out)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text + "\n")
        print(f"wrote {path}")
    # quarantines are not silent: the sweep "succeeded" only partially
    return 3 if result.fails() else 0


def _cmd_verify(args) -> int:
    from repro.analysis import find_kernel_nests
    from repro.env import VERIFY_ENV
    from repro.errors import LegalityError, ScheduleError, VerifyError
    from repro.hw.report import variant_label
    from repro.nimble.target import decode_target
    from repro.pipeline import CompilationPipeline
    from repro.workloads import benchmark_by_name

    kernels = list(args.kernel or [])
    if args.source:
        from repro.lang.loader import lang_spec
        kernels += [lang_spec(path) for path in args.source]
    if not kernels:
        print("verify needs at least one --kernel or --source",
              file=sys.stderr)
        return 2

    designs = []
    for variant in args.variants:
        if variant in ("original", "pipelined"):
            designs.append((variant, 1, 1))
        elif variant == "jam+squash":
            designs += [(variant, ds, j) for ds in args.factors
                        for j in args.jam_factors]
        else:
            designs += [(variant, ds, 1) for ds in args.factors]

    # every scheduler of a design in a row, so the later ones are served
    # from the design's shared search state; the original design is
    # list-scheduled whatever the strategy
    schedulers = args.scheduler or [""]
    runs = [(variant, ds, jam, sched) for variant, ds, jam in designs
            for sched in (schedulers if variant != "original" else [""])]
    checked = skipped = failed = 0
    with _scoped_env(VERIFY_ENV, args.mode):
        # inside the scope, so --mode overrides a bad REPRO_VERIFY
        if _knobs_rejected():
            return 2
        target = decode_target(args.target)
        for name in kernels:
            bm = benchmark_by_name(name)
            prog = bm.build(**(bm.small_kwargs or bm.eval_kwargs or {}))
            nests = find_kernel_nests(prog)
            if not nests:
                print(f"{bm.name}: no '#pragma kernel' nest — skipped")
                continue
            nest = nests[0]
            for variant, ds, jam, sched in runs:
                label = variant_label(variant, ds, jam) \
                    + (f"@{sched}" if sched else "")
                where = f"{bm.name}/{label} [{args.target}]"
                pipe = CompilationPipeline(target, scheduler=sched or None)
                try:
                    run = pipe.run(prog, nest, variant, ds=ds, jam=jam)
                except (LegalityError, ScheduleError) as exc:
                    skipped += 1
                    print(f"{where}: skip ({exc})")
                    continue
                except VerifyError as exc:
                    failed += 1
                    print(f"{where}: FAIL")
                    for f in exc.findings:
                        print(f"  {f}")
                    continue
                checked += 1
                print(f"{where}: ok (II={run.point.ii}, "
                      f"length={run.point.schedule_length})")
    print(f"verified {checked} design(s) in {args.mode} mode, "
          f"{skipped} skipped, {failed} failed")
    return 1 if failed else 0


def _cmd_stats(args) -> int:
    import json

    from repro.obs.stats import format_knobs, format_stats, summarize_events
    from repro.obs.trace import validate_trace
    if args.knobs:
        print(format_knobs(), end="")
        return 0
    if not args.file:
        print("stats needs an exported trace file (or --knobs)",
              file=sys.stderr)
        return 2
    try:
        doc = json.loads(pathlib.Path(args.file).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 2
    problems = validate_trace(doc)
    if problems:
        for p in problems[:20]:
            print(p, file=sys.stderr)
        if len(problems) > 20:
            print(f"... and {len(problems) - 20} more", file=sys.stderr)
        print(f"{args.file}: INVALID ({len(problems)} problem(s))",
              file=sys.stderr)
        return 1
    print(f"{args.file}: valid Chrome trace_event JSON")
    print(summarize_events(doc["traceEvents"]))
    snapshot = doc.get("reproMetrics")
    if not isinstance(snapshot, dict):
        print(f"{args.file} has no 'reproMetrics' block (is it a repro "
              "--trace export?)", file=sys.stderr)
        return 1
    print(format_stats(snapshot), end="")
    return 0


def _cmd_lint(args) -> int:
    from repro.verify.lint import lint_file

    worst = 0
    for path in args.files:
        try:
            findings = lint_file(path)
        except OSError as exc:
            print(f"cannot read {path}: {exc}", file=sys.stderr)
            worst = max(worst, 2)
            continue
        for f in findings:
            print(f.render(str(path)))
        if any(f.severity == "error" for f in findings):
            worst = max(worst, 1)
        elif findings and args.strict:
            worst = max(worst, 1)
        elif not findings:
            print(f"{path}: clean")
    return worst


def _cmd_profile(args) -> int:
    from repro.harness import render_table
    from repro.nimble.profile import profile_summary
    from repro.workloads import benchmark_by_name
    bm = benchmark_by_name(args.benchmark)
    prog = bm.build(**(bm.eval_kwargs or {}))
    s = profile_summary(prog, params=bm.params, threshold=args.threshold)
    rows = [[lp.label, lp.depth, lp.iterations, lp.inclusive_cost,
             f"{lp.share:.1%}"] for lp in s.loops]
    print(render_table(["loop", "depth", "iterations", "cost", "share"],
                       rows, title=f"{bm.name}: {s.n_loops} loops, "
                       f"{s.n_hot_loops} above {s.threshold:.0%}, "
                       f"{s.hot_share:.0%} of time in hot loops"))
    return 0


def _verify_squash(prog, nest, ds: int, params: dict, label: str):
    """Squash ``nest`` by ``ds`` and check the outputs against the
    original under the interpreter; the squash result, or ``None`` after
    reporting a mismatch or an interpreter error on stderr."""
    import numpy as np
    from repro.core import unroll_and_squash
    from repro.errors import InterpError
    from repro.ir.interp import run_program

    res = unroll_and_squash(prog, nest, ds)
    try:
        ref = run_program(prog, params=params)
        got = run_program(res.program, params=params)
    except InterpError as exc:
        print(f"{prog.name}/squash({ds}): functional check failed: {exc} "
              "(if-conversion evaluates both arms of a kernel-loop branch; "
              "see `repro lint`, W003)", file=sys.stderr)
        return None
    for name in prog.output_arrays():
        if not np.array_equal(ref.arrays[name], got.arrays[name]):
            print(f"FUNCTIONAL MISMATCH in {name}", file=sys.stderr)
            return None
    print(f"{label}squash({ds}) verified (outputs bit-identical to the "
          "original)")
    return res


def _rejection(exc) -> str:
    """One stderr line for a design the compiler rejected; a
    :class:`~repro.errors.VerifyError` keeps its provenance and its
    first finding."""
    findings = getattr(exc, "findings", None)
    if not findings:
        return str(exc)
    more = f" (+{len(findings) - 1} more)" if len(findings) > 1 else ""
    return f"{getattr(exc, 'provenance', 'design')}: {findings[0]}{more}"


def _price_squash(prog, nest, ds: int, spec: str) -> tuple:
    """Print and return the original and squash(ds) design points on the
    target ``spec`` (same grammar as ``explore --target``)."""
    from repro.nimble import compile_original, compile_squash
    from repro.nimble.target import decode_target

    target = decode_target(spec)
    base = compile_original(prog, nest, target)
    point = compile_squash(prog, nest, ds, target, base_ii=base.ii)
    print(f"  original  : II={base.ii}, area={base.area_rows:.0f} rows, "
          f"registers={base.registers}")
    print(f"  squash({ds}) : II={point.ii}, area={point.area_rows:.0f} "
          f"rows, registers={point.registers}")
    return base, point


def _cmd_compile(args) -> int:
    from repro.analysis import find_kernel_nests
    from repro.errors import LangError, LegalityError, ScheduleError, \
        VerifyError
    from repro.ir import program_to_str
    from repro.lang import compile_file

    if _knobs_rejected():
        return 2
    try:
        prog, _ = compile_file(args.file)
    except OSError as exc:
        print(f"cannot read {args.file}: {exc}", file=sys.stderr)
        return 1
    except LangError as exc:
        print(exc, file=sys.stderr)
        return 1
    print(f"{args.file}: kernel {prog.name!r} ({len(prog.params)} params, "
          f"{len(prog.arrays)} arrays, {len(prog.locals)} locals)")
    if args.show_ir:
        print(program_to_str(prog), end="")

    nests = find_kernel_nests(prog)
    if not nests:
        print("no '#pragma kernel' loop nest found — nothing to compile",
              file=sys.stderr)
        return 1
    nest = nests[0]

    params: dict[str, float] = {}
    for spec in args.param or []:
        name, sep, value = spec.partition("=")
        if not sep or name not in prog.params:
            known = ", ".join(prog.params) or "none"
            print(f"bad --param {spec!r} (declared params: {known})",
                  file=sys.stderr)
            return 1
        params[name] = (float(value) if prog.params[name].is_float
                        else int(value, 0))

    missing = [p for p in prog.params if p not in params]
    if missing:
        print("  functional check skipped (unbound params: "
              + ", ".join(missing) + ")")
    try:
        if not missing and _verify_squash(prog, nest, args.ds, params,
                                          "  ") is None:
            return 1
        _price_squash(prog, nest, args.ds, args.target)
    except (LegalityError, ScheduleError, VerifyError) as exc:
        print(_rejection(exc), file=sys.stderr)
        return 1
    return 0


def _cmd_squash(args) -> int:
    from repro.analysis import find_kernel_nests
    from repro.errors import LegalityError, ScheduleError, VerifyError
    from repro.hw import normalize
    from repro.ir import program_to_str
    from repro.workloads import benchmark_by_name

    if _knobs_rejected():
        return 2
    bm = benchmark_by_name(args.benchmark)
    prog = bm.build(**(bm.small_kwargs or bm.eval_kwargs))
    nest = find_kernel_nests(prog)[0]
    try:
        res = _verify_squash(prog, nest, args.ds, bm.params, f"{bm.name}: ")
        if res is None:
            return 1
        base, point = _price_squash(prog, nest, args.ds, args.target)
    except (LegalityError, ScheduleError, VerifyError) as exc:
        print(_rejection(exc), file=sys.stderr)
        return 1
    n = normalize(base, point)
    print(f"  speedup {n.speedup:.2f}x, area {n.area_factor:.2f}x, "
          f"efficiency {n.efficiency:.2f}")
    if args.show_code:
        print(program_to_str(res.program))
    return 0


class _Parser(argparse.ArgumentParser):
    """A usage error is one stderr line and exit status 2, without the
    usage dump that ``-h`` prints."""

    def error(self, message: str) -> NoReturn:
        self.exit(2, f"{self.prog}: error: {message} "
                     f"(see {self.prog} -h)\n")


def _count(minimum: int):
    """An argparse ``type`` for an integer flag of at least ``minimum``."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"{text!r} is not an integer") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(
                f"must be >= {minimum}, got {value}")
        return value
    return parse


def _seconds(text: str) -> float:
    """An argparse ``type`` for a duration in seconds (> 0)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"{text!r} is not a number") from None
    if not value > 0:  # also rejects nan
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {text}")
    return value


def build_parser() -> argparse.ArgumentParser:
    p = _Parser(
        prog="repro", description="Unroll-and-squash reproduction CLI")
    sub = p.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks").set_defaults(fn=_cmd_list)

    t = sub.add_parser("tables", help="regenerate thesis tables/figures")
    t.add_argument("which", nargs="*",
                   help="subset: 1.1 6.1 6.2 6.3 fig6.1..fig6.4 fig2.4 "
                        "(default: all)")
    t.add_argument("--factors", type=int, nargs="+", default=[2, 4, 8, 16])
    t.add_argument("--target", default="acev",
                   help="acev | garp | vliw4 | acev::ports=N | "
                        "acev::reg_rows=X | vliw4::mul=2,regs=128")
    t.add_argument("--out", help="write artifacts to this directory")
    t.add_argument("--jobs", type=_count(1), default=None,
                   help="parallel sweep workers (default: cores, capped)")
    t.add_argument("--scheduler", default="",
                   help="scheduling strategy for pipelined variants "
                        "(default: the target's; see repro.hw.schedulers)")
    t.add_argument("--source", action="append", default=None,
                   help="also sweep a .lang source kernel (repeatable)")
    t.add_argument("--trace", metavar="OUT.json", default=None,
                   help="export a Chrome trace_event JSON of the run "
                        "(forces REPRO_TRACE on for the duration)")
    t.set_defaults(fn=_cmd_tables)

    e = sub.add_parser(
        "explore", help="explore a (kernel x variant x factor x target) "
                        "design space")
    e.add_argument("--kernel", action="append", default=None,
                   help="benchmark kernel (repeatable; see `repro list`)")
    e.add_argument("--source", action="append", default=None,
                   help=".lang source kernel file (repeatable; compiled "
                        "through the repro.lang front-end)")
    e.add_argument("--variants", nargs="+",
                   default=["original", "pipelined", "squash", "jam"],
                   choices=["original", "pipelined", "squash", "jam",
                            "jam+squash"])
    e.add_argument("--factors", type=int, nargs="+", default=[2, 4, 8, 16],
                   help="DS factors for squash/jam")
    e.add_argument("--jam-factors", type=int, nargs="+", default=[2],
                   help="J factors for the combined jam+squash variant")
    e.add_argument("--target", action="append", default=None,
                   help="target spec (repeatable): acev | garp | vliw4 | "
                        "acev::ports=N,reg_rows=X,clock=MHz,delay.op=N | "
                        "vliw4::issue=W,alu=N,mul=N,mem=N,regs=R,"
                        "rotating=0|1")
    e.add_argument("--scheduler", action="append", default=None,
                   help="scheduling strategy for pipelined variants "
                        "(repeatable; e.g. modulo, backtrack, exact; "
                        "default: the target's)")
    e.add_argument("--jobs", type=_count(1), default=None,
                   help="parallel workers (default: cores, capped)")
    e.add_argument("--retries", type=_count(0), default=None,
                   help="re-dispatches of a failing batch before "
                        "bisection/quarantine (default: 2)")
    e.add_argument("--timeout", type=_seconds, default=None,
                   help="per-batch wall-clock budget in seconds; "
                        "overrunning batches are presumed hung "
                        "(default: off)")
    e.add_argument("--resume", action="store_true",
                   help="resume an interrupted sweep from the result "
                        "cache (the default behavior; this flag just "
                        "states the intent and rejects --no-cache)")
    e.add_argument("--pareto", action="store_true",
                   help="print the per-kernel Pareto frontier")
    e.add_argument("--best", action="store_true",
                   help="print the best design per kernel")
    e.add_argument("--objective", default="efficiency",
                   choices=["efficiency", "speedup"])
    e.add_argument("--out", help="also write the report to this file")
    e.add_argument("--no-cache", action="store_true",
                   help="bypass the persistent result cache")
    e.add_argument("--cache-dir", default=None,
                   help="root of every persistent cache — results and "
                        "the analysis store — for this run (default: "
                        "$REPRO_CACHE_DIR or .repro_cache)")
    e.add_argument("--clear-cache", action="store_true",
                   help="drop cached results before running")
    e.add_argument("--trace", metavar="OUT.json", default=None,
                   help="export a Chrome trace_event JSON of the sweep "
                        "(forces REPRO_TRACE on for the duration)")
    e.add_argument("--progress", action="store_true",
                   help="live progress line on stderr (designs done, "
                        "rate, ETA; auto-disabled when stdout is not a "
                        "terminal)")
    e.set_defaults(fn=_cmd_explore)

    v = sub.add_parser(
        "verify", help="recompile designs with the independent artifact "
                       "verifiers forced on")
    v.add_argument("--kernel", action="append", default=None,
                   help="benchmark kernel (repeatable; see `repro list`)")
    v.add_argument("--source", action="append", default=None,
                   help=".lang source kernel file (repeatable)")
    v.add_argument("--variants", nargs="+",
                   default=["original", "pipelined", "squash", "jam"],
                   choices=["original", "pipelined", "squash", "jam",
                            "jam+squash"])
    v.add_argument("--factors", type=int, nargs="+", default=[2, 4],
                   help="DS factors for squash/jam")
    v.add_argument("--jam-factors", type=int, nargs="+", default=[2],
                   help="J factors for jam+squash")
    v.add_argument("--target", default="acev",
                   help="target spec (same grammar as explore --target)")
    v.add_argument("--scheduler", action="append", default=None,
                   help="strategy for pipelined variants (repeatable: "
                        "every design is verified once per strategy; "
                        "default: the target's)")
    v.add_argument("--mode", default="strict", choices=["on", "strict"],
                   help="verifier depth (default: strict, including the "
                        "MaxLive/MII/exact-II re-derivations)")
    v.set_defaults(fn=_cmd_verify)

    st = sub.add_parser(
        "stats", help="validate an exported trace and summarize its "
                      "events and metrics")
    st.add_argument("file", nargs="?", default=None,
                    help="a --trace OUT.json export (validated, its events "
                         "summarized, its reproMetrics block rendered)")
    st.add_argument("--knobs", action="store_true",
                    help="print the registered REPRO_* environment-knob "
                         "table instead")
    st.set_defaults(fn=_cmd_stats)

    ln = sub.add_parser(
        "lint", help="statically lint .lang sources (no scheduling)")
    ln.add_argument("files", nargs="+", help=".lang source files")
    ln.add_argument("--strict", action="store_true",
                    help="exit 1 on warnings too, not just errors")
    ln.set_defaults(fn=_cmd_lint)

    pr = sub.add_parser("profile", help="loop profile of one benchmark")
    pr.add_argument("benchmark")
    pr.add_argument("--threshold", type=float, default=0.01)
    pr.set_defaults(fn=_cmd_profile)

    c = sub.add_parser(
        "compile", help="compile a .lang source file through the pipeline")
    c.add_argument("file", help="path to a .lang source file")
    c.add_argument("--ds", type=int, default=4)
    c.add_argument("--target", default="acev")
    c.add_argument("--param", action="append", default=None,
                   metavar="NAME=VALUE",
                   help="bind a kernel parameter (repeatable; enables the "
                        "functional check when all params are bound)")
    c.add_argument("--show-ir", action="store_true",
                   help="print the lowered IR (valid repro.lang source)")
    c.set_defaults(fn=_cmd_compile)

    sq = sub.add_parser("squash", help="squash one kernel and price it")
    sq.add_argument("benchmark")
    sq.add_argument("--ds", type=int, default=4)
    sq.add_argument("--target", default="acev")
    sq.add_argument("--show-code", action="store_true")
    sq.set_defaults(fn=_cmd_squash)
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    raise SystemExit(main())
