"""The traced pass: one ``repro explore`` run, in this process, with spans.

Usage::

    python3 perfbench/traced.py OUT.json explore <repro explore arguments>

Imports the CLI, wraps the public entry points of each layer with spans
(:mod:`spans`), runs ``repro.cli.main`` in-process and writes the span
self times, the benchmark's own tallies, the metrics-registry counter
deltas and the command's output to ``OUT.json``.  The parent times this
process from spawn to exit and turns the report into per-layer metrics
with :func:`layer_metrics`.
"""

from __future__ import annotations

import time

T_ENTER = time.perf_counter()

import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import sys  # noqa: E402

from spans import Recorder, self_times, wrap_function, wrap_method  # noqa: E402

#: Spans whose self times partition the traced wall (with the remainder
#: reported as ``unattributed_s``), in report order.
LAYERS = ("cli.import", "cli.main", "workloads.build", "lang.compile",
          "explore.dispatch", "explore.cache.load", "explore.cache.get",
          "explore.cache.put", "pipeline.compile", "analysis.base",
          "analysis.squash", "analysis.jam", "hw.schedule", "vliw.pressure",
          "hw.simulate", "store.get", "store.put", "report.format")

#: Per-layer metrics and their units, in report order.
METRICS = tuple((f"{name}_s", "s") for name in LAYERS) + (
    ("lang.kernels", "count"),
    ("analysis.calls", "count"),
    ("analysis.dfg_nodes", "count"),
    ("analysis.dfg_edges", "count"),
    ("analysis.legality_rejects", "count"),
    ("hw.schedule_calls", "count"),
    ("hw.ii_candidates", "count"),
    ("hw.ii_memo_skips", "count"),
    ("hw.repair_rounds", "count"),
    ("hw.ii_accept_ratio", "ratio"),
    ("hw.iimemo_hit_ratio", "ratio"),
    ("vliw.ii_bumps", "count"),
    ("vliw.pressure_rejects", "count"),
    ("vliw.wasted_schedule_share", "ratio"),
    ("store.hit_ratio", "ratio"),
    ("store.bytes_written", "bytes"),
    ("explore.cache.hit_ratio", "ratio"),
    ("explore.cache.bytes_written", "bytes"),
    ("explore.evaluate_s", "s"),
    ("explore.overhead_s", "s"),
    ("explore.batches", "count"),
    ("explore.retries", "count"),
    ("obs.traced_wall_s", "s"),
    ("obs.trace_overhead_s", "s"),
    ("unattributed_s", "s"),
)


def _observe_analysis(rec: Recorder):
    from repro.errors import LegalityError

    def observe(args, kwargs, result, exc, idx):
        rec.add("analysis.calls")
        if isinstance(exc, LegalityError):
            rec.add("analysis.legality_rejects")
        elif result is not None:
            rec.add("analysis.dfg_nodes", len(result.dfg.nodes))
            rec.add("analysis.dfg_edges", len(result.dfg.edges))
    return observe


def _observe_schedule(rec: Recorder, pipelined: bool):
    def observe(args, kwargs, result, exc, idx):
        if kwargs.get("min_ii") is not None:
            rec.add("vliw.ii_bumps")
        if pipelined and exc is None:
            rec.add("hw.pipelined_schedules")
    return observe


def _observe_compile(rec: Recorder):
    from repro.explore.space import SkipRecord

    def observe(args, kwargs, result, exc, idx):
        if isinstance(result, SkipRecord) and result.phase == "schedule":
            # scheduled, then rejected: the schedule time bought nothing
            rec.add("hw.wasted_schedule_s",
                    rec.descendant_time(idx, "hw.schedule"))
            if "register pressure" in result.reason:
                rec.add("vliw.pressure_rejects")
    return observe


def install(rec: Recorder) -> None:
    """Wrap every layer's public entry points with spans."""
    import dataclasses

    import repro.explore.cache as cache_mod
    import repro.explore.engine as engine
    import repro.explore.report as report
    import repro.hw.simulate as simulate
    import repro.lang as lang
    import repro.nimble.compiler as compiler
    import repro.pipeline.analysis as analysis
    import repro.store as store
    import repro.vliw.pressure as pressure
    import repro.workloads as workloads
    from repro.hw.schedulers import available_schedulers, scheduler_by_name

    orig_by_name = workloads.benchmark_by_name

    def by_name(name):
        bm = orig_by_name(name)
        build = bm.build

        def spanned_build(*args, **kwargs):
            with rec.span("workloads.build"):
                return build(*args, **kwargs)
        return dataclasses.replace(bm, build=spanned_build)

    workloads.benchmark_by_name = by_name

    wrap_function(lang, "compile_source", "lang.compile", rec)
    for kind in ("base", "squash", "jam"):
        wrap_function(analysis, f"{kind}_analyzed_dfg", f"analysis.{kind}",
                      rec, _observe_analysis(rec))
    for name in available_schedulers():
        strategy = scheduler_by_name(name)
        wrap_method(type(strategy), "schedule", "hw.schedule", rec,
                    _observe_schedule(rec, strategy.pipelined))
    wrap_function(pressure, "register_pressure", "vliw.pressure", rec)
    for fn in ("simulate_modulo", "simulate_sequential"):
        wrap_function(simulate, fn, "hw.simulate", rec)
    wrap_method(store.ArtifactStore, "get", "store.get", rec)
    wrap_method(store.ArtifactStore, "put", "store.put", rec)

    load = cache_mod.ResultCache._load

    def spanned_load(self):
        if self._index is not None:  # already loaded: a dict lookup
            return load(self)
        with rec.span("explore.cache.load"):
            return load(self)
    cache_mod.ResultCache._load = spanned_load
    wrap_method(cache_mod.ResultCache, "get", "explore.cache.get", rec)
    wrap_method(cache_mod.ResultCache, "put", "explore.cache.put", rec)

    wrap_function(engine, "evaluate", "explore.dispatch", rec)
    wrap_function(compiler, "compile_query", "pipeline.compile", rec,
                  _observe_compile(rec))
    for fn in ("format_summary", "format_pareto", "format_best",
               "format_skips", "format_fails"):
        wrap_function(report, fn, "report.format", rec)


def main(argv: "list[str]") -> int:
    out_path, cli_argv = pathlib.Path(argv[0]), argv[1:]
    rec = Recorder()
    with rec.span("cli.import"):
        import repro.cli
        import repro.explore  # noqa: F401
        import repro.lang  # noqa: F401
        import repro.vliw.pressure  # noqa: F401
        from repro.obs import metrics
    install(rec)
    before = metrics.registry().counter_values()
    buf = io.StringIO()
    with rec.span("cli.main"), contextlib.redirect_stdout(buf):
        rc = repro.cli.main(cli_argv)
    after = metrics.registry().counter_values()
    report = {
        "t_enter": T_ENTER,
        "layers": self_times(rec.spans),
        "counts": rec.counts,
        "registry": {k: v - before.get(k, 0) for k, v in after.items()},
        "returncode": rc,
        "stdout": buf.getvalue(),
    }
    out_path.write_text(json.dumps(report))
    return rc


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(report: dict, t_spawn: float, wall_s: float,
                  untraced_wall_s: float, store_bytes: int,
                  cache_bytes: int) -> "dict[str, float]":
    """Per-layer metrics from one traced report.

    ``t_spawn``/``wall_s`` are the parent's monotonic spawn time and the
    traced process's spawn-to-exit wall; ``untraced_wall_s`` is the same
    run without spans.  Interpreter start (spawn to the first line of
    this script) is charged to ``cli.import``.
    """
    layers, counts, reg = report["layers"], report["counts"], \
        report["registry"]

    def self_s(name):
        return layers.get(name, {}).get("self", 0.0)

    def total_s(name):
        return layers.get(name, {}).get("total", 0.0)

    def calls(name):
        return layers.get(name, {}).get("calls", 0)

    m = {f"{name}_s": self_s(name) for name in LAYERS}
    m["cli.import_s"] += report["t_enter"] - t_spawn
    m["unattributed_s"] = wall_s - sum(m[f"{name}_s"] for name in LAYERS)

    disk_hits = reg.get("analysis_disk_hits", 0) + \
        reg.get("iimemo_disk_hits", 0)
    disk_misses = reg.get("analysis_disk_misses", 0) + \
        reg.get("iimemo_disk_misses", 0)
    memo_lookups = reg.get("iimemo_mem_hits", 0) + \
        reg.get("iimemo_mem_misses", 0)
    hits, misses = reg.get("explore.cache.hits", 0), \
        reg.get("explore.cache.misses", 0)
    attempts = reg.get("sched.ii_attempts", 0)
    m.update({
        "lang.kernels": calls("lang.compile"),
        "analysis.calls": counts.get("analysis.calls", 0),
        "analysis.dfg_nodes": counts.get("analysis.dfg_nodes", 0),
        "analysis.dfg_edges": counts.get("analysis.dfg_edges", 0),
        "analysis.legality_rejects":
            counts.get("analysis.legality_rejects", 0),
        "hw.schedule_calls": calls("hw.schedule"),
        "hw.ii_candidates": attempts,
        "hw.ii_memo_skips": reg.get("sched.ii_memo_skips", 0),
        # one placement attempt per repair round, in either scheduler core
        "hw.repair_rounds": reg.get("sched_kernel_numpy_attempts", 0)
        + reg.get("sched_kernel_python_attempts", 0),
        "hw.ii_accept_ratio":
            _ratio(counts.get("hw.pipelined_schedules", 0), attempts),
        "hw.iimemo_hit_ratio": _ratio(
            reg.get("iimemo_mem_hits", 0) + reg.get("iimemo_disk_hits", 0),
            memo_lookups),
        "vliw.ii_bumps": counts.get("vliw.ii_bumps", 0),
        "vliw.pressure_rejects": counts.get("vliw.pressure_rejects", 0),
        "vliw.wasted_schedule_share": _ratio(
            counts.get("hw.wasted_schedule_s", 0.0), total_s("hw.schedule")),
        "store.hit_ratio": _ratio(disk_hits, disk_hits + disk_misses),
        "store.bytes_written": store_bytes,
        "explore.cache.hit_ratio": _ratio(hits, hits + misses),
        "explore.cache.bytes_written": cache_bytes,
        "explore.evaluate_s": total_s("explore.dispatch"),
        "explore.overhead_s":
            total_s("explore.dispatch") - total_s("pipeline.compile"),
        "explore.batches": reg.get("supervise.batches", 0),
        "explore.retries": reg.get("supervise.retries", 0),
        "obs.traced_wall_s": wall_s,
        "obs.trace_overhead_s": wall_s - untraced_wall_s,
    })
    return m


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
