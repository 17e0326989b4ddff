"""The sweep performance benchmark behind ``repro bench``.

Measures the Table 6.2 + 6.3 hot path in several phases and emits one
standardized JSON record (``BENCH_<n>.json``) so every PR has a
wall-clock trajectory to regress against:

* **cold** — every cache empty (in-process, artifact stores, result
  cache): the full front-end + schedule-search + validation cost;
* **warm_result** — immediate re-run: every query must come back from
  the persistent result cache (hit rate 1.0);
* **warm_recompile** — in-process tiers dropped and the result cache
  cleared, but the on-disk artifact stores (base analyses, prepared
  legality, jammed programs, II-search certificates) kept: the cost a
  *new worker process* pays in an ongoing sweep, which PR 3 paid at
  full cold price;
* **vliw_retarget** — the same kernels swept again on the ``vliw4``
  backend with warm front-end caches: the *marginal* cost of pointing
  an analyzed suite at a second machine model (schedule search +
  register-pressure II bumps only — the base analysis is
  target-independent and shared).

Each phase records wall-clock, result-cache counters, and the
metrics-registry delta around its ``evaluate`` (the registry
``repro stats`` renders; workers' deltas merge into it with every
batch): per-stage wall time and every counter — shared two-tier cache
hits and misses, scheduler effort, supervision.  When the sweep ran at
``factors=(2,)`` the formatted Table 6.2/6.3 text is byte-compared
against the golden fixtures under ``tests/data/`` — the CI bench-smoke
job fails only on that drift, never on timing noise.
"""

from __future__ import annotations

import pathlib
import time
from typing import Optional, Sequence

__all__ = ["format_bench", "run_sweep_bench"]

#: Schema marker so future PRs can evolve the record without guessing.
#: 2 = added the ``vliw_retarget`` phase and its ``vliw_target`` field.
#: 3 = golden tables checked on every run (f2 slice), added the
#: ``sched_hotpath`` phase (schedule-only numpy-vs-python A/B) and the
#: ``sched_kernel`` provenance field.
#: 4 = added the ``verify_overhead`` phase: the warm-recompile sweep
#: re-run with ``REPRO_VERIFY=1``, recording the verifier wall-time
#: delta (``overhead_s``) and asserting verified results are identical.
#: 5 = added the ``resilience`` phase: the factors=(2,) subspace swept
#: fault-free under the supervised engine, then under injected worker
#: crashes and torn cache/store writes, asserting byte-identical
#: results and recording the supervision counters and overhead.
#: 6 = added the ``trace_overhead`` phase: the warm-recompile sweep
#: re-run with ``REPRO_TRACE=full``, recording the tracing wall-time
#: delta (``overhead_s``) and merged event count, asserting traced
#: results are identical and the merged stream is a valid Chrome trace.
#: 7 = one scheduler core: dropped the ``sched_hotpath`` phase and the
#: ``sched_kernel`` field; each phase's ``stages_s`` and ``counters``
#: (was ``cache_counters``) come from the metrics-registry delta.
#: 8 = dropped the ``dfg_jam`` field: the jam analysis route it recorded
#: is no longer a knob (jam(F) is derived by replication,
#: :mod:`repro.core.jamdfg`).
SCHEMA = 8


def _golden_dir() -> pathlib.Path:
    return pathlib.Path(__file__).resolve().parents[3] / "tests" / "data"


def _phase(queries, jobs) -> dict:
    from repro.explore import ResultCache, evaluate
    from repro.obs import metrics as obs_metrics

    registry = obs_metrics.registry()
    before = registry.snapshot()
    t0 = time.perf_counter()
    result = evaluate(queries, jobs=jobs, cache=ResultCache())
    wall = time.perf_counter() - t0
    delta = registry.delta_since(before)
    stats = result.cache_stats
    record = {
        "wall_s": round(wall, 4),
        "result_cache": {"hits": stats.hits, "misses": stats.misses,
                         "stores": stats.stores,
                         "hit_rate": round(stats.hit_rate, 4)},
        "stages_s": {name[len("stage."):]: round(h["sum"], 4)
                     for name, h in sorted(delta["histograms"].items())
                     if name.startswith("stage.")},
        "counters": dict(sorted(delta["counters"].items())),
    }
    return record, result


def _resilience_phase(kernels: Sequence[str], target_spec: str,
                      scheduler: str, jobs: int) -> dict:
    """Chaos A/B: the supervised engine under injected faults.

    Sweeps the factors=(2,) subspace three times — fault-free, under
    worker crashes (``crash@worker``), and with every cache/store
    publish torn — asserting **byte-identical results** each time and
    recording the supervision counters, so every BENCH record proves
    the fault-tolerance machinery still converges and shows what the
    recovery cost.  ``jobs`` is forced to at least 2: supervision means
    a real pool with real worker deaths.
    """
    import os
    import tempfile

    from repro.caches import clear_caches
    from repro.env import RETRIES_ENV
    from repro.explore import (
        NullCache, ResultCache, evaluate, table_sweep_space,
    )
    from repro.faults import FAULTS_ENV, FAULTS_SEED_ENV

    queries = table_sweep_space(kernels, (2,), target_spec,
                                scheduler).enumerate()
    jobs = max(2, jobs)
    phase: dict = {"designs": len(queries), "jobs": jobs}
    saved = {k: os.environ.get(k)
             for k in (FAULTS_ENV, FAULTS_SEED_ENV, RETRIES_ENV)}
    try:
        os.environ.pop(FAULTS_ENV, None)
        clear_caches(memory_only=True)
        t0 = time.perf_counter()
        clean = evaluate(queries, jobs=jobs, cache=NullCache())
        phase["fault_free_s"] = round(time.perf_counter() - t0, 4)

        os.environ[FAULTS_SEED_ENV] = "7"
        # generous budget: with p=0.25 per query-attempt a quarantine
        # needs ~40 consecutive unlucky coins — if one ever shows up,
        # that is a supervision bug, and the equality check fails loud
        os.environ[RETRIES_ENV] = "40"
        profiles = {
            "crash_chaos": "crash@worker:0.25",
            "torn_chaos": "torn@cache:1.0,torn@store:1.0",
        }
        with tempfile.TemporaryDirectory() as tdir:
            for label, spec in profiles.items():
                os.environ[FAULTS_ENV] = spec
                clear_caches(memory_only=True)
                cache = ResultCache(directory=tdir) \
                    if "torn" in spec else NullCache()
                t0 = time.perf_counter()
                chaos = evaluate(queries, jobs=jobs, cache=cache)
                wall = round(time.perf_counter() - t0, 4)
                if chaos.fails():  # pragma: no cover - supervision bug
                    first = chaos.fails()[0]
                    raise RuntimeError(
                        f"resilience phase quarantined "
                        f"{first.query.label!r} under {spec} "
                        f"({first.kind}: {first.reason})")
                if chaos.results != clean.results:  # pragma: no cover
                    raise RuntimeError(
                        f"resilience phase diverged under {spec} — "
                        "fault recovery changed sweep results")
                phase[label] = {
                    "faults": spec, "wall_s": wall,
                    "overhead_s": round(wall - phase["fault_free_s"], 4),
                    "supervision": chaos.supervision,
                    "torn_writes": cache.stats.torn
                    if isinstance(cache, ResultCache) else 0,
                }
    finally:
        for k, v in saved.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return phase


def run_sweep_bench(factors: Sequence[int] = (2, 4, 8, 16),
                    target_spec: str = "acev",
                    jobs: Optional[int] = None,
                    scheduler: str = "",
                    baseline: Optional[dict] = None,
                    golden_dir: "pathlib.Path | str | None" = None,
                    vliw_spec: Optional[str] = "vliw4") -> dict:
    """Run the sweep benchmark phases; returns the JSON record.

    ``vliw_spec`` selects the second-backend retarget phase (``None``
    disables it; it is also skipped when ``target_spec`` already names
    that backend).
    """
    import os

    from repro.caches import clear_caches
    from repro.explore import ResultCache, default_jobs, table_sweep_space
    from repro.harness.experiments import (
        format_table_6_2, format_table_6_3, run_table_6_3,
    )
    from repro.nimble import VariantSet, decode_target
    from repro.workloads import table_6_1_benchmarks

    kernels = [bm.name for bm in table_6_1_benchmarks()]
    space = table_sweep_space(kernels, tuple(factors), target_spec,
                              scheduler)
    queries = space.enumerate()
    jobs = default_jobs(len(queries)) if jobs is None else max(1, jobs)

    clear_caches()  # cold means cold: memory, artifact stores, results
    cold, cold_result = _phase(queries, jobs)
    warm_result, _ = _phase(queries, jobs)
    # a fresh worker against populated artifact stores: drop the
    # in-process tiers and the result cache, keep the on-disk artifacts
    clear_caches(memory_only=True)
    ResultCache().clear()
    warm_recompile, recompile_result = _phase(queries, jobs)

    if cold_result.results != recompile_result.results:  # pragma: no cover
        raise RuntimeError("warm recompile produced different results "
                           "than the cold sweep — cache corruption")

    # the same fresh-worker sweep again with REPRO_VERIFY=on: both legs
    # run the schedule re-verifier (the validate stage), so the wall-time
    # delta against warm_recompile is the tax of the structural checks
    # alone, and the results must be byte-identical (checkers only observe)
    from repro.env import VERIFY_ENV
    clear_caches(memory_only=True)
    ResultCache().clear()
    saved_verify = os.environ.get(VERIFY_ENV)
    os.environ[VERIFY_ENV] = "1"
    try:
        verify_overhead, verify_result = _phase(queries, jobs)
    finally:
        if saved_verify is None:
            os.environ.pop(VERIFY_ENV, None)
        else:
            os.environ[VERIFY_ENV] = saved_verify
    if verify_result.results != recompile_result.results:  # pragma: no cover
        raise RuntimeError("the artifact verifiers changed sweep results "
                           "— REPRO_VERIFY must be observation-only")
    verify_overhead["mode"] = "on"
    verify_overhead["overhead_s"] = round(
        verify_overhead["wall_s"] - warm_recompile["wall_s"], 4)

    # and once more with the span tracer in full mode: the delta
    # against warm_recompile is the tracing tax, the results must be
    # byte-identical (the tracer only observes), and the merged
    # supervisor+worker event stream must be a valid Chrome trace
    from repro.env import TRACE_ENV
    from repro.obs import trace as obs_trace
    clear_caches(memory_only=True)
    ResultCache().clear()
    saved_trace = os.environ.get(TRACE_ENV)
    os.environ[TRACE_ENV] = "full"
    obs_trace.drain()  # earlier phases' events are not this phase's
    try:
        trace_overhead, trace_result = _phase(queries, jobs)
    finally:
        if saved_trace is None:
            os.environ.pop(TRACE_ENV, None)
        else:
            os.environ[TRACE_ENV] = saved_trace
    events = obs_trace.drain()
    if trace_result.results != recompile_result.results:  # pragma: no cover
        raise RuntimeError("the span tracer changed sweep results — "
                           "REPRO_TRACE must be observation-only")
    problems = obs_trace.validate_trace(obs_trace.trace_header(events))
    if problems:  # pragma: no cover - exporter bug
        raise RuntimeError("trace_overhead produced an invalid trace: "
                           + "; ".join(problems[:5]))
    trace_overhead["mode"] = "full"
    trace_overhead["events"] = len(events)
    trace_overhead["overhead_s"] = round(
        trace_overhead["wall_s"] - warm_recompile["wall_s"], 4)

    phases = {"cold": cold, "warm_result": warm_result,
              "warm_recompile": warm_recompile,
              "verify_overhead": verify_overhead,
              "trace_overhead": trace_overhead}
    if vliw_spec and not target_spec.startswith(vliw_spec.split("::")[0]):
        # second backend, warm front-end: the result cache misses (the
        # target participates in the query hash) but the shared base
        # analyses/jam transforms hit, so this isolates the per-backend
        # schedule-search + register-pressure cost
        vliw_space = table_sweep_space(kernels, tuple(factors), vliw_spec,
                                       scheduler)
        phases["vliw_retarget"], vliw_result = _phase(
            vliw_space.enumerate(), jobs)
        phases["vliw_retarget"]["skipped_designs"] = \
            len(vliw_result.skips())

    # chaos A/B: prove the supervised engine converges to identical
    # results under injected crashes and torn writes, and price it
    phases["resilience"] = _resilience_phase(kernels, target_spec,
                                             scheduler, jobs)

    record = {
        "bench": "table_6_2_6_3_sweep",
        "schema": SCHEMA,
        "factors": list(factors),
        "target": target_spec,
        "vliw_target": vliw_spec,
        "scheduler": scheduler,
        "queries": len(queries),
        "jobs": jobs,
        "cores": os.cpu_count(),
        "phases": phases,
    }

    # --- golden drift guard (byte-level, never timing) -----------------
    # every factor set containing 2 can be byte-checked: the f2 column
    # slice of the cold sweep is exactly what a factors=(2,) run formats
    golden = {"checked": False, "ok": None, "detail": ""}
    gdir = pathlib.Path(golden_dir) if golden_dir else _golden_dir()
    if 2 in factors and target_spec == "acev" and not scheduler:
        g62 = gdir / "golden_table_6_2_f2.txt"
        g63 = gdir / "golden_table_6_3_f2.txt"
        if g62.is_file() and g63.is_file():
            cold_result.attach_base_ii()
            target = decode_target(target_spec)
            by_kernel: dict[str, dict] = {k: {"squash": {}, "jam": {}}
                                          for k in kernels}
            for q, point in cold_result.pairs():
                slot = by_kernel[q.kernel]
                if q.variant in ("original", "pipelined"):
                    slot[q.variant] = point
                elif q.ds == 2:
                    slot[q.variant][q.ds] = point
            sweep = {k: VariantSet(kernel=k, target=target,
                                   original=v["original"],
                                   pipelined=v["pipelined"],
                                   squash=v["squash"], jam=v["jam"])
                     for k, v in by_kernel.items()}
            golden["checked"] = True
            golden["ok"] = True
            if format_table_6_2(sweep) != g62.read_text():
                golden["ok"] = False
                golden["detail"] = "table 6.2 output drifted from golden"
            elif format_table_6_3(run_table_6_3(sweep)) != g63.read_text():
                golden["ok"] = False
                golden["detail"] = "table 6.3 output drifted from golden"
    record["golden"] = golden

    if baseline:
        record["baseline"] = baseline
        speedups = {}
        cold_base = baseline.get("cold_wall_s")
        if cold_base:
            speedups["cold"] = round(cold_base / cold["wall_s"], 2)
            # PR 3 had no cross-process artifact sharing: a fresh worker
            # paid the full cold price, so recompile compares to cold
            speedups["warm_recompile"] = \
                round(cold_base / warm_recompile["wall_s"], 2)
        warm_base = baseline.get("warm_result_wall_s")
        # both sides of the result-cache phase sit at the I/O noise
        # floor; a ratio of two ~1ms readings is meaningless, so only
        # report it when both are measurably above it
        if warm_base and warm_base > 0.01 and \
                warm_result["wall_s"] > 0.01:
            speedups["warm_result"] = \
                round(warm_base / warm_result["wall_s"], 2)
        record["speedup_vs_baseline"] = speedups
    return record


def format_bench(record: dict) -> str:
    """Human summary of one benchmark record."""
    lines = [f"sweep bench: {record['queries']} designs, "
             f"factors={record['factors']}, jobs={record['jobs']} "
             f"(cores={record['cores']})"]
    for name, phase in record["phases"].items():
        if "fault_free_s" in phase:       # the resilience chaos A/B phase
            lines.append(f"  {name:<15} fault-free "
                         f"{phase['fault_free_s']:.3f}s over "
                         f"{phase['designs']} designs")
            for label in ("crash_chaos", "torn_chaos"):
                sub = phase.get(label)
                if not sub:
                    continue
                sup = sub.get("supervision", {})
                lines.append(
                    f"    {label:<13} {sub['wall_s']:7.3f}s "
                    f"({sub['overhead_s']:+.3f}s)  "
                    f"retries={sup.get('retries', 0)} "
                    f"respawns={sup.get('respawns', 0)} "
                    f"torn={sub.get('torn_writes', 0)} — identical "
                    "results")
            continue
        rc = phase["result_cache"]
        stages = ", ".join(f"{k}={v:.2f}s"
                           for k, v in phase["stages_s"].items())
        lines.append(f"  {name:<15} {phase['wall_s']:7.3f}s  "
                     f"result-cache {rc['hit_rate']:.0%} hit"
                     + (f"  [{stages}]" if stages else "")
                     + (f"  ({phase['skipped_designs']} designs rejected)"
                        if phase.get("skipped_designs") else "")
                     + ((f"  (tracing tax {phase['overhead_s']:+.3f}s, "
                         f"{phase['events']} events)"
                         if "events" in phase else
                         f"  (verifier tax {phase['overhead_s']:+.3f}s)")
                        if "overhead_s" in phase else ""))
    golden = record.get("golden", {})
    if golden.get("checked"):
        lines.append("  golden tables:  "
                     + ("byte-identical" if golden["ok"]
                        else f"DRIFTED — {golden['detail']}"))
    for key, val in record.get("speedup_vs_baseline", {}).items():
        lines.append(f"  speedup vs baseline [{key}]: {val}x")
    return "\n".join(lines)
