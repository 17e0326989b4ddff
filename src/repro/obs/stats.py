"""Human-readable summaries of traces and metrics (``repro stats``).

Renders three things from the same inputs:

* :func:`format_stats` — per-stage/per-kernel duration percentiles,
  per-memo, per-tier cache hit rates and LRU evictions, scheduler
  attempt counts, and supervision tallies
  from a metrics snapshot (live registry or the ``reproMetrics`` block
  embedded in an exported trace);
* :func:`summarize_events` — per-category/per-name event counts and
  total span time from a ``traceEvents`` list (``repro stats FILE``
  prints it above the metrics summary);
* :func:`format_knobs` — the registered environment-knob table from
  :data:`repro.env.KNOBS` (``repro stats --knobs``), the same source of
  truth the README renders.

Everything is plain text tables; no dependencies beyond stdlib.
"""

from __future__ import annotations

import re
from typing import Optional

from repro.env import KNOBS
from repro.obs.metrics import percentile

__all__ = ["format_knobs", "format_stats", "summarize_events"]


def _fmt_s(seconds: Optional[float]) -> str:
    if seconds is None:
        return "-"
    if seconds >= 1.0:
        return f"{seconds:.2f}s"
    return f"{seconds * 1e3:.1f}ms"


def _table(headers: "list[str]", rows: "list[list[str]]") -> "list[str]":
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    def line(cells: "list[str]") -> str:
        return "  ".join(c.ljust(w) for c, w in zip(cells, widths)).rstrip()
    out = [line(headers), line(["-" * w for w in widths])]
    out.extend(line(row) for row in rows)
    return out


def _hist_rows(histograms: dict, prefix: str) -> "list[list[str]]":
    rows = []
    for name in sorted(histograms):
        if not name.startswith(prefix):
            continue
        h = histograms[name]
        samples = h.get("samples", [])
        count = h.get("count", 0)
        total = h.get("sum", 0.0)
        rows.append([
            name[len(prefix):],
            str(count),
            _fmt_s(total),
            _fmt_s(total / count if count else None),
            _fmt_s(percentile(samples, 50)),
            _fmt_s(percentile(samples, 90)),
            _fmt_s(h.get("max")),
        ])
    return rows


def _rate(hits: int, misses: int) -> str:
    total = hits + misses
    if not total:
        return "-"
    return f"{100.0 * hits / total:.1f}%"


#: A memo tier's counter: ``<memo>_{mem,disk}_{hits,misses}``, and
#: ``<memo>_mem_evictions`` for the entries its LRU bound dropped.
_TIER_COUNTER = re.compile(r"(.+)_(mem|disk)_(hits|misses|evictions)")
_TIER_KINDS = ("hits", "misses", "evictions")


def _cache_rows(counters: dict) -> "list[list[str]]":
    """One row per memo tier with traffic (memory before disk), then
    the result cache; a memory tier's row counts its evictions."""
    tiers: dict[tuple[str, bool], list[int]] = {}
    for name, val in counters.items():
        match = _TIER_COUNTER.fullmatch(name)
        if match:
            memo, tier, kind = match.groups()
            tiers.setdefault((memo, tier == "disk"),
                             [0, 0, 0])[_TIER_KINDS.index(kind)] += val
    rows = [(f"{memo} ({'disk' if disk else 'mem'})", hits, misses,
             "-" if disk else str(evicted))
            for (memo, disk), (hits, misses, evicted)
            in sorted(tiers.items())]
    rows.append(("results", counters.get("explore.cache.hits", 0),
                 counters.get("explore.cache.misses", 0), "-"))
    return [[label, str(hits), str(misses), _rate(hits, misses), evicted]
            for label, hits, misses, evicted in rows if hits or misses]


def format_stats(snapshot: dict) -> str:
    """Render a metrics snapshot as the ``repro stats`` summary."""
    counters = snapshot.get("counters", {})
    histograms = snapshot.get("histograms", {})
    lines: list[str] = []

    stage_rows = _hist_rows(histograms, "stage.")
    if stage_rows:
        lines.append("Pipeline stages")
        lines.extend(_table(
            ["stage", "calls", "total", "mean", "p50", "p90", "max"],
            stage_rows))
        lines.append("")

    kernel_rows = _hist_rows(histograms, "kernel.")
    if kernel_rows:
        lines.append("Per-kernel compile time")
        lines.extend(_table(
            ["kernel", "flows", "total", "mean", "p50", "p90", "max"],
            kernel_rows))
        lines.append("")

    cache_rows = _cache_rows(counters)
    if cache_rows:
        lines.append("Caches")
        lines.extend(_table(["cache", "hits", "misses", "hit rate",
                             "evicted"], cache_rows))
        lines.append("")

    sched_keys = [
        ("II candidates tried", "sched.ii_attempts"),
        # one placement pass per repair round (the scheduler core's counter)
        ("repair rounds", "sched_kernel_numpy_attempts"),
        ("exact search nodes", "sched.exact_nodes"),
        ("designs replayed", "sched.replays"),
    ]
    sched_rows = [[label, str(counters[key])]
                  for label, key in sched_keys if counters.get(key)]
    if sched_rows:
        lines.append("Scheduler search effort")
        lines.extend(_table(["metric", "count"], sched_rows))
        lines.append("")

    sup_keys = [
        ("batch dispatches", "supervise.dispatches"),
        ("batches completed", "supervise.batches"),
        ("designs completed", "supervise.designs"),
        ("retries", "supervise.retries"),
        ("bisections", "supervise.bisects"),
        ("quarantined", "supervise.quarantined"),
        ("worker crashes", "supervise.crashes"),
        ("worker exceptions", "supervise.exceptions"),
        ("pool respawns", "supervise.respawns"),
        ("batch timeouts", "supervise.timeouts"),
        ("injected faults seen", "faults.injected"),
    ]
    sup_rows = [[label, str(counters[key])]
                for label, key in sup_keys if counters.get(key)]
    if sup_rows:
        lines.append("Supervision")
        lines.extend(_table(["event", "count"], sup_rows))
        lines.append("")

    if not lines:
        lines.append("no recorded metrics (was the run traced or "
                     "instrumented?)")
    return "\n".join(lines).rstrip() + "\n"


def summarize_events(events: "list[dict]") -> str:
    """Per-(cat, name) counts and span time for ``repro stats``."""
    agg: dict[tuple[str, str], list] = {}
    pids = set()
    for ev in events:
        ph = ev.get("ph")
        if ph == "M":
            continue
        pids.add(ev.get("pid"))
        key = (str(ev.get("cat", "?")), str(ev.get("name", "?")))
        rec = agg.setdefault(key, [0, 0.0])
        rec[0] += 1
        if ph == "X":
            rec[1] += ev.get("dur", 0) / 1e6
    rows = [[cat, name, str(n), _fmt_s(total) if total else "-"]
            for (cat, name), (n, total) in sorted(agg.items())]
    lines = [f"{sum(r[0] for r in agg.values())} events "
             f"from {len(pids)} process(es)", ""]
    if rows:
        lines.extend(_table(["cat", "name", "count", "span time"], rows))
    return "\n".join(lines).rstrip() + "\n"


def format_knobs() -> str:
    """The registered-knob table (``repro stats --knobs``)."""
    rows = [[k.name, k.values, k.default, k.summary] for k in KNOBS]
    return "\n".join(_table(["variable", "values", "default", "effect"],
                            rows)) + "\n"
