"""Rendering for exploration runs: Pareto tables, rankings, skip lists.

Built on the same fixed-width helpers (:mod:`repro.harness.tables`) as
the thesis artifacts, so exploration output is diffable alongside the
reproduced tables.
"""

from __future__ import annotations

import re

from repro.explore.engine import ExploreResult
from repro.explore.pareto import best_designs, pareto_queries
from repro.harness.tables import render_table
from repro.hw.report import DesignPoint, normalize

__all__ = ["format_best", "format_cache_stats", "format_fails",
           "format_pareto", "format_skips", "format_summary"]


def _group_title(key: tuple[str, str]) -> str:
    kernel, target = key
    return f"{kernel} @ {target}"


def format_summary(result: ExploreResult) -> str:
    """One-line run summary plus the cache counters."""
    n_pts, n_skip = len(result.points()), len(result.skips())
    n_fail = len(result.fails())
    kernels = {q.kernel for q in result.queries}
    counts = f"{n_pts} evaluated, {n_skip} skipped"
    if n_fail:
        counts += f", {n_fail} failed (quarantined)"
    return (f"explored {len(result.queries)} designs over "
            f"{len(kernels)} kernel(s) with {result.jobs} job(s): "
            f"{counts}\n"
            f"{format_cache_stats(result)}")


def format_cache_stats(result: ExploreResult) -> str:
    return f"cache: {result.cache_stats.describe()}"


def _gap_cell(point: DesignPoint) -> str:
    """Render the optimality gap: ``ii - exact_ii`` (0 = certified
    optimal), or ``-`` when no exact/MII certificate covers the design."""
    gap = point.optimality_gap
    return "-" if gap is None else str(gap)


def format_pareto(result: ExploreResult) -> str:
    """Per-kernel Pareto frontier over (II, area, registers).

    The ``gap`` column reports each design's optimality gap against the
    exact scheduler's certified II (or the RecMII/ResMII bound when the
    heuristic already meets it); ``-`` means the optimum is unknown for
    that design — run the sweep with ``--scheduler exact`` to pin it.
    On register-file targets (:mod:`repro.vliw`) a ``live`` column adds
    the schedule's MaxLive against the file capacity; spatial-target
    reports keep their historical layout.
    """
    result.attach_base_ii()
    result.attach_exact_ii()
    bases: dict[tuple[str, str], DesignPoint] = {}
    for q, r in result.pairs():
        if q.variant == "original" and isinstance(r, DesignPoint):
            bases[(q.kernel, q.target_spec)] = r
    blocks = []
    for key, pairs in pareto_queries(result).items():
        all_pts = [r for q, r in result.pairs()
                   if isinstance(r, DesignPoint)
                   and (q.kernel, q.target_spec) == key]
        # per group, not per run: in a mixed acev+vliw sweep the
        # spatial groups keep their historical (diffable) layout
        has_live = any(p.max_live is not None for p in all_pts)
        base = bases.get(key)
        rows = []
        for q, p in sorted(pairs, key=lambda qp: (qp[1].ii,
                                                  qp[1].area_rows)):
            speedup = (f"{normalize(base, p).speedup:.2f}"
                       if base is not None else "-")
            row = [q.label, p.ii, _gap_cell(p), round(p.area_rows),
                   p.registers]
            if has_live:
                row.append("-" if p.max_live is None
                           else f"{p.max_live}/{p.reg_capacity}")
            rows.append(row + [speedup])
        dominated = len(all_pts) - len(pairs)
        headers = ["design", "II", "gap", "area", "regs"]
        if has_live:
            headers.append("live")
        blocks.append(render_table(
            headers + ["speedup"], rows,
            title=f"{_group_title(key)} — Pareto frontier "
                  f"({len(pairs)} of {len(all_pts)} designs; "
                  f"{dominated} dominated)"))
    if not blocks:
        return "Pareto frontier: no evaluable designs.\n"
    return ("Pareto frontier over (II, area rows, registers) — "
            "all minimized.\n" + "\n".join(blocks))


def format_best(result: ExploreResult, objective: str = "efficiency") -> str:
    """The winning design per (kernel, target) under ``objective``."""
    ranked = best_designs(result, objective)
    rows = []
    for key, norms in ranked.items():
        win = norms[0]
        rows.append([_group_title(key), win.point.label,
                     f"{win.speedup:.2f}", f"{win.area_factor:.2f}",
                     f"{win.efficiency:.2f}"])
    if not rows:
        return "best designs: none (no original baseline evaluated)\n"
    return render_table(
        ["kernel", "best design", "speedup", "area", "efficiency"], rows,
        title=f"Best designs by {objective} (baseline: original).")


#: The provenance prefix compilation errors carry
#: (``kernel/label [target=..., scheduler=...]: ``), which repeats the
#: table's kernel and design columns.
_PROVENANCE = re.compile(r"^.*? \[target=[^\]]*\]: ")


def format_skips(result: ExploreResult) -> str:
    """The compiler's rejections, one row each.

    The ``reason`` column drops the error's provenance prefix, so its
    60 characters go to *why* the design was rejected (the cached
    :class:`~repro.explore.space.SkipRecord` keeps the full text).
    """
    skips = result.skips()
    if not skips:
        return ""
    rows = [[s.query.kernel, s.label, s.phase,
             _PROVENANCE.sub("", s.reason, count=1)[:60]]
            for s in skips]
    return render_table(["kernel", "design", "phase", "reason"], rows,
                        title=f"Skipped designs ({len(skips)}).")


def format_fails(result: ExploreResult) -> str:
    """The quarantine table: every query the engine gave up evaluating.

    Unlike skips (the compiler's verdict on the design), fails carry the
    supervisor's provenance — failure kind, total dispatch attempts, and
    wall-clock burned — and are never cached, so a re-run retries them.
    """
    fails = result.fails()
    if not fails:
        return ""
    rows = [[f.query.kernel, f.label, f.kind, f.attempts,
             f"{f.elapsed:.2f}s", f.reason[:60]]
            for f in fails]
    return render_table(
        ["kernel", "design", "kind", "attempts", "elapsed", "reason"],
        rows, title=f"Quarantined designs ({len(fails)}) — "
                    "not cached; a re-run retries them.")
