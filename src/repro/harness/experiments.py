"""Experiment runners: one function per thesis table/figure.

Each runner computes the experiment's data; ``format_*`` companions turn
it into the printable artifact.  The Table 6.2 synthesis sweep is the
expensive common input of all Chapter 6 artifacts, so it runs through
the exploration engine (:mod:`repro.explore`): design points fan out
over a process pool and land in the persistent on-disk result cache, so
repeated sweeps — across benchmark modules *and* across processes — are
incremental.  A process-local memo preserves the old identity guarantee
(same arguments, same ``VariantSet`` objects); :func:`repro.clear_caches`
resets both layers for hermetic tests.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.analysis.loops import find_kernel_nests
from repro.caches import register_cache
from repro.harness.tables import render_series, render_table, render_timeline
from repro.hw import (
    NormalizedPoint, modulo_schedule, normalize, squash_distances,
)
from repro.nimble import ACEV, VariantSet, decode_target
from repro.workloads import table_1_1_programs, table_6_1_benchmarks

__all__ = [
    "run_table_1_1", "format_table_1_1",
    "run_table_6_1", "format_table_6_1",
    "run_table_6_2", "format_table_6_2",
    "run_table_6_3", "format_table_6_3",
    "figure_series", "format_figure", "run_fig_2_4", "format_fig_2_4",
    "VARIANT_LABELS",
]

VARIANT_LABELS = ("original", "pipelined", "squash(2)", "squash(4)",
                  "squash(8)", "squash(16)", "jam(2)", "jam(4)", "jam(8)",
                  "jam(16)")


# ---------------------------------------------------------------------------
# Table 1.1 — program execution time in loops
# ---------------------------------------------------------------------------

def run_table_1_1(threshold: float = 0.01):
    """Profile the benchmark suite; returns ProfileSummary list."""
    from repro.nimble.profile import profile_summary

    out = []
    for bm in table_1_1_programs():
        prog = bm.build(**bm.eval_kwargs)
        out.append((bm, profile_summary(prog, params=bm.params,
                                        threshold=threshold)))
    return out


def format_table_1_1(results) -> str:
    rows = []
    for bm, s in results:
        rows.append([bm.description, s.n_loops, s.n_hot_loops,
                     f"{s.hot_share:.0%}"])
    return render_table(
        ["Benchmark", "# loops", f"# loops >1% time", "Total % (>1% time)"],
        rows, title="Table 1.1: Program execution time in loops.")


# ---------------------------------------------------------------------------
# Table 6.1 — benchmark descriptions
# ---------------------------------------------------------------------------

def run_table_6_1():
    return table_6_1_benchmarks()


def format_table_6_1(benchmarks) -> str:
    rows = [[bm.name, bm.description] for bm in benchmarks]
    return render_table(["Benchmark", "Description"], rows,
                        title="Table 6.1: Benchmark description.")


# ---------------------------------------------------------------------------
# Table 6.2 — raw II / area / registers (the synthesis sweep)
# ---------------------------------------------------------------------------

#: Process-local memo on top of the persistent cache: same (factors,
#: target, scheduler, kernels) arguments return the *same* VariantSet
#: objects within one process, as the old ``lru_cache`` did.
_SWEEP_MEMO: dict[tuple, dict[str, VariantSet]] = {}


def _sweep(factors: tuple[int, ...], target_spec: str,
           jobs: Optional[int] = None,
           scheduler: str = "",
           kernels: Optional[tuple[str, ...]] = None
           ) -> dict[str, VariantSet]:
    """Run the Table 6.2 sweep through the exploration engine.

    Produces exactly the points ``compile_variants`` would — original,
    pipelined, squash(DS), jam(DS) per kernel, with squash/jam costed
    against the original II — but evaluated in parallel and memoized in
    the persistent result cache.  ``scheduler`` selects the strategy for
    every pipelined variant ("" = the target's default); ``kernels``
    overrides the Table 6.1 suite (benchmark names or ``lang:`` source
    specs).
    """
    from repro.explore import ResultCache, evaluate, table_sweep_space

    if kernels is None:
        kernels = tuple(bm.name for bm in table_6_1_benchmarks())
    space = table_sweep_space(list(kernels), factors, target_spec,
                              scheduler)
    result = evaluate(space.enumerate(), jobs=jobs, cache=ResultCache())
    # On register-file targets (vliw4) deep squash/jam factors
    # legitimately overflow the file — those rejections stay in the
    # sweep as SkipRecords and render as '-' cells, because that *is*
    # the Table 6.2 story for such machines (the baseline
    # original/pipelined designs must still exist for the row group to
    # mean anything).  Spatial targets keep the fail-loud invariant: a
    # skip there is a regression, not a finding.
    register_file = getattr(decode_target(target_spec).library,
                            "register_file", None)
    for skip in result.skips():
        pressure_reject = (register_file is not None
                           and skip.phase == "schedule"
                           and "register pressure" in skip.reason)
        if not pressure_reject or \
                skip.query.variant in ("original", "pipelined"):
            raise RuntimeError(
                f"table sweep design {skip.query.label!r} on "
                f"{skip.query.kernel!r} failed in {skip.phase}: "
                f"{skip.reason}")
    # Quarantined queries are never a finding in a table sweep: the
    # thesis tables need every cell, so an engine-level failure (crash,
    # timeout, unclassified exception) is a hard error here, with the
    # supervisor's provenance in the message.
    for fail in result.fails():
        raise RuntimeError(
            f"table sweep design {fail.query.label!r} on "
            f"{fail.query.kernel!r} was quarantined after "
            f"{fail.attempts} attempt(s) ({fail.kind}): {fail.reason}")
    result.attach_base_ii()

    target = decode_target(target_spec)
    by_kernel: dict[str, dict] = {k: {"squash": {}, "jam": {}}
                                  for k in kernels}
    for q, point in result.pairs():
        slot = by_kernel[q.kernel]
        if q.variant in ("original", "pipelined"):
            slot[q.variant] = point
        else:
            slot[q.variant][q.ds] = point
    return {k: VariantSet(kernel=k, target=target, original=v["original"],
                          pipelined=v["pipelined"], squash=v["squash"],
                          jam=v["jam"])
            for k, v in by_kernel.items()}


def run_table_6_2(factors: Sequence[int] = (2, 4, 8, 16),
                  target_spec: str = "acev",
                  jobs: Optional[int] = None,
                  scheduler: str = "",
                  kernels: Optional[Sequence[str]] = None
                  ) -> dict[str, VariantSet]:
    """The full synthesis sweep (parallel; cached in-process + on disk).

    ``jobs`` only steers how the sweep is *computed*; results are
    identical for any worker count, so the memo is keyed by
    (factors, target, scheduler, kernels) alone and later calls with a
    different ``jobs`` return the memoized sweep.  ``kernels`` replaces
    the default Table 6.1 suite — entries may be registered benchmark
    names or ``lang:<path>#<digest>`` source-kernel specs.
    """
    kernels = tuple(kernels) if kernels is not None else None
    key = (tuple(factors), target_spec, scheduler, kernels)
    if key not in _SWEEP_MEMO:
        _SWEEP_MEMO[key] = _sweep(tuple(factors), target_spec, jobs=jobs,
                                  scheduler=scheduler, kernels=kernels)
    return _SWEEP_MEMO[key]


register_cache(_SWEEP_MEMO.clear)


def _cell(p, fn):
    """One Table 6.2 cell: '-' for designs the compiler rejected (e.g.
    register-file overflow on vliw targets) or absent metrics."""
    from repro.hw.report import DesignPoint
    if not isinstance(p, DesignPoint):
        return "-"
    val = fn(p)
    return "-" if val is None else val


def format_table_6_2(sweep: dict[str, VariantSet]) -> str:
    from repro.hw.report import DesignPoint
    blocks = []
    for kernel, vs in sweep.items():
        pts = vs.all_points()
        rows = [
            ["II (cycles)"] + [_cell(p, lambda q: q.ii) for p in pts],
            ["Area (rows)"] + [_cell(p, lambda q: round(q.area_rows))
                               for p in pts],
            ["Registers"] + [_cell(p, lambda q: q.registers) for p in pts],
        ]
        # register-file targets (vliw) get the pressure row; the spatial
        # ACEV/GARP tables stay byte-identical to the thesis layout
        if any(isinstance(p, DesignPoint) and p.max_live is not None
               for p in pts):
            rows.append(["MaxLive"] + [_cell(p, lambda q: q.max_live)
                                       for p in pts])
        blocks.append(render_table(
            [kernel] + [p.label for p in pts], rows))
    return ("Table 6.2: Raw data - initiation interval (II), area and "
            "register count.\n" + "\n".join(blocks))


# ---------------------------------------------------------------------------
# Table 6.3 — normalized speedup / area / registers / efficiency
# ---------------------------------------------------------------------------

def run_table_6_3(sweep: Optional[dict[str, VariantSet]] = None
                  ) -> dict[str, list[NormalizedPoint]]:
    from repro.hw.report import DesignPoint
    sweep = sweep or run_table_6_2()
    out: dict[str, list[NormalizedPoint]] = {}
    for kernel, vs in sweep.items():
        base = vs.original
        out[kernel] = [normalize(base, p) for p in vs.all_points()
                       if isinstance(p, DesignPoint)]
    return out


def format_table_6_3(norm: dict[str, list[NormalizedPoint]]) -> str:
    blocks = []
    for kernel, pts in norm.items():
        rows = [
            ["Speedup"] + [round(n.speedup, 2) for n in pts],
            ["Area"] + [round(n.area_factor, 2) for n in pts],
            ["Registers"] + [round(n.register_factor, 2) for n in pts],
            ["Speedup/Area"] + [round(n.efficiency, 2) for n in pts],
        ]
        blocks.append(render_table(
            [kernel] + [n.point.label for n in pts], rows))
    return ("Table 6.3: Normalized data - estimated speedup, area, "
            "registers and efficiency (speedup/area).\n" + "\n".join(blocks))


# ---------------------------------------------------------------------------
# Figures 6.1-6.4 — series over the variants
# ---------------------------------------------------------------------------

_FIGS = {
    "6.1": ("Figure 6.1: Speedup factor.", lambda n: n.speedup),
    "6.2": ("Figure 6.2: Area increase factor.", lambda n: n.area_factor),
    "6.3": ("Figure 6.3: Efficiency factor (speedup/area) - higher is "
            "better.", lambda n: n.efficiency),
    "6.4": ("Figure 6.4: Operators as percent of the area.",
            lambda n: 100.0 * n.operator_fraction),
}


def figure_series(fig: str, norm: Optional[dict] = None
                  ) -> tuple[str, list[str], dict[str, list[float]]]:
    """Data for one of Figures 6.1-6.4: (title, labels, kernel -> values).

    Series are aligned by design label (first-seen order) rather than
    by position: on register-file targets some kernels legitimately
    lose factor variants to pressure rejections, and positional zipping
    would silently misattribute the survivors.  Missing designs plot as
    0.0.  On ACEV every kernel carries every label, so the alignment is
    the historical one.
    """
    title, metric = _FIGS[fig]
    norm = norm or run_table_6_3()
    labels: list[str] = []
    for pts in norm.values():
        for n in pts:
            if n.point.label not in labels:
                labels.append(n.point.label)
    series = {kernel: [next((metric(n) for n in pts
                             if n.point.label == lab), 0.0)
                       for lab in labels]
              for kernel, pts in norm.items()}
    return title, labels, series


def format_figure(fig: str, norm: Optional[dict] = None) -> str:
    title, labels, series = figure_series(fig, norm)
    fmt = "{:.1f}" if fig == "6.4" else "{:.2f}"
    return render_series(title, labels, series, fmt=fmt)


# ---------------------------------------------------------------------------
# Figure 2.4 — operator usage over time (jam vs squash)
# ---------------------------------------------------------------------------

def run_fig_2_4(ds: int = 2, horizon: int = 24):
    """Occupancy timelines for the f/g example: jam(ds) vs squash(ds)."""
    from repro.core import analyze_nest
    from repro.hw.simulate import occupancy_timeline
    from repro.transforms.unroll_and_jam import unroll_and_jam
    from repro.analysis.loops import find_loop_nests
    from repro.workloads.simple import build_fg_nest

    prog = build_fg_nest(m=16, n=8)
    nest = find_kernel_nests(prog)[0]
    lib = ACEV.library

    # squash(ds): one operator set, relaxed distances
    _, _, _, dfg_s, sa, _ = analyze_nest(prog, nest, ds, delay_fn=lib.delay)
    edges = squash_distances(dfg_s, sa)
    sched_s = modulo_schedule(dfg_s, lib, edges=edges)
    squash_tl = occupancy_timeline(dfg_s, lib, sched_s, iterations=horizon,
                                   horizon=horizon)

    # jam(ds): duplicated operators
    jammed = unroll_and_jam(prog, nest, ds)
    jnest = next(n for n in find_loop_nests(jammed)
                 if n.outer.step == nest.outer.step * ds)
    _, _, _, dfg_j, _, _ = analyze_nest(jammed, jnest, 1, delay_fn=lib.delay)
    sched_j = modulo_schedule(dfg_j, lib)
    jam_tl = occupancy_timeline(dfg_j, lib, sched_j, iterations=horizon,
                                horizon=horizon)
    return {"jam": (sched_j, jam_tl), "squash": (sched_s, squash_tl)}


def format_fig_2_4(data) -> str:
    out = ["Figure 2.4: Operator usage (digits = iteration in flight, "
           "'.' = idle)."]
    for variant, (sched, tl) in data.items():
        out.append(render_timeline(
            f"  {variant} (II={sched.ii}):", tl))
    return "\n".join(out)
