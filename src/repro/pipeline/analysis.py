"""Shared per-kernel base analysis with a two-tier (memory + disk) cache.

The expensive front half of :func:`repro.core.squash.analyze_nest` —
legality liveness, program clone, three-address lowering, SSA renaming,
and DFG construction — does not depend on the squash factor DS, the
operator library, or the scheduler.  Yet the pre-pipeline compiler
re-ran it for every variant of a sweep: once for ``original``, once for
``pipelined``, and once per squash factor.  This module computes it once
per (program, nest) and shares the result across all variants; only the
genuinely per-variant steps (the DS legality check, stage assignment,
register chains, the relaxed edge view) are recomputed.

Two tiers:

* **memory** — a bounded identity-keyed LRU holding strong references to
  its (program, nest) keys, so an ``id`` can never be recycled by a
  different live program;
* **disk** — a content-hash-keyed pickle store under
  ``<cache dir>/analysis/<code_version>/`` (:mod:`repro.store`), so
  ``ProcessPoolExecutor`` workers and repeated ``repro explore`` runs
  share one front-end analysis per kernel nest instead of redoing it in
  every process.  The key hashes the printed program (plus local types
  and kernel annotations) and the nest's position, and the directory is
  partitioned by :func:`~repro.explore.cache.code_version`, so edits to
  any source invalidate stale artifacts automatically.

The per-DS legality checks (:func:`repro.core.legality.check_squash`)
ride the same two tiers — they are recomputed per (variant, target,
scheduler) crossing otherwise.

Jam analyses are derived, not stored: jam(F) for F > 2 renames copy 1
of the jam(2) analysis once per extra copy and appends the copies to
the base analysis (:mod:`repro.core.jamdfg`).  Deriving them is cheaper
than unpickling them, so they live in the memory tier only.

Set ``REPRO_ANALYSIS_CACHE=0`` to bypass sharing entirely (the benchmark
ablation baseline), ``REPRO_ANALYSIS_CACHE=mem`` to keep the in-process
tier only, and :func:`repro.clear_caches` drops both tiers between runs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.loops import LoopNest, all_loops
from repro.analysis.ssa import SSABlock
from repro.caches import PinningLRU, register_cache
from repro.core.dfg import DFG
from repro.core.legality import PreparedSquash, SquashCheck, check_squash, \
    classify_squash, prepare_squash
from repro.core.stages import assign_stages, default_delay, register_chains
from repro.core.squash import analyze_front, analyze_nest
from repro.env import analysis_cache_mode
from repro.errors import ReproError
from repro.hw.mii import squash_distances
from repro.ir.nodes import Program
from repro.obs import metrics as obs_metrics
from repro.pipeline.artifacts import AnalyzedDFG
from repro.store import analysis_store
from repro.transforms.unroll_and_jam import unroll_and_jam

__all__ = ["AnalysisCache", "BaseAnalysis", "analysis_cache",
           "base_analyzed_dfg", "content_key", "jam_analyzed_dfg",
           "squash_analyzed_dfg"]


@dataclass
class BaseAnalysis:
    """The DS-independent analysis product of one kernel nest.

    When the ds=1 legality check fails the artifacts are ``None`` and
    only ``check1`` is populated (the failure is cached too, so repeated
    variants of an illegal nest fail fast).
    """

    check1: SquashCheck
    work: Optional[Program] = None
    w_nest: Optional[LoopNest] = None
    ssa: Optional[SSABlock] = None
    dfg: Optional[DFG] = None
    carried: Optional[set[str]] = None
    invariant: Optional[set[str]] = None


def _build_base(program: Program, nest: LoopNest,
                check: Optional[SquashCheck] = None) -> BaseAnalysis:
    """analyze_nest's front half, without raising on legality failure."""
    if check is None:
        check = check_squash(program, nest, 1)
    if not check.ok:
        return BaseAnalysis(check1=check)
    live = check.require_liveness()
    work, w_nest, ssa, dfg, carried, invariant = \
        analyze_front(program, nest, live)
    return BaseAnalysis(check1=check, work=work, w_nest=w_nest, ssa=ssa,
                        dfg=dfg, carried=carried, invariant=invariant)


def content_key(program: Program, nest: LoopNest) -> Optional[str]:
    """Stable cross-process identity of one (program, nest) pair.

    Hashes the printed program (statements, declarations, types) plus
    the data the printer omits — local scalar types and per-loop kernel
    annotations — and the nest's pre-order position among the program's
    loops.  Returns ``None`` when the nest is not part of the program
    (then there is no meaningful shared identity to key on).
    """
    from repro.ir.printer import program_to_str

    loops = all_loops(program)
    outer_ix = inner_ix = None
    for i, loop in enumerate(loops):
        if loop is nest.outer:
            outer_ix = i
        if loop is nest.inner:
            inner_ix = i
    if outer_ix is None or inner_ix is None:
        return None
    h = hashlib.sha256()
    h.update(program_to_str(program).encode())
    h.update(repr(sorted((n, str(t)) for n, t in
                         program.locals.items())).encode())
    h.update(repr([bool(getattr(l, "kernel", False))
                   for l in loops]).encode())
    h.update(f"|nest:{outer_ix}:{inner_ix}".encode())
    return h.hexdigest()[:32]


class AnalysisCache:
    """Two-tier cache of :class:`BaseAnalysis` and per-DS legality checks.

    The memory tier is a :class:`repro.caches.PinningLRU` keyed by object
    identity (entries pin their (program, nest) keys alive, making the
    ``id``-based key collision-free for the entry's lifetime); the disk
    tier is the content-addressed :func:`repro.store.analysis_store`.
    """

    def __init__(self, maxsize: int = 64):
        self._lru = PinningLRU(maxsize)
        self._preps = PinningLRU(maxsize)
        self._jams = PinningLRU(maxsize)
        self._keys = PinningLRU(maxsize * 4)

    def __len__(self) -> int:
        return len(self._lru)

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    def _content_key(self, program: Program, nest: LoopNest
                     ) -> Optional[str]:
        key = (id(program), id(nest.outer), id(nest.inner))
        memo = self._keys.get(key)
        if memo is None:
            memo = self._keys.put(key, (program, nest),
                                  (content_key(program, nest),))
        return memo[0]

    def prep_for(self, program: Program, nest: LoopNest) -> PreparedSquash:
        """The DS-independent legality analysis, through both tiers."""
        key = (id(program), id(nest.outer), id(nest.inner))
        prep = self._preps.get(key)
        if prep is not None:
            return prep
        disk = analysis_store() if analysis_cache_mode() == "disk" else None
        ckey = self._content_key(program, nest) if disk is not None else None
        if ckey is not None:
            prep = disk.get(f"prep-{ckey}")
            if isinstance(prep, PreparedSquash):
                return self._preps.put(key, (program, nest), prep)
        prep = self._preps.put(key, (program, nest),
                               prepare_squash(program, nest))
        if ckey is not None:
            disk.put(f"prep-{ckey}", prep)
        return prep

    def get_or_build(self, program: Program, nest: LoopNest) -> BaseAnalysis:
        key = (id(program), id(nest.outer), id(nest.inner))
        base = self._lru.get(key)
        if base is not None:
            return base
        disk = analysis_store() if analysis_cache_mode() == "disk" else None
        ckey = self._content_key(program, nest) if disk is not None else None
        if ckey is not None:
            base = disk.get(f"base-{ckey}")
            if isinstance(base, BaseAnalysis):
                return self._lru.put(key, (program, nest), base)
        check1 = classify_squash(self.prep_for(program, nest), 1)
        base = self._lru.put(key, (program, nest),
                             _build_base(program, nest, check=check1))
        if ckey is not None:
            # the disk artifact drops the cloned work program: no cached
            # consumer reads it (only ssa/dfg/carried/invariant/check1),
            # and the DFG/SSA pickle already carries the 3AC statements
            # they reference — the slim form loads 3-4x faster
            import dataclasses
            disk.put(f"base-{ckey}",
                     dataclasses.replace(base, work=None, w_nest=None))
        return base

    def check_for(self, program: Program, nest: LoopNest,
                  ds: int) -> SquashCheck:
        """The per-DS legality check: cached preparation + cheap
        classification (identical to a from-scratch ``check_squash``)."""
        return classify_squash(self.prep_for(program, nest), ds)

    def jam_base_for(self, program: Program, nest: LoopNest,
                     factor: int) -> BaseAnalysis:
        """The analysis of ``nest``'s fused inner loop after unroll-and-jam
        by ``factor``, memoized in the memory tier only.

        The jam legality checks run first, the same checks in the same
        order with the same messages as the program-level route; a hit
        skips them (the entry exists only because they passed).  Then,
        with F the factor clamped to the outer trip count:

        * F = 1: the base analysis;
        * F = 2: the program-level analysis (:func:`_program_jam`), which
          is also the template whose copy 1 replication renames;
        * F > 2: :func:`repro.core.jamdfg.replicate` over the base and
          the template.

        Inputs the renames cannot cover take the program-level route at
        every F: the ones :func:`repro.core.jamdfg.replicable` rejects,
        and nests whose base DS=1 check fails (the reasons must come from
        the fused nest).  Fused-nest base-legality failures are memoized
        like results; jam-level rejections raise and are never stored.
        """
        from repro.core.jamdfg import check_jam, replicable, replicate

        key = (id(program), id(nest.outer), id(nest.inner), factor)
        jam = self._jams.get(key)
        if jam is not None:
            return jam
        trip = check_jam(program, nest, factor)
        clamped = 1 if factor == 1 else min(factor, trip)
        if not replicable(program, nest) or clamped in (0, 2):
            # a trip-0 nest stays untransformed: re-location raises
            jam = _program_jam(program, nest, factor)
        elif clamped == 1:
            jam = self.get_or_build(program, nest)
        else:
            base = self.get_or_build(program, nest)
            jam = replicate(program, nest, base,
                            self._jam_template(program, nest), clamped) \
                if base.check1.ok else None
            if jam is None:
                jam = _program_jam(program, nest, factor)
        return self._jams.put(key, (program, nest), jam)

    def _jam_template(self, program: Program,
                      nest: LoopNest) -> BaseAnalysis:
        """jam(2), the replication template, as the factor-2 entry.

        Stored without running the jam(2) legality checks: every caller
        passed them for a larger factor, and the data-set window of
        factor 2 lies inside that factor's.
        """
        key = (id(program), id(nest.outer), id(nest.inner), 2)
        template = self._jams.get(key)
        if template is None:
            template = self._jams.put(key, (program, nest),
                                      _program_jam(program, nest, 2))
        return template

    def clear(self) -> None:
        self._lru.clear()
        self._preps.clear()
        self._jams.clear()
        self._keys.clear()


#: The process-wide instance every CompilationPipeline shares by default.
_CACHE = AnalysisCache()
register_cache(_CACHE.clear)


def analysis_cache() -> AnalysisCache:
    return _CACHE


def _program_jam(program: Program, nest: LoopNest,
                 factor: int) -> BaseAnalysis:
    """jam(``factor``) by the program-level route: unroll-and-jam the whole
    program, re-locate the fused nest, run the base builder over it.

    The jam legality checks must already have passed.
    """
    from repro.core.jamdfg import find_jammed_nest

    jammed = unroll_and_jam(program, nest, factor, check=False)
    return _build_base(jammed, find_jammed_nest(jammed, nest, factor))


@obs_metrics.registry().collect
def _analysis_collector() -> dict:
    """Expose the shared cache's memory-tier counters to the registry."""
    return {"analysis_mem_hits": _CACHE.hits,
            "analysis_mem_misses": _CACHE.misses}


def _sharing_enabled() -> bool:
    return analysis_cache_mode() != "off"


def _base(program: Program, nest: LoopNest,
          cache: Optional[AnalysisCache]) -> BaseAnalysis:
    if cache is not None and _sharing_enabled():
        return cache.get_or_build(program, nest)
    return _build_base(program, nest)


def _check(program: Program, nest: LoopNest, ds: int,
           cache: Optional[AnalysisCache]) -> SquashCheck:
    if cache is not None and _sharing_enabled():
        return cache.check_for(program, nest, ds)
    return check_squash(program, nest, ds)


def _analyzed(base: BaseAnalysis, what: str) -> AnalyzedDFG:
    base.check1.raise_if_failed()
    if base.dfg is None or base.ssa is None:
        raise ReproError(
            f"{what} passed legality but carries no DFG/SSA — "
            "stale or corrupted analysis-cache entry")
    return AnalyzedDFG(dfg=base.dfg, ssa=base.ssa, check=base.check1)


def base_analyzed_dfg(program: Program, nest: LoopNest,
                      cache: Optional[AnalysisCache] = None) -> AnalyzedDFG:
    """The untransformed inner loop's DFG (original/pipelined/jam).

    Raises :class:`~repro.errors.LegalityError` exactly where the old
    per-variant ``analyze_nest(..., ds=1)`` did.
    """
    return _analyzed(_base(program, nest, cache), "base analysis")


def jam_analyzed_dfg(program: Program, nest: LoopNest, factor: int,
                     cache: Optional[AnalysisCache] = None) -> AnalyzedDFG:
    """The fused inner loop's DFG after unroll-and-jam by ``factor``.

    ``program``/``nest`` are the *untransformed* kernel; the jammed
    program is never built unless the program-level route applies
    (:meth:`AnalysisCache.jam_base_for`).  Without sharing, every factor
    takes the program-level route.  Raises the same
    :class:`~repro.errors.LegalityError`s, with the same messages, as
    the transform-then-analyze route.
    """
    from repro.core.jamdfg import check_jam

    if cache is not None and _sharing_enabled():
        jam = cache.jam_base_for(program, nest, factor)
    else:
        check_jam(program, nest, factor)
        jam = _program_jam(program, nest, factor)
    return _analyzed(jam, "jam analysis")


def squash_analyzed_dfg(program: Program, nest: LoopNest, ds: int,
                        delay_fn: Optional[Callable] = None,
                        cache: Optional[AnalysisCache] = None) -> AnalyzedDFG:
    """The DS-staged DFG of a squash design: shared graph + per-DS cut.

    Runs the per-DS legality check first (so DS-specific rejections
    surface exactly as before), then layers stage assignment, register
    chains, and the stage-relaxed edge view over the shared base graph.
    """
    check = _check(program, nest, ds, cache)
    check.raise_if_failed()
    base = _base(program, nest, cache)
    if base.dfg is None:
        # ds=1 legality failed but ds-specific legality passed: fall back
        # to the uncached full analysis, exactly as the old path behaved.
        _, w_nest, ssa, dfg, sa, check = analyze_nest(program, nest, ds,
                                                      delay_fn=delay_fn)
        live = check.require_liveness()
        carried = {x for x in live.carried if x in ssa.entry}
        invariant = {x for x in ssa.entry
                     if x not in carried and x != w_nest.inner.var}
    else:
        ssa, dfg = base.ssa, base.dfg
        carried, invariant = base.carried, base.invariant
        sa = assign_stages(dfg, ds, delay_fn or default_delay)
    live = check.require_liveness()
    chains = register_chains(dfg, sa, carried, invariant,
                             live.live_out, ssa.exit)
    edges = squash_distances(dfg, sa)
    return AnalyzedDFG(dfg=dfg, ssa=ssa, check=check, stages=sa,
                       chains=chains, edges=edges)
