"""Shared per-kernel base analysis, memoized in memory and on disk.

The expensive front half of :func:`repro.core.squash.analyze_nest` —
legality liveness, program clone, three-address lowering, SSA renaming,
and DFG construction — does not depend on the squash factor DS, the
operator library, or the scheduler.  Yet the pre-pipeline compiler
re-ran it for every variant of a sweep: once for ``original``, once for
``pipelined``, and once per squash factor.  This module computes it once
per (program, nest) and shares the result across all variants; only the
genuinely per-variant steps (the DS legality check, stage assignment,
register chains, the relaxed edge view) are recomputed.

:class:`AnalysisCache` keeps the base analyses and the DS-independent
legality preparations (:func:`repro.core.legality.prepare_squash`) in
two-tier :class:`repro.caches.Memo` instances keyed by
:func:`content_key` — a hash of the printed program (plus local types
and kernel annotations) and the nest's position.  Their disk tier is
:func:`repro.store.analysis_store`, so ``ProcessPoolExecutor`` workers
and repeated ``repro explore`` runs share one front-end analysis per
kernel nest instead of redoing it in every process.  The directory is
partitioned by :func:`~repro.explore.cache.code_version`, so edits to
any source invalidate stale artifacts automatically.

A base is stored without its DFG: the graph is a pure function of the
SSA block and the nest's liveness, rebuilt in milliseconds, while its
pickle was most of the artifact's bytes.  :class:`BaseAnalysis` owns
that stored form (the DS=1 check and the SSA block), and a base read
back from disk gets its ``dfg``, ``carried`` and ``invariant`` from the
one builder, :func:`repro.core.squash.front_dfg`, before any caller
sees it; memory-tier entries are always full.

Jam analyses are derived, not stored: jam(F) for F > 2 renames copy 1
of the jam(2) analysis once per extra copy and appends the copies to
the base analysis (:mod:`repro.core.jamdfg`).  Deriving them is cheaper
than unpickling them, so they live in memory only, for one batch.

Squash analyses — the per-DS stage assignment, register chains and
relaxed edge view layered over the base graph — live in memory only
too, keyed by (program, nest, DS, delay function).  Every scheduler of
a squash or jam+squash design therefore gets the *same*
:class:`~repro.pipeline.artifacts.AnalyzedDFG`, and through its object
identity the same II-search context (:data:`repro.hw.modulo._CTX`):
``modulo`` and ``backtrack`` share one scheduling problem, one MII pair and
every topological placement.  The engine's batches keep each
(kernel, variant) group together, so a design's schedulers normally
meet in one batch, and both memos are per kernel: the worker drops them
at each kernel boundary inside a batch and when its batch lands
(:func:`repro.caches.release_batch`), while base analyses, preparations
and content keys stay for the worker's later batches.

Set ``REPRO_ANALYSIS_CACHE=0`` to bypass sharing entirely (the reference
route the parity tests compare against); :func:`repro.clear_caches`
drops the memory tier (and, unless ``memory_only``, the disk tier).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Optional

from repro.analysis.loops import LoopNest, all_loops
from repro.analysis.ssa import SSABlock
from repro.caches import Memo
from repro.core.dfg import DFG
from repro.core.legality import PreparedSquash, SquashCheck, check_squash, \
    classify_squash, nest_liveness, prepare_squash
from repro.core.stages import assign_stages, default_delay, register_chains
from repro.core.squash import analyze_front, analyze_nest, front_dfg
from repro.env import analysis_cache_enabled
from repro.errors import ReproError
from repro.hw.mii import squash_distances
from repro.ir.nodes import Program
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

    A pickle holds the stored form, ``check1`` and ``ssa``; unpickled,
    ``dfg``, ``carried`` and ``invariant`` are ``None`` until
    :meth:`rebuild` derives them again.
    """

    check1: SquashCheck
    ssa: Optional[SSABlock] = None
    dfg: Optional[DFG] = None
    carried: Optional[set[str]] = None
    invariant: Optional[set[str]] = None

    def __getstate__(self) -> dict:
        return {"check1": self.check1, "ssa": self.ssa}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state, dfg=None, carried=None, invariant=None)

    def rebuild(self, program: Program, nest: LoopNest) -> "BaseAnalysis":
        """Derive the DFG and live-in split of a stored form in place,
        from ``nest`` of ``program``, the pair it was analyzed from; a
        full or failed base is returned as it is."""
        if self.ssa is not None and self.dfg is None:
            self.dfg, self.carried, self.invariant = front_dfg(
                self.ssa, self.check1.require_liveness(), nest.inner,
                program)
        return self


def _build_base(program: Program, nest: LoopNest,
                prep: Optional[PreparedSquash] = None) -> BaseAnalysis:
    """analyze_nest's front half, without raising on legality failure.

    With ``prep``, the DS=1 check classifies it but carries the liveness
    computed from ``program`` (:func:`~repro.core.legality.nest_liveness`):
    a prep read back from the disk tier holds its own copies of the name
    strings, which the base's pickle would write a second time, so the
    stored base would depend on where its prep came from.
    """
    if prep is None:
        check = check_squash(program, nest, 1)
    else:
        check = classify_squash(prep, 1)
        check.liveness = nest_liveness(nest)
    if not check.ok:
        return BaseAnalysis(check1=check)
    live = check.require_liveness()
    _, _, ssa, dfg, carried, invariant = analyze_front(program, nest, live)
    return BaseAnalysis(check1=check, ssa=ssa, dfg=dfg, carried=carried,
                        invariant=invariant)


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
    """The front-end memos every variant of a kernel nest shares.

    Base analyses and legality preparations live in two-tier memos keyed
    by :func:`content_key`, with :func:`repro.store.analysis_store` as
    their disk tier.  The map from a (program, nest) pair to its content
    key and the jam and squash analyses are memory-only identity memos
    pinning their (program, nest) keys; the jam and squash analyses are
    per batch (:func:`repro.caches.release_batch`).
    """

    def __init__(self, maxsize: int = 64):
        store = analysis_store()
        self._bases = Memo("analysis", maxsize, store)
        self._preps = Memo("prep", maxsize, store)
        self._jams = Memo("jam_analysis", maxsize, per_batch=True)
        self._squashes = Memo("squash_analysis", maxsize, per_batch=True)
        self._keys = Memo("content_key", maxsize * 4)

    def __len__(self) -> int:
        return len(self._bases)

    def _shared(self, memo: Memo, family: str, program: Program,
                nest: LoopNest, compute: Callable):
        """``memo``'s entry for (program, nest) under ``family-<key>``;
        a nest outside its program has no content key and no entry."""
        ckey = self._keys.get((id(program), id(nest.outer), id(nest.inner)),
                              lambda: content_key(program, nest),
                              (program, nest))
        if ckey is None:
            return compute()
        return memo.get(f"{family}-{ckey}", compute)

    def prep_for(self, program: Program, nest: LoopNest) -> PreparedSquash:
        """The DS-independent legality analysis, through both tiers."""
        return self._shared(self._preps, "prep", program, nest,
                            lambda: prepare_squash(program, nest))

    def get_or_build(self, program: Program, nest: LoopNest) -> BaseAnalysis:
        """The base analysis, through both tiers; one read back from
        disk is rebuilt in place, so the memory tier keeps it full."""
        return self._shared(
            self._bases, "base", program, nest,
            lambda: _build_base(program, nest,
                                self.prep_for(program, nest))
        ).rebuild(program, nest)

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
        return self._jams.get(
            (id(program), id(nest.outer), id(nest.inner), factor),
            lambda: self._derive_jam(program, nest, factor), (program, nest))

    def _derive_jam(self, program: Program, nest: LoopNest,
                    factor: int) -> BaseAnalysis:
        from repro.core.jamdfg import check_jam, replicable, replicate

        trip = check_jam(program, nest, factor)
        clamped = 1 if factor == 1 else min(factor, trip)
        if not replicable(program, nest) or clamped in (0, 2):
            # a trip-0 nest stays untransformed: re-location raises
            return _program_jam(program, nest, factor)
        base = self.get_or_build(program, nest)
        if clamped == 1:
            return base
        jam = replicate(program, nest, base,
                        self._jam_template(program, nest), clamped) \
            if base.check1.ok else None
        return jam if jam is not None else _program_jam(program, nest, factor)

    def squash_for(self, program: Program, nest: LoopNest, ds: int,
                   delay_fn: Optional[Callable]) -> AnalyzedDFG:
        """The DS-staged analysis of ``nest`` under ``delay_fn``,
        memoized in the memory tier only.

        A library's bound ``delay`` compares by the library's identity,
        so the key is (program, nest, DS, operator library) and the
        entry pins all of them.  Legality rejections raise and are never
        stored.
        """
        return self._squashes.get(
            (id(program), id(nest.outer), id(nest.inner), ds, delay_fn),
            lambda: _squash_analysis(program, nest, ds, delay_fn, self),
            (program, nest, delay_fn))

    def _jam_template(self, program: Program,
                      nest: LoopNest) -> BaseAnalysis:
        """jam(2), the replication template, as the factor-2 entry.

        Stored without running the jam(2) legality checks: every caller
        passed them for a larger factor, and the data-set window of
        factor 2 lies inside that factor's.
        """
        return self._jams.get(
            (id(program), id(nest.outer), id(nest.inner), 2),
            lambda: _program_jam(program, nest, 2), (program, nest))


#: The process-wide instance every CompilationPipeline shares by default.
_CACHE = AnalysisCache()


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


def _base(program: Program, nest: LoopNest,
          cache: Optional[AnalysisCache]) -> BaseAnalysis:
    if cache is not None and analysis_cache_enabled():
        return cache.get_or_build(program, nest)
    return _build_base(program, nest)


def _check(program: Program, nest: LoopNest, ds: int,
           cache: Optional[AnalysisCache]) -> SquashCheck:
    if cache is not None and analysis_cache_enabled():
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

    if cache is not None and analysis_cache_enabled():
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
    With sharing on, a repeated (program, nest, DS, delay function)
    returns the first call's object (:meth:`AnalysisCache.squash_for`).
    """
    if cache is not None and analysis_cache_enabled():
        return cache.squash_for(program, nest, ds, delay_fn)
    return _squash_analysis(program, nest, ds, delay_fn, cache)


def _squash_analysis(program: Program, nest: LoopNest, ds: int,
                     delay_fn: Optional[Callable],
                     cache: Optional[AnalysisCache]) -> AnalyzedDFG:
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
