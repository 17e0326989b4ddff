"""Unroll-and-squash legality (thesis §4.1–4.2).

Requirements checked, in the thesis's order:

1. the unroll factor is sensible and the outer loop can be tiled in
   blocks of DS iterations (constant trip count; remainders are peeled);
2. tiled outer iterations are parallel (scalar + array dependence test,
   §4.2 Cases 1/2/3) — delegated to
   :func:`repro.analysis.parallel.check_outer_parallel`;
3. the inner loop comprises a **single basic block**.  The ``.lang``
   front end if-converts the ``#pragma kernel`` loops
   (:func:`repro.lang.lower.compile_unit`), so a branch left there holds
   a store, a loop or a division; programs built in Python call
   :func:`repro.transforms.ifconvert.if_convert` themselves;
4. the inner loop has a **constant iteration count across outer
   iterations** (constant bounds independent of the outer IV and of
   anything the outer body writes), and executes at least once
   ("the control-flow always passes through the inner loop").
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.loops import LoopNest, trip_count
from repro.analysis.parallel import ParallelismReport
from repro.analysis.ssa import is_straightline
from repro.analysis.usedef import LoopLiveness, loop_liveness, uses_of_expr
from repro.errors import LegalityError, ReproError
from repro.ir.nodes import Program
from repro.ir.visitors import variables_read, variables_written

__all__ = ["PreparedSquash", "SquashCheck", "check_squash",
           "classify_squash", "prepare_squash"]


@dataclass
class SquashCheck:
    """Outcome of the squash legality analysis."""

    ok: bool = True
    reasons: list[str] = field(default_factory=list)
    parallelism: ParallelismReport | None = None
    liveness: LoopLiveness | None = None
    outer_trip: int | None = None
    inner_trip: int | None = None

    def fail(self, reason: str) -> None:
        self.ok = False
        self.reasons.append(reason)

    def raise_if_failed(self) -> None:
        if not self.ok:
            raise LegalityError("unroll-and-squash rejected: "
                                + "; ".join(self.reasons), self.reasons)

    def require_liveness(self) -> LoopLiveness:
        """The recorded liveness summary; a passing check always has one.

        A passing check without it is a corrupted or hand-built artifact
        (e.g. a stale analysis-cache entry), reported as a
        :class:`~repro.errors.ReproError` instead of an ``assert`` so the
        failure survives ``python -O`` and names its cause.
        """
        if self.liveness is None:
            raise ReproError(
                "legality check passed but recorded no liveness summary "
                "— stale or hand-built SquashCheck artifact")
        return self.liveness


@dataclass
class PreparedSquash:
    """The DS-independent 9/10ths of the legality analysis.

    Everything :func:`check_squash` computes except the §4.2 distance
    *classification* — trip counts, basic-block shape, bound
    dependences, liveness, the scalar-parallelism verdict, and every
    array dependence pair with its (DS-independent) distance set — so a
    sweep over many DS factors, targets, and schedulers analyzes the
    nest once and re-classifies per DS in microseconds.  The shared
    analysis cache stores it in each nest's base analysis (see
    :class:`repro.pipeline.analysis.BaseAnalysis`); its pickle holds
    ``scalar_conflicts`` as a sorted list, as
    :class:`~repro.analysis.usedef.LoopLiveness` does its sets, so the
    stored bytes do not depend on the string-hash seed.
    """

    outer_trip: int | None
    inner_trip: int | None
    #: §4.1 structural failures (reason strings, in check order)
    base_failures: list[str]
    liveness: LoopLiveness
    #: scalar-parallelism outcome (None until base checks pass)
    scalar_conflicts: set[str] | None = None
    #: (a1, a2, distance set, formatted distance, is output dep), in the
    #: exact order check_outer_parallel enumerates pairs
    pairs: list[tuple] | None = None

    def __getstate__(self) -> dict:
        conflicts = self.scalar_conflicts
        return {**self.__dict__, "scalar_conflicts":
                None if conflicts is None else sorted(conflicts)}

    def __setstate__(self, state: dict) -> None:
        conflicts = state["scalar_conflicts"]
        self.__dict__.update(state, scalar_conflicts=None
                             if conflicts is None else set(conflicts))


def prepare_squash(program: Program, nest: LoopNest) -> PreparedSquash:
    """Run every DS-independent part of the §4.1 requirement list.

    The array-dependence pairs are the O(accesses²) half.  No pair can
    classify as a Case-3 hazard at DS=1 (``squash_case(dist, 1)`` tests
    the ±0 window *excluding zero*, an empty range), which is one reason
    the jam replication (:mod:`repro.core.jamdfg`) can derive a jammed
    nest's DS=1 check from the base's without preparing the fused nest.
    """
    from repro.analysis.dependence import collect_accesses, outer_distance
    from repro.analysis.parallel import _fmt
    from itertools import combinations

    failures: list[str] = []
    outer_trip = trip_count(nest.outer)
    inner_trip = trip_count(nest.inner)
    if outer_trip is None:
        failures.append("outer loop trip count must be a compile-time "
                        "constant (needed for tiling in blocks of DS)")
    if inner_trip is None:
        failures.append("inner loop trip count must be a compile-time "
                        "constant")
    elif inner_trip < 1:
        failures.append("inner loop must execute at least once "
                        "(control flow always passes through it)")

    if not is_straightline(nest.inner.body):
        failures.append("inner loop body must be a single basic block, "
                        "but it holds a loop or a branch (the .lang front "
                        "end if-converts branches that only assign scalars "
                        "and do not divide, §4.2; call "
                        "repro.transforms.ifconvert.if_convert for programs "
                        "built in Python)")

    bound_reads = uses_of_expr(nest.inner.lo) | uses_of_expr(nest.inner.hi)
    if nest.outer.var in bound_reads:
        failures.append("inner loop bounds depend on the outer induction "
                        "variable")
    written = variables_written(nest.outer.body)
    clobbered = bound_reads & written
    if clobbered:
        failures.append(f"inner loop bounds read {sorted(clobbered)} "
                        "which the outer body writes")

    # liveness summary for the DFG build (live-out = anything the outer body
    # reads after the inner loop, approximated by reads in post statements)
    post_reads: set[str] = set()
    for s in nest.post_stmts():
        post_reads |= variables_read(s)
    prep = PreparedSquash(outer_trip=outer_trip, inner_trip=inner_trip,
                          base_failures=failures,
                          liveness=loop_liveness(nest.inner, post_reads))
    if failures:
        return prep  # check_squash never ran the parallel check here

    # --- the DS-independent parallel analysis (check_outer_parallel's
    # expensive half: scalar liveness + every store pair's distance set,
    # in its exact enumeration order) ---------------------------------
    live = loop_liveness(nest.outer, set())
    prep.scalar_conflicts = set(live.carried)

    rom_names = frozenset(n for n, d in program.arrays.items() if d.rom)
    accesses = collect_accesses(nest, rom_names=rom_names)
    by_array: dict[str, list] = {}
    for a in accesses:
        by_array.setdefault(a.array, []).append(a)
    pairs: list[tuple] = []
    for array, accs in by_array.items():
        for a1, a2 in combinations(accs, 2):
            if not (a1.is_store or a2.is_store):
                continue
            dist = outer_distance(a1, a2, nest)
            pairs.append((a1, a2, dist, _fmt(dist), False))
        for a in accs:
            if a.is_store:
                dist = outer_distance(a, a, nest)
                pairs.append((a, a, dist, _fmt(dist), True))
    prep.pairs = pairs
    return prep


def classify_squash(prep: PreparedSquash, ds: int) -> SquashCheck:
    """The per-DS classification over a prepared analysis.

    Produces a :class:`SquashCheck` identical to what the monolithic
    check computed for this DS — same reasons, same order, same report
    fields — at the cost of one ``squash_case`` call per store pair.
    """
    from repro.analysis.dependence import squash_case

    chk = SquashCheck()
    if ds < 1:
        chk.fail(f"unroll factor {ds} must be >= 1")
        return chk
    chk.outer_trip = prep.outer_trip
    chk.inner_trip = prep.inner_trip
    for reason in prep.base_failures:
        chk.fail(reason)
    chk.liveness = prep.liveness
    if not chk.ok:
        return chk

    rep = ParallelismReport()
    if prep.scalar_conflicts is None or prep.pairs is None:
        raise ReproError(
            "classify_squash needs the parallel analysis, but this "
            "PreparedSquash never ran it despite passing the base "
            "checks — corrupted or hand-built artifact")
    if prep.scalar_conflicts:
        rep.scalar_conflicts = prep.scalar_conflicts
        rep.fail(f"outer-carried scalar dependences on "
                 f"{sorted(prep.scalar_conflicts)}; "
                 "iterations are not parallel")
    for a1, a2, dist, dist_str, is_output in prep.pairs:
        if squash_case(dist, ds) == 3:
            rep.array_conflicts.append((a1, a2, dist))
            if is_output:
                rep.fail(f"array {a1.array!r}: output dependence distance "
                         f"{dist_str} intersects the data-set window "
                         f"±{ds - 1}")
            else:
                rep.fail(f"array {a1.array!r}: dependence distance "
                         f"{dist_str} intersects the data-set window "
                         f"±{ds - 1}")
    chk.parallelism = rep
    if not rep.ok:
        for r in rep.reasons:
            chk.fail(r)
    return chk


def check_squash(program: Program, nest: LoopNest, ds: int) -> SquashCheck:
    """Run the full §4.1 requirement list; never raises.

    One code path with the shared-analysis fast path: the prepared
    (DS-independent) analysis feeds the per-DS classification, so a
    cached :class:`PreparedSquash` yields byte-identical checks.
    """
    return classify_squash(prepare_squash(program, nest), ds)
