"""The staged compilation pipeline driving every Table 6.2 design point.

One declarative :class:`VariantPlan` per design variant replaces the
five hand-rolled ``compile_*`` bodies the Nimble driver used to carry.
Every variant flows through the same six stages::

    build -> transform -> analyze -> schedule -> validate -> report

with the plan choosing only the genuinely variant-specific pieces: how
the nest is transformed, which analysis view applies (shared base DFG vs
DS-staged DFG), whether the scheduler is pinned (``original`` is always
list-scheduled), and which register model prices the result.  The
scheduler for pipelined variants is resolved by name from
:mod:`repro.hw.schedulers`, so new strategies plug in without touching
this module.

The validate stage is the independent schedule re-verifier
(:func:`repro.verify.schedule.verify_scheduled`): every precedence
constraint, the reservation table rebuilt against the slot capacities
and the schedule's own claimed table, and the makespan, in every
``REPRO_VERIFY`` mode.  The validated knob (:func:`repro.env.verify_mode`)
adds more checks on top: ``on`` re-examines the analyzed DFG, SSA block
and edge view after the analyze stage, and ``strict`` also re-derives
the MII lower bounds and the MaxLive count behind each schedule and the
``exact_ii`` certificate behind each reported design point.  The
checkers only observe — results are byte-identical in every mode.  The
DFG and design-point checks time as a ``verify`` stage of their own;
the schedule checks, strict ones included, time as ``validate``.

Errors raised mid-pipeline (:class:`~repro.errors.LegalityError`,
:class:`~repro.errors.ScheduleError`,
:class:`~repro.errors.VerifyError`) are re-raised with full
provenance — kernel, variant label, target, scheduler — so a failed
design in a thousand-point sweep names itself.  A ``VerifyError`` is a
compiler fault, not a verdict on the design: the exploration engine
quarantines it instead of caching it as a skipped design.
"""

from __future__ import annotations

import dataclasses
import hashlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional, Union

from repro.analysis.loops import LoopNest, trip_count
from repro.caches import Memo
from repro.core.squash import locate_jammed_nest
from repro.env import analysis_cache_enabled
from repro.errors import LegalityError, ScheduleError, VerifyError
from repro.hw.area import operator_rows, registers_original, \
    registers_pipelined
from repro.hw.modulo import ModuloSchedule
from repro.hw.report import DesignPoint, variant_label
from repro.hw.schedulers import DEFAULT_SCHEDULER, Scheduler, \
    is_builtin_scheduler, scheduler_by_name
from repro.ir.nodes import Program
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.pipeline.analysis import AnalysisCache, analysis_cache, \
    base_analyzed_dfg, jam_analyzed_dfg, squash_analyzed_dfg
from repro.pipeline.artifacts import (
    AnalyzedDFG, BuiltKernel, ScheduledDesign, TransformedNest,
)

if TYPE_CHECKING:  # pipeline <-> nimble import cycle: Target only for types
    from repro.nimble.target import Target

__all__ = ["CompilationPipeline", "PipelineRun", "VARIANT_PLANS",
           "VariantPlan", "variant_label"]


# ---------------------------------------------------------------------------
# Stage timing (the per-stage rows of `repro stats`)
# ---------------------------------------------------------------------------

#: Per-stage wall time lives in the metrics registry as ``stage.*``
#: histograms (two cheap ``perf_counter`` calls per stage, one
#: ``observe``); workers ship their registry deltas back to the
#: exploration engine with each result batch.
_STAGE_PREFIX = "stage."


def _record_stage(stage: str, seconds: float,
                  t0: Optional[float] = None,
                  t1: Optional[float] = None) -> None:
    obs_metrics.histogram(_STAGE_PREFIX + stage).observe(seconds)
    if t0 is not None and t1 is not None:
        obs_trace.emit_span(stage, "pipeline.stage", t0, t1)


# ---------------------------------------------------------------------------
# Schedule-stage replay
# ---------------------------------------------------------------------------

#: Designs whose schedule stage replayed an earlier design's outcome.
_REPLAYS = obs_metrics.counter("sched.replays")

#: A recorded schedule-stage outcome: the reject text, or the schedule,
#: its MaxLive (None off register-file targets) and the floored flag.
Outcome = Union[str, tuple[ModuloSchedule, Optional[int], bool]]


def _replay_key(strategy: str, analyzed: AnalyzedDFG, lib) -> str:
    """Content key of one design's schedule-stage outcome.

    The signature of the strategy's scheduling problem
    (:func:`repro.hw.modulo.search_signature`) covers what the built-in
    strategies' searches read (:func:`repro.hw.schedulers.
    is_builtin_scheduler`; no other strategy is replayed); the pressure
    floor and the register-pressure walk also read each raw edge's
    kind, which nodes are constants or stores, the live-in count and
    the register file.
    """
    from repro.hw.mii import default_edge_view
    from repro.hw.modulo import search_signature

    dfg = analyzed.dfg
    edges = analyzed.edges if analyzed.edges is not None \
        else default_edge_view(dfg)
    sig = search_signature(dfg, lib, edges, strategy)
    kinds = ",".join(e.kind for e in dfg.edges)
    values = ",".join(f"{n.nid}{n.kind}" for n in dfg.nodes
                      if n.kind in ("const", "store"))
    return hashlib.sha256(
        f"{sig}|{kinds}|{values}|{len(dfg.regs)}"
        f"|{getattr(lib, 'register_file', None)}"
        f"|{getattr(lib, 'rotating', True)}".encode()).hexdigest()[:32]


# ---------------------------------------------------------------------------
# Stage implementations
# ---------------------------------------------------------------------------

def _trips(nest: LoopNest) -> tuple[int, int]:
    return trip_count(nest.outer) or 0, trip_count(nest.inner) or 0


#: unroll_and_jam is pure in (program, nest, factor) and independent of
#: variant, target, and scheduler, so the ``jam`` and ``jam+squash``
#: variants of a sweep — and every scheduler/target axis crossing them —
#: reuse one jammed program.  Stable object identity in turn saves the
#: shared analysis cache re-deriving the jammed nest's content key.
#: Memory only: re-jamming costs milliseconds, and a worker gets the
#: jammed nest's analyses from the disk tier by content key anyway.
_JAMMED = Memo("jam_program", 128)


def _memoized_jam(program: Program, nest: LoopNest, factor: int) -> Program:
    from repro.transforms.unroll_and_jam import unroll_and_jam

    if not analysis_cache_enabled():
        return unroll_and_jam(program, nest, factor)
    return _JAMMED.get((id(program), id(nest.outer), id(nest.inner), factor),
                       lambda: unroll_and_jam(program, nest, factor),
                       (program, nest))


def _identity_transform(built: BuiltKernel, ds: int, jam: int,
                        variant: str) -> TransformedNest:
    """original / pipelined / squash: the built nest is analyzed as-is
    (squash restructures during analysis, not here)."""
    outer, inner = _trips(built.nest)
    return TransformedNest(variant=variant, program=built.program,
                           nest=built.nest, ds=ds, jam=jam,
                           outer_trip=outer, inner_trip=inner)


def _jam_transform(built: BuiltKernel, ds: int, jam: int,
                   variant: str) -> TransformedNest:
    """Unroll-and-jam by DS, deferred to the analysis stage.

    The analysis stage derives the fused inner loop's analysis from the
    untransformed nest by replication
    (:meth:`~repro.pipeline.analysis.AnalysisCache.jam_base_for`), so
    the jammed program is never built.  Inputs the renames cannot cover
    (:func:`repro.core.jamdfg.replicable`: another nest shares the outer
    induction variable, or a scalar already has a made-up name) take the
    program-level route here instead: unroll-and-jam the program and
    re-locate the fused nest.
    """
    from repro.core.jamdfg import find_jammed_nest, replicable

    outer_trip, inner_trip = _trips(built.nest)
    if replicable(built.program, built.nest):
        return TransformedNest(variant=variant, program=built.program,
                               nest=built.nest, ds=ds, jam=jam,
                               outer_trip=outer_trip, inner_trip=inner_trip,
                               derived_jam=True)
    jammed = _memoized_jam(built.program, built.nest, ds)
    return TransformedNest(variant=variant, program=jammed,
                           nest=find_jammed_nest(jammed, built.nest, ds),
                           ds=ds, jam=jam, outer_trip=outer_trip,
                           inner_trip=inner_trip)


def _jam_squash_transform(built: BuiltKernel, ds: int, jam: int,
                          variant: str) -> TransformedNest:
    """Jam by J (duplicating operators); squash by DS happens in analysis.

    Nest relocation is :func:`repro.core.squash.locate_jammed_nest` —
    the same rule :func:`repro.core.squash.jam_then_squash` applies, so
    the software emitter and the hardware path pick the same nest.
    """
    outer_trip, inner_trip = _trips(built.nest)
    jammed = _memoized_jam(built.program, built.nest, jam)
    target_nest = locate_jammed_nest(jammed, built.nest, jam)
    return TransformedNest(variant=variant, program=jammed,
                           nest=target_nest, ds=ds, jam=jam,
                           outer_trip=outer_trip, inner_trip=inner_trip)


def _base_analyze(t: TransformedNest, target: Target,
                  cache: Optional[AnalysisCache]) -> AnalyzedDFG:
    return base_analyzed_dfg(t.program, t.nest, cache=cache)


def _jam_analyze(t: TransformedNest, target: Target,
                 cache: Optional[AnalysisCache]) -> AnalyzedDFG:
    if t.derived_jam:
        return jam_analyzed_dfg(t.program, t.nest, t.ds, cache=cache)
    return base_analyzed_dfg(t.program, t.nest, cache=cache)


def _squash_analyze(t: TransformedNest, target: Target,
                    cache: Optional[AnalysisCache]) -> AnalyzedDFG:
    return squash_analyzed_dfg(t.program, t.nest, t.ds,
                               delay_fn=target.library.delay, cache=cache)


def _registers_base(a: AnalyzedDFG, target: Target,
                    s: ScheduledDesign) -> int:
    return registers_original(a.dfg)


def _registers_modulo(a: AnalyzedDFG, target: Target,
                      s: ScheduledDesign) -> int:
    if not isinstance(s.schedule, ModuloSchedule):
        raise ScheduleError(
            f"the {s.scheduler!r} scheduler produced a "
            f"{type(s.schedule).__name__} where the register model needs "
            "a modulo schedule")
    return registers_pipelined(a.dfg, target.library, s.schedule)


def _registers_chains(a: AnalyzedDFG, target: Target,
                      s: ScheduledDesign) -> int:
    if a.chains is None:
        raise ScheduleError(
            "squash register model needs the delay-chain analysis, but "
            "this AnalyzedDFG carries none")
    return max(a.chains.total_registers, registers_original(a.dfg))


# ---------------------------------------------------------------------------
# Declarative per-variant plans
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class VariantPlan:
    """What is variant-specific about one flow through the pipeline."""

    variant: str
    transform: Callable[[BuiltKernel, int, int, str], TransformedNest]
    analyze: Callable[[TransformedNest, Target, Optional[AnalysisCache]],
                      AnalyzedDFG]
    registers: Callable[[AnalyzedDFG, Target, ScheduledDesign], int]
    #: pinned scheduler name, or None to use the pipeline's strategy
    scheduler: Optional[str] = None


VARIANT_PLANS: dict[str, VariantPlan] = {
    "original": VariantPlan("original", _identity_transform, _base_analyze,
                            _registers_base, scheduler="list"),
    "pipelined": VariantPlan("pipelined", _identity_transform, _base_analyze,
                             _registers_modulo),
    "squash": VariantPlan("squash", _identity_transform, _squash_analyze,
                          _registers_chains),
    "jam": VariantPlan("jam", _jam_transform, _jam_analyze,
                       _registers_modulo),
    "jam+squash": VariantPlan("jam+squash", _jam_squash_transform,
                              _squash_analyze, _registers_chains),
}


@dataclass
class PipelineRun:
    """Every artifact of one flow, for introspection and tests."""

    built: BuiltKernel
    transformed: TransformedNest
    analyzed: AnalyzedDFG
    scheduled: ScheduledDesign
    point: DesignPoint


class CompilationPipeline:
    """Drives a program + nest through the staged flow for any variant.

    ``scheduler`` names the strategy used for pipelined variants (the
    ``original`` plan pins the list scheduler); ``None`` defers to the
    target's choice, which itself defaults to the iterative modulo
    scheduler.  ``cache`` is the shared base-analysis cache — by default
    the process-wide instance, so all variants of one kernel share one
    front-end analysis.

    ``replays`` is a table of schedule-stage outcomes keyed by content
    (:func:`_replay_key`), which the pipeline fills and reads: a design
    that poses a recorded scheduling problem replays its outcome
    instead of placing anything.  Only the built-in pipelined
    strategies replay; a strategy added through
    :func:`repro.hw.schedulers.register_scheduler` always schedules.
    ``None`` (the default) schedules every design.
    """

    def __init__(self, target: "Optional[Target]" = None,
                 scheduler: Optional[str] = None,
                 cache: Optional[AnalysisCache] = None,
                 replays: Optional[dict[str, Outcome]] = None):
        if target is None:
            from repro.nimble.target import ACEV
            target = ACEV
        self.target = target
        self.scheduler = scheduler if scheduler is not None \
            else getattr(target, "scheduler", "")
        self.cache = cache if cache is not None else analysis_cache()
        self.replays = replays

    # -- stages -----------------------------------------------------------

    def _resolve_scheduler(self, plan: VariantPlan) -> Scheduler:
        try:
            strategy = scheduler_by_name(plan.scheduler or self.scheduler)
        except KeyError as exc:
            # e.g. a custom strategy registered in the parent process but
            # absent from a spawn-started worker: report as a structured
            # schedule failure (SkipRecord) instead of crashing the sweep
            raise ScheduleError(exc.args[0]) from exc
        if plan.scheduler is None and not strategy.pipelined:
            raise ScheduleError(
                f"scheduler {strategy.name!r} is not a pipelined strategy "
                f"and cannot schedule the {plan.variant!r} variant")
        return strategy

    def _schedule(self, plan: VariantPlan,
                  analyzed: AnalyzedDFG) -> ScheduledDesign:
        strategy = self._resolve_scheduler(plan)
        if self.replays is None or not strategy.pipelined \
                or not is_builtin_scheduler(strategy):
            return self._schedule_fresh(strategy, analyzed)
        key = _replay_key(strategy.name, analyzed, self.target.library)
        outcome = self.replays.get(key)
        if outcome is not None:
            _REPLAYS.add()
            return self._replay(strategy, analyzed, outcome)
        try:
            scheduled = self._schedule_fresh(strategy, analyzed)
        except ScheduleError as exc:
            self.replays[key] = str(exc)
            raise
        pressure = scheduled.pressure
        self.replays[key] = (
            scheduled.schedule,
            pressure.max_live if pressure is not None else None,
            scheduled.ii_floored)
        return scheduled

    def _replay(self, strategy: Scheduler, analyzed: AnalyzedDFG,
                outcome: Outcome) -> ScheduledDesign:
        """A recorded outcome, as this design's own: a reject raises
        again, and a schedule comes back as a fresh copy whose MVE count
        (read by the register model) is this design's."""
        from repro.vliw.pressure import PressureInfo

        if isinstance(outcome, str):
            raise ScheduleError(outcome)
        recorded, live, floored = outcome
        schedule = dataclasses.replace(
            recorded, time=dict(recorded.time),
            rt={r: dict(rows) for r, rows in recorded.rt.items()})
        pressure = None
        if live is not None:
            lib, dfg, edges = self.target.library, analyzed.dfg, \
                analyzed.edges
            pressure = PressureInfo(
                max_live=live, capacity=lib.register_file,
                rotating=bool(getattr(lib, "rotating", True)),
                count_mve=lambda: registers_pipelined(dfg, lib, schedule,
                                                      edges))
        return ScheduledDesign(analyzed=analyzed, scheduler=strategy.name,
                               schedule=schedule, pressure=pressure,
                               ii_floored=floored)

    def _schedule_fresh(self, strategy: Scheduler,
                        analyzed: AnalyzedDFG) -> ScheduledDesign:
        lib = self.target.library
        capacity = getattr(lib, "register_file", None) \
            if strategy.pipelined else None
        if capacity is not None:
            self._check_pressure_floor(analyzed, capacity)
        schedule = strategy.schedule(analyzed.dfg, lib, edges=analyzed.edges)
        pressure, floored = None, False
        if capacity is not None:
            schedule, pressure, floored = self._fit_register_file(
                strategy, analyzed, schedule)
        return ScheduledDesign(analyzed=analyzed, scheduler=strategy.name,
                               schedule=schedule, pressure=pressure,
                               ii_floored=floored)

    def _check_pressure_floor(self, analyzed: AnalyzedDFG,
                              capacity: int) -> None:
        """Reject, before any scheduling, a design whose recurrence cycles
        alone overflow the register file at every II it could have.

        :func:`repro.vliw.pressure.pressure_floor` bounds the pressure
        of every legal schedule at a given II from below and never
        decreases with the II, so its value at ResMII — no schedule has
        a smaller II — bounds the whole walk of :meth:`_fit_register_file`.
        ResMII comes from the design's search context, which every
        scheduler of the design shares.
        """
        from repro.hw.modulo import search_res_mii
        from repro.vliw.pressure import pressure_floor

        lib = self.target.library
        ii = search_res_mii(analyzed.dfg, lib, analyzed.edges)
        floor = pressure_floor(analyzed.dfg, lib, analyzed.edges, ii)
        if floor > capacity:
            raise ScheduleError(
                f"register pressure >= {floor} exceeds the {capacity}-entry "
                f"register file at every II >= {ii} (recurrence cycles "
                f"alone)")

    def _fit_register_file(self, strategy: Scheduler, analyzed: AnalyzedDFG,
                           schedule):
        """The register-pressure II bump (register-file targets only).

        A bump re-enters the scheduler above the overflowing II.  It
        shrinks the overlap of acyclic lifetimes, but it does not
        necessarily relieve pressure: a recurrence cycle's lifetimes sum
        to ``II*D - L`` and grow with the II (designs the recurrence
        floor already proves hopeless never get here — see
        :meth:`_check_pressure_floor`).
        Once the II reaches the schedule makespan a single iteration is
        in flight and no further relief exists — an overflow there is a
        hard reject.
        """
        from repro.vliw.pressure import register_pressure

        lib = self.target.library
        floored = False
        pressure = register_pressure(analyzed.dfg, lib, schedule,
                                     analyzed.edges)
        while not pressure.fits:
            if schedule.ii >= schedule.length:
                raise ScheduleError(
                    f"register pressure {pressure.required} exceeds the "
                    f"{pressure.capacity}-entry register file at "
                    f"II={schedule.ii} >= makespan {schedule.length}; no "
                    f"larger II can relieve it")
            schedule = strategy.schedule(analyzed.dfg, lib,
                                         edges=analyzed.edges,
                                         min_ii=schedule.ii + 1)
            floored = True
            pressure = register_pressure(analyzed.dfg, lib, schedule,
                                         analyzed.edges)
        return schedule, pressure, floored

    def _report(self, built: BuiltKernel, t: TransformedNest,
                scheduled: ScheduledDesign,
                base_ii: Optional[int]) -> DesignPoint:
        a = scheduled.analyzed
        sched = scheduled.schedule
        if scheduled.pipelined:
            ii, rec, res = sched.ii, sched.rec_mii, sched.res_mii
        else:
            ii, rec, res = sched.length, 0, 0
        # a certified exact schedule pins the design's optimal II; an
        # uncertified (budget-degraded) one claims nothing, and neither
        # does a register-pressure-floored one — its certificate proves
        # minimality above the floor only, not the design optimum.  Only
        # the exact scheduler's schedules carry ``certified``
        exact_ii = sched.ii if getattr(sched, "certified", False) \
            and not scheduled.ii_floored else None
        plan = VARIANT_PLANS[t.variant]
        pressure = scheduled.pressure
        return DesignPoint(
            kernel=built.kernel,
            variant=t.variant, factor=t.factor, ii=ii,
            op_rows=operator_rows(a.dfg, self.target.library),
            registers=plan.registers(a, self.target, scheduled),
            reg_rows=self.target.library.reg_rows,
            rec_mii=rec, res_mii=res,
            outer_trip=t.outer_trip, inner_trip=t.inner_trip,
            base_ii=base_ii, schedule_length=sched.length,
            squash_ds=t.ds if t.variant == "jam+squash" else None,
            exact_ii=exact_ii,
            max_live=pressure.max_live if pressure is not None else None,
            reg_capacity=pressure.capacity if pressure is not None
            else None)

    # -- driver -----------------------------------------------------------

    def run(self, program: Program, nest: LoopNest, variant: str,
            ds: int = 1, jam: int = 1,
            base_ii: Optional[int] = None) -> PipelineRun:
        """Flow one design through every stage; returns all artifacts."""
        try:
            plan = VARIANT_PLANS[variant]
        except KeyError:
            raise ValueError(f"unknown variant {variant!r}; "
                             f"have {tuple(VARIANT_PLANS)}")
        from time import perf_counter

        from repro.env import verify_mode
        from repro.verify.schedule import verify_design_point, \
            verify_scheduled

        mode = verify_mode()
        strict = mode == "strict"
        built = BuiltKernel(program=program, nest=nest)
        stage = "transform"
        flow_t0 = t0 = perf_counter()
        try:
            transformed = plan.transform(built, ds, jam, variant)
            t1 = perf_counter()
            _record_stage("transform", t1 - t0, t0, t1)
            stage, t0 = "analyze", t1
            analyzed = plan.analyze(transformed, self.target, self.cache)
            t1 = perf_counter()
            _record_stage("analyze", t1 - t0, t0, t1)
            if mode != "off":
                from repro.verify.structural import verify_analyzed

                stage, t0 = "verify", t1
                verify_analyzed(analyzed, self.target.library,
                                strict=strict)
                t1 = perf_counter()
                _record_stage("verify", t1 - t0, t0, t1)
            stage, t0 = "schedule", t1
            scheduled = self._schedule(plan, analyzed)
            t1 = perf_counter()
            _record_stage("schedule", t1 - t0, t0, t1)
            stage, t0 = "validate", t1
            verify_scheduled(scheduled, self.target.library, strict=strict)
            t1 = perf_counter()
            _record_stage("validate", t1 - t0, t0, t1)
            point = self._report(built, transformed, scheduled, base_ii)
            if strict:
                stage, t0 = "verify", perf_counter()
                verify_design_point(point, analyzed, self.target.library)
                t1 = perf_counter()
                _record_stage("verify", t1 - t0, t0, t1)
        except (LegalityError, ScheduleError, VerifyError) as exc:
            t1 = perf_counter()
            _record_stage(stage, t1 - t0, t0, t1)
            obs_trace.emit_span("flow", "pipeline", flow_t0, t1,
                                kernel=built.kernel, variant=variant,
                                ds=ds, jam=jam, error=type(exc).__name__)
            raise self._with_provenance(exc, built, variant, ds, jam) from exc
        flow_t1 = perf_counter()
        obs_metrics.histogram("kernel." + built.kernel).observe(
            flow_t1 - flow_t0)
        obs_trace.emit_span("flow", "pipeline", flow_t0, flow_t1,
                            kernel=built.kernel, variant=variant,
                            ds=ds, jam=jam)
        return PipelineRun(built=built, transformed=transformed,
                           analyzed=analyzed, scheduled=scheduled,
                           point=point)

    def compile(self, program: Program, nest: LoopNest, variant: str,
                ds: int = 1, jam: int = 1,
                base_ii: Optional[int] = None) -> DesignPoint:
        """Flow one design through the pipeline; returns the DesignPoint."""
        return self.run(program, nest, variant, ds=ds, jam=jam,
                        base_ii=base_ii).point

    def _with_provenance(self, exc: Exception, built: BuiltKernel,
                         variant: str, ds: int, jam: int) -> Exception:
        """Stamp kernel/variant/target/scheduler context onto an error."""
        if getattr(exc, "provenance", None):
            return exc
        label = variant_label(variant, ds, jam)
        plan = VARIANT_PLANS[variant]
        sched = plan.scheduler or self.scheduler or DEFAULT_SCHEDULER
        where = (f"{built.kernel}/{label} [target={self.target.name}, "
                 f"scheduler={sched}]")
        if isinstance(exc, LegalityError):
            out: Exception = LegalityError(f"{where}: {exc}", exc.reasons)
        elif isinstance(exc, VerifyError):
            out = VerifyError(f"{where}: {exc}", exc.findings)
        else:
            out = ScheduleError(f"{where}: {exc}")
        out.provenance = where  # type: ignore[attr-defined]
        return out
