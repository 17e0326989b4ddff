"""Typed stage artifacts flowing through the compilation pipeline.

One variant compilation is a linear flow of five typed hand-offs::

    BuiltKernel -> TransformedNest -> AnalyzedDFG -> ScheduledDesign
                -> ValidatedDesign -> DesignPoint

Each artifact carries everything downstream stages need and nothing
more, so a stage can be swapped (a different scheduler, a different
transform) without touching its neighbours.  The final
:class:`~repro.hw.report.DesignPoint` is the Table 6.2 cell group.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.analysis.loops import LoopNest
from repro.analysis.ssa import SSABlock
from repro.core.dfg import DFG
from repro.core.legality import SquashCheck
from repro.core.stages import ChainInfo, StageAssignment
from repro.hw.listsched import ListSchedule
from repro.hw.mii import EdgeView
from repro.hw.modulo import ModuloSchedule
from repro.hw.simulate import SimulationResult
from repro.ir.nodes import Program

__all__ = ["AnalyzedDFG", "BuiltKernel", "ScheduledDesign",
           "TransformedNest", "ValidatedDesign"]


@dataclass(frozen=True)
class BuiltKernel:
    """Stage 1 output: a benchmark program and its selected kernel nest."""

    program: Program
    nest: LoopNest

    @property
    def kernel(self) -> str:
        return self.program.name


@dataclass(frozen=True)
class TransformedNest:
    """Stage 2 output: the nest the hardware layers actually analyze.

    For ``original``/``pipelined``/``squash`` this is the built nest
    itself (squash transforms *during analysis* — the hardware back-end
    path needs no emitted software); for the jam variants it is the
    re-discovered inner loop of the jammed program.  ``outer_trip`` /
    ``inner_trip`` are measured on the *pre-transform* nest, which is
    what total-cycle accounting is defined over.
    """

    variant: str
    program: Program
    nest: LoopNest
    ds: int = 1
    jam: int = 1
    outer_trip: int = 0
    inner_trip: int = 0
    #: True when the jam variant deferred the transform to the analysis
    #: stage: ``program``/``nest`` are then the *untransformed* kernel and
    #: the fused analysis is derived by replication (:mod:`repro.core.jamdfg`)
    derived_jam: bool = False

    @property
    def factor(self) -> int:
        """The DesignPoint unroll factor (DS, or J*DS for jam+squash)."""
        if self.variant in ("original", "pipelined"):
            return 1
        if self.variant == "jam+squash":
            return self.jam * self.ds
        return self.ds


@dataclass
class AnalyzedDFG:
    """Stage 3 output: the staged data-flow graph plus its edge view.

    ``base`` artifacts (``stages is None`` semantics aside, ds == 1 with
    default distances) are shared across every variant of one kernel
    through :class:`repro.pipeline.analysis.AnalysisCache`; squash
    variants add per-DS staging, register chains, and the stage-relaxed
    ``edges`` view on top of the shared graph, one object per (program,
    nest, DS, library) that every scheduler of the design shares, so
    nothing downstream may mutate it.  ``edges=None`` means the DFG's
    own distances.
    """

    dfg: DFG
    ssa: SSABlock
    check: SquashCheck
    stages: Optional[StageAssignment] = None
    chains: Optional[ChainInfo] = None
    edges: Optional[EdgeView] = None


@dataclass
class ScheduledDesign:
    """Stage 4 output: one scheduler strategy's answer for the DFG.

    ``pressure`` is populated only on targets with a finite register
    file (:mod:`repro.vliw`): the accepted schedule's register demand,
    after any II bumps the pipeline needed to make it fit.
    """

    analyzed: AnalyzedDFG
    scheduler: str
    schedule: "ModuloSchedule | ListSchedule"
    #: register-pressure verdict (repro.vliw.pressure.PressureInfo) on
    #: register-file targets; None on spatial targets
    pressure: Optional[object] = None
    #: True when register pressure forced the II above the scheduler's
    #: own answer (a ``min_ii`` floor was applied) — an ``exact``
    #: certificate under a floor proves minimality above that floor
    #: only, so floored schedules must not claim a design optimum
    ii_floored: bool = False

    @property
    def pipelined(self) -> bool:
        return isinstance(self.schedule, ModuloSchedule)

    @property
    def ii(self) -> int:
        return self.schedule.ii if self.pipelined else self.schedule.length


@dataclass
class ValidatedDesign:
    """Stage 5 output: the schedule plus its cycle-level replay."""

    scheduled: ScheduledDesign
    sim: SimulationResult

    @property
    def ok(self) -> bool:
        return self.sim.ok
