"""The unroll-and-squash transformation (thesis Ch. 4) — top-level driver.

Pipeline (mirroring Fig. 5.3's implementation steps)::

    CFG analysis -> DFG/SSA -> Pipeline -> Variable expansion -> Unroll -> Loop setup

1. **analysis** — legality per §4.1/§4.2 (:mod:`repro.core.legality`);
2. **DFG/SSA** — three-address lowering, SSA renaming, DFG construction
   with registers/cycles (:mod:`repro.core.dfg`);
3. **pipeline** — cycle stretching + DS-stage assignment and pipeline
   register chains (:mod:`repro.core.stages`);
4. **variable expansion / unroll / loop setup** — software emission with
   prolog & epilog (:mod:`repro.core.emit`), plus automatic peeling when
   the outer trip count is not a multiple of DS.

``unroll_and_squash`` returns a :class:`SquashResult` carrying the
transformed program and everything the hardware layer needs to cost the
design (DFG, stage assignment, register chains).

The combined transformation of Ch. 2 — unroll-and-jam by J then squash by
DS — is :func:`jam_then_squash`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.analysis.loops import LoopNest, find_loop_nests, trip_count
from repro.analysis.ssa import SSABlock, ssa_rename
from repro.core.dfg import DFG, build_dfg
from repro.core.legality import SquashCheck, check_squash
from repro.core.stages import (
    ChainInfo, StageAssignment, assign_stages, default_delay, register_chains,
)
from repro.errors import LegalityError
from repro.ir.nodes import For, Program
from repro.ir.visitors import clone_program, variables_read
from repro.transforms._util import find_in_clone
from repro.transforms.three_address import is_three_address, lower_block_to_3ac

if TYPE_CHECKING:
    from repro.core.emit import SquashEmission

__all__ = ["SquashResult", "unroll_and_squash", "jam_then_squash",
           "analyze_front", "analyze_nest", "front_dfg", "locate_jammed_nest"]


def locate_jammed_nest(jammed: Program, nest: LoopNest,
                       factor: int) -> LoopNest:
    """Find the fused nest after unroll-and-jam of ``nest`` by ``factor``.

    Candidates are nests with a constant inner trip count; preferred is
    the one whose outer loop kept ``nest``'s IV and grew its step by the
    jam factor, with the first candidate as fallback.  Shared by
    :func:`jam_then_squash` and the jam+squash analysis
    (:func:`repro.pipeline.analysis.jam_squash_analyzed_dfg`) so the
    software emitter and the hardware path always pick the same nest.
    Raises :class:`LegalityError` when no candidate exists.
    """
    nests = [n for n in find_loop_nests(jammed)
             if trip_count(n.inner) is not None]
    if not nests:
        raise LegalityError("no loop nest found after unroll-and-jam")
    step = nest.outer.step * min(factor, trip_count(nest.outer) or factor)
    return next((n for n in nests
                 if n.outer.var == nest.outer.var
                 and n.outer.step == step), nests[0])


@dataclass
class SquashResult:
    """Everything produced by one squash application."""

    program: Program                 # the transformed program
    ds: int
    check: SquashCheck
    ssa: SSABlock
    dfg: DFG
    stages: StageAssignment
    chains: ChainInfo
    emission: Optional[SquashEmission]

    @property
    def pipeline_registers(self) -> int:
        return self.chains.total_registers


def analyze_front(program: Program, nest: LoopNest, liveness
                  ) -> tuple[Program, LoopNest, SSABlock, DFG,
                             set[str], set[str]]:
    """The DS-independent front half of the analysis: clone, 3AC
    lowering, SSA renaming, carried/invariant derivation, DFG build.

    Shared by :func:`analyze_nest` and the pipeline's per-kernel
    analysis cache (:mod:`repro.pipeline.analysis`), so both always see
    the identical graph.  ``liveness`` is the nest's
    :class:`~repro.analysis.usedef.LoopLiveness` (DS-independent).
    """
    work = clone_program(program)
    w_outer: For = find_in_clone(work, program, nest.outer)  # type: ignore
    w_inner: For = find_in_clone(work, program, nest.inner)  # type: ignore
    w_nest = LoopNest(w_outer, w_inner)

    if not is_three_address(w_inner.body):
        w_inner.body = lower_block_to_3ac(work, w_inner.body)

    extra = set()
    if w_inner.var in variables_read(w_inner.body):
        extra.add(w_inner.var)
    ssa = ssa_rename(w_inner.body, work.scalar_type, extra_live_in=extra)
    dfg, carried, invariant = front_dfg(ssa, liveness, w_inner, work)
    return work, w_nest, ssa, dfg, carried, invariant


def front_dfg(ssa: SSABlock, liveness, inner: For, program: Program
              ) -> tuple[DFG, set[str], set[str]]:
    """The DFG of an SSA inner-loop body plus its live-in classification:
    ``carried`` (the liveness summary's recurrences that are live into
    the block) and ``invariant`` (every other live-in but the inner IV).

    The last step of :func:`analyze_front`, shared with the jam
    replication (:mod:`repro.core.jamdfg`), which assembles the SSA
    block without lowering it.
    """
    rom_arrays = frozenset(n for n, d in program.arrays.items() if d.rom)
    carried = {x for x in liveness.carried if x in ssa.entry}
    invariant = {x for x in ssa.entry
                 if x not in carried and x != inner.var}
    dfg = build_dfg(ssa, carried, invariant, rom_arrays,
                    inner_iv=inner.var if inner.var in ssa.entry else None,
                    iv_step=inner.step)
    return dfg, carried, invariant


def analyze_nest(program: Program, nest: LoopNest, ds: int,
                 delay_fn: Optional[Callable] = None,
                 ) -> tuple[Program, LoopNest, SSABlock, DFG, StageAssignment,
                            SquashCheck]:
    """Run steps 1–3 (analysis, DFG/SSA, staging) on a private clone.

    Shared by the software emitter and the hardware cost model so both see
    the identical staged DFG.
    """
    check = check_squash(program, nest, ds)
    check.raise_if_failed()

    live = check.require_liveness()
    work, w_nest, ssa, dfg, _, _ = analyze_front(program, nest, live)
    sa = assign_stages(dfg, ds, delay_fn or default_delay)
    # re-derive live-out for chain accounting
    return work, w_nest, ssa, dfg, sa, check


def unroll_and_squash(program: Program, nest: LoopNest, ds: int,
                      delay_fn: Optional[Callable] = None) -> SquashResult:
    """Apply unroll-and-squash by factor ``ds`` to ``nest``.

    Parameters
    ----------
    program, nest:
        The program and the (outer, inner) pair to transform.
    ds:
        Number of data sets == pipeline stages.
    delay_fn:
        Operator-delay model used to balance the stage cut (defaults to
        unit delays; the Nimble driver passes the hardware library's).

    Returns a :class:`SquashResult` whose program is the data-set form
    of Fig. 2.3 (:mod:`repro.core.emit`); raises :class:`LegalityError`
    when the §4.1 requirements fail.
    """
    if ds == 1:
        # degenerate: squash(1) is the identity transformation
        work, w_nest, ssa, dfg, sa, check = analyze_nest(program, nest, 1,
                                                         delay_fn)
        live = check.liveness
        chains = register_chains(
            dfg, sa, {x for x in live.carried if x in ssa.entry},
            {x for x in ssa.entry if x not in live.carried
             and x != w_nest.inner.var},
            live.live_out, ssa.exit)
        return SquashResult(clone_program(program), 1, check, ssa, dfg, sa,
                            chains, None)

    work, w_nest, ssa, dfg, sa, check = analyze_nest(program, nest, ds,
                                                     delay_fn)
    live = check.require_liveness()
    carried = {x for x in live.carried if x in ssa.entry}
    invariant = {x for x in ssa.entry
                 if x not in carried and x != w_nest.inner.var}
    chains = register_chains(dfg, sa, carried, invariant, live.live_out,
                             ssa.exit)

    from repro.core.emit import emit_dataset_mode

    emission = emit_dataset_mode(work, w_nest, ds, ssa, dfg, sa)
    return SquashResult(emission.program, ds, check, ssa, dfg, sa, chains,
                        emission)


def jam_then_squash(program: Program, nest: LoopNest, jam: int, ds: int,
                    delay_fn: Optional[Callable] = None) -> SquashResult:
    """The combined transformation of Ch. 2: unroll-and-jam by ``jam``
    (duplicating operators), then unroll-and-squash by ``ds`` (sharing
    them round-robin).

    "Unroll-and-jam can be applied with an unroll factor that matches the
    desired or available amount of operators, and then unroll-and-squash
    can be used to further improve the performance."
    """
    from repro.transforms.unroll_and_jam import unroll_and_jam

    jammed = unroll_and_jam(program, nest, jam)
    target = locate_jammed_nest(jammed, nest, jam)
    return unroll_and_squash(jammed, target, ds, delay_fn)
