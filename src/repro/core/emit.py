"""Software emission of the squashed loop nest (thesis §4.3).

This module performs the thesis's code-generation steps — "perform
variable expansion", "unroll the outer loop basic blocks", "generate
prolog and epilog", "assign proper variable versions" — in the
*data-set naming* form: every scalar the outer body writes is expanded to
DS per-data-set versions, and each pipeline tick executes one stage per
in-flight data set.

Tick schedule (DS = data sets/stages, N = inner trip count):

* data set ``d`` starts at tick ``d``; its iteration ``jj`` stage ``s``
  executes at tick ``d + jj*DS + (s-1)``;
* prolog = ticks ``0..DS-2`` (stages 1..t+1 active);
* steady state = ``DS*(N-1)+1`` ticks in which all DS stages run; emitted
  as one explicit tick plus a counted loop of ``N-1`` groups of DS tick
  variants (the data-set-to-stage mapping depends only on ``tick mod DS``);
* epilog = ticks where early data sets have drained (stages k+1..DS).

The total stage executions are ``DS * N * DS`` — exactly DS data sets
running N iterations of DS stages — and the emitted inner loop's
effective iteration count is ``DS*N - (DS-1)`` ticks, matching §4.4.

Because each data set's statements execute in original order on private
variable versions, the emitted program is semantically the original nest
with blocks of DS outer iterations interleaved — legal exactly under the
§4.1 parallelism requirement.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.loops import LoopNest, trip_count
from repro.analysis.ssa import SSABlock
from repro.core.dfg import DFG
from repro.core.stages import StageAssignment
from repro.errors import LegalityError
from repro.ir.nodes import (
    Assign, BinOp, Block, Const, Expr, For, Program, Stmt, Store, Var,
)
from repro.ir.types import I32
from repro.ir.visitors import (
    clone_expr, clone_stmt, map_exprs, rename_vars, substitute,
    variables_written,
)
from repro.transforms._util import parent_of

__all__ = ["emit_dataset_mode", "SquashEmission"]


@dataclass
class SquashEmission:
    """The emitted program plus bookkeeping for tests and reports."""

    program: Program
    ds: int
    inner_trip: int
    outer_trip: int
    main_trips: int                      # outer iterations covered by the
    peeled: int                          # transformed loop vs peeled tail
    steady_ticks: int                    # DS*(N-1)+1
    stage_of_stmt: list[int] = field(default_factory=list)


def _split_version(v: str) -> tuple[str, int]:
    base, k = v.split("@", 1)
    return base, int(k)


def emit_dataset_mode(work: Program, nest: LoopNest, ds: int, ssa: SSABlock,
                      dfg: DFG, sa: StageAssignment) -> SquashEmission:
    """Replace ``nest`` inside ``work`` (a private clone) by squashed code."""
    outer, inner = nest.outer, nest.inner
    M = trip_count(outer)
    N = trip_count(inner)
    if M is None or N is None or N < 1:
        raise LegalityError("emission requires constant trip counts, N >= 1")
    lo_i = int(outer.lo.value)           # type: ignore[union-attr]
    step_i = outer.step
    lo_j = int(inner.lo.value)           # type: ignore[union-attr]
    step_j = inner.step
    main = (M // ds) * ds

    rename_scope = variables_written(outer.body) - {outer.var}

    # ---- naming ---------------------------------------------------------------
    def ds_name(x: str, d: int) -> str:
        return f"{x}__d{d}"

    def version_ref(v: str, d: int) -> Expr:
        """Expression for reading SSA version ``v`` in data set ``d``."""
        base, k = _split_version(v)
        ty = ssa.types[v]
        if k == 0:
            if base == outer.var:
                if d == 0:
                    return Var(outer.var, ty)
                return BinOp("add", Var(outer.var, ty),
                             Const(d * step_i, ty))
            if base in rename_scope:
                return Var(ds_name(base, d), ty)
            return Var(base, ty)          # shared invariant / parameter
        return Var(f"{base}__v{k}__d{d}", ty)

    def version_target(v: str, d: int) -> str:
        base, k = _split_version(v)
        if k == 0:
            raise LegalityError("SSA entry versions are never assigned")
        return f"{base}__v{k}__d{d}"

    # ---- declare expanded locals ----------------------------------------------
    for d in range(ds):
        for x in rename_scope:
            work.declare_local(ds_name(x, d), work.scalar_type(x))
        for v, ty in ssa.types.items():
            base, k = _split_version(v)
            if k > 0:
                work.declare_local(f"{base}__v{k}__d{d}", ty)

    # ---- stage slices -----------------------------------------------------------
    slices: dict[int, list[Stmt]] = {s: [] for s in range(1, ds + 1)}
    stage_of_stmt: list[int] = []
    for k, s_stmt in enumerate(ssa.stmts):
        st = sa.of_stmt(dfg, k)
        st = min(max(st, 1), ds)
        slices[st].append(s_stmt)
        stage_of_stmt.append(st)

    # synthetic end-of-iteration bookkeeping lives at the bottom of stage DS:
    # copy-backs move exit versions into the data set's current-value names,
    # and the IV increment advances the data set's private counter.
    tail_ops: list[tuple[str, str]] = []  # (original name, exit version)
    for x, exit_v in sorted(ssa.exit.items()):
        if exit_v != f"{x}@0" and x in rename_scope:
            tail_ops.append((x, exit_v))
    iv_used = inner.var in ssa.entry

    def emit_stage(s: int, d: int, out: list[Stmt]) -> None:
        for st in slices[s]:
            if isinstance(st, Assign):
                expr = _rename_expr(st.expr, d, version_ref)
                out.append(Assign(version_target(st.var, d), expr))
            elif isinstance(st, Store):
                out.append(Store(
                    st.array,
                    tuple(_rename_expr(ix, d, version_ref) for ix in st.index),
                    _rename_expr(st.value, d, version_ref)))
        if s == ds:
            for x, exit_v in tail_ops:
                out.append(Assign(ds_name(x, d), version_ref(exit_v, d)))
            if iv_used:
                jn = ds_name(inner.var, d)
                out.append(Assign(jn, BinOp("add", Var(jn, I32),
                                            Const(step_j, I32))))

    # ---- tick emission -----------------------------------------------------------
    def emit_tick(t_mod: int, active, out: list[Stmt]) -> None:
        """Emit one tick; ``t_mod`` fixes the data-set rotation (t mod ds)."""
        for s in active:
            d = (t_mod - (s - 1)) % ds
            emit_stage(s, d, out)

    new_body: list[Stmt] = []

    # per-data-set initialization: the outer body's pre-statements, expanded
    for d in range(ds):
        for s_stmt in nest.pre_stmts():
            c = clone_stmt(s_stmt)
            if d:
                c = substitute(c, {outer.var: BinOp(
                    "add", Var(outer.var, I32), Const(d * step_i, I32))})
            c = rename_vars(c, {x: ds_name(x, d) for x in rename_scope})
            new_body.append(c)
        if iv_used:
            new_body.append(Assign(ds_name(inner.var, d), Const(lo_j, I32)))

    # prolog: ticks 0..ds-2 — fill the pipeline
    for t in range(ds - 1):
        emit_tick(t % ds, range(1, t + 2), new_body)

    # first steady tick (t = ds-1), then N-1 groups of ds uniform ticks
    emit_tick((ds - 1) % ds, range(1, ds + 1), new_body)
    if N >= 2:
        gname = work.fresh_name("sq_g")
        work.declare_local(gname, I32)
        group: list[Stmt] = []
        for r in range(ds):
            emit_tick(r, range(1, ds + 1), group)
        new_body.append(For(gname, Const(0, I32), Const(N - 1, I32),
                            Block(group), 1,
                            dict(inner.annotations, squash_ds=ds)))

    # epilog: drain — tick N*ds-1+k runs stages k+1..ds
    for k in range(1, ds):
        emit_tick((N * ds - 1 + k) % ds, range(k + 1, ds + 1), new_body)

    # IV post-value fixup (counted-loop semantics: last iterate) and
    # per-data-set post statements
    for d in range(ds):
        if inner.var in rename_scope:
            new_body.append(Assign(ds_name(inner.var, d),
                                   Const(lo_j + (N - 1) * step_j, I32)))
        for s_stmt in nest.post_stmts():
            c = clone_stmt(s_stmt)
            if d:
                c = substitute(c, {outer.var: BinOp(
                    "add", Var(outer.var, I32), Const(d * step_i, I32))})
            c = rename_vars(c, {x: ds_name(x, d) for x in rename_scope})
            new_body.append(c)

    new_outer = For(outer.var, Const(lo_i, I32),
                    Const(lo_i + main * step_i, I32),
                    Block(new_body), step_i * ds, dict(outer.annotations))

    replacement: list[Stmt] = []
    if main > 0:
        replacement.append(new_outer)
        # canonical scalar values after the loop come from the last data set
        for x in sorted(rename_scope):
            replacement.append(Assign(x, Var(ds_name(x, ds - 1),
                                             work.scalar_type(x))))
        replacement.append(Assign(outer.var,
                                  Const(lo_i + (M - 1) * step_i, I32)))
    if main != M:
        tail = For(outer.var, Const(lo_i + main * step_i, I32),
                   Const(lo_i + M * step_i, I32),
                   clone_stmt(outer.body), step_i, dict(outer.annotations))
        replacement.append(tail)

    block, idx = parent_of(work, outer)
    block.stmts[idx:idx + 1] = replacement

    return SquashEmission(
        program=work, ds=ds, inner_trip=N, outer_trip=M, main_trips=main,
        peeled=M - main, steady_ticks=ds * (N - 1) + 1,
        stage_of_stmt=stage_of_stmt)


def _rename_expr(e: Expr, d: int, version_ref) -> Expr:
    """Rewrite SSA version reads into data-set-``d`` names/expressions."""
    def fn(node: Expr) -> Expr:
        if isinstance(node, Var):
            return clone_expr(version_ref(node.name, d))
        return node
    return map_exprs(Assign("_", clone_expr(e)), fn).expr
