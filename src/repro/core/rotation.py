"""Rotation-mode software emission — the thesis's §4.3 canonical form.

Where :mod:`repro.core.emit` expands variables per data set (and unrolls
the steady state mod DS), this emitter produces the form the thesis's
figures show (Fig. 2.3): a **uniform one-tick steady-state body** whose
variables are physical shift-register slots, with explicit
shifting/rotation statements at the end of every tick::

    b1 = f(a1);                      // prolog
    for (t = 0; t < 2*N-1; t++) {
      b2 = f(a2); a1 = g(b1);        // one tick: both stages
      a2 = a1; b1 = b2;              // rotation (shift registers)
    }
    a1 = g(b1);                      // epilog

Model: every produced value ``v`` owns a chain ``v__c (current),
v__r1..v__rK``; at the end of each tick the chain shifts
(``v__rk = v__r(k-1)``, ``v__r1 = v__c``).  A consumer in stage ``c`` of
a value produced in stage ``p`` reads slot ``c - p`` (0 = current);
loop-carried values are read at slot ``DS - p + c``; outer-defined
invariants and the inner IV circulate in DS-slot rings (the IV's wrap
adds the step — a counter built into the ring).

Data-set initial values are injected into the chains at computed
prolog positions; per-data-set live-outs are copied out at each data
set's final stage-DS tick.  Prolog and epilog execute partial stages but
shift *all* chains every tick; a slot can only be read by an active
consumer when the producing stage was active the right number of ticks
earlier, so stale slots are never observed (zero-initialized to keep the
program well-defined).

Supported subset: every loop-carried scalar's exit definition must be a
real operator (not a pure copy of another register) scheduled no earlier
than its next-iteration consumers (``stage(exit) >= max consumer
stage``).  Recurrences read-early/write-late (fig 2.1/4.1, IIR) qualify;
word-rotation ciphers (``w4 = w3``) do not — callers fall back to
data-set mode (``unroll_and_squash(..., emit_mode="auto")``).
"""

from __future__ import annotations

from repro.analysis.loops import LoopNest, trip_count
from repro.analysis.ssa import SSABlock
from repro.core.dfg import DFG, DFGNode
from repro.core.emit import SquashEmission, _split_version
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

__all__ = ["emit_rotation_mode", "RotationUnsupported"]


class RotationUnsupported(LegalityError):
    """The nest's recurrence shape needs data-set-mode emission."""


def _san(version: str) -> str:
    return version.replace("@", "__v")


def emit_rotation_mode(work: Program, nest: LoopNest, ds: int, ssa: SSABlock,
                       dfg: DFG, sa: StageAssignment) -> SquashEmission:
    """Replace ``nest`` inside ``work`` by rotation-form squashed code."""
    outer, inner = nest.outer, nest.inner
    M = trip_count(outer)
    N = trip_count(inner)
    if M is None or N is None or N < 1:
        raise LegalityError("emission requires constant trip counts, N >= 1")
    if ds < 2:
        raise RotationUnsupported("rotation form needs DS >= 2")
    lo_i, step_i = int(outer.lo.value), outer.step   # type: ignore
    lo_j, step_j = int(inner.lo.value), inner.step   # type: ignore
    main = (M // ds) * ds

    rename_scope = variables_written(outer.body) - {outer.var}

    def st(n: DFGNode) -> int:
        return min(max(sa.stage.get(n.nid, 1), 1), ds)

    # ---- classify live-ins ---------------------------------------------------
    live_in = dict(ssa.entry)          # name -> entry version
    carried: dict[str, DFGNode] = {}   # name -> exit producer node
    ring_vars: list[str] = []          # invariants + outer IV + inner IV
    shared: set[str] = set()           # identical across data sets
    for name in live_in:
        exit_v = ssa.exit.get(name)
        if name == inner.var:
            ring_vars.append(name)
        elif exit_v is not None and exit_v != f"{name}@0":
            node = dfg.defs[exit_v]
            if not node.is_operator:
                raise RotationUnsupported(
                    f"carried variable {name!r} is a pure copy "
                    "(register rotation)")
            carried[name] = node
        elif name == outer.var or name in rename_scope:
            ring_vars.append(name)
        else:
            shared.add(name)

    # ---- consumer stages per producer node -----------------------------------
    node_consumers: dict[int, list[int]] = {}
    reg_consumers: dict[str, list[int]] = {}
    for e in dfg.edges:
        if e.dist != 0 or e.kind != "data":
            continue
        c = st(e.dst)
        if e.src.kind == "reg":
            reg_consumers.setdefault(e.src.name or "", []).append(c)
        elif e.src.is_operator:
            node_consumers.setdefault(e.src.nid, []).append(c)

    live_out = {x for x in rename_scope
                if x in ssa.exit and ssa.exit[x] != f"{x}@0"}

    # ---- chain lengths --------------------------------------------------------
    chain_len: dict[int, int] = {}
    for node in dfg.nodes:
        if not node.is_operator or node.kind == "store":
            continue
        p = st(node)
        k = max((c - p for c in node_consumers.get(node.nid, [])), default=0)
        chain_len[node.nid] = max(k, 0)
    for name, node in carried.items():
        p = st(node)
        cs = reg_consumers.get(name, [1])
        if max(cs) > p:
            raise RotationUnsupported(
                f"carried variable {name!r} is consumed at stage {max(cs)} "
                f"after its stage-{p} definition (multi-lap chain)")
        chain_len[node.nid] = max(chain_len.get(node.nid, 0),
                                  (ds - p) + max(cs))
    for name in live_out:
        node = dfg.defs.get(ssa.exit[name])
        if node is None or not node.is_operator:
            raise RotationUnsupported(
                f"live-out {name!r} is a pure copy of another value")
        chain_len[node.nid] = max(chain_len.get(node.nid, 0), ds - st(node))

    # ---- naming ----------------------------------------------------------------
    def cur(node: DFGNode) -> str:
        return f"{_san(node.name or f'n{node.nid}')}__c"

    def slot(node: DFGNode, k: int) -> str:
        return f"{_san(node.name or f'n{node.nid}')}__r{k}"

    def ring(name: str, k: int) -> str:
        return f"{name}__ring{k}"

    def ds_name(x: str, d: int) -> str:
        return f"{x}__d{d}"

    # declarations (zero-initialized pre-prolog for definedness)
    pre_zero: list[Stmt] = []
    for node in dfg.nodes:
        if node.nid in chain_len:
            work.declare_local(cur(node), node.ty)
            pre_zero.append(Assign(cur(node), Const(0, node.ty)))
            for k in range(1, chain_len[node.nid] + 1):
                work.declare_local(slot(node, k), node.ty)
                pre_zero.append(Assign(slot(node, k), Const(0, node.ty)))
        elif node.is_operator and node.kind != "store":
            work.declare_local(cur(node), node.ty)
    for name in ring_vars:
        ty = ssa.types[f"{name}@0"]
        for k in range(1, ds + 1):
            work.declare_local(ring(name, k), ty)
            pre_zero.append(Assign(ring(name, k), Const(0, ty)))
        work.declare_local(f"{name}__wrap", ty)
    for d in range(ds):
        for x in rename_scope:
            work.declare_local(ds_name(x, d), work.scalar_type(x))

    # ---- operand resolution ------------------------------------------------------
    def read_of(u: str, c_stage: int) -> Expr:
        base, k = _split_version(u)
        node = dfg.defs[u]
        if node.kind == "const":
            return Const(node_const_value(node), node.ty)
        if node.kind == "reg":
            name = node.name or base
            if name in shared:
                return Var(name, node.ty)
            if name in carried:
                w = carried[name]
                delta = (ds - st(w)) + c_stage
                return Var(slot(w, delta), w.ty)
            return Var(ring(name, c_stage), node.ty)
        delta = c_stage - st(node)
        if delta == 0:
            return Var(cur(node), node.ty)
        return Var(slot(node, delta), node.ty)

    def node_const_value(node: DFGNode):
        # const nodes carry their repr in .name
        text = node.name or "0"
        return float(text) if node.ty.is_float else int(float(text))

    def rename_stmt(s: Stmt, c_stage: int) -> Stmt | None:
        if isinstance(s, Assign):
            node = dfg.defs[s.var]
            if node.stmt is not s:      # pure copy: aliases resolve via nodes
                return None
            expr = map_exprs(Assign("_", clone_expr(s.expr)),
                             lambda e: clone_expr(read_of(e.name, c_stage))
                             if isinstance(e, Var) else e).expr
            return Assign(cur(node), expr)
        if isinstance(s, Store):
            fn = (lambda e: clone_expr(read_of(e.name, c_stage))
                  if isinstance(e, Var) else e)
            return Store(s.array,
                         tuple(map_exprs(Assign("_", clone_expr(i)), fn).expr
                               for i in s.index),
                         map_exprs(Assign("_", clone_expr(s.value)), fn).expr)
        raise LegalityError("rotation emission expects 3AC statements")

    slices: dict[int, list[Stmt]] = {s: [] for s in range(1, ds + 1)}
    for k, s_stmt in enumerate(ssa.stmts):
        node = dfg.stmt_nodes.get(k)
        slices[st(node)].append(s_stmt)

    def emit_stages(active, out: list[Stmt]) -> None:
        for s in active:
            for s_stmt in slices[s]:
                r = rename_stmt(s_stmt, s)
                if r is not None:
                    out.append(r)

    # ---- shift block ---------------------------------------------------------------
    def shift_block(out: list[Stmt]) -> None:
        for node in dfg.nodes:
            K = chain_len.get(node.nid, 0)
            if K < 1:
                continue
            for k in range(K, 1, -1):
                out.append(Assign(slot(node, k), Var(slot(node, k - 1),
                                                     node.ty)))
            out.append(Assign(slot(node, 1), Var(cur(node), node.ty)))
        for name in ring_vars:
            ty = ssa.types[f"{name}@0"]
            out.append(Assign(f"{name}__wrap", Var(ring(name, ds), ty)))
            for k in range(ds, 1, -1):
                out.append(Assign(ring(name, k), Var(ring(name, k - 1), ty)))
            wrapped: Expr = Var(f"{name}__wrap", ty)
            if name == inner.var:
                wrapped = BinOp("add", wrapped, Const(step_j, ty))
            out.append(Assign(ring(name, 1), wrapped))

    # ---- injections -----------------------------------------------------------------
    def ring_init_expr(name: str, d: int) -> Expr:
        if name == inner.var:
            return Const(lo_j, I32)
        if name == outer.var:
            if d == 0:
                return Var(outer.var, I32)
            return BinOp("add", Var(outer.var, I32), Const(d * step_i, I32))
        return Var(ds_name(name, d), work.scalar_type(name))

    pre_prolog: list[Stmt] = []
    in_tick_inject: dict[int, list[Stmt]] = {}
    post_shift_inject: dict[int, list[Stmt]] = {}
    for d in range(ds):
        for name in ring_vars:
            stmt = Assign(ring(name, 1), ring_init_expr(name, d))
            if d == 0:
                pre_prolog.append(stmt)
            else:
                post_shift_inject.setdefault(d - 1, []).append(stmt)
        for name, node in carried.items():
            init = Var(ds_name(name, d), work.scalar_type(name))
            tv = d + st(node) - ds - 1
            if tv < 0:
                if -tv <= chain_len[node.nid]:
                    pre_prolog.append(Assign(slot(node, -tv), init))
            else:
                in_tick_inject.setdefault(tv, []).append(
                    Assign(cur(node), init))

    # ---- copy-outs (each data set's final stage-DS tick) -------------------------
    def copy_out(d: int, out: list[Stmt]) -> None:
        for name in sorted(live_out):
            node = dfg.defs[ssa.exit[name]]
            delta = ds - st(node)
            src = Var(cur(node), node.ty) if delta == 0 else \
                Var(slot(node, delta), node.ty)
            out.append(Assign(ds_name(name, d), src))

    # ---- assemble the outer body ----------------------------------------------------
    body: list[Stmt] = []
    for d in range(ds):
        for s_stmt in nest.pre_stmts():
            c = clone_stmt(s_stmt)
            if d:
                c = substitute(c, {outer.var: BinOp(
                    "add", Var(outer.var, I32), Const(d * step_i, I32))})
            c = rename_vars(c, {x: ds_name(x, d) for x in rename_scope})
            body.append(c)
    body.extend(pre_zero)
    body.extend(pre_prolog)

    for t in range(ds - 1):                     # prolog ticks
        emit_stages(range(1, t + 2), body)
        body.extend(in_tick_inject.get(t, []))
        shift_block(body)
        body.extend(post_shift_inject.get(t, []))

    steady_trips = ds * (N - 1)
    if steady_trips > 0:                        # uniform steady-state loop
        tick_var = work.fresh_name("rot_t")
        work.declare_local(tick_var, I32)
        group: list[Stmt] = []
        emit_stages(range(1, ds + 1), group)
        shift_block(group)
        body.append(For(tick_var, Const(0, I32), Const(steady_trips, I32),
                        Block(group), 1,
                        dict(inner.annotations, squash_ds=ds,
                             rotation=True)))

    emit_stages(range(1, ds + 1), body)         # last steady tick (d=0 ends)
    copy_out(0, body)
    shift_block(body)

    for k in range(1, ds):                      # epilog ticks
        emit_stages(range(k + 1, ds + 1), body)
        copy_out(k, body)
        shift_block(body)

    for d in range(ds):                         # IV fixup + post statements
        if inner.var in rename_scope:
            body.append(Assign(ds_name(inner.var, d),
                               Const(lo_j + (N - 1) * step_j, I32)))
        for s_stmt in nest.post_stmts():
            c = clone_stmt(s_stmt)
            if d:
                c = substitute(c, {outer.var: BinOp(
                    "add", Var(outer.var, I32), Const(d * step_i, I32))})
            c = rename_vars(c, {x: ds_name(x, d) for x in rename_scope})
            body.append(c)

    new_outer = For(outer.var, Const(lo_i, I32),
                    Const(lo_i + main * step_i, I32), Block(body),
                    step_i * ds, dict(outer.annotations))
    replacement: list[Stmt] = []
    if main > 0:
        replacement.append(new_outer)
        for x in sorted(rename_scope):
            replacement.append(Assign(x, Var(ds_name(x, ds - 1),
                                             work.scalar_type(x))))
        replacement.append(Assign(outer.var,
                                  Const(lo_i + (M - 1) * step_i, I32)))
    if main != M:
        replacement.append(For(outer.var, Const(lo_i + main * step_i, I32),
                               Const(lo_i + M * step_i, I32),
                               clone_stmt(outer.body), step_i,
                               dict(outer.annotations)))
    block, idx = parent_of(work, outer)
    block.stmts[idx:idx + 1] = replacement

    return SquashEmission(
        program=work, ds=ds, inner_trip=N, outer_trip=M, main_trips=main,
        peeled=M - main, steady_ticks=ds * (N - 1) + 1,
        stage_of_stmt=[st(dfg.stmt_nodes[k]) for k in range(len(ssa.stmts))])
