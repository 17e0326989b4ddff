"""Unroll-and-jam (thesis §3.4) — the baseline unroll-and-squash competes with.

Unrolls the outer loop of a 2-nest by ``factor`` and fuses the resulting
inner loops back into one, so the inner body contains ``factor`` copies of
the computation working on ``factor`` consecutive outer iterations::

    for (i; i < M; i++) {            for (i; i < M; i += 2) {
      pre(i);                          pre(i); pre'(i+1);
      for (j) body(i, j);     ==>      for (j) { body(i, j); body'(i+1, j); }
      post(i);                         post(i); post'(i+1);
    }                                }

Scalars written in the outer body are privatized per copy (modulo variable
expansion), which is what makes the fused iterations interleavable.  The
legality condition is the same outer-iteration-parallelism requirement as
unroll-and-squash (§4.1): the thesis defines squash as applicable to "any
set of 2 nested loops that can be successfully unroll-and-jammed".

Hardware consequence (Ch. 6): the operator count of the inner loop scales
with ``factor`` — so does area — while the recurrence cycle is unchanged.
"""

from __future__ import annotations

from repro.analysis.loops import LoopNest, trip_count
from repro.analysis.parallel import check_outer_parallel
from repro.analysis.usedef import uses_of_expr
from repro.errors import LegalityError
from repro.ir.nodes import (
    Assign, BinOp, Block, Const, For, Program, Stmt, Var,
)
from repro.ir.visitors import (
    clone_expr, clone_program, clone_stmt, rename_vars, substitute,
    variables_written,
)
from repro.transforms._util import find_in_clone, parent_of

__all__ = ["unroll_and_jam", "jam_privatized_names"]


def jam_privatized_names(nest: LoopNest) -> set[str]:
    """Scalars privatized per unrolled copy (everything the outer body
    writes except the two induction variables)."""
    return variables_written(nest.outer.body) - {nest.outer.var, nest.inner.var}


def _check_structure(nest: LoopNest) -> None:
    inner = nest.inner
    bound_reads = uses_of_expr(inner.lo) | uses_of_expr(inner.hi)
    if nest.outer.var in bound_reads:
        raise LegalityError(
            "inner loop bounds depend on the outer induction variable; "
            "fused copies would disagree on trip count")
    written = variables_written(nest.outer.body)
    if bound_reads & written:
        raise LegalityError(
            f"inner loop bounds read {sorted(bound_reads & written)} "
            "which the outer body writes")


def unroll_and_jam(program: Program, nest: LoopNest, factor: int,
                   check: bool = True) -> Program:
    """Apply unroll-and-jam by ``factor`` to ``nest``; returns a new program.

    Remainder outer iterations (trip % factor) run in an untransformed tail
    loop.  With ``check=True`` the §4.2 dependence legality test runs first
    and raises :class:`LegalityError` on Case-3 hazards.
    """
    if factor < 1:
        raise LegalityError("jam factor must be >= 1")
    _check_structure(nest)
    if check:
        rep = check_outer_parallel(program, nest, factor)
        if not rep.ok:
            raise LegalityError("unroll-and-jam rejected", rep.reasons)

    q = clone_program(program)
    outer: For = find_in_clone(q, program, nest.outer)  # type: ignore[assignment]
    inner: For = find_in_clone(q, program, nest.inner)  # type: ignore[assignment]
    cnest = LoopNest(outer, inner)
    trip = trip_count(outer)
    if trip is None:
        raise LegalityError("unroll-and-jam requires a constant outer trip count")
    # a factor past the trip fuses the whole loop; a trip-1 (or trip-0)
    # loop then has nothing to fuse and comes back untransformed
    factor = min(factor, trip)
    if factor <= 1:
        return q

    main_trips = (trip // factor) * factor
    lo = int(outer.lo.value)        # type: ignore[union-attr]
    step = outer.step

    privatized = jam_privatized_names(cnest)

    def copy_stmts(stmts: list[Stmt], k: int) -> list[Stmt]:
        out = []
        for s in stmts:
            c = clone_stmt(s)
            if k:
                c = substitute(c, {outer.var: BinOp(
                    "add", Var(outer.var, outer.lo.ty),
                    Const(k * step, outer.lo.ty))})
                c = rename_vars(c, {v: f"{v}__u{k}" for v in privatized})
            out.append(c)
        return out

    for k in range(1, factor):
        for v in sorted(privatized):
            q.declare_local(f"{v}__u{k}", q.scalar_type(v))

    pre: list[Stmt] = []
    post: list[Stmt] = []
    inner_body: list[Stmt] = []
    for k in range(factor):
        pre.extend(copy_stmts(nest_pre(cnest), k))
        inner_body.extend(copy_stmts(list(inner.body.stmts), k))
        post.extend(copy_stmts(nest_post(cnest), k))

    fused_inner = For(inner.var, clone_expr(inner.lo), clone_expr(inner.hi),
                      Block(inner_body), inner.step, dict(inner.annotations))
    jam_body = Block(pre + [fused_inner] + post)
    jammed = For(outer.var, Const(lo, outer.lo.ty),
                 Const(lo + main_trips * step, outer.hi.ty),
                 jam_body, step * factor, dict(outer.annotations))

    replacement: list[Stmt] = [jammed]
    # final copy's privatized values become the canonical ones afterwards
    fixup = [Assign(v, Var(f"{v}__u{factor - 1}", q.scalar_type(v)))
             for v in sorted(privatized)]
    if main_trips > 0:
        replacement.extend(fixup)
    if main_trips != trip:
        tail = For(outer.var, Const(lo + main_trips * step, outer.lo.ty),
                   Const(lo + trip * step, outer.hi.ty),
                   clone_stmt(nest.outer.body), step, dict(outer.annotations))
        replacement.append(tail)

    block, idx = parent_of(q, outer)
    block.stmts[idx:idx + 1] = replacement
    return q


def nest_pre(nest: LoopNest) -> list[Stmt]:
    return nest.pre_stmts()


def nest_post(nest: LoopNest) -> list[Stmt]:
    return nest.post_stmts()
