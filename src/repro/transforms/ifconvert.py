"""If-conversion (thesis §4.2).

Rewrites structured conditionals whose branches are pure scalar
assignments into straight-line ``Select`` code, which is what makes an
inner loop a single basic block — one of the squash requirements::

    if (c) { x = e1; y = e2; } else { x = e3; }
      ==>
    x = select(c, e1', e3');  y = select(c, e2', y)   (symbolically composed)

Branch bodies may chain assignments (later ones see earlier ones); the
pass composes them symbolically with substitution, converting each
composed value to its target's type as the assignment would.  The
selects act as one parallel assignment: when a select reads a target an
earlier one already overwrote (its condition included), every value goes
through a temporary first, fresh for each conditional.  A target only
one arm assigns that is not definitely assigned before the ``if`` is
left possibly undefined by the other arm, so no later read can observe
that arm; it is assigned unconditionally.

Conditionals containing stores, loops, or nested ifs that cannot
themselves be converted are left in place.  Both arms of a select are
evaluated, so division inside a branch blocks conversion, and a load in
either arm must stay in bounds on every iteration (lint W003 flags one
that may not).  ``kernel_loops_only`` restricts the pass to the bodies
of ``#pragma kernel`` loops, the only place squash needs it.
"""

from __future__ import annotations

from repro.ir.interp import cast_value
from repro.ir.nodes import (
    Assign, BinOp, Block, Cast, Const, Expr, For, If, Program, Select, Stmt,
    Var,
)
from repro.ir.types import ScalarType
from repro.ir.validate import definitely_assigned
from repro.ir.visitors import (
    clone_expr, clone_program, substitute, walk_exprs, walk_stmts,
)

__all__ = ["if_convert"]


def _converted(e: Expr, ty: ScalarType) -> Expr:
    """``e`` converted to ``ty`` the way assigning it to a ``ty`` scalar
    converts it."""
    if e.ty == ty:
        return e
    if isinstance(e, Const):
        return Const(cast_value(e.value, ty), ty)
    return Cast(e, ty)


def _branch_effects(block: Block, q: Program) -> dict[str, Expr] | None:
    """Final symbolic value per assigned scalar, already converted to the
    scalar's type, or None if not convertible."""
    env: dict[str, Expr] = {}
    for s in block.stmts:
        if not isinstance(s, Assign):
            return None
        e = substitute(Assign("_", s.expr), env).expr
        for node in walk_exprs(e):
            if isinstance(node, BinOp) and node.op in ("div", "mod"):
                return None   # must not execute the untaken arm's division
        env[s.var] = _converted(e, q.scalar_type(s.var))
    return env


def _convert_if(s: If, q: Program, defined: set[str]) -> list[Stmt] | None:
    then_env = _branch_effects(s.then, q)
    else_env = _branch_effects(s.orelse, q)
    if then_env is None or else_env is None:
        return None
    values: dict[str, Expr] = {}
    for v in dict.fromkeys([*then_env, *else_env]):
        if v in defined or (v in then_env and v in else_env):
            old = Var(v, q.scalar_type(v))
            values[v] = Select(clone_expr(s.cond), then_env.get(v, old),
                               else_env.get(v, old))
        else:
            # the arm that skips v leaves it undefined: no read sees it
            values[v] = then_env[v] if v in then_env else else_env[v]
    names = list(values)
    clobbered = any(isinstance(n, Var) and n.name in names[:k]
                    for k, v in enumerate(names)
                    for n in walk_exprs(values[v]))
    if not clobbered:
        return [Assign(v, e) for v, e in values.items()]
    # fresh per conversion: an enclosing if's selects may stage this
    # if's temporaries too, and must not share them
    temps: dict[str, str] = {}
    for v in names:
        temps[v] = q.fresh_name(f"{v}__ifc")
        q.declare_local(temps[v], q.scalar_type(v))
    return ([Assign(temps[v], e) for v, e in values.items()]
            + [Assign(v, Var(temps[v], q.scalar_type(v))) for v in names])


def _holds_if(p: Program, kernel_loops_only: bool) -> bool:
    """Whether any conditional lies where the pass would convert it."""
    scopes = ([s.body for s in walk_stmts(p.body)
               if isinstance(s, For) and s.annotations.get("kernel")]
              if kernel_loops_only else [p.body])
    return any(isinstance(s, If) for b in scopes for s in walk_stmts(b))


def if_convert(p: Program, *, kernel_loops_only: bool = False) -> Program:
    """If-conversion pass (innermost conditionals first).  With
    ``kernel_loops_only``, conditionals outside ``#pragma kernel`` loops
    stay in place; definite assignment is still tracked through them.

    When no conditional lies in scope, ``p`` itself comes back: nothing
    is cloned and definite assignment is not walked (most kernels have
    no ``if``).  Otherwise the result is a converted copy."""
    if not _holds_if(p, kernel_loops_only):
        return p
    q = clone_program(p)

    def visit(b: Block, defined: set[str], active: bool) -> None:
        new: list[Stmt] = []
        for s in b.stmts:
            out: list[Stmt] = [s]
            if isinstance(s, If):
                visit(s.then, defined, active)
                visit(s.orelse, defined, active)
                conv = _convert_if(s, q, defined) if active else None
                if conv is not None:
                    out = conv
            elif isinstance(s, For):
                visit(s.body, defined | {s.var},
                      active or bool(s.annotations.get("kernel")))
            for st in out:
                defined = definitely_assigned(q, st, defined)
            new.extend(out)
        b.stmts = new

    visit(q.body, set(q.params), not kernel_loops_only)
    return q
