"""Induction-variable identification (thesis §4.2).

Identifies *basic* induction variables — scalars updated exactly once per
iteration by a constant step.  The thesis uses this to remove outer-loop
scalar dependences that would otherwise block unroll-and-squash (a counter
``p = p + 4`` per outer iteration is not a real dependence once expressed
as ``p0 + 4*i``).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ir.nodes import Assign, BinOp, Const, For, Var
from repro.ir.visitors import walk_stmts

__all__ = ["BasicIV", "find_basic_ivs"]


@dataclass
class BasicIV:
    """A scalar updated once per iteration as ``var = var ± const``."""

    var: str
    step: int
    update: Assign        # the updating statement (direct child of the body)
    position: int         # its index in the loop body block


def _iv_step(stmt: Assign) -> int | None:
    """Step of a ``v = v + c`` / ``v = v - c`` / ``v = c + v`` update, else None."""
    e = stmt.expr
    if not isinstance(e, BinOp) or e.op not in ("add", "sub"):
        return None
    lhs, rhs = e.lhs, e.rhs
    if isinstance(lhs, Var) and lhs.name == stmt.var and isinstance(rhs, Const):
        c = int(rhs.value)
        return c if e.op == "add" else -c
    if (e.op == "add" and isinstance(rhs, Var) and rhs.name == stmt.var
            and isinstance(lhs, Const)):
        return int(lhs.value)
    return None


def find_basic_ivs(loop: For) -> list[BasicIV]:
    """Basic induction variables of ``loop``.

    Conditions: the variable is written exactly once in the whole body, the
    write is a direct child of the body block (executed once per
    iteration), and it has the ``v = v ± c`` shape.
    """
    writes: dict[str, int] = {}
    for s in walk_stmts(loop.body):
        if isinstance(s, Assign):
            writes[s.var] = writes.get(s.var, 0) + 1
        elif isinstance(s, For):
            writes[s.var] = writes.get(s.var, 0) + 1

    out: list[BasicIV] = []
    for pos, s in enumerate(loop.body.stmts):
        if not isinstance(s, Assign) or writes.get(s.var, 0) != 1:
            continue
        step = _iv_step(s)
        if step is not None:
            out.append(BasicIV(s.var, step, s, pos))
    return out
