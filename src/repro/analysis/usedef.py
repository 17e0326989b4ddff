"""Use/def sets and backward liveness over structured IR.

The squash transform needs the classic facts the thesis's implementation
read out of MachSUIF (§5.3): which scalars are live into the inner loop
(they become the DFG's top registers), which are live out (they must be
saved per data set), and which are merely loop-invariant reads.

Liveness is computed directly on the structured tree: a backward pass over
statement sequences, with loops iterated to a fixpoint (two passes suffice
for reducible single-entry loops like ours).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.nodes import (
    Assign, Block, Expr, For, If, Stmt, Store, Var,
)
from repro.ir.visitors import walk_exprs

__all__ = ["uses_of_expr", "stmt_uses", "live_before", "LoopLiveness",
           "loop_liveness"]


def uses_of_expr(e: Expr) -> set[str]:
    """Scalar names read by an expression."""
    return {n.name for n in walk_exprs(e) if isinstance(n, Var)}


def stmt_uses(s: Stmt) -> set[str]:
    """Scalars read directly by one (non-compound) statement."""
    if isinstance(s, Assign):
        return uses_of_expr(s.expr)
    if isinstance(s, Store):
        out: set[str] = set()
        for i in s.index:
            out |= uses_of_expr(i)
        return out | uses_of_expr(s.value)
    if isinstance(s, For):
        return uses_of_expr(s.lo) | uses_of_expr(s.hi)
    if isinstance(s, If):
        return uses_of_expr(s.cond)
    return set()


def _live_block(stmts: list[Stmt], live_after: set[str],
                memo: "dict[int, set[str]] | None" = None) -> set[str]:
    live = set(live_after)
    for s in reversed(stmts):
        live = _live_stmt(s, live, memo)
    return live


def _stmt_uses_memo(s: Stmt, memo: "dict[int, set[str]] | None"
                    ) -> set[str]:
    """Direct use set of one statement, memoized for the fixpoint.

    The backward pass revisits every statement once per fixpoint round
    (and 2^depth times under nested loops); the use sets are static, so
    one liveness query shares them.  The memo is keyed by ``id`` and
    lives only for the duration of a single traversal, during which the
    statements are pinned alive by their program — no recycled-id hazard.
    """
    if memo is None:
        return stmt_uses(s)
    uses = memo.get(id(s))
    if uses is None:
        uses = memo[id(s)] = stmt_uses(s)
    return uses


def _live_stmt(s: Stmt, live_after: set[str],
               memo: "dict[int, set[str]] | None" = None) -> set[str]:
    if isinstance(s, Assign):
        live = set(live_after)
        live.discard(s.var)
        return live | _stmt_uses_memo(s, memo)
    if isinstance(s, Store):
        return live_after | _stmt_uses_memo(s, memo)
    if isinstance(s, Block):
        return _live_block(s.stmts, live_after, memo)
    if isinstance(s, If):
        t = _live_stmt(s.then, live_after, memo)
        e = _live_stmt(s.orelse, live_after, memo)
        return t | e | _stmt_uses_memo(s, memo)
    if isinstance(s, For):
        # Fixpoint: whatever is live at the top of the body after one
        # iteration may flow around the backedge.
        live_in_body = _live_stmt(s.body, live_after, memo)
        live_in_body = _live_stmt(s.body, live_after | live_in_body, memo)
        live = (live_after | live_in_body) - {s.var}
        return live | _stmt_uses_memo(s, memo)
    raise TypeError(f"unknown statement node {type(s).__name__}")


def live_before(s: Stmt, live_after: set[str]) -> set[str]:
    """Scalars live immediately before ``s`` given the set live after it."""
    return _live_stmt(s, live_after)


@dataclass
class LoopLiveness:
    """Liveness summary of an inner loop inside its enclosing context.

    Attributes
    ----------
    live_in:
        Scalars whose value at loop entry can be read inside the loop
        (these become the registers at the top of the squash DFG;
        the inner IV is excluded — it is reinitialized by the loop).
    live_out:
        Scalars written inside the loop body (or the IV) that are read
        after the loop by the surrounding code.
    invariant_reads:
        Subset of ``live_in`` never written in the body — outer-defined
        constants, mapped to self-cycle registers in the DFG (§4.3).
    carried:
        Subset of ``live_in`` also written in the body — true loop-carried
        scalar recurrences (the DFG backedges).
    defined:
        All scalars written by the body (incl. SSA-expansion candidates).

    A pickle holds each set as a sorted list, so the stored bytes do not
    depend on the string-hash seed of the process that wrote them.
    """

    live_in: set[str] = field(default_factory=set)
    live_out: set[str] = field(default_factory=set)
    invariant_reads: set[str] = field(default_factory=set)
    carried: set[str] = field(default_factory=set)
    defined: set[str] = field(default_factory=set)

    def __getstate__(self) -> dict:
        return {name: sorted(names) for name, names in self.__dict__.items()}

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update((name, set(names))
                             for name, names in state.items())


def loop_liveness(loop: For, live_after_loop: set[str]) -> LoopLiveness:
    """Compute the :class:`LoopLiveness` summary for ``loop``.

    ``live_after_loop`` is the scalar set live after the loop in its
    context (e.g. from :func:`live_before` applied to the trailing
    statements of the enclosing body).
    """
    from repro.ir.visitors import variables_written

    body_defs = variables_written(loop.body)
    # live at top of body, considering the backedge
    memo: dict[int, set[str]] = {}
    live_top = _live_stmt(loop.body, live_after_loop, memo)
    live_top = _live_stmt(loop.body, live_after_loop | live_top, memo)
    live_in = (live_top - {loop.var}) | uses_of_expr(loop.lo) | uses_of_expr(loop.hi)

    info = LoopLiveness()
    info.defined = set(body_defs)
    info.live_in = {v for v in live_top if v != loop.var}
    info.live_out = {v for v in live_after_loop
                     if v in body_defs or v == loop.var}
    info.invariant_reads = {v for v in info.live_in if v not in body_defs}
    info.carried = {v for v in info.live_in if v in body_defs}
    return info
