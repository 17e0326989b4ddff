"""Loop-nest discovery and shape queries.

Provides the :class:`LoopNest` view that the transforms and the squash
legality checker operate on: an (outer, inner) pair of counted loops,
mirroring the 2-deep nests unroll-and-squash targets (thesis §4.1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import LegalityError
from repro.ir.nodes import Block, Const, For, If, Program, Stmt
from repro.ir.visitors import walk_stmts

__all__ = [
    "LoopInfo", "LoopNest", "all_loops", "trip_count",
    "find_loop_nests", "find_kernel_nests",
]


def all_loops(p: Program) -> list[For]:
    """All ``For`` statements in the program, pre-order."""
    return [s for s in walk_stmts(p.body) if isinstance(s, For)]


def trip_count(loop: For) -> Optional[int]:
    """Compile-time trip count, or ``None`` when bounds are not constants."""
    if isinstance(loop.lo, Const) and isinstance(loop.hi, Const):
        lo, hi = int(loop.lo.value), int(loop.hi.value)
        if loop.step > 0:
            return max(0, -(-(hi - lo) // loop.step))
        return max(0, -((hi - lo) // -loop.step))
    return None


def direct_inner_loops(loop: For) -> list[For]:
    """Loops nested directly inside ``loop`` (not through another loop)."""
    out: list[For] = []

    def visit(s: Stmt) -> None:
        if isinstance(s, For):
            out.append(s)
            return  # don't descend
        if isinstance(s, Block):
            for c in s.stmts:
                visit(c)
        elif isinstance(s, If):
            visit(s.then)
            visit(s.orelse)

    visit(loop.body)
    return out


@dataclass
class LoopInfo:
    """A loop plus its position in the program."""

    loop: For
    depth: int
    parent: Optional[For]


def loop_infos(p: Program) -> list[LoopInfo]:
    """All loops with depth and immediate parent loop."""
    infos: list[LoopInfo] = []

    def visit(s: Stmt, depth: int, parent: Optional[For]) -> None:
        if isinstance(s, For):
            infos.append(LoopInfo(s, depth, parent))
            visit(s.body, depth + 1, s)
        elif isinstance(s, Block):
            for c in s.stmts:
                visit(c, depth, parent)
        elif isinstance(s, If):
            visit(s.then, depth, parent)
            visit(s.orelse, depth, parent)

    visit(p.body, 0, None)
    return infos


@dataclass
class LoopNest:
    """An (outer, inner) loop pair — the unroll-and-squash target shape."""

    outer: For
    inner: For

    @property
    def outer_var(self) -> str:
        return self.outer.var

    @property
    def inner_var(self) -> str:
        return self.inner.var

    def outer_trip(self) -> Optional[int]:
        return trip_count(self.outer)

    def inner_trip(self) -> Optional[int]:
        return trip_count(self.inner)

    def pre_stmts(self) -> list[Stmt]:
        """Outer-body statements before the inner loop (must be direct)."""
        idx = self._inner_index()
        return self.outer.body.stmts[:idx]

    def post_stmts(self) -> list[Stmt]:
        """Outer-body statements after the inner loop."""
        idx = self._inner_index()
        return self.outer.body.stmts[idx + 1:]

    def _inner_index(self) -> int:
        for k, s in enumerate(self.outer.body.stmts):
            if s is self.inner:
                return k
        raise LegalityError(
            "inner loop is not a direct child of the outer loop body")


def find_loop_nests(p: Program) -> list[LoopNest]:
    """All (outer, inner) pairs where the inner loop is the unique loop
    directly inside the outer body."""
    nests = []
    for info in loop_infos(p):
        inner = direct_inner_loops(info.loop)
        if len(inner) == 1:
            nests.append(LoopNest(info.loop, inner[0]))
    return nests


def find_kernel_nests(p: Program) -> list[LoopNest]:
    """Nests whose inner loop carries the ``kernel`` annotation (the way
    Nimble users marked loops for hardware mapping)."""
    return [n for n in find_loop_nests(p)
            if n.inner.annotations.get("kernel")]
