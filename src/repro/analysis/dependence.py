"""Array dependence analysis (thesis §3.2 and §4.2).

The squash legality question is narrow and the thesis states it precisely:
for two memory accesses A1, A2 (at least one a store) inside the
inner-outer pair, compute the possible **outer-loop dependence distances**
``d = i2 - i1`` and classify against the unroll factor DS:

* Case 1 — only distance 0: unrolled accesses stay independent;
* Case 2 — no distance intersects ``[-(DS-1), DS-1]`` (other than none):
  dependent accesses land in different tiles, no hazard;
* Case 3 — some non-zero distance falls inside the data-set range: the
  transformation could reorder the accesses; squash is rejected.

Two engines compute the distance set:

1. an analytic affine engine (ZIV / strong-SIV / weak-SIV / diophantine
   line test with the inner index as a free variable), and
2. a sound brute-force engine for constant loop bounds that evaluates the
   subscript expressions over the whole iteration space (subscripts may be
   arbitrary expressions of the loop indices, e.g. ``(i*j) & 15``).

The public entry :func:`outer_distance` tries the affine engine first and
falls back to brute force; ``UNKNOWN`` is returned only when neither
applies, and callers must treat it conservatively (Case 3).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from repro.ir.nodes import (
    Assign, BinOp, Block, Cast, Const, Expr, For, If, Load, Select, Stmt,
    Store, UnOp, Var,
)
from repro.ir.visitors import walk_exprs
from repro.analysis.loops import LoopNest, trip_count

__all__ = [
    "AffineForm", "affine_of", "MemAccess", "collect_accesses",
    "DistanceKind", "DistanceSet", "outer_distance", "squash_case",
    "BRUTE_FORCE_LIMIT",
]

#: Maximum iteration-space points the brute-force engine will enumerate.
BRUTE_FORCE_LIMIT = 1 << 16


# ---------------------------------------------------------------------------
# Affine subscript extraction
# ---------------------------------------------------------------------------

@dataclass
class AffineForm:
    """``const + sum coeffs[v] * v`` over loop index variables."""

    const: int = 0
    coeffs: dict[str, int] = field(default_factory=dict)

    def coeff(self, var: str) -> int:
        return self.coeffs.get(var, 0)

    def __add__(self, other: "AffineForm") -> "AffineForm":
        coeffs = dict(self.coeffs)
        for v, c in other.coeffs.items():
            coeffs[v] = coeffs.get(v, 0) + c
        return AffineForm(self.const + other.const,
                          {v: c for v, c in coeffs.items() if c})

    def scale(self, k: int) -> "AffineForm":
        return AffineForm(self.const * k,
                          {v: c * k for v, c in self.coeffs.items() if c * k})


def affine_of(e: Expr, index_vars: set[str]) -> Optional[AffineForm]:
    """Extract an affine form over ``index_vars``; None if not affine."""
    if isinstance(e, Const):
        if e.ty.is_float:
            return None
        return AffineForm(int(e.value))
    if isinstance(e, Var):
        if e.name in index_vars:
            return AffineForm(0, {e.name: 1})
        return None
    if isinstance(e, Cast):
        return affine_of(e.operand, index_vars) if not e.ty.is_float else None
    if isinstance(e, UnOp) and e.op == "neg":
        inner = affine_of(e.operand, index_vars)
        return inner.scale(-1) if inner is not None else None
    if isinstance(e, BinOp):
        if e.op == "add" or e.op == "sub":
            a = affine_of(e.lhs, index_vars)
            b = affine_of(e.rhs, index_vars)
            if a is None or b is None:
                return None
            return a + (b if e.op == "add" else b.scale(-1))
        if e.op == "mul":
            a = affine_of(e.lhs, index_vars)
            b = affine_of(e.rhs, index_vars)
            if a is None or b is None:
                return None
            if not a.coeffs:
                return b.scale(a.const)
            if not b.coeffs:
                return a.scale(b.const)
            return None
        if e.op == "shl":
            a = affine_of(e.lhs, index_vars)
            b = affine_of(e.rhs, index_vars)
            if a is not None and b is not None and not b.coeffs and b.const >= 0:
                return a.scale(1 << b.const)
            return None
    return None


# ---------------------------------------------------------------------------
# Access collection
# ---------------------------------------------------------------------------

@dataclass
class MemAccess:
    """One array reference inside a loop nest."""

    array: str
    index: tuple[Expr, ...]
    is_store: bool
    stmt: Stmt
    in_inner: bool     # lexically inside the inner loop

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "store" if self.is_store else "load"
        return f"<{kind} {self.array}[{', '.join(map(str, self.index))}]>"


def collect_accesses(nest: LoopNest, include_roms: bool = False,
                     rom_names: frozenset[str] = frozenset()) -> list[MemAccess]:
    """All array accesses in the outer body, flagged by inner-loop membership."""
    out: list[MemAccess] = []

    def scan_stmt(s: Stmt, in_inner: bool) -> None:
        exprs: list[Expr] = []
        if isinstance(s, Assign):
            exprs.append(s.expr)
        elif isinstance(s, Store):
            if include_roms or s.array not in rom_names:
                out.append(MemAccess(s.array, s.index, True, s, in_inner))
            exprs.extend(s.index)
            exprs.append(s.value)
        elif isinstance(s, If):
            exprs.append(s.cond)
        elif isinstance(s, For):
            exprs.extend((s.lo, s.hi))
        for e in exprs:
            for node in walk_exprs(e):
                if isinstance(node, Load):
                    if include_roms or node.array not in rom_names:
                        out.append(MemAccess(node.array, node.index, False,
                                             s, in_inner))

    def scan_block(b: Block, in_inner: bool) -> None:
        for s in b.stmts:
            if s is nest.inner:
                scan_stmt(s, False)      # inner bounds live in outer scope
                scan_block(nest.inner.body, True)
            elif isinstance(s, For):
                scan_stmt(s, in_inner)
                scan_block(s.body, in_inner)
            elif isinstance(s, If):
                scan_stmt(s, in_inner)
                scan_block(s.then, in_inner)
                scan_block(s.orelse, in_inner)
            else:
                scan_stmt(s, in_inner)

    scan_block(nest.outer.body, False)
    return out


# ---------------------------------------------------------------------------
# Distance sets
# ---------------------------------------------------------------------------

class DistanceKind(Enum):
    EMPTY = "empty"        # no dependence
    FINITE = "finite"      # explicit distance set
    ALL = "all"            # any distance possible (e.g. a[0] every iter)
    UNKNOWN = "unknown"    # analysis failed; treat as ALL


@dataclass
class DistanceSet:
    """Possible outer-loop dependence distances between two accesses."""

    kind: DistanceKind
    distances: frozenset[int] = frozenset()

    @staticmethod
    def empty() -> "DistanceSet":
        return DistanceSet(DistanceKind.EMPTY)

    @staticmethod
    def finite(ds) -> "DistanceSet":
        ds = frozenset(int(d) for d in ds)
        if not ds:
            return DistanceSet.empty()
        return DistanceSet(DistanceKind.FINITE, ds)

    @staticmethod
    def all_() -> "DistanceSet":
        return DistanceSet(DistanceKind.ALL)

    @staticmethod
    def unknown() -> "DistanceSet":
        return DistanceSet(DistanceKind.UNKNOWN)

    def intersects_range(self, lo: int, hi: int, exclude_zero: bool = False) -> bool:
        """Does any possible distance fall within [lo, hi]?"""
        if self.kind is DistanceKind.EMPTY:
            return False
        if self.kind in (DistanceKind.ALL, DistanceKind.UNKNOWN):
            return True
        for d in self.distances:
            if lo <= d <= hi and not (exclude_zero and d == 0):
                return True
        return False

    def union(self, other: "DistanceSet") -> "DistanceSet":
        if (self.kind in (DistanceKind.ALL, DistanceKind.UNKNOWN)
                or other.kind in (DistanceKind.ALL, DistanceKind.UNKNOWN)):
            if DistanceKind.UNKNOWN in (self.kind, other.kind):
                return DistanceSet.unknown()
            return DistanceSet.all_()
        return DistanceSet.finite(self.distances | other.distances)


def _affine_pair_distance(f1: AffineForm, f2: AffineForm, outer: For,
                          inner: Optional[For]) -> Optional[DistanceSet]:
    """Distance set for one subscript dimension via the affine engine.

    Returns None when coefficients disagree in a way the analytic tests do
    not cover (caller falls back to brute force).
    """
    i = outer.var
    j = inner.var if inner is not None else None
    a1, a2 = f1.coeff(i), f2.coeff(i)
    b1 = f1.coeff(j) if j else 0
    b2 = f2.coeff(j) if j else 0
    extra = ({v for v in f1.coeffs if v not in (i, j)}
             | {v for v in f2.coeffs if v not in (i, j)})
    if extra:
        return None  # deeper/unrelated loop indices: not handled analytically
    dc = f1.const - f2.const

    n = trip_count(inner) if inner is not None else 1
    m = trip_count(outer)

    if a1 != a2 or b1 != b2:
        return None  # weak-crossing / mismatched strides: brute force

    # distances are measured in *iterations*: with i = lo + ki*step the
    # subscript coefficient on the iteration counter is a*step.
    a = a1 * outer.step
    b = b1 * (inner.step if inner is not None else 1)
    # equation: a*dki + b*dkj = dc with dkj in [-(n-1), n-1]
    if a == 0 and b == 0:
        return DistanceSet.all_() if dc == 0 else DistanceSet.empty()
    if a == 0:
        # address independent of i; dependence exists iff some legal dkj works
        if n is None:
            return DistanceSet.all_()
        for dj in range(-(n - 1), n):
            if b * dj == dc:
                return DistanceSet.all_()
        return DistanceSet.empty()
    djs = range(-(n - 1), n) if n is not None else None
    if djs is None:
        return None
    out = set()
    for dj in djs:
        num = dc - b * dj
        if num % a == 0:
            di = num // a
            if m is None or -(m - 1) <= di <= m - 1:
                out.add(di)
    return DistanceSet.finite(out)


def _index_only_vars(e: Expr, allowed: set[str]) -> bool:
    return all(n.name in allowed for n in walk_exprs(e) if isinstance(n, Var))


class _IdxEval:
    """Evaluate subscript expressions over concrete loop-index values."""

    def __init__(self, env: dict[str, int]):
        from repro.ir.interp import cast_value, eval_binop

        self.env = env
        self._binop, self._cast = eval_binop, cast_value

    def eval(self, e: Expr) -> int:
        if isinstance(e, Const):
            return int(e.value)
        if isinstance(e, Var):
            return self.env[e.name]
        if isinstance(e, BinOp):
            return int(self._binop(e.op, self.eval(e.lhs), self.eval(e.rhs),
                                   e.ty))
        if isinstance(e, UnOp):
            v = self.eval(e.operand)
            return int(self._cast(-v if e.op == "neg" else ~v, e.ty))
        if isinstance(e, Select):
            return self.eval(e.iftrue) if self.eval(e.cond) else self.eval(e.iffalse)
        if isinstance(e, Cast):
            return int(self._cast(self.eval(e.operand), e.ty))
        raise ValueError(f"non-evaluable subscript node {type(e).__name__}")


def _brute_force(acc1: MemAccess, acc2: MemAccess, nest: LoopNest
                 ) -> Optional[DistanceSet]:
    """Sound distance enumeration for constant-bound nests."""
    m = trip_count(nest.outer)
    n = trip_count(nest.inner)
    if m is None or (n is None and (acc1.in_inner or acc2.in_inner)):
        return None
    for acc in (acc1, acc2):
        allowed = ({nest.outer_var, nest.inner_var} if acc.in_inner
                   else {nest.outer_var})
        for idx in acc.index:
            if not _index_only_vars(idx, allowed):
                return None
    space = m * (n or 1)
    if space > BRUTE_FORCE_LIMIT:
        return None

    def addresses(acc: MemAccess) -> dict[tuple[int, ...], set[int]]:
        lo_i = int(nest.outer.lo.value) if isinstance(nest.outer.lo, Const) else None
        lo_j = int(nest.inner.lo.value) if isinstance(nest.inner.lo, Const) else None
        if lo_i is None or (acc.in_inner and lo_j is None):
            raise ValueError("non-constant lower bound")
        addr: dict[tuple[int, ...], set[int]] = {}
        i_vals = [lo_i + k * nest.outer.step for k in range(m)]
        j_vals = ([lo_j + k * nest.inner.step for k in range(n)]
                  if acc.in_inner else [0])
        for iv in i_vals:
            for jv in j_vals:
                ev = _IdxEval({nest.outer_var: iv, nest.inner_var: jv})
                key = tuple(ev.eval(x) for x in acc.index)
                addr.setdefault(key, set()).add(iv)
        return addr

    try:
        a1 = addresses(acc1)
        a2 = addresses(acc2)
    except (ValueError, KeyError):
        return None
    step = nest.outer.step
    dists: set[int] = set()
    for key, i1s in a1.items():
        i2s = a2.get(key)
        if not i2s:
            continue
        for x in i1s:
            for y in i2s:
                dists.add((y - x) // step)
    return DistanceSet.finite(dists)


def outer_distance(acc1: MemAccess, acc2: MemAccess, nest: LoopNest) -> DistanceSet:
    """Outer-loop dependence distance set between two same-array accesses."""
    if acc1.array != acc2.array:
        return DistanceSet.empty()
    if not (acc1.is_store or acc2.is_store):
        return DistanceSet.empty()   # load/load pairs are independent (§4.2)

    index_vars = {nest.outer_var, nest.inner_var}
    forms1 = [affine_of(e, index_vars) for e in acc1.index]
    forms2 = [affine_of(e, index_vars) for e in acc2.index]
    if all(f is not None for f in forms1) and all(f is not None for f in forms2):
        per_dim: list[DistanceSet] = []
        analytic_ok = True
        for f1, f2 in zip(forms1, forms2):
            inner = nest.inner if (acc1.in_inner or acc2.in_inner) else None
            d = _affine_pair_distance(f1, f2, nest.outer, inner)
            if d is None:
                analytic_ok = False
                break
            per_dim.append(d)
        if analytic_ok:
            # a dependence requires *all* dimensions to match: intersect
            result: DistanceSet = per_dim[0]
            for d in per_dim[1:]:
                result = _intersect(result, d)
            return result

    bf = _brute_force(acc1, acc2, nest)
    if bf is not None:
        return bf
    return DistanceSet.unknown()


def _intersect(a: DistanceSet, b: DistanceSet) -> DistanceSet:
    if a.kind is DistanceKind.EMPTY or b.kind is DistanceKind.EMPTY:
        return DistanceSet.empty()
    if a.kind is DistanceKind.UNKNOWN or b.kind is DistanceKind.UNKNOWN:
        return DistanceSet.unknown()
    if a.kind is DistanceKind.ALL:
        return b
    if b.kind is DistanceKind.ALL:
        return a
    return DistanceSet.finite(a.distances & b.distances)


def squash_case(dist: DistanceSet, ds: int) -> int:
    """Classify a distance set per thesis §4.2 for unroll factor ``ds``.

    Returns 1 (independent / distance 0 only), 2 (dependences clear the
    data-set window), or 3 (hazard — transformation must be rejected).
    """
    if dist.kind is DistanceKind.EMPTY:
        return 1
    if dist.kind is DistanceKind.FINITE and dist.distances <= {0}:
        return 1
    if not dist.intersects_range(-(ds - 1), ds - 1, exclude_zero=True):
        return 2
    return 3
