"""Structural validation of IR programs.

Checks performed (conservative over structured control flow):

* every scalar read has a prior definition on all paths (params count as
  defined; ``if`` branches must both define a name before a later read
  relies on it);
* assignment targets are declared locals, never parameters;
* array references name declared arrays with the right arity; ROMs are
  never stored to;
* loop bounds do not depend on variables written inside the loop body
  (our ``For`` is a counted loop: bounds are evaluated once);
* loop steps are non-zero and the induction variable is not assigned in
  the body.
"""

from __future__ import annotations

from repro.errors import ValidationError
from repro.ir.nodes import (
    Assign, Block, Const, Expr, For, If, Load, Program, Stmt, Store, Var,
)
from repro.ir.visitors import variables_written, walk_exprs

__all__ = ["definitely_assigned", "validate_program"]


def _expr_reads(e: Expr) -> set[str]:
    return {n.name for n in walk_exprs(e) if isinstance(n, Var)}


def _check_expr(p: Program, e: Expr, defined: set[str], where: str,
                errors: list[str]) -> None:
    for node in walk_exprs(e):
        if isinstance(node, Var):
            if node.name not in defined:
                errors.append(f"{where}: read of possibly-undefined scalar "
                              f"{node.name!r}")
            if (node.name not in p.params and node.name not in p.locals):
                errors.append(f"{where}: scalar {node.name!r} is not declared")
        elif isinstance(node, Load):
            decl = p.arrays.get(node.array)
            if decl is None:
                errors.append(f"{where}: load from undeclared array {node.array!r}")
            elif len(node.index) != len(decl.shape):
                errors.append(
                    f"{where}: array {node.array!r} has {len(decl.shape)} dims,"
                    f" load uses {len(node.index)}")


def _check_stmt(p: Program, s: Stmt, defined: set[str],
                errors: list[str]) -> set[str]:
    """Validate a statement; returns the set of definitely-defined names after it."""
    if isinstance(s, Assign):
        _check_expr(p, s.expr, defined, f"assign to {s.var!r}", errors)
        if s.var in p.params:
            errors.append(f"assignment to parameter {s.var!r}")
        if s.var not in p.locals and s.var not in p.params:
            errors.append(f"assignment to undeclared local {s.var!r}")
        return defined | {s.var}
    if isinstance(s, Store):
        where = f"store to {s.array!r}"
        decl = p.arrays.get(s.array)
        if decl is None:
            errors.append(f"store to undeclared array {s.array!r}")
        else:
            if decl.rom:
                errors.append(f"store to ROM array {s.array!r}")
            if len(s.index) != len(decl.shape):
                errors.append(
                    f"{where}: array has {len(decl.shape)} dims, store uses "
                    f"{len(s.index)}")
        for i in s.index:
            _check_expr(p, i, defined, where, errors)
        _check_expr(p, s.value, defined, where, errors)
        return defined
    if isinstance(s, Block):
        cur = set(defined)
        for c in s.stmts:
            cur = _check_stmt(p, c, cur, errors)
        return cur
    if isinstance(s, For):
        where = f"loop over {s.var!r}"
        _check_expr(p, s.lo, defined, where, errors)
        _check_expr(p, s.hi, defined, where, errors)
        if s.var not in p.locals:
            errors.append(f"{where}: induction variable is not declared")
        written = variables_written(s.body)
        if s.var in {st.var for st in _assigns(s.body)}:
            errors.append(f"{where}: induction variable assigned in body")
        bound_reads = _expr_reads(s.lo) | _expr_reads(s.hi)
        clobbered = bound_reads & written
        if clobbered:
            errors.append(
                f"{where}: bounds read {sorted(clobbered)} which the body writes "
                f"(counted loops evaluate bounds once)")
        inner = _check_stmt(p, s.body, defined | {s.var}, errors)
        # definitions inside a loop are definite after it only when the loop
        # provably executes (constant bounds with trip count >= 1)
        if isinstance(s.lo, Const) and isinstance(s.hi, Const):
            lo, hi = int(s.lo.value), int(s.hi.value)
            trips = max(0, -(-(hi - lo) // s.step)) if s.step > 0 else \
                max(0, -((hi - lo) // -s.step))
            if trips >= 1:
                return inner | {s.var}
        return defined
    if isinstance(s, If):
        _check_expr(p, s.cond, defined, "if condition", errors)
        d_then = _check_stmt(p, s.then, set(defined), errors)
        d_else = _check_stmt(p, s.orelse, set(defined), errors)
        return d_then & d_else
    errors.append(f"unknown statement node {type(s).__name__}")
    return defined


def _assigns(s: Stmt) -> list[Assign]:
    from repro.ir.visitors import walk_stmts
    return [st for st in walk_stmts(s) if isinstance(st, Assign)]


def definitely_assigned(p: Program, s: Stmt, defined: set[str]) -> set[str]:
    """The scalars definitely assigned once ``s`` has run from a state in
    which ``defined`` are — the rule the read check applies (an ``if``
    assigns what both arms do, a loop body counts only when the loop
    provably runs)."""
    return _check_stmt(p, s, defined, [])


def validate_program(p: Program) -> None:
    """Raise :class:`ValidationError` if ``p`` is structurally invalid."""
    errors: list[str] = []
    overlap = set(p.params) & set(p.locals)
    if overlap:
        errors.append(f"names declared both param and local: {sorted(overlap)}")
    overlap = (set(p.params) | set(p.locals)) & set(p.arrays)
    if overlap:
        errors.append(f"names declared both scalar and array: {sorted(overlap)}")
    _check_stmt(p, p.body, set(p.params), errors)
    if errors:
        raise ValidationError(
            f"program {p.name!r} failed validation:\n  - " + "\n  - ".join(errors))
