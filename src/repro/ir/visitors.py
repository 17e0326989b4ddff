"""Generic traversal, cloning, and rewriting utilities over the IR.

These helpers are the workhorses of every analysis and transform:

* :func:`walk_exprs` / :func:`walk_stmts` — pre-order generators;
* :func:`clone_expr` / :func:`clone_stmt` / :func:`clone_program` — deep
  copies with fresh node identity (nodes are identity-keyed graph nodes, so
  transforms must never alias subtrees between programs);
* :func:`map_exprs` — rebuild a statement tree applying a function to every
  expression (bottom-up);
* :func:`substitute` — capture-free replacement of scalar variables by
  expressions;
* :func:`rename_vars` — bulk variable renaming (used by unrolling, variable
  expansion, and SSA);
* :func:`structurally_equal` — structural comparison for tests.
"""

from __future__ import annotations

import copy
from typing import Callable, Iterator, Mapping

from repro.ir.nodes import (
    Assign, BinOp, Block, Cast, Const, Expr, For, If, Load, Program, Select,
    Stmt, Store, UnOp, Var,
)

__all__ = [
    "walk_exprs", "walk_stmts", "stmt_exprs",
    "clone_expr", "clone_stmt", "clone_program",
    "map_exprs", "substitute", "rename_vars",
    "variables_read", "variables_written", "structurally_equal",
]


# ---------------------------------------------------------------------------
# Walking
# ---------------------------------------------------------------------------

def walk_exprs(e: Expr) -> Iterator[Expr]:
    """Pre-order traversal of an expression tree."""
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(reversed(node.children()))


def stmt_exprs(s: Stmt) -> Iterator[Expr]:
    """Top-level expressions directly referenced by one statement."""
    if isinstance(s, Assign):
        yield s.expr
    elif isinstance(s, Store):
        yield from s.index
        yield s.value
    elif isinstance(s, For):
        yield s.lo
        yield s.hi
    elif isinstance(s, If):
        yield s.cond
    # Block has no expressions of its own.


def walk_stmts(s: Stmt) -> Iterator[Stmt]:
    """Pre-order traversal of a statement tree (including ``s`` itself)."""
    yield s
    if isinstance(s, Block):
        for child in s.stmts:
            yield from walk_stmts(child)
    elif isinstance(s, For):
        yield from walk_stmts(s.body)
    elif isinstance(s, If):
        yield from walk_stmts(s.then)
        yield from walk_stmts(s.orelse)


# ---------------------------------------------------------------------------
# Cloning
# ---------------------------------------------------------------------------

def clone_expr(e: Expr) -> Expr:
    """Deep copy an expression with fresh node identity."""
    if isinstance(e, Const):
        return Const(e.value, e.ty)
    if isinstance(e, Var):
        return Var(e.name, e.ty)
    if isinstance(e, BinOp):
        return BinOp(e.op, clone_expr(e.lhs), clone_expr(e.rhs))
    if isinstance(e, UnOp):
        return UnOp(e.op, clone_expr(e.operand))
    if isinstance(e, Load):
        return Load(e.array, tuple(clone_expr(i) for i in e.index), e.ty)
    if isinstance(e, Select):
        return Select(clone_expr(e.cond), clone_expr(e.iftrue), clone_expr(e.iffalse))
    if isinstance(e, Cast):
        return Cast(clone_expr(e.operand), e.ty)
    raise TypeError(f"unknown expression node {type(e).__name__}")


def clone_stmt(s: Stmt) -> Stmt:
    """Deep copy a statement tree with fresh node identity."""
    if isinstance(s, Assign):
        return Assign(s.var, clone_expr(s.expr))
    if isinstance(s, Store):
        return Store(s.array, tuple(clone_expr(i) for i in s.index), clone_expr(s.value))
    if isinstance(s, Block):
        return Block([clone_stmt(c) for c in s.stmts])
    if isinstance(s, For):
        return For(s.var, clone_expr(s.lo), clone_expr(s.hi),
                   clone_stmt(s.body), s.step, dict(s.annotations))
    if isinstance(s, If):
        return If(clone_expr(s.cond), clone_stmt(s.then), clone_stmt(s.orelse))
    raise TypeError(f"unknown statement node {type(s).__name__}")


def clone_program(p: "Program") -> "Program":
    """Deep copy a :class:`~repro.ir.nodes.Program` (shares the immutable
    array contents: each declaration is copied without re-converting)."""
    from repro.ir.nodes import Program
    arrays = {name: copy.copy(a) for name, a in p.arrays.items()}
    return Program(p.name, dict(p.params), arrays, clone_stmt(p.body), dict(p.locals))


# ---------------------------------------------------------------------------
# Rewriting
# ---------------------------------------------------------------------------

def _map_expr(e: Expr, fn: Callable[[Expr], Expr]) -> Expr:
    """Bottom-up expression rewrite: children first, then ``fn`` on the rebuilt node."""
    if isinstance(e, (Const, Var)):
        rebuilt: Expr = e
    elif isinstance(e, BinOp):
        rebuilt = BinOp(e.op, _map_expr(e.lhs, fn), _map_expr(e.rhs, fn))
    elif isinstance(e, UnOp):
        rebuilt = UnOp(e.op, _map_expr(e.operand, fn))
    elif isinstance(e, Load):
        rebuilt = Load(e.array, tuple(_map_expr(i, fn) for i in e.index), e.ty)
    elif isinstance(e, Select):
        rebuilt = Select(_map_expr(e.cond, fn), _map_expr(e.iftrue, fn),
                         _map_expr(e.iffalse, fn))
    elif isinstance(e, Cast):
        rebuilt = Cast(_map_expr(e.operand, fn), e.ty)
    else:  # pragma: no cover - defensive
        raise TypeError(f"unknown expression node {type(e).__name__}")
    return fn(rebuilt)


def map_exprs(s: Stmt, fn: Callable[[Expr], Expr]) -> Stmt:
    """Rebuild a statement tree applying ``fn`` bottom-up to every expression."""
    if isinstance(s, Assign):
        return Assign(s.var, _map_expr(s.expr, fn))
    if isinstance(s, Store):
        return Store(s.array, tuple(_map_expr(i, fn) for i in s.index),
                     _map_expr(s.value, fn))
    if isinstance(s, Block):
        return Block([map_exprs(c, fn) for c in s.stmts])
    if isinstance(s, For):
        return For(s.var, _map_expr(s.lo, fn), _map_expr(s.hi, fn),
                   map_exprs(s.body, fn), s.step, dict(s.annotations))
    if isinstance(s, If):
        return If(_map_expr(s.cond, fn), map_exprs(s.then, fn),
                  map_exprs(s.orelse, fn))
    raise TypeError(f"unknown statement node {type(s).__name__}")


def substitute(s: Stmt, mapping: Mapping[str, Expr]) -> Stmt:
    """Replace reads of scalar variables by expressions.

    Writes (``Assign`` targets, loop variables) are *not* renamed — use
    :func:`rename_vars` for that.  Replacement expressions are cloned at each
    insertion point to preserve node-identity uniqueness.
    """
    def fn(e: Expr) -> Expr:
        if isinstance(e, Var) and e.name in mapping:
            return clone_expr(mapping[e.name])
        return e
    return map_exprs(s, fn)


def rename_vars(s: Stmt, mapping: Mapping[str, str]) -> Stmt:
    """Consistently rename scalar variables (both reads and writes)."""
    def fn(e: Expr) -> Expr:
        if isinstance(e, Var) and e.name in mapping:
            return Var(mapping[e.name], e.ty)
        return e

    def rn(st: Stmt) -> Stmt:
        if isinstance(st, Assign):
            return Assign(mapping.get(st.var, st.var), _map_expr(st.expr, fn))
        if isinstance(st, Store):
            return Store(st.array, tuple(_map_expr(i, fn) for i in st.index),
                         _map_expr(st.value, fn))
        if isinstance(st, Block):
            return Block([rn(c) for c in st.stmts])
        if isinstance(st, For):
            return For(mapping.get(st.var, st.var), _map_expr(st.lo, fn),
                       _map_expr(st.hi, fn), rn(st.body), st.step,
                       dict(st.annotations))
        if isinstance(st, If):
            return If(_map_expr(st.cond, fn), rn(st.then), rn(st.orelse))
        raise TypeError(f"unknown statement node {type(st).__name__}")

    return rn(s)


# ---------------------------------------------------------------------------
# Quick fact extraction
# ---------------------------------------------------------------------------

def variables_read(s: Stmt) -> set[str]:
    """All scalar names read anywhere inside ``s`` (loop bounds included)."""
    out: set[str] = set()
    for st in walk_stmts(s):
        for e in stmt_exprs(st):
            for node in walk_exprs(e):
                if isinstance(node, Var):
                    out.add(node.name)
    return out


def variables_written(s: Stmt) -> set[str]:
    """All scalar names written anywhere inside ``s`` (incl. loop variables)."""
    out: set[str] = set()
    for st in walk_stmts(s):
        if isinstance(st, Assign):
            out.add(st.var)
        elif isinstance(st, For):
            out.add(st.var)
    return out


# ---------------------------------------------------------------------------
# Structural equality (tests)
# ---------------------------------------------------------------------------

def structurally_equal(a: object, b: object) -> bool:
    """Structural (not identity) comparison of two expressions or statements."""
    if type(a) is not type(b):
        return False
    if isinstance(a, Const):
        return a.value == b.value and a.ty is b.ty
    if isinstance(a, Var):
        return a.name == b.name
    if isinstance(a, BinOp):
        return (a.op == b.op and structurally_equal(a.lhs, b.lhs)
                and structurally_equal(a.rhs, b.rhs))
    if isinstance(a, UnOp):
        return a.op == b.op and structurally_equal(a.operand, b.operand)
    if isinstance(a, Load):
        return (a.array == b.array and len(a.index) == len(b.index)
                and all(structurally_equal(x, y) for x, y in zip(a.index, b.index)))
    if isinstance(a, Select):
        return (structurally_equal(a.cond, b.cond)
                and structurally_equal(a.iftrue, b.iftrue)
                and structurally_equal(a.iffalse, b.iffalse))
    if isinstance(a, Cast):
        return a.ty is b.ty and structurally_equal(a.operand, b.operand)
    if isinstance(a, Assign):
        return a.var == b.var and structurally_equal(a.expr, b.expr)
    if isinstance(a, Store):
        return (a.array == b.array and len(a.index) == len(b.index)
                and all(structurally_equal(x, y) for x, y in zip(a.index, b.index))
                and structurally_equal(a.value, b.value))
    if isinstance(a, Block):
        return (len(a.stmts) == len(b.stmts)
                and all(structurally_equal(x, y) for x, y in zip(a.stmts, b.stmts)))
    if isinstance(a, For):
        return (a.var == b.var and a.step == b.step
                and structurally_equal(a.lo, b.lo)
                and structurally_equal(a.hi, b.hi)
                and structurally_equal(a.body, b.body))
    if isinstance(a, If):
        return (structurally_equal(a.cond, b.cond)
                and structurally_equal(a.then, b.then)
                and structurally_equal(a.orelse, b.orelse))
    raise TypeError(f"unknown node {type(a).__name__}")
