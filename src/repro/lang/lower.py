"""Lowering from the ``repro.lang`` AST to :mod:`repro.ir`.

Direct construction: the sema pass has already annotated every expression
with its scalar type, so each AST node maps onto exactly one IR node
(literals keep their suffix types, ``min``/``max`` calls become the
corresponding ``BinOp``, ``#pragma kernel`` becomes the loop annotation
consumed by :mod:`repro.nimble.kernel`).  The emitted program is run
through :func:`repro.ir.validate.validate_program`; any residual
violation (definite assignment, bounds written in the body) is re-raised
as a :class:`~repro.errors.LangError` so front-end callers only ever see
one error type.  :func:`compile_unit`, the entry every command reaches,
then if-converts the conditionals inside ``#pragma kernel`` loops (§4.2).
"""

from __future__ import annotations

from repro.errors import IRError, ValidationError
from repro.ir.nodes import (
    ArrayDecl, Assign, BinOp, Block, Cast, Const, Expr, For, If, Load,
    Program, Select, Stmt, Store, UnOp, Var,
)
from repro.ir.types import wrap_int
from repro.ir.validate import validate_program
from repro.ir.visitors import walk_stmts
from repro.lang import ast as A
from repro.lang.diagnostics import SourceText, lang_error
from repro.lang.sema import Symbols, analyze
from repro.transforms.ifconvert import if_convert

__all__ = ["lower", "compile_unit", "programs_equivalent"]


def _lower_expr(e: A.LExpr) -> Expr:
    if isinstance(e, A.LLit):
        value = e.value
        if not e.ty.is_float and isinstance(value, bool):
            value = int(value)
        return Const(value, e.ty)
    if isinstance(e, A.LVar):
        return Var(e.name, e.ty)
    if isinstance(e, A.LIndex):
        return Load(e.name, tuple(_lower_expr(i) for i in e.index), e.ty)
    if isinstance(e, A.LBin):
        return BinOp(e.op, _lower_expr(e.lhs), _lower_expr(e.rhs))
    if isinstance(e, A.LUn):
        return UnOp(e.op, _lower_expr(e.operand))
    if isinstance(e, A.LSelect):
        return Select(_lower_expr(e.cond), _lower_expr(e.iftrue),
                      _lower_expr(e.iffalse))
    if isinstance(e, A.LCast):
        return Cast(_lower_expr(e.operand), e.target)
    if isinstance(e, A.LCall):
        return BinOp(e.fn, _lower_expr(e.args[0]), _lower_expr(e.args[1]))
    raise AssertionError(f"unhandled expression {type(e).__name__}")


def _lower_stmt(s: A.LStmt) -> Stmt:
    if isinstance(s, A.LAssign):
        return Assign(s.name, _lower_expr(s.expr))
    if isinstance(s, A.LStore):
        return Store(s.name, tuple(_lower_expr(i) for i in s.index),
                     _lower_expr(s.value))
    if isinstance(s, A.LFor):
        annotations = {"kernel": True} if s.kernel else {}
        return For(s.var, _lower_expr(s.lo), _lower_expr(s.hi),
                   Block([_lower_stmt(c) for c in s.body]), s.step,
                   annotations)
    if isinstance(s, A.LIf):
        return If(_lower_expr(s.cond),
                  Block([_lower_stmt(c) for c in s.then]),
                  Block([_lower_stmt(c) for c in s.orelse]))
    raise AssertionError(f"unhandled statement {type(s).__name__}")


def _rows(values: list, shape: tuple[int, ...]) -> list:
    """A flat initializer list nested row-major into ``shape``."""
    for dim in reversed(shape[1:]):
        values = [values[k:k + dim] for k in range(0, len(values), dim)]
    return values


def _array_decl(source: SourceText, a: A.LArray) -> ArrayDecl:
    init = None
    if a.init is not None:
        # integer literals wrap to the element type like C initializers
        if a.ty.is_float:
            values = [float(v) for v in a.init]
        else:
            values = [wrap_int(int(v), a.ty) for v in a.init]
        init = _rows(values, tuple(a.shape))
    try:
        return ArrayDecl(a.name, tuple(a.shape), a.ty, rom=a.rom,
                         init=init, output=a.output)
    except IRError as exc:
        raise lang_error(source, str(exc), a.span) from exc


def lower(source: SourceText, unit: A.LKernel, syms: Symbols) -> Program:
    """Build and validate the IR program for an analyzed ``unit``."""
    program = Program(unit.name)
    program.params.update(syms.params)
    for a in unit.arrays:
        program.arrays[a.name] = _array_decl(source, a)
    program.locals.update(syms.locals)
    body: list[Stmt] = []
    for s in unit.scalars:
        if s.init is not None:
            body.append(Assign(s.name, _lower_expr(s.init)))
    body.extend(_lower_stmt(s) for s in unit.body)
    program.body = Block(body)
    try:
        validate_program(program)
    except ValidationError as exc:
        raise lang_error(source, str(exc)) from exc
    return program


def compile_unit(source: SourceText, unit: A.LKernel) -> Program:
    """Run sema + lowering over a parsed unit, then if-convert (§4.2)
    the ``#pragma kernel`` loops.

    Squash needs the kernel loop to be a single basic block; every
    conditional inside it whose arms only assign scalars becomes
    ``select`` code (:func:`repro.transforms.ifconvert.if_convert`).
    Conditionals elsewhere stay in place, so a program whose kernel
    loops hold no ``if`` comes back as lowered.
    """
    syms = analyze(source, unit)
    return if_convert(lower(source, unit, syms), kernel_loops_only=True)


# ---------------------------------------------------------------------------
# Program comparison (round-trip and parity tests)
# ---------------------------------------------------------------------------

def _kernel_annotations(s: Stmt) -> list[bool]:
    return [bool(st.annotations.get("kernel"))
            for st in walk_stmts(s) if isinstance(st, For)]


def programs_equivalent(a: Program, b: Program) -> bool:
    """Structural equality of two programs: declarations (including array
    contents), statement trees, and kernel annotations.

    This is the round-trip notion of equality — node identity and
    incidental dict ordering are ignored.
    """
    from repro.ir.visitors import structurally_equal
    if a.name != b.name or a.params != b.params or a.locals != b.locals:
        return False
    if set(a.arrays) != set(b.arrays):
        return False
    for name, da in a.arrays.items():
        db = b.arrays[name]
        if (da.shape != db.shape or da.ty is not db.ty
                or da.rom != db.rom or da.output != db.output):
            return False
        if da.init != db.init:
            return False
    return (structurally_equal(a.body, b.body)
            and _kernel_annotations(a.body) == _kernel_annotations(b.body))
