"""Semantic analysis for ``repro.lang``.

Walks the parsed AST, builds the symbol tables, and annotates every
expression with its :class:`~repro.ir.types.ScalarType` using the same
C-like unification rules as the IR nodes (:mod:`repro.ir.nodes`), so
lowering can construct IR directly.  Checks performed:

* no duplicate declarations (params/arrays/locals share one namespace,
  matching :class:`~repro.ir.nodes.Program`);
* every name read resolves (with a did-you-mean suggestion), scalars are
  never subscripted, arrays are never read or assigned without one;
* parameters are read-only; ROM arrays are never stored to;
* subscript arity matches the declared dimensionality and indices are
  integers;
* bitwise/shift/``%``/``~`` reject float operands (mirroring
  :class:`~repro.ir.nodes.BinOp`);
* loop variables are ``i32`` (auto-declared when not pre-declared, like
  :meth:`~repro.ir.builder.ProgramBuilder.loop`), and loop bounds are
  affine integer expressions — literals, integer scalars, ``+``, ``-``,
  ``min``/``max``, multiplication by a literal, and integer casts.

Definite-assignment and bounds-not-written-in-body stay with
:func:`repro.ir.validate.validate_program`, which lowering runs on the
emitted IR.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.ir.types import BOOL, F64, I32, ScalarType, unify
from repro.lang import ast as A
from repro.lang.diagnostics import SourceText, Span, lang_error, suggest

__all__ = ["Symbols", "analyze"]

_NO_FLOAT_BINOPS = {"and": "&", "or": "|", "xor": "^", "shl": "<<",
                    "shr": ">>", "mod": "%"}
_CMP_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})


@dataclass
class Symbols:
    """Resolved declarations of one kernel (insertion-ordered)."""

    params: dict[str, ScalarType] = field(default_factory=dict)
    arrays: dict[str, A.LArray] = field(default_factory=dict)
    locals: dict[str, ScalarType] = field(default_factory=dict)

    def scalar(self, name: str) -> ScalarType | None:
        return self.params.get(name) or self.locals.get(name)

    def all_names(self) -> list[str]:
        return [*self.params, *self.arrays, *self.locals]


class _Sema:
    def __init__(self, source: SourceText, unit: A.LKernel):
        self.src = source
        self.unit = unit
        self.syms = Symbols()

    def _error(self, message: str, span: Span):
        raise lang_error(self.src, message, span)

    # -- declarations --------------------------------------------------------

    def _declare(self, name: str, span: Span, what: str) -> None:
        if name in self.syms.params or name in self.syms.locals \
                or name in self.syms.arrays:
            self._error(f"duplicate declaration of {name!r}", span)

    def run(self) -> Symbols:
        for p in self.unit.params:
            self._declare(p.name, p.span, "parameter")
            self.syms.params[p.name] = p.ty
        for a in self.unit.arrays:
            self._declare(a.name, a.span, "array")
            if a.rom and a.init is None:
                self._error(f"ROM array {a.name!r} must have initial "
                            "contents ('= {...}')", a.span)
            if a.init is not None:
                size = 1
                for d in a.shape:
                    size *= d
                if len(a.init) != size:
                    self._error(
                        f"array {a.name!r} holds {size} elements but the "
                        f"initializer has {len(a.init)}",
                        a.init_span or a.span)
                if not a.ty.is_float:
                    for v in a.init:
                        if isinstance(v, float):
                            self._error(
                                f"float literal in the initializer of "
                                f"integer array {a.name!r}",
                                a.init_span or a.span)
            self.syms.arrays[a.name] = a
        for s in self.unit.scalars:
            self._declare(s.name, s.span, "local")
            self.syms.locals[s.name] = s.ty
            if s.init is not None:
                self.expr(s.init)
        for st in self.unit.body:
            self.stmt(st)
        return self.syms

    # -- expressions ---------------------------------------------------------

    def expr(self, e: A.LExpr) -> ScalarType:
        ty = self._expr(e)
        e.ty = ty
        return ty

    def _expr(self, e: A.LExpr) -> ScalarType:
        if isinstance(e, A.LLit):
            if e.suffix is not None:
                return e.suffix
            if isinstance(e.value, bool):
                return BOOL
            return F64 if isinstance(e.value, float) else I32

        if isinstance(e, A.LVar):
            ty = self.syms.scalar(e.name)
            if ty is not None:
                return ty
            if e.name in self.syms.arrays:
                self._error(f"array {e.name!r} cannot be read without a "
                            "subscript", e.span)
            self._error(f"unknown name {e.name!r}"
                        + suggest(e.name, self.syms.all_names()), e.span)

        if isinstance(e, A.LIndex):
            decl = self.syms.arrays.get(e.name)
            if decl is None:
                if self.syms.scalar(e.name) is not None:
                    self._error(f"{e.name!r} is a scalar and cannot be "
                                "subscripted", e.span)
                self._error(f"unknown array {e.name!r}"
                            + suggest(e.name, self.syms.arrays), e.span)
            if len(e.index) != len(decl.shape):
                self._error(
                    f"array {e.name!r} has {len(decl.shape)} dimension(s), "
                    f"subscript uses {len(e.index)}", e.span)
            for idx in e.index:
                ity = self.expr(idx)
                if ity.is_float:
                    self._error("array subscripts must be integers, got "
                                f"{ity}", idx.span)
            return decl.ty

        if isinstance(e, A.LBin):
            lty = self.expr(e.lhs)
            rty = self.expr(e.rhs)
            sym = _NO_FLOAT_BINOPS.get(e.op)
            if e.op in _CMP_OPS:
                return BOOL
            if e.op in ("shl", "shr"):
                if lty.is_float or rty.is_float:
                    self._error(f"operator {sym!r} is not defined on float "
                                "operands", e.op_span or e.span)
                return lty
            if sym is not None and (lty.is_float or rty.is_float):
                self._error(f"operator {sym!r} is not defined on float "
                            "operands", e.op_span or e.span)
            return unify(lty, rty)

        if isinstance(e, A.LUn):
            ty = self.expr(e.operand)
            if e.op == "not" and ty.is_float:
                self._error("operator '~' is not defined on float operands",
                            e.span)
            return ty

        if isinstance(e, A.LSelect):
            self.expr(e.cond)
            tty = self.expr(e.iftrue)
            fty = self.expr(e.iffalse)
            return unify(tty, fty)

        if isinstance(e, A.LCast):
            self.expr(e.operand)
            return e.target

        if isinstance(e, A.LCall):
            tys = [self.expr(a) for a in e.args]
            return unify(tys[0], tys[1])

        raise AssertionError(f"unhandled expression {type(e).__name__}")

    # -- statements ----------------------------------------------------------

    def stmt(self, s: A.LStmt) -> None:
        if isinstance(s, A.LAssign):
            self.expr(s.expr)
            span = s.name_span or s.span
            if s.name in self.syms.params:
                self._error(f"cannot assign to parameter {s.name!r}",
                            span)
            if s.name in self.syms.arrays:
                self._error(f"{s.name!r} is an array; store to an element "
                            f"like '{s.name}[0] = ...'", span)
            if s.name not in self.syms.locals:
                self._error(
                    f"assignment to undeclared variable {s.name!r}"
                    + (suggest(s.name, self.syms.all_names())
                       or f"; declare it first, e.g. 'u32 {s.name};'"),
                    span)
            return

        if isinstance(s, A.LStore):
            span = s.name_span or s.span
            decl = self.syms.arrays.get(s.name)
            if decl is None:
                if self.syms.scalar(s.name) is not None:
                    self._error(f"{s.name!r} is a scalar and cannot be "
                                "subscripted", span)
                self._error(f"unknown array {s.name!r}"
                            + suggest(s.name, self.syms.arrays), span)
            if decl.rom:
                self._error(f"cannot store to ROM array {s.name!r}", span)
            if len(s.index) != len(decl.shape):
                self._error(
                    f"array {s.name!r} has {len(decl.shape)} dimension(s), "
                    f"store uses {len(s.index)}", span)
            for idx in s.index:
                ity = self.expr(idx)
                if ity.is_float:
                    self._error("array subscripts must be integers, got "
                                f"{ity}", idx.span)
            self.expr(s.value)
            return

        if isinstance(s, A.LFor):
            span = s.var_span or s.span
            if s.var in self.syms.params:
                self._error(f"loop variable {s.var!r} is a parameter",
                            span)
            if s.var in self.syms.arrays:
                self._error(f"loop variable {s.var!r} is an array", span)
            declared = self.syms.locals.get(s.var)
            if declared is None:
                # auto-declare, matching ProgramBuilder.loop()
                self.syms.locals[s.var] = I32
            elif declared != I32:
                self._error(f"loop variable {s.var!r} must be i32, but it "
                            f"is declared {declared}", span)
            for bound, what in ((s.lo, "lower"), (s.hi, "upper")):
                self.expr(bound)
                self._check_affine(bound, what)
            for st in s.body:
                self.stmt(st)
            return

        if isinstance(s, A.LIf):
            self.expr(s.cond)
            for st in s.then:
                self.stmt(st)
            for st in s.orelse:
                self.stmt(st)
            return

        raise AssertionError(f"unhandled statement {type(s).__name__}")

    # -- affine loop bounds --------------------------------------------------

    def _check_affine(self, e: A.LExpr, what: str) -> None:
        if not self._is_affine(e):
            self._error(
                f"the {what} loop bound must be an affine integer "
                "expression (literals, integer scalars, '+', '-', "
                "'min'/'max', multiplication by a literal, integer casts)",
                e.span)

    def _is_affine(self, e: A.LExpr) -> bool:
        if isinstance(e, A.LLit):
            return not isinstance(e.value, float)
        if isinstance(e, A.LVar):
            ty = self.syms.scalar(e.name)
            return ty is not None and not ty.is_float
        if isinstance(e, A.LBin):
            if e.op in ("add", "sub", "min", "max"):
                return self._is_affine(e.lhs) and self._is_affine(e.rhs)
            if e.op == "mul":
                return (self._is_affine(e.lhs) and self._is_affine(e.rhs)
                        and (isinstance(e.lhs, A.LLit)
                             or isinstance(e.rhs, A.LLit)))
            return False
        if isinstance(e, A.LCall):
            return all(self._is_affine(a) for a in e.args)
        if isinstance(e, A.LCast):
            return not e.target.is_float and self._is_affine(e.operand)
        return False


def analyze(source: SourceText, unit: A.LKernel) -> Symbols:
    """Type-check ``unit`` in place and return its symbol tables;
    raises :class:`~repro.errors.LangError` on the first violation."""
    return _Sema(source, unit).run()
