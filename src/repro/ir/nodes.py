"""IR node definitions: expressions, statements, and programs.

The IR models the structured-C subset that the Nimble Compiler front-end
extracted hardware kernels from:

* scalar expressions over fixed-width integers and floats,
* one- and multi-dimensional array loads/stores (arrays may be ROMs),
* structured statements: assignment, store, counted ``for`` loops, ``if``.

Nodes use *identity* equality (``eq=False``) so they can serve as graph keys
in the DFG and scheduling layers; use :func:`repro.ir.visitors.structurally_equal`
for structural comparison in tests.

Expressions support Python operator overloading so kernels can be written
naturally through :mod:`repro.ir.builder`::

    b.assign(a, (c & 15) * k)   # the running example of thesis Fig. 4.1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Union

import numpy as np

from repro.errors import IRError, TypeMismatchError
from repro.ir.types import (
    BOOL,
    F64,
    I32,
    ScalarType,
    unify,
)

__all__ = [
    "Expr", "Const", "Var", "BinOp", "UnOp", "Load", "Select", "Cast",
    "Stmt", "Assign", "Store", "For", "If", "Block",
    "ArrayDecl", "Program",
    "BINOPS", "CMP_OPS", "COMMUTATIVE_OPS", "UNOPS",
    "as_expr", "const",
]

# ---------------------------------------------------------------------------
# Operators
# ---------------------------------------------------------------------------

#: Arithmetic / logical binary operators (C spellings).
BINOPS = frozenset({
    "add", "sub", "mul", "div", "mod",
    "and", "or", "xor", "shl", "shr",
    "min", "max",
    "lt", "le", "gt", "ge", "eq", "ne",
})

#: Comparison subset of :data:`BINOPS` (produce BOOL).
CMP_OPS = frozenset({"lt", "le", "gt", "ge", "eq", "ne"})

#: Operators for which operand order does not matter.
COMMUTATIVE_OPS = frozenset({"add", "mul", "and", "or", "xor", "min", "max", "eq", "ne"})

#: Unary operators.
UNOPS = frozenset({"neg", "not"})


# ---------------------------------------------------------------------------
# Expressions
# ---------------------------------------------------------------------------

class Expr:
    """Base class for all expression nodes.

    Every expression carries its result type in ``ty``.  Operator
    overloading builds new nodes with C-like type unification, which lets
    workload code read like the thesis listings.
    """

    ty: ScalarType

    # -- operator overloading ------------------------------------------------
    def _bin(self, op: str, other: "ExprLike", reflected: bool = False) -> "BinOp":
        other_e = as_expr(other, hint=self.ty)
        lhs, rhs = (other_e, self) if reflected else (self, other_e)
        return BinOp(op, lhs, rhs)

    def __add__(self, o: "ExprLike") -> "BinOp": return self._bin("add", o)
    def __radd__(self, o: "ExprLike") -> "BinOp": return self._bin("add", o, True)
    def __sub__(self, o: "ExprLike") -> "BinOp": return self._bin("sub", o)
    def __rsub__(self, o: "ExprLike") -> "BinOp": return self._bin("sub", o, True)
    def __mul__(self, o: "ExprLike") -> "BinOp": return self._bin("mul", o)
    def __rmul__(self, o: "ExprLike") -> "BinOp": return self._bin("mul", o, True)
    def __floordiv__(self, o: "ExprLike") -> "BinOp": return self._bin("div", o)
    def __rfloordiv__(self, o: "ExprLike") -> "BinOp": return self._bin("div", o, True)
    def __truediv__(self, o: "ExprLike") -> "BinOp": return self._bin("div", o)
    def __rtruediv__(self, o: "ExprLike") -> "BinOp": return self._bin("div", o, True)
    def __mod__(self, o: "ExprLike") -> "BinOp": return self._bin("mod", o)
    def __rmod__(self, o: "ExprLike") -> "BinOp": return self._bin("mod", o, True)
    def __and__(self, o: "ExprLike") -> "BinOp": return self._bin("and", o)
    def __rand__(self, o: "ExprLike") -> "BinOp": return self._bin("and", o, True)
    def __or__(self, o: "ExprLike") -> "BinOp": return self._bin("or", o)
    def __ror__(self, o: "ExprLike") -> "BinOp": return self._bin("or", o, True)
    def __xor__(self, o: "ExprLike") -> "BinOp": return self._bin("xor", o)
    def __rxor__(self, o: "ExprLike") -> "BinOp": return self._bin("xor", o, True)
    def __lshift__(self, o: "ExprLike") -> "BinOp": return self._bin("shl", o)
    def __rshift__(self, o: "ExprLike") -> "BinOp": return self._bin("shr", o)
    def __neg__(self) -> "UnOp": return UnOp("neg", self)
    def __invert__(self) -> "UnOp": return UnOp("not", self)

    def __lt__(self, o: "ExprLike") -> "BinOp": return self._bin("lt", o)
    def __le__(self, o: "ExprLike") -> "BinOp": return self._bin("le", o)
    def __gt__(self, o: "ExprLike") -> "BinOp": return self._bin("gt", o)
    def __ge__(self, o: "ExprLike") -> "BinOp": return self._bin("ge", o)
    # NB: __eq__/__ne__ keep identity semantics (nodes are dict keys);
    # use .eq()/.ne() to build comparisons.

    def eq(self, o: "ExprLike") -> "BinOp":
        """Build an equality comparison node (``==`` is identity on nodes)."""
        return self._bin("eq", o)

    def ne(self, o: "ExprLike") -> "BinOp":
        """Build an inequality comparison node."""
        return self._bin("ne", o)

    def cast(self, ty: ScalarType) -> "Cast":
        """Explicit conversion to ``ty``."""
        return Cast(self, ty)

    def children(self) -> tuple["Expr", ...]:
        """Direct sub-expressions (overridden by each node kind)."""
        return ()

    def __repr__(self) -> str:
        from repro.ir.printer import expr_to_str
        return expr_to_str(self)


ExprLike = Union[Expr, int, float, bool]


def const(value: Union[int, float, bool], ty: Optional[ScalarType] = None) -> "Const":
    """Build a constant, inferring ``i32``/``f64`` when no type is given."""
    if ty is None:
        if isinstance(value, bool):
            ty = BOOL
        elif isinstance(value, (int, np.integer)):
            ty = I32
        else:
            ty = F64
    return Const(value, ty)


def as_expr(value: ExprLike, hint: Optional[ScalarType] = None) -> Expr:
    """Coerce a Python scalar (or pass through an :class:`Expr`).

    ``hint`` guides the constant's type so that e.g. ``x + 1`` with ``x: u8``
    produces a ``u8`` constant and no accidental widening.
    """
    if isinstance(value, Expr):
        return value
    if isinstance(value, (bool, np.bool_)):
        return Const(bool(value), BOOL)
    if isinstance(value, (int, np.integer)):
        if hint is not None and not hint.is_float:
            return Const(int(value), hint)
        return Const(int(value), I32)
    if isinstance(value, (float, np.floating)):
        if hint is not None and hint.is_float:
            return Const(float(value), hint)
        return Const(float(value), F64)
    raise IRError(f"cannot convert {value!r} to an IR expression")


@dataclass(eq=False)
class Const(Expr):
    """A literal scalar value."""

    value: Union[int, float, bool]
    ty: ScalarType = I32

    def __post_init__(self) -> None:
        if not self.ty.is_float:
            from repro.ir.types import wrap_int
            self.value = wrap_int(int(self.value), self.ty)
        else:
            self.value = float(self.value)


@dataclass(eq=False)
class Var(Expr):
    """A read of a scalar variable or parameter."""

    name: str
    ty: ScalarType = I32


@dataclass(eq=False)
class BinOp(Expr):
    """Binary operation; ``ty`` follows C usual-arithmetic-conversions."""

    op: str
    lhs: Expr
    rhs: Expr
    ty: ScalarType = field(init=False)

    def __post_init__(self) -> None:
        if self.op not in BINOPS:
            raise IRError(f"unknown binary operator {self.op!r}")
        if self.op in CMP_OPS:
            self.ty = BOOL
        elif self.op in ("shl", "shr"):
            self.ty = self.lhs.ty  # shifts keep the left operand's type
        else:
            self.ty = unify(self.lhs.ty, self.rhs.ty)
        if self.op in ("and", "or", "xor", "shl", "shr", "mod") and self.ty.is_float:
            raise TypeMismatchError(f"bitwise/mod operator {self.op!r} on float operands")

    def children(self) -> tuple[Expr, ...]:
        return (self.lhs, self.rhs)


@dataclass(eq=False)
class UnOp(Expr):
    """Unary operation (``neg``, bitwise ``not``)."""

    op: str
    operand: Expr
    ty: ScalarType = field(init=False)

    def __post_init__(self) -> None:
        if self.op not in UNOPS:
            raise IRError(f"unknown unary operator {self.op!r}")
        if self.op == "not" and self.operand.ty.is_float:
            raise TypeMismatchError("bitwise not on float operand")
        self.ty = self.operand.ty

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


@dataclass(eq=False)
class Load(Expr):
    """An array (or ROM) element read: ``array[index...]``."""

    array: str
    index: tuple[Expr, ...]
    ty: ScalarType = I32

    def __post_init__(self) -> None:
        if isinstance(self.index, Expr):
            self.index = (self.index,)
        else:
            self.index = tuple(self.index)

    def children(self) -> tuple[Expr, ...]:
        return self.index


@dataclass(eq=False)
class Select(Expr):
    """If-converted conditional value: ``cond ? iftrue : iffalse``."""

    cond: Expr
    iftrue: Expr
    iffalse: Expr
    ty: ScalarType = field(init=False)

    def __post_init__(self) -> None:
        self.ty = unify(self.iftrue.ty, self.iffalse.ty)

    def children(self) -> tuple[Expr, ...]:
        return (self.cond, self.iftrue, self.iffalse)


@dataclass(eq=False)
class Cast(Expr):
    """Explicit scalar conversion."""

    operand: Expr
    ty: ScalarType = F64

    def children(self) -> tuple[Expr, ...]:
        return (self.operand,)


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

class Stmt:
    """Base class for statements."""

    def __repr__(self) -> str:
        from repro.ir.printer import stmt_to_str
        return stmt_to_str(self).rstrip()


@dataclass(eq=False)
class Assign(Stmt):
    """Scalar assignment ``var = expr``."""

    var: str
    expr: Expr


@dataclass(eq=False)
class Store(Stmt):
    """Array element write ``array[index...] = value``."""

    array: str
    index: tuple[Expr, ...]
    value: Expr

    def __post_init__(self) -> None:
        if isinstance(self.index, Expr):
            self.index = (self.index,)
        else:
            self.index = tuple(self.index)


@dataclass(eq=False)
class Block(Stmt):
    """A statement sequence."""

    stmts: list[Stmt] = field(default_factory=list)

    def __iter__(self) -> Iterator[Stmt]:
        return iter(self.stmts)

    def __len__(self) -> int:
        return len(self.stmts)


@dataclass(eq=False)
class For(Stmt):
    """A counted loop ``for (var = lo; var < hi; var += step) body``.

    ``step`` is a compile-time integer; bounds are expressions (commonly
    constants or parameters).  The induction variable has type ``i32``.
    """

    var: str
    lo: Expr
    hi: Expr
    body: Block
    step: int = 1
    #: Optional user annotations (e.g. {"kernel": True}) mirroring the Nimble
    #: Compiler's user-annotated kernel selection.
    annotations: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.step == 0:
            raise IRError("loop step must be non-zero")


@dataclass(eq=False)
class If(Stmt):
    """Structured conditional."""

    cond: Expr
    then: Block = field(default_factory=Block)
    orelse: Block = field(default_factory=Block)


# ---------------------------------------------------------------------------
# Program
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class ArrayDecl:
    """Declaration of an array buffer or ROM.

    Attributes
    ----------
    name / shape / ty:
        Identity and storage layout.
    rom:
        ROM arrays are read-only lookup tables mapped to on-chip ROM by the
        hardware back-end — their loads do **not** consume memory-bus ports
        (this is exactly the Skipjack-hw / DES-hw optimization of Table 6.1).
    init:
        Optional initial contents (required for ROMs).
    output:
        Marks arrays whose final contents are the program result.
    """

    name: str
    shape: tuple[int, ...]
    ty: ScalarType
    rom: bool = False
    init: Optional[np.ndarray] = None
    output: bool = False

    def __post_init__(self) -> None:
        self.shape = tuple(int(s) for s in self.shape)
        if self.rom and self.init is None:
            raise IRError(f"ROM array {self.name!r} must have initial contents")
        if self.init is not None:
            arr = np.asarray(self.init, dtype=self.ty.numpy_dtype())
            if arr.shape != self.shape:
                raise IRError(
                    f"array {self.name!r} init shape {arr.shape} != declared {self.shape}")
            self.init = arr

    @property
    def size(self) -> int:
        n = 1
        for s in self.shape:
            n *= s
        return n


@dataclass(eq=False)
class Program:
    """A whole compilable unit: parameters, arrays, and a statement body."""

    name: str
    params: dict[str, ScalarType] = field(default_factory=dict)
    arrays: dict[str, ArrayDecl] = field(default_factory=dict)
    body: Block = field(default_factory=Block)
    #: Declared types of local scalar variables (filled by the builder and
    #: kept up to date by transforms that introduce new scalars).
    locals: dict[str, ScalarType] = field(default_factory=dict)

    def scalar_type(self, name: str) -> ScalarType:
        """Type of a parameter or local scalar."""
        if name in self.params:
            return self.params[name]
        if name in self.locals:
            return self.locals[name]
        raise IRError(f"unknown scalar {name!r} in program {self.name!r}")

    def declare_local(self, name: str, ty: ScalarType) -> None:
        """Register (or re-check) a local scalar's type."""
        existing = self.locals.get(name)
        if existing is not None and existing is not ty:
            raise TypeMismatchError(
                f"local {name!r} redeclared as {ty} (was {existing})")
        self.locals[name] = ty

    def fresh_name(self, base: str) -> str:
        """A scalar name not yet used by params or locals."""
        if base not in self.params and base not in self.locals:
            return base
        i = 1
        while f"{base}_{i}" in self.params or f"{base}_{i}" in self.locals:
            i += 1
        return f"{base}_{i}"

    def output_arrays(self) -> list[str]:
        """Names of arrays marked as program outputs."""
        return [a.name for a in self.arrays.values() if a.output]

    def __repr__(self) -> str:
        from repro.ir.printer import program_to_str
        return program_to_str(self)
