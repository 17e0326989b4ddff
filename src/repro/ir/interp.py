"""Reference interpreter for IR programs.

:class:`Interpreter` is a tree-walking evaluator that also attributes a
per-operation cost to every enclosing loop.  It is the one program
executor: the semantics oracle for all transformation correctness tests,
the functional check of ``repro compile``/``repro squash``, and the
engine behind the Table 1.1 loop profiler.

Semantics notes:

* integer ops wrap at the expression's declared width (two's complement);
* scalar assignment wraps at the *local's* declared width (C assignment);
* ``div``/``mod`` on integers truncate toward zero (C semantics);
* shifts use the operand's width; amounts >= width yield 0 (after masking
  a 6-bit hardware-style shift amount this cannot occur for <= 64-bit
  types, so we simply clamp);
* ``Select`` evaluates **both** arms, like the if-converted hardware would;
* ``f32`` results round through IEEE single after every operation.

Array storage is NumPy, built from each declaration's plain contents by
:func:`array_storage`; NumPy is imported when a program runs, so the
scalar semantics (:func:`eval_binop`, :func:`cast_value`) the compile
path folds constants with load no NumPy.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Optional, Union

from repro.errors import InterpError
from repro.ir.nodes import (
    ArrayDecl, Assign, BinOp, Block, Cast, Const, Expr, For, If, Load,
    Program, Select, Stmt, Store, UnOp, Var,
)
from repro.ir.types import F32, ScalarType, round_f32, wrap_int

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "ExecutionResult", "LoopRecord", "Interpreter", "run_program",
    "array_storage",
]


#: Runtime scalar values: ints (bools flow as 0/1) and floats.
Scalar = Union[int, float]


# ---------------------------------------------------------------------------
# Array storage
# ---------------------------------------------------------------------------

def array_storage(decl: ArrayDecl, override: Any = None) -> "np.ndarray":
    """A fresh NumPy array holding ``decl``'s run-time contents.

    ``override`` (any array-like of the declared shape) replaces the
    contents of a non-ROM array; otherwise the declared contents are
    used, and arrays without any start zero-filled.  Every value-level
    reader (:class:`Interpreter`, :mod:`repro.vliw.simulate`) builds its
    storage through this one helper.
    """
    import numpy as np

    dtype = decl.ty.numpy_dtype()
    if override is not None:
        if decl.rom:
            raise InterpError(f"cannot override ROM {decl.name!r}")
        arr = np.array(override, dtype=dtype)
        if arr.shape != decl.shape:
            raise InterpError(f"array {decl.name!r}: provided shape "
                              f"{arr.shape} != {decl.shape}")
        return arr
    if decl.init is not None:
        return np.array(decl.init, dtype=dtype).reshape(decl.shape)
    return np.zeros(decl.shape, dtype=dtype)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class LoopRecord:
    """Per-loop dynamic statistics collected by the interpreter."""

    loop: For
    depth: int
    iterations: int = 0
    #: cost of operations executed anywhere inside the loop (inclusive).
    inclusive_cost: int = 0

    @property
    def label(self) -> str:
        return f"for({self.loop.var})@d{self.depth}"


@dataclass
class ExecutionResult:
    """Outcome of running a program."""

    arrays: dict[str, np.ndarray]
    scalars: dict[str, float | int]
    total_cost: int = 0
    op_counts: dict[str, int] = field(default_factory=dict)
    loop_records: dict[int, LoopRecord] = field(default_factory=dict)

    def output(self, name: Optional[str] = None) -> np.ndarray:
        """The named output array (or the unique one if unnamed)."""
        if name is not None:
            return self.arrays[name]
        outs = [k for k, v in self.arrays.items() if v is not None]
        if len(outs) == 1:
            return self.arrays[outs[0]]
        raise InterpError("output() needs a name when several arrays exist")


# ---------------------------------------------------------------------------
# Shared scalar-op semantics
# ---------------------------------------------------------------------------

def _int_div(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("integer division by zero")
    q = abs(a) // abs(b)
    return -q if (a < 0) != (b < 0) else q


def _int_mod(a: int, b: int) -> int:
    if b == 0:
        raise InterpError("integer modulo by zero")
    return a - _int_div(a, b) * b


def eval_binop(op: str, a: "Scalar", b: "Scalar",
               ty: ScalarType) -> "Scalar":
    """Evaluate one binary operation under IR semantics (shared helper)."""
    if op == "add":
        r = a + b
    elif op == "sub":
        r = a - b
    elif op == "mul":
        r = a * b
    elif op == "div":
        r = (a / b if ty.is_float else _int_div(a, b))
        if ty.is_float and b == 0:
            raise InterpError("float division by zero")
    elif op == "mod":
        r = _int_mod(a, b)
    elif op == "and":
        r = a & b
    elif op == "or":
        r = a | b
    elif op == "xor":
        r = a ^ b
    elif op == "shl":
        r = 0 if b >= ty.bits or b < 0 else a << b
    elif op == "shr":
        r = (a >> min(b, ty.bits) if b >= 0 else 0)
    elif op == "min":
        r = min(a, b)
    elif op == "max":
        r = max(a, b)
    elif op == "lt":
        return 1 if a < b else 0
    elif op == "le":
        return 1 if a <= b else 0
    elif op == "gt":
        return 1 if a > b else 0
    elif op == "ge":
        return 1 if a >= b else 0
    elif op == "eq":
        return 1 if a == b else 0
    elif op == "ne":
        return 1 if a != b else 0
    else:  # pragma: no cover - defensive
        raise InterpError(f"unknown binop {op!r}")
    if ty.is_float:
        return round_f32(r) if ty == F32 else float(r)
    return wrap_int(int(r), ty)


def cast_value(v: "Scalar", ty: ScalarType) -> "Scalar":
    """Scalar conversion used by Cast, Assign, and Store."""
    if ty.is_float:
        v = float(v)
        return round_f32(v) if ty == F32 else v
    return wrap_int(int(v), ty)


# ---------------------------------------------------------------------------
# Tree-walking interpreter
# ---------------------------------------------------------------------------

class Interpreter:
    """Tree-walking evaluator with per-loop cost attribution.

    Parameters
    ----------
    program:
        The IR program to execute.

    Every operation costs 1, which is what the thesis's profiling
    front-end effectively measured (basic-block execution traces).
    Memory operations count under the kinds ``"load"``/``"store"``/
    ``"rom_load"``.
    """

    def __init__(self, program: Program):
        self.program = program

    # -- public API ---------------------------------------------------------

    def run(self, params: Optional[dict[str, int]] = None,
            arrays: Optional[dict[str, np.ndarray]] = None) -> ExecutionResult:
        """Execute the program and return arrays, scalars, and statistics.

        ``arrays`` overrides initial contents for non-ROM arrays; arrays
        without declared or provided init start zero-filled.
        """
        params = dict(params or {})
        for p in self.program.params:
            if p not in params:
                raise InterpError(f"missing parameter {p!r}")
        storage = {name: array_storage(decl, (arrays or {}).get(name))
                   for name, decl in self.program.arrays.items()}

        self._env: dict[str, int | float] = {k: v for k, v in params.items()}
        self._storage = storage
        self._total = 0
        self._ops: dict[str, int] = {}
        self._records: dict[int, LoopRecord] = {}
        self._stack: list[LoopRecord] = []

        self._exec_block(self.program.body)

        scalars = {k: v for k, v in self._env.items() if k not in params}
        return ExecutionResult(arrays=storage, scalars=scalars,
                               total_cost=self._total, op_counts=self._ops,
                               loop_records=self._records)

    # -- internals ------------------------------------------------------------

    def _charge(self, kind: str) -> None:
        self._total += 1
        self._ops[kind] = self._ops.get(kind, 0) + 1
        for rec in self._stack:
            rec.inclusive_cost += 1

    def _eval(self, e: Expr) -> "Scalar":
        if isinstance(e, Const):
            return e.value
        if isinstance(e, Var):
            try:
                return self._env[e.name]
            except KeyError:
                raise InterpError(f"read of undefined scalar {e.name!r}") from None
        if isinstance(e, BinOp):
            a = self._eval(e.lhs)
            b = self._eval(e.rhs)
            self._charge(e.op)
            return eval_binop(e.op, a, b, e.ty)
        if isinstance(e, UnOp):
            v = self._eval(e.operand)
            self._charge(e.op)
            if e.op == "neg":
                r = -v
                return cast_value(r, e.ty)
            return wrap_int(~int(v), e.ty)
        if isinstance(e, Load):
            decl = self.program.arrays.get(e.array)
            if decl is None:
                raise InterpError(f"load from unknown array {e.array!r}")
            idx = tuple(int(self._eval(i)) for i in e.index)
            self._charge("rom_load" if decl.rom else "load")
            try:
                v = self._storage[e.array][idx]
            except IndexError:
                raise InterpError(
                    f"out-of-bounds load {e.array}{list(idx)} "
                    f"(shape {decl.shape})") from None
            for i, (x, s) in enumerate(zip(idx, decl.shape)):
                if x < 0:
                    raise InterpError(
                        f"negative subscript {x} in dim {i} of {e.array!r}")
            return float(v) if decl.ty.is_float else int(v)
        if isinstance(e, Select):
            c = self._eval(e.cond)
            t = self._eval(e.iftrue)
            f = self._eval(e.iffalse)
            self._charge("select")
            return cast_value(t if c else f, e.ty)
        if isinstance(e, Cast):
            v = self._eval(e.operand)
            self._charge("cast")
            return cast_value(v, e.ty)
        raise InterpError(f"unknown expression node {type(e).__name__}")

    def _exec_block(self, b: Block) -> None:
        for s in b.stmts:
            self._exec(s)

    def _exec(self, s: Stmt) -> None:
        if isinstance(s, Assign):
            v = self._eval(s.expr)
            ty = self.program.scalar_type(s.var)
            self._env[s.var] = cast_value(v, ty)
            return
        if isinstance(s, Store):
            decl = self.program.arrays.get(s.array)
            if decl is None:
                raise InterpError(f"store to unknown array {s.array!r}")
            if decl.rom:
                raise InterpError(f"store to ROM {s.array!r}")
            idx = tuple(int(self._eval(i)) for i in s.index)
            v = self._eval(s.value)
            self._charge("store")
            for i, (x, sz) in enumerate(zip(idx, decl.shape)):
                if not (0 <= x < sz):
                    raise InterpError(
                        f"out-of-bounds store {s.array}{list(idx)} "
                        f"(shape {decl.shape})")
            self._storage[s.array][idx] = cast_value(v, decl.ty)
            return
        if isinstance(s, Block):
            self._exec_block(s)
            return
        if isinstance(s, For):
            lo = int(self._eval(s.lo))
            hi = int(self._eval(s.hi))
            rec = self._records.get(id(s))
            if rec is None:
                rec = LoopRecord(s, depth=len(self._stack))
                self._records[id(s)] = rec
            self._stack.append(rec)
            try:
                for v in range(lo, hi, s.step):
                    self._env[s.var] = v
                    rec.iterations += 1
                    self._charge("branch")
                    self._exec_block(s.body)
            finally:
                self._stack.pop()
            return
        if isinstance(s, If):
            c = self._eval(s.cond)
            self._charge("branch")
            self._exec_block(s.then if c else s.orelse)
            return
        raise InterpError(f"unknown statement node {type(s).__name__}")


def run_program(program: Program, params: Optional[dict[str, int]] = None,
                arrays: Optional[dict[str, np.ndarray]] = None
                ) -> ExecutionResult:
    """One-shot convenience wrapper around :class:`Interpreter`."""
    return Interpreter(program).run(params, arrays)
