"""Fluent program builder.

Workloads and tests construct IR through :class:`ProgramBuilder`, which
keeps a cursor into the statement tree and offers context managers for
loops and conditionals so kernels read like the thesis listings::

    b = ProgramBuilder("simple")
    M, N = 64, 16
    data_in = b.array("data_in", (M,), U8)
    data_out = b.array("data_out", (M,), U8, output=True)
    a = b.local("a", U8)
    with b.loop("i", 0, M):                     # Fig. 2.1
        i = b.var("i")
        b.assign(a, data_in[i])
        with b.loop("j", 0, N, kernel=True):
            b.assign(a, ((a + i) & 15) * 3)
        data_out[i] = a
    prog = b.build()

Assignment to a typed local wraps at the local's width, mirroring C
semantics (``u8 a; a = x + 1;`` stays in 0..255) — the crypto kernels rely
on this.
"""

from __future__ import annotations

from typing import Any, Optional, Sequence, Union

from repro.errors import IRError
from repro.ir.nodes import (
    ArrayDecl, Assign, Block, Expr, ExprLike, For, If, Load, Program, Stmt,
    Store, Var, as_expr, init_shape,
)
from repro.ir.types import I32, ScalarType

__all__ = ["ProgramBuilder", "ArrayHandle"]

#: One subscript or a tuple of subscripts, Python scalars included.
IndexLike = Union[ExprLike, tuple[ExprLike, ...]]


class ArrayHandle:
    """A named array bound to a builder; supports ``arr[i]`` and ``arr[i] = v``."""

    def __init__(self, builder: "ProgramBuilder", decl: ArrayDecl):
        self._builder = builder
        self.decl = decl

    @property
    def name(self) -> str:
        return self.decl.name

    def _index_tuple(self, index: "IndexLike") -> tuple[Expr, ...]:
        idx = index if isinstance(index, tuple) else (index,)
        if len(idx) != len(self.decl.shape):
            raise IRError(
                f"array {self.name!r} has {len(self.decl.shape)} dims, "
                f"got {len(idx)} subscripts")
        return tuple(as_expr(i, hint=I32) for i in idx)

    def __getitem__(self, index: "IndexLike") -> Load:
        return Load(self.name, self._index_tuple(index), self.decl.ty)

    def __setitem__(self, index: "IndexLike", value: ExprLike) -> None:
        if self.decl.rom:
            raise IRError(f"cannot store to ROM array {self.name!r}")
        self._builder.emit(Store(self.name, self._index_tuple(index),
                                 as_expr(value, hint=self.decl.ty)))


class _LoopCtx:
    def __init__(self, builder: "ProgramBuilder", loop: For):
        self.builder = builder
        self.loop = loop

    def __enter__(self) -> Var:
        self.builder._stack.append(self.loop.body)
        return Var(self.loop.var, I32)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.builder._stack.pop()


class _IfCtx:
    def __init__(self, builder: "ProgramBuilder", block: Block):
        self.builder = builder
        self.block = block

    def __enter__(self) -> None:
        self.builder._stack.append(self.block)

    def __exit__(self, exc_type: object, exc: object, tb: object) -> None:
        self.builder._stack.pop()


class ProgramBuilder:
    """Incrementally constructs a :class:`~repro.ir.nodes.Program`."""

    def __init__(self, name: str):
        self.program = Program(name)
        self._stack: list[Block] = [self.program.body]
        self._last_if: dict[int, If] = {}

    # -- declarations --------------------------------------------------------

    def param(self, name: str, ty: ScalarType = I32) -> Var:
        """Declare a runtime scalar parameter and return a read handle."""
        if name in self.program.params:
            raise IRError(f"duplicate parameter {name!r}")
        self.program.params[name] = ty
        return Var(name, ty)

    def local(self, name: str, ty: ScalarType) -> Var:
        """Declare a local scalar of a fixed type and return a read handle."""
        self.program.declare_local(name, ty)
        return Var(name, ty)

    def array(self, name: str, shape: Sequence[int], ty: ScalarType,
              init: Any = None, output: bool = False) -> ArrayHandle:
        """Declare a RAM-backed array (loads/stores consume memory ports);
        ``init`` is a nest of sequences (or NumPy array) of ``shape``."""
        if name in self.program.arrays:
            raise IRError(f"duplicate array {name!r}")
        decl = ArrayDecl(name, tuple(shape), ty, rom=False, init=init, output=output)
        self.program.arrays[name] = decl
        return ArrayHandle(self, decl)

    def rom(self, name: str, data: Any, ty: ScalarType) -> ArrayHandle:
        """Declare a ROM lookup table (loads are port-free on-chip
        lookups) shaped like ``data``, a nest of sequences or NumPy array."""
        if name in self.program.arrays:
            raise IRError(f"duplicate array {name!r}")
        decl = ArrayDecl(name, init_shape(data), ty, rom=True, init=data)
        self.program.arrays[name] = decl
        return ArrayHandle(self, decl)

    # -- statement emission ----------------------------------------------------

    @property
    def current_block(self) -> Block:
        return self._stack[-1]

    def emit(self, stmt: Stmt) -> Stmt:
        """Append a statement at the cursor."""
        self.current_block.stmts.append(stmt)
        return stmt

    def assign(self, var: Union[Var, str], expr: ExprLike) -> Var:
        """Emit ``var = expr`` (the write wraps at the local's width)."""
        name = var.name if isinstance(var, Var) else var
        ty = self.program.scalar_type(name)
        if name in self.program.params:
            raise IRError(f"cannot assign to parameter {name!r}")
        self.emit(Assign(name, as_expr(expr, hint=ty)))
        return Var(name, ty)

    def let(self, name: str, expr: ExprLike, ty: Optional[ScalarType] = None) -> Var:
        """Declare a local with the expression's type and assign it."""
        e = as_expr(expr)
        ty = ty or e.ty
        self.program.declare_local(name, ty)
        self.emit(Assign(name, e))
        return Var(name, ty)

    def store(self, array: Union[ArrayHandle, str], index: "IndexLike",
              value: ExprLike) -> None:
        """Emit an array element store (``arr[index] = value``)."""
        handle = array if isinstance(array, ArrayHandle) else \
            ArrayHandle(self, self.program.arrays[array])
        handle[index] = value

    def var(self, name: str) -> Var:
        """A read handle on a previously declared scalar."""
        return Var(name, self.program.scalar_type(name))

    # -- control flow ----------------------------------------------------------

    def loop(self, var: str, lo: ExprLike, hi: ExprLike, step: int = 1,
             kernel: bool = False, **annotations: bool) -> _LoopCtx:
        """Open a counted loop; use as ``with b.loop("i", 0, M) as i:``.

        ``kernel=True`` marks the loop the way Nimble users annotated
        hardware kernels (consumed by :mod:`repro.nimble.kernel`).
        """
        self.program.declare_local(var, I32)
        if kernel:
            annotations["kernel"] = True
        loop = For(var, as_expr(lo, hint=I32), as_expr(hi, hint=I32),
                   Block(), step, annotations)
        self.emit(loop)
        return _LoopCtx(self, loop)

    def if_(self, cond: ExprLike) -> _IfCtx:
        """Open the then-branch of a conditional."""
        node = If(as_expr(cond))
        self.emit(node)
        self._last_if[id(self.current_block)] = node
        return _IfCtx(self, node.then)

    def else_(self) -> _IfCtx:
        """Open the else-branch of the immediately preceding ``if_``."""
        node = self._last_if.get(id(self.current_block))
        if node is None or self.current_block.stmts[-1] is not node:
            raise IRError("else_ must directly follow its if_ in the same block")
        return _IfCtx(self, node.orelse)

    # -- finish ------------------------------------------------------------------

    def build(self, validate: bool = True) -> Program:
        """Finalize and (optionally) validate the program."""
        if len(self._stack) != 1:
            raise IRError("unbalanced loop/if context managers")
        if validate:
            from repro.ir.validate import validate_program
            validate_program(self.program)
        return self.program
