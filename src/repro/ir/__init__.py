"""Typed structured loop IR: the substrate every other layer builds on.

Quick tour::

    from repro.ir import ProgramBuilder, U8
    from repro.ir.interp import run_program

    b = ProgramBuilder("demo")
    src = b.array("src", (16,), U8)
    dst = b.array("dst", (16,), U8, output=True)
    with b.loop("i", 0, 16) as i:
        dst[i] = src[i] + 1
    result = run_program(b.build(), arrays={"src": range(16)})

The value-level interpreter (:mod:`repro.ir.interp`, NumPy storage) is
not re-exported here: compiling a design never runs a program, so it is
imported from its own module by the code that does.
"""

from repro.ir.types import (  # noqa: F401
    ALL_TYPES, BOOL, F32, F64, FLOAT_TYPES, I8, I16, I32, I64, INT_TYPES,
    U8, U16, U32, U64, ScalarType, unify, wrap_int,
)
from repro.ir.nodes import (  # noqa: F401
    ArrayDecl, Assign, BinOp, BINOPS, Block, Cast, CMP_OPS, COMMUTATIVE_OPS,
    Const, Expr, For, If, Load, Program, Select, Stmt, Store, UnOp, UNOPS,
    Var, as_expr, const,
)
from repro.ir.builder import ArrayHandle, ProgramBuilder  # noqa: F401
from repro.ir.printer import expr_to_str, program_to_str, stmt_to_str  # noqa: F401
from repro.ir.validate import validate_program  # noqa: F401
from repro.ir.visitors import (  # noqa: F401
    clone_expr, clone_program, clone_stmt, map_exprs, rename_vars,
    structurally_equal, substitute, variables_read, variables_written,
    walk_exprs, walk_stmts,
)
