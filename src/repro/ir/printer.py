"""C-like pretty-printer for the IR.

Used by the examples to render before/after listings in the style of the
thesis figures (Fig. 2.1–2.3, 3.3) and by ``repr`` on nodes for debugging.

The printed form of a whole program is **valid ``repro.lang`` source**:
``parse → lower`` over :func:`program_to_str` output reconstructs an
equivalent :class:`~repro.ir.nodes.Program` (same declarations, same
statement tree, same constant types).  Concretely that means:

* programs print as ``kernel <name> { decls... body... }``;
* array declarations carry ``rom``/``output`` qualifiers and their
  initial contents as ``{...}`` literals (ROMs require them);
* local scalars are declared with their types;
* kernel-annotated loops print a ``#pragma kernel`` line;
* constants whose type is not the literal default (``i32`` for ints,
  ``f64`` for floats) carry a type suffix, e.g. ``7u8``.
"""

from __future__ import annotations

from repro.ir.nodes import (
    ArrayDecl, Assign, BinOp, Block, Cast, Const, Expr, For, If, Load,
    Program, Select, Stmt, Store, UnOp, Var,
)
from repro.ir.types import F64, I32, ScalarType

__all__ = ["expr_to_str", "stmt_to_str", "program_to_str", "const_to_str"]

_BIN_SYMBOL = {
    "add": "+", "sub": "-", "mul": "*", "div": "/", "mod": "%",
    "and": "&", "or": "|", "xor": "^", "shl": "<<", "shr": ">>",
    "lt": "<", "le": "<=", "gt": ">", "ge": ">=", "eq": "==", "ne": "!=",
}

# Loose C-like precedence (higher binds tighter).
_PRECEDENCE = {
    "or": 1, "xor": 2, "and": 3,
    "eq": 4, "ne": 4,
    "lt": 5, "le": 5, "gt": 5, "ge": 5,
    "shl": 6, "shr": 6,
    "add": 7, "sub": 7,
    "mul": 8, "div": 8, "mod": 8,
    "min": 9, "max": 9,
}


def _prec(e: Expr) -> int:
    if isinstance(e, BinOp):
        return _PRECEDENCE.get(e.op, 9)
    if isinstance(e, (Select,)):
        return 0
    return 10


def const_to_str(value: "int | float | bool", ty: ScalarType) -> str:
    """Render one constant with its re-parsable type suffix.

    ``i32`` integers and ``f64`` floats are the literal defaults and
    print bare; every other type gets its name appended (``255u8``,
    ``1.5f32``) so the parser reconstructs the exact
    :class:`~repro.ir.nodes.Const`.
    """
    if ty.is_float:
        text = repr(float(value))
        return text if ty == F64 else f"{text}{ty.name}"
    text = str(int(value))
    return text if ty == I32 else f"{text}{ty.name}"


def expr_to_str(e: Expr) -> str:
    """Render an expression as C-like source text."""
    if isinstance(e, Const):
        return const_to_str(e.value, e.ty)
    if isinstance(e, Var):
        return e.name
    if isinstance(e, BinOp):
        if e.op in ("min", "max"):
            return f"{e.op}({expr_to_str(e.lhs)}, {expr_to_str(e.rhs)})"
        sym = _BIN_SYMBOL[e.op]
        lhs = expr_to_str(e.lhs)
        rhs = expr_to_str(e.rhs)
        if _prec(e.lhs) < _prec(e):
            lhs = f"({lhs})"
        if _prec(e.rhs) <= _prec(e):
            rhs = f"({rhs})"
        return f"{lhs} {sym} {rhs}"
    if isinstance(e, UnOp):
        sym = "-" if e.op == "neg" else "~"
        inner = expr_to_str(e.operand)
        # Constants are parenthesized so "-(5)" (neg node) stays distinct
        # from the negative literal "-5" when re-parsed.
        if _prec(e.operand) < 10 or isinstance(e.operand, Const):
            inner = f"({inner})"
        return f"{sym}{inner}"
    if isinstance(e, Load):
        idx = "][".join(expr_to_str(i) for i in e.index)
        return f"{e.array}[{idx}]"
    if isinstance(e, Select):
        return (f"({expr_to_str(e.cond)} ? {expr_to_str(e.iftrue)}"
                f" : {expr_to_str(e.iffalse)})")
    if isinstance(e, Cast):
        inner = expr_to_str(e.operand)
        if _prec(e.operand) < 10:
            inner = f"({inner})"
        return f"({e.ty}){inner}"
    raise TypeError(f"unknown expression node {type(e).__name__}")


def stmt_to_str(s: Stmt, indent: int = 0) -> str:
    """Render a statement tree as C-like source text (trailing newline)."""
    pad = "  " * indent
    if isinstance(s, Assign):
        return f"{pad}{s.var} = {expr_to_str(s.expr)};\n"
    if isinstance(s, Store):
        idx = "][".join(expr_to_str(i) for i in s.index)
        return f"{pad}{s.array}[{idx}] = {expr_to_str(s.value)};\n"
    if isinstance(s, Block):
        return "".join(stmt_to_str(c, indent) for c in s.stmts)
    if isinstance(s, For):
        if s.step == 1:
            step = f"{s.var}++"
        elif s.step == -1:
            step = f"{s.var}--"
        else:
            step = f"{s.var} += {s.step}"
        cmp_sym = "<" if s.step > 0 else ">"
        out = f"{pad}#pragma kernel\n" if s.annotations.get("kernel") else ""
        out += (f"{pad}for ({s.var} = {expr_to_str(s.lo)}; "
                f"{s.var} {cmp_sym} {expr_to_str(s.hi)}; {step}) {{\n")
        return out + stmt_to_str(s.body, indent + 1) + f"{pad}}}\n"
    if isinstance(s, If):
        out = f"{pad}if ({expr_to_str(s.cond)}) {{\n"
        out += stmt_to_str(s.then, indent + 1)
        if s.orelse.stmts:
            out += f"{pad}}} else {{\n"
            out += stmt_to_str(s.orelse, indent + 1)
        return out + f"{pad}}}\n"
    raise TypeError(f"unknown statement node {type(s).__name__}")


_IDENT_OK = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ0123456789_")


def _kernel_name(name: str) -> str:
    """The kernel header name: bare when it lexes as an identifier,
    quoted otherwise (benchmark names like ``skipjack-mem`` need quotes)."""
    if name and not name[0].isdigit() and set(name) <= _IDENT_OK:
        return name
    return f'"{name}"'


def _init_to_str(decl: "ArrayDecl", pad: str) -> str:
    """Array initializer literal, wrapped at a readable width."""
    items = [repr(v) for v in decl.init]
    body = ", ".join(items)
    if len(body) <= 60:
        return " = {" + body + "}"
    lines, cur = [], ""
    for item in items:
        piece = item + ", "
        if cur and len(cur) + len(piece) > 68:
            lines.append(cur.rstrip())
            cur = ""
        cur += piece
    if cur:
        lines.append(cur.rstrip().rstrip(","))
    joined = ("\n" + pad + "  ").join(lines)
    return " = {\n" + pad + "  " + joined + "\n" + pad + "}"


def program_to_str(p: Program) -> str:
    """Render a whole program as ``repro.lang`` source."""
    pad = "  "
    lines = [f"kernel {_kernel_name(p.name)} {{"]
    for name, ty in p.params.items():
        lines.append(f"{pad}param {ty} {name};")
    for a in p.arrays.values():
        dims = "".join(f"[{d}]" for d in a.shape)
        qual = ("rom " if a.rom else "") + ("output " if a.output else "")
        init = _init_to_str(a, pad) if a.init is not None else ""
        lines.append(f"{pad}{qual}{a.ty} {a.name}{dims}{init};")
    for name, ty in p.locals.items():
        lines.append(f"{pad}{ty} {name};")
    lines.append("")
    lines.append(stmt_to_str(p.body, 1).rstrip("\n"))
    lines.append("}")
    return "\n".join(lines) + "\n"
