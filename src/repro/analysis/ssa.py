"""Static single assignment renaming of straight-line blocks.

The squash DFG is built over the inner loop body in SSA form (thesis §5.3:
"While the DFG is built, the inner loop code is converted into SSA form, so
that each variable is defined only once in the inner loop body").  Because
a legal squash inner loop is a single basic block, SSA here is pure
renaming — no phi nodes.

Version names use the ``name@k`` convention; ``name@0`` is the value live
into the iteration.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import LegalityError
from repro.ir.nodes import Assign, Block, Expr, Stmt, Store, Var
from repro.ir.types import ScalarType
from repro.ir.visitors import map_exprs

__all__ = ["SSABlock", "ssa_rename", "is_straightline", "base_name"]


def is_straightline(block: Block) -> bool:
    """True when the block contains only scalar assigns and stores."""
    return all(isinstance(s, (Assign, Store)) for s in block.stmts)


def base_name(version: str) -> str:
    """Strip the ``@k`` suffix from an SSA version name."""
    return version.split("@", 1)[0]


@dataclass
class SSABlock:
    """Result of SSA-renaming a straight-line block.

    Attributes
    ----------
    stmts:
        Renamed statements; every ``Assign`` target is unique.
    entry:
        original name -> entry version (``x@0``) for every name read
        before being written.
    exit:
        original name -> version holding the name's value at block end
        (entry version if never written).
    types:
        version name -> scalar type.
    """

    stmts: list[Stmt] = field(default_factory=list)
    entry: dict[str, str] = field(default_factory=dict)
    exit: dict[str, str] = field(default_factory=dict)
    types: dict[str, ScalarType] = field(default_factory=dict)


def ssa_rename(block: Block, scalar_type, extra_live_in: set[str] = frozenset()) -> SSABlock:
    """Rename a straight-line block into SSA form.

    Parameters
    ----------
    block:
        The inner loop body; must be straight-line.
    scalar_type:
        ``name -> ScalarType`` resolver (usually ``program.scalar_type``).
    extra_live_in:
        Names to pre-seed with entry versions even if the block writes them
        first (e.g. the loop induction variable, whose entry value the DFG
        models as a register).
    """
    if not is_straightline(block):
        raise LegalityError("SSA renaming requires a single basic block")

    current: dict[str, str] = {}
    counter: dict[str, int] = {}
    out = SSABlock()

    def read_version(name: str) -> str:
        if name not in current:
            v = f"{name}@0"
            current[name] = v
            counter[name] = 0
            out.entry[name] = v
            out.types[v] = scalar_type(name)
        return current[name]

    for name in extra_live_in:
        read_version(name)

    def rename_expr(e: Expr) -> Expr:
        def fn(node: Expr) -> Expr:
            if isinstance(node, Var):
                return Var(read_version(node.name), node.ty)
            return node
        return map_exprs(Assign("_", e), fn).expr  # reuse map machinery

    for s in block.stmts:
        if isinstance(s, Assign):
            new_expr = rename_expr(s.expr)
            counter[s.var] = counter.get(s.var, 0) + 1
            v = f"{s.var}@{counter[s.var]}"
            current[s.var] = v
            out.types[v] = scalar_type(s.var)
            out.stmts.append(Assign(v, new_expr))
        elif isinstance(s, Store):
            out.stmts.append(Store(s.array,
                                   tuple(rename_expr(i) for i in s.index),
                                   rename_expr(s.value)))
    for name, v in current.items():
        out.exit[name] = v
    return out
