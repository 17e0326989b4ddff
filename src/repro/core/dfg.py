"""Data-flow graph of a squash-candidate inner loop (thesis §4.3, Fig. 4.1).

The DFG is built over the three-address SSA body:

* one node per operator / memory access;
* **register nodes** at the top for every live-in scalar ("live variables
  are stored in registers at the top of the graph");
* live-ins defined in the outer loop and never redefined become
  **self-cycles** ("transform live variables that are used in the inner
  loop but defined in the outer loop into cycles");
* loop-carried scalar recurrences become **backedges** (distance 1) from
  the exit definition to the register;
* the inner induction variable is modeled as a register plus a synthetic
  increment feeding back (the ``j / ++`` cycle of Fig. 4.1);
* memory-ordering edges serialize conflicting accesses to the same RAM
  array (ROM lookups are free of ordering).

The same graph drives pipeline-stage assignment (squash), RecMII/ResMII
computation, and operator/area accounting in :mod:`repro.hw`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.analysis.ssa import SSABlock
from repro.errors import IRError
from repro.ir.nodes import (
    Assign, BinOp, Cast, Const, Expr, Load, Select, Stmt, Store, UnOp, Var,
)
from repro.ir.types import ScalarType

__all__ = ["DFGNode", "DFGEdge", "DFG", "build_dfg"]


@dataclass(eq=False)
class DFGNode:
    """One vertex of the data-flow graph."""

    nid: int
    kind: str                  # binop|unop|select|cast|load|rom_load|store|reg|const|inc|copy
    ty: ScalarType
    op: Optional[str] = None   # operator name for binop/unop
    name: Optional[str] = None  # SSA version (defs) or variable name (regs)
    array: Optional[str] = None  # for load/rom_load/store
    stmt: Optional[Stmt] = None  # originating 3AC statement

    @property
    def is_operator(self) -> bool:
        return self.kind in ("binop", "unop", "select", "cast", "load",
                             "rom_load", "store", "inc")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        tag = self.op or self.array or self.name or ""
        return f"<{self.kind}:{tag}#{self.nid}>"


@dataclass(eq=False)
class DFGEdge:
    """A dependence edge; ``dist`` counts loop iterations (0 or 1)."""

    src: DFGNode
    dst: DFGNode
    dist: int = 0
    kind: str = "data"         # data | mem


@dataclass
class DFG:
    """The full graph plus the bookkeeping the squash pipeline needs."""

    nodes: list[DFGNode] = field(default_factory=list)
    edges: list[DFGEdge] = field(default_factory=list)
    #: live-in variable name -> register node
    regs: dict[str, DFGNode] = field(default_factory=dict)
    #: SSA version -> producing node (aliases resolve through copies)
    defs: dict[str, DFGNode] = field(default_factory=dict)
    #: statement position in the SSA block -> its node (a pure copy maps
    #: to its source's node); positions, unlike statement addresses, are
    #: the same in every build and in a copy read back from disk
    stmt_nodes: dict[int, DFGNode] = field(default_factory=dict)
    #: the synthetic induction-variable increment node (if modeled)
    iv_inc: Optional[DFGNode] = None

    def add_node(self, **kw) -> DFGNode:
        node = DFGNode(nid=len(self.nodes), **kw)
        self.nodes.append(node)
        return node

    def add_edge(self, src: DFGNode, dst: DFGNode, dist: int = 0,
                 kind: str = "data") -> DFGEdge:
        e = DFGEdge(src, dst, dist, kind)
        self.edges.append(e)
        return e

    def preds(self, n: DFGNode, max_dist: int = 0) -> list[DFGEdge]:
        return [e for e in self.edges if e.dst is n and e.dist <= max_dist]

    def backedges(self) -> list[DFGEdge]:
        return [e for e in self.edges if e.dist > 0]

    def topo_order(self) -> list[DFGNode]:
        """Topological order of the distance-0 subgraph."""
        indeg: dict[int, int] = {n.nid: 0 for n in self.nodes}
        adj: dict[int, list[DFGNode]] = {n.nid: [] for n in self.nodes}
        for e in self.edges:
            if e.dist == 0:
                indeg[e.dst.nid] += 1
                adj[e.src.nid].append(e.dst)
        ready = [n for n in self.nodes if indeg[n.nid] == 0]
        out: list[DFGNode] = []
        while ready:
            n = ready.pop()
            out.append(n)
            for m in adj[n.nid]:
                indeg[m.nid] -= 1
                if indeg[m.nid] == 0:
                    ready.append(m)
        if len(out) != len(self.nodes):
            raise IRError("distance-0 DFG subgraph is cyclic")
        return out


def build_dfg(ssa: SSABlock, carried: set[str], invariant: set[str],
              rom_arrays: frozenset[str],
              inner_iv: Optional[str] = None,
              iv_step: int = 1) -> DFG:
    """Construct the DFG for an SSA three-address inner-loop body.

    Parameters
    ----------
    ssa:
        The SSA-renamed three-address body.
    carried / invariant:
        Live-in classification from :func:`repro.analysis.usedef.loop_liveness`.
    rom_arrays:
        Arrays whose loads are port-free ROM lookups.
    inner_iv:
        Inner induction variable name; modeled as register + increment.
    """
    g = DFG()

    # -- registers at the top -------------------------------------------------
    for name, entry_version in ssa.entry.items():
        reg = g.add_node(kind="reg", ty=ssa.types[entry_version], name=name)
        g.regs[name] = reg
        g.defs[entry_version] = reg

    if inner_iv is not None and inner_iv in g.regs:
        reg = g.regs[inner_iv]
        inc = g.add_node(kind="inc", ty=reg.ty, op="add", name=f"{inner_iv}++")
        g.add_edge(reg, inc, 0)
        g.add_edge(inc, reg, 1)
        g.iv_inc = inc

    def operand(e: Expr) -> DFGNode:
        if isinstance(e, Var):
            node = g.defs.get(e.name)
            if node is None:
                raise IRError(f"DFG: read of unknown SSA version {e.name!r}")
            return node
        if isinstance(e, Const):
            return g.add_node(kind="const", ty=e.ty, name=repr(e.value))
        raise IRError(f"DFG build requires 3AC leaves, got {type(e).__name__}")

    # -- statement nodes --------------------------------------------------------
    last_mem: dict[str, list[DFGNode]] = {}

    def mem_order(node: DFGNode, array: str, is_store: bool) -> None:
        prior = last_mem.setdefault(array, [])
        for p in prior:
            if is_store or p.kind == "store":
                g.add_edge(p, node, 0, kind="mem")
        prior.append(node)

    for k, s in enumerate(ssa.stmts):
        if isinstance(s, Assign):
            e = s.expr
            if isinstance(e, (Var, Const)):
                src = operand(e)
                g.defs[s.var] = src          # pure copy: alias
                g.stmt_nodes[k] = src
                continue
            if isinstance(e, BinOp):
                node = g.add_node(kind="binop", ty=e.ty, op=e.op,
                                  name=s.var, stmt=s)
                g.add_edge(operand(e.lhs), node, 0)
                g.add_edge(operand(e.rhs), node, 0)
            elif isinstance(e, UnOp):
                node = g.add_node(kind="unop", ty=e.ty, op=e.op,
                                  name=s.var, stmt=s)
                g.add_edge(operand(e.operand), node, 0)
            elif isinstance(e, Select):
                node = g.add_node(kind="select", ty=e.ty, name=s.var, stmt=s)
                for x in (e.cond, e.iftrue, e.iffalse):
                    g.add_edge(operand(x), node, 0)
            elif isinstance(e, Cast):
                node = g.add_node(kind="cast", ty=e.ty, name=s.var, stmt=s)
                g.add_edge(operand(e.operand), node, 0)
            elif isinstance(e, Load):
                kind = "rom_load" if e.array in rom_arrays else "load"
                node = g.add_node(kind=kind, ty=e.ty, name=s.var,
                                  array=e.array, stmt=s)
                for i in e.index:
                    g.add_edge(operand(i), node, 0)
                if kind == "load":
                    mem_order(node, e.array, is_store=False)
            else:
                raise IRError(f"DFG: unsupported expression {type(e).__name__}")
            g.defs[s.var] = node
            g.stmt_nodes[k] = node
        elif isinstance(s, Store):
            node = g.add_node(kind="store", ty=s.value.ty, array=s.array, stmt=s)
            for i in s.index:
                g.add_edge(operand(i), node, 0)
            g.add_edge(operand(s.value), node, 0)
            mem_order(node, s.array, is_store=True)
            g.stmt_nodes[k] = node
        else:  # pragma: no cover - 3AC precondition
            raise IRError(f"DFG: unexpected statement {type(s).__name__}")

    # -- backedges (cycle construction, §4.3) -----------------------------------
    # in ssa.entry order, not set order: string hashing is salted per
    # process, and the edge list must not depend on it
    for name, reg in g.regs.items():
        exit_v = ssa.exit.get(name)
        if name in carried and exit_v is not None:
            g.add_edge(g.defs[exit_v], reg, 1)
    for name, reg in g.regs.items():
        if name in invariant and name != inner_iv:
            g.add_edge(reg, reg, 1)

    # cross-iteration memory ordering (same data set executes sequentially;
    # these edges matter for modulo scheduling, not for staging)
    for array, accs in last_mem.items():
        stores = [n for n in accs if n.kind == "store"]
        if stores:
            g.add_edge(stores[-1], accs[0], 1, kind="mem")

    return g
