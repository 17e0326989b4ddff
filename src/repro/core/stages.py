"""Pipeline-stage assignment and register-chain accounting (thesis §4.3).

Implements the middle steps of the squash algorithm:

* "Stretch" the cycles: backedges are excluded from the layering, so a
  recurrence's value travels from its defining stage down through the
  remaining stages and back to the top registers;
* "Pipeline the resulting DFG ignoring the backedges, producing exactly
  DS pipeline stages": nodes are layered by delay-weighted ASAP times and
  the critical path is cut into DS balanced slices;
* pipeline registers: every value crossing a stage boundary needs one
  register per boundary crossed; chains crossing several boundaries form
  the shift registers §4.4 highlights ("most of them can be efficiently
  packed in groups to form a single shift register").

The tick-distance model: a value produced in stage ``p`` and consumed in
stage ``c`` of the same iteration is needed ``c - p`` ticks later; a value
consumed across the backedge (next iteration of the same data set) is
needed ``DS - p + c`` ticks later; an outer-defined invariant circulates
in a DS-slot ring.  The chain length of a value is the maximum over its
consumers, and the squash register count is the sum of chain lengths plus
the per-data-set live-out holding registers.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.core.dfg import DFG, DFGNode
from repro.errors import ScheduleError

__all__ = ["StageAssignment", "assign_stages", "default_delay",
           "register_chains", "ChainInfo"]

DelayFn = Callable[[DFGNode], int]


def default_delay(node: DFGNode) -> int:
    """Unit delay for operators, zero for registers/constants/copies."""
    return 1 if node.is_operator else 0


@dataclass
class StageAssignment:
    """Result of cutting the DFG into DS pipeline stages."""

    ds: int
    #: node id -> stage in 1..ds (registers/constants -> stage of first use)
    stage: dict[int, int] = field(default_factory=dict)
    #: node id -> delay-weighted ASAP start time
    asap: dict[int, int] = field(default_factory=dict)
    #: delay-weighted critical path length of one iteration
    critical_path: int = 0
    #: per-stage internal critical path (drives the achievable tick length)
    stage_delay: dict[int, int] = field(default_factory=dict)

    def of_stmt(self, dfg: DFG, k: int) -> int:
        """Stage of the 3AC statement at position ``k`` of ``dfg``'s SSA
        block (copies inherit their source's stage)."""
        node = dfg.stmt_nodes.get(k)
        if node is None:
            raise ScheduleError("statement has no DFG node")
        return self.stage.get(node.nid, 1)


def assign_stages(dfg: DFG, ds: int,
                  delay: Optional[DelayFn] = None) -> StageAssignment:
    """Layer the DFG (ignoring backedges) and cut it into ``ds`` stages."""
    if ds < 1:
        raise ScheduleError("stage count must be >= 1")
    delay = delay or default_delay

    order = dfg.topo_order()
    # one pass over the edges: dist-0 predecessors per node, in edge order
    preds: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    for e in dfg.edges:
        if e.dist <= 0:
            preds[e.dst.nid].append(e.src)
    asap: dict[int, int] = {}
    for n in order:
        start = 0
        for p in preds[n.nid]:
            start = max(start, asap[p.nid] + delay(p))
        asap[n.nid] = start
    length = 0
    for n in dfg.nodes:
        length = max(length, asap[n.nid] + delay(n))

    sa = StageAssignment(ds=ds, asap=asap, critical_path=length)
    if length == 0:
        for n in dfg.nodes:
            sa.stage[n.nid] = 1
        sa.stage_delay = {s: 0 for s in range(1, ds + 1)}
        return sa

    for n in dfg.nodes:
        # cut points at multiples of length/ds; node belongs to the slice
        # containing its start time.
        s = 1 + min(ds - 1, (asap[n.nid] * ds) // length)
        sa.stage[n.nid] = s

    # registers and constants sit at the top; report them in stage 1 but they
    # contribute no delay.
    for s in range(1, ds + 1):
        sa.stage_delay[s] = 0
    # per-stage critical path: longest delay chain within one stage
    finish: dict[int, int] = {}
    for n in order:
        s = sa.stage[n.nid]
        start = 0
        for p in preds[n.nid]:
            if sa.stage[p.nid] == s:
                start = max(start, finish.get(p.nid, 0))
        finish[n.nid] = start + delay(n)
        sa.stage_delay[s] = max(sa.stage_delay[s], finish[n.nid])
    return sa


@dataclass
class ChainInfo:
    """Register-chain accounting for the squashed design."""

    ds: int
    #: value identifier -> chain length in ticks (= registers needed)
    chains: dict[str, int] = field(default_factory=dict)
    #: total pipeline/rotation registers
    total_registers: int = 0

    def add(self, key: str, length: int) -> None:
        if length > self.chains.get(key, -1):
            self.chains[key] = length

    def finalize(self) -> "ChainInfo":
        self.total_registers = sum(self.chains.values())
        return self


def register_chains(dfg: DFG, sa: StageAssignment, carried: set[str],
                    invariant: set[str], live_out: set[str],
                    ssa_exit: dict[str, str]) -> ChainInfo:
    """Compute shift-register chain lengths for every live value.

    One chain slot holds one tick of delay; a value needing to survive
    ``k`` ticks occupies a ``k``-slot shift chain (slots are shared by the
    DS in-flight data sets in rotation, so the chain length *is* the
    register count for that value).
    """
    ds = sa.ds
    info = ChainInfo(ds=ds)

    def st(n: DFGNode) -> int:
        return sa.stage.get(n.nid, 1)

    reg_consumer_max: dict[str, int] = {}
    for e in dfg.edges:
        if e.dist != 0 or e.kind != "data":
            continue
        src, dst = e.src, e.dst
        if src.kind == "const":
            continue
        if src.kind == "reg":
            name = src.name or ""
            reg_consumer_max[name] = max(reg_consumer_max.get(name, 1), st(dst))
        else:
            # intra-iteration value: survives from its stage to its last use
            key = f"val:{src.name or src.nid}"
            info.add(key, max(st(dst) - st(src), 0))

    # carried recurrences: produced at stage p, consumed (via the stretched
    # backedge through the top register) at stage c of the next iteration
    for name in carried:
        exit_v = ssa_exit.get(name)
        if exit_v is None or name not in dfg.regs:
            continue
        p = st(dfg.defs[exit_v])
        c = reg_consumer_max.get(name, 1)
        info.add(f"loop:{name}", (ds - p) + c)

    # the induction variable is a carried value through its ++ node
    if dfg.iv_inc is not None:
        name = dfg.iv_inc.name or "iv"
        base = name.rstrip("+")
        p = st(dfg.iv_inc)
        c = reg_consumer_max.get(base.split("@", 1)[0], 1)
        info.add(f"loop:{base}", (ds - p) + c)

    # invariants circulate in a DS-slot ring (one slot per data set in flight)
    for name in invariant:
        if name in dfg.regs:
            info.add(f"inv:{name}", ds)

    # live-outs persist until their data set drains at stage DS
    for name in live_out:
        exit_v = ssa_exit.get(name)
        if exit_v is None:
            continue
        src = dfg.defs.get(exit_v)
        if src is None or src.kind == "const":
            continue
        p = st(src)
        if src.kind == "reg":
            continue  # covered by its ring
        info.add(f"val:{src.name or src.nid}", ds - p)

    return info.finalize()
