"""Register-pressure accounting for modulo schedules on register files.

The spatial FPGA datapath *synthesizes* registers, so Table 6.2 only
prices them; a VLIW kernel must instead fit an architected register
file, which turns pressure into a hard schedulability constraint.  Two
classical quantities are computed from a schedule and its edge view:

* **MaxLive** — the peak number of simultaneously live values in the
  steady-state kernel under modulo execution: a value produced at
  ``t(src) + delay`` and last consumed at ``t(dst) + II*dist`` is live
  in every in-flight iteration, so its lifetime folds into the II-cycle
  kernel window once per overlapped copy.  With a **rotating register
  file** the hardware renames each copy into successive rotations, so
  MaxLive (plus the non-rotated loop invariants) is what must fit.
* **MVE copies** — without rotation, modulo variable expansion must
  materialize ``ceil(lifetime / II)`` architected copies of every
  value (Rau): the sum of those copies plus the live-in holding
  registers is what must fit.  This is exactly the register count the
  Table 6.2 ``registers`` column already reports for pipelined
  designs, so the two models stay mutually consistent.

:func:`register_pressure` packages both with the file capacity;
``required`` picks the model the machine description implies.  The
compilation pipeline bumps the II (re-entering the scheduler with a
``min_ii`` floor) until ``required <= capacity``, and rejects the
design when even the overlap-free schedule overflows.  A bump is not
guaranteed to help: growing the II shrinks the overlap of acyclic
lifetimes, but a recurrence cycle ``C`` keeps its values live for
``II*D(C) - L(C)`` cycles in total (distance ``D``, latency ``L``),
which *grows* with the II.

:func:`pressure_floor` turns that into a schedule-independent bound.
Around a cycle of value-carrying edges the slacks
``t(d) + II*dist - t(s) - delay(s)`` telescope to ``II*D - L``, and each
source lives at least as long as its cycle out-edge's slack, so over
vertex-disjoint cycles the lifetimes sum to at least ``sum(II*D - L)``.
MaxLive is the peak of a folded occupancy that totals the lifetime sum,
hence ``MaxLive >= ceil(sum(II*D - L) / II)``; the MVE copy count is at
least as large.  The floor is non-decreasing in II, so its value at
ResMII bounds every II a schedule can have: the pipeline rejects a
design whose floor exceeds the file before scheduling it at all.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.dfg import DFG
from repro.hw.area import registers_pipelined
from repro.hw.mii import EdgeView, _scc_map, default_edge_view
from repro.hw.modulo import ModuloSchedule, search_context
from repro.hw.ops import OperatorLibrary

__all__ = ["PressureInfo", "max_live", "pressure_floor",
           "register_pressure", "rotating_copies"]


@dataclass(frozen=True)
class PressureInfo:
    """Register demand of one modulo schedule against one file."""

    #: peak simultaneously-live values per kernel cycle (rotation model)
    max_live: int
    #: modulo-variable-expansion register count (non-rotating model) —
    #: identical to the pipelined Table 6.2 ``registers`` accounting
    mve_registers: int
    #: architected register-file capacity (None = unbounded)
    capacity: Optional[int]
    #: does the file rotate (hardware modulo variable expansion)?
    rotating: bool = True

    @property
    def required(self) -> int:
        """Registers the schedule needs under the machine's model."""
        return self.max_live if self.rotating else self.mve_registers

    @property
    def fits(self) -> bool:
        return self.capacity is None or self.required <= self.capacity


def _value_edges(dfg: DFG, lib: OperatorLibrary, edges: EdgeView
                 ) -> list[tuple[int, int, int, int]]:
    """``(src, dst, dist, delay(src))`` for every register-occupying edge.

    The edge view erases edge kinds, but only *data* flow occupies
    registers: constants need none, stores produce no value, and
    memory-ordering edges (store->x, load->store antidependences) are
    constraints, not uses — without this filter an antidependent store
    would spuriously extend a load's lifetime.  Kept on the triple's
    search context, so the II bump's re-entries filter once.
    """
    ctx = search_context(dfg, lib, edges)
    out = ctx.get("value_edges")
    if out is None:
        data_pairs = {(e.src.nid, e.dst.nid) for e in dfg.edges
                      if e.kind == "data"}
        dmap = ctx["dmap"]
        out = ctx["value_edges"] = [
            (s.nid, d.nid, dist, dmap[s.nid]) for s, d, dist in edges
            if s.kind not in ("const", "store")
            and (s.nid, d.nid) in data_pairs]
    return out


def _pair_distances(dfg: DFG, lib: OperatorLibrary, edges: EdgeView
                    ) -> dict[tuple[int, int], int]:
    """Largest distance in ``edges`` per value-carrying ``(src, dst)``."""
    out: dict[tuple[int, int], int] = {}
    for s, d, dist, _ in _value_edges(dfg, lib, edges):
        if dist > out.get((s, d), -1):
            out[(s, d)] = dist
    return out


def max_live(dfg: DFG, lib: OperatorLibrary, sched: ModuloSchedule,
             edges: Optional[EdgeView] = None) -> int:
    """Peak live values per steady-state kernel cycle.

    Each produced value's lifetime runs from the cycle its result is
    available (``t(src) + delay``) to its last use (``max over
    consumers of t(dst) + II*dist``); loop-invariant live-ins (register
    self-cycles) are live across the whole kernel.  Folding every
    lifetime into the II-cycle window — one occupancy per overlapped
    iteration — and taking the peak over the window's cycles gives the
    modulo-execution MaxLive.
    """
    edges = edges if edges is not None else default_edge_view(dfg)
    ii = sched.ii
    if ii <= 0:
        return 0
    time = sched.time
    start: dict[int, int] = {}
    end: dict[int, int] = {}
    for s, d, dist, dly in _value_edges(dfg, lib, edges):
        born = time[s] + dly
        last = time[d] + ii * dist
        start[s] = born
        end[s] = max(end.get(s, born), last)
    # fold each lifetime into the II-cycle window in O(1): a lifetime of
    # ``l`` cycles covers every window cycle ``l // ii`` times plus a
    # run of ``l % ii`` cycles starting at ``born % ii`` (wrapping),
    # accumulated as a difference array — identical to walking the
    # lifetime cycle by cycle, without the O(II * overlap) walk
    base = 0
    diff = [0] * (ii + 1)
    for nid, born in start.items():
        l = end[nid] - born
        if l <= 0:
            continue
        base += l // ii
        r = l % ii
        if r:
            b = born % ii
            e = b + r
            if e <= ii:
                diff[b] += 1
                diff[e] -= 1
            else:
                diff[b] += 1
                diff[0] += 1
                diff[e - ii] -= 1
    peak = run = 0
    for c in range(ii):
        run += diff[c]
        if run > peak:
            peak = run
    return base + peak


def _recurrence_cycles(dfg: DFG, lib: OperatorLibrary
                       ) -> list[list[tuple[int, int]]]:
    """Vertex-disjoint cycles of the DFG's value-carrying edges.

    A greedy packing per strongly connected component: every backedge
    (``dist > 0``) proposes the fewest-hop cycle through it over unused
    vertices, and the proposal with the largest total distance wins —
    a cycle contributes ``II*D - L``, so distance dominates — with ties
    going to the smaller latency, then the fewer vertices, then the
    lower node ids.  Proposals the winner blocks are re-derived, and
    the rounds repeat until no backedge can close a cycle.  Each cycle
    is returned as its ``(src, dst)`` pairs.

    Everything is keyed and ordered by node id, never by edge order —
    ``build_dfg`` emits backedges in set-iteration order, which varies
    across processes, and the floor names itself in skip reasons that
    must be a function of the query alone.  The packing depends on the
    graph alone, so it is kept on the DFG's default-view search context
    and shared by every edge view of the graph (a squash sweep relaxes
    one base DFG per DS).
    """
    view = default_edge_view(dfg)
    ctx = search_context(dfg, lib, view)
    cycles = ctx.get("floor_cycles")
    if cycles is not None:
        return cycles
    dmap = ctx["dmap"]
    dist_of = _pair_distances(dfg, lib, view)
    nodes = dfg.nodes
    comp = _scc_map([(nodes[s], nodes[d], 0) for s, d in dist_of])
    succs: dict[int, list[int]] = {}
    backedges: dict[int, list[tuple[int, int]]] = {}
    for (s, d), dist in sorted(dist_of.items()):
        if comp[s] == comp[d]:
            succs.setdefault(s, []).append(d)
            if dist > 0:
                backedges.setdefault(comp[s], []).append((s, d))
    used: set[int] = set()

    def propose(u: int, v: int):
        """``(rank, vertices, pairs)`` of the fewest-hop cycle that
        ``u -> v`` closes over unused vertices, or None."""
        if u in used or v in used:
            return None
        parent = {v: v}  # u == v: a self-loop
        queue = deque([v])
        while queue and u not in parent:
            x = queue.popleft()
            for y in succs.get(x, ()):
                if y not in parent and y not in used:
                    parent[y] = x
                    queue.append(y)
        if u not in parent:
            return None
        path = [u]
        while path[-1] != v:
            path.append(parent[path[-1]])
        # edges a -> b along v ~> u, then the closing edge u -> v
        pairs = list(zip(path[1:], path[:-1])) + [(u, v)]
        rank = (-sum(dist_of[p] for p in pairs), sum(dmap[x] for x in path),
                len(path), u, v)
        return rank, set(path), pairs

    cycles = []
    for closing in backedges.values():
        proposals = {e: propose(*e) for e in closing}
        while True:
            live = [p for p in proposals.values() if p is not None]
            if not live:
                break
            _, taken, cycle = min(live, key=lambda p: p[0])
            used.update(taken)
            cycles.append(cycle)
            for e, p in proposals.items():
                if p is not None and p[1] & taken:
                    proposals[e] = propose(*e)
    ctx["floor_cycles"] = cycles
    return cycles


def pressure_floor(dfg: DFG, lib: OperatorLibrary,
                   edges: Optional[EdgeView], ii: int) -> int:
    """Lower bound on the MaxLive of *any* legal schedule at ``ii``.

    ``ceil(sum(max(0, II*D - L)) / II)`` over the vertex-disjoint
    recurrence cycles of :func:`_recurrence_cycles`, with each cycle's
    distance ``D`` read from ``edges`` (parallel edges count with their
    largest distance) and ``L`` the sum of its nodes' latencies (the
    proof is in the module docstring).  It also bounds the MVE copy
    count, so it holds for rotating and non-rotating files alike.
    Non-decreasing in ``ii``: the value at ResMII bounds every schedule
    of the design.
    """
    if ii <= 0:
        return 0
    edges = edges if edges is not None else default_edge_view(dfg)
    ctx = search_context(dfg, lib, edges)
    terms = ctx.get("floor_terms")
    if terms is None:
        dist_of = _pair_distances(dfg, lib, edges)
        dmap = ctx["dmap"]
        terms = ctx["floor_terms"] = []
        for cycle in _recurrence_cycles(dfg, lib):
            if all(p in dist_of for p in cycle):  # else not a cycle here
                terms.append((sum(dist_of[p] for p in cycle),
                              sum(dmap[s] for s, _ in cycle)))
    total = 0
    for dist, latency in terms:
        total += max(0, ii * dist - latency)
    return -(-total // ii)


def register_pressure(dfg: DFG, lib: OperatorLibrary,
                      sched: ModuloSchedule,
                      edges: Optional[EdgeView] = None) -> PressureInfo:
    """Both pressure models plus the library's capacity/rotation."""
    edges = edges if edges is not None else default_edge_view(dfg)
    return PressureInfo(
        max_live=max_live(dfg, lib, sched, edges),
        mve_registers=registers_pipelined(dfg, lib, sched, edges),
        capacity=getattr(lib, "register_file", None),
        rotating=bool(getattr(lib, "rotating", True)))


def rotating_copies(lifetime: int, ii: int) -> int:
    """``ceil(lifetime / II)`` — copies one value needs under MVE."""
    return math.ceil(lifetime / ii) if lifetime > 0 else 0
