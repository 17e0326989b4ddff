"""Minimum initiation interval bounds (thesis §3.5).

* **RecMII** — the recurrence-constrained bound: the maximum over all DFG
  cycles of ``ceil(delay(C) / distance(C))``.  Computed with the
  parametric Bellman-Ford technique (is there a cycle with
  ``delay > lambda * distance``? — binary search on lambda).
* **ResMII** — the resource-constrained bound: the maximum over the
  target's shared resources (:meth:`~repro.hw.ops.OperatorLibrary.
  resource_slots`) of ``ceil(uses / slots)``.  On the spatial FPGA
  datapath every operator is its own functional unit, so the only shared
  resource is the memory bus — ``ceil(memory references / ports)`` — and
  the general formula degenerates to it; VLIW targets add issue-width
  and per-functional-unit rows.

``squash_distances`` builds the relaxed edge-distance view of a squashed
design: an edge crossing ``k`` stage boundaries gains ``k`` ticks of
slack, and loop-carried edges are stretched to ``DS`` iterations — the
formal core of why squash divides the recurrence bound by DS.
"""

from __future__ import annotations

import math
from collections import Counter
from typing import Callable, Optional

from repro.caches import Memo
from repro.core.dfg import DFG, DFGNode
from repro.core.stages import StageAssignment
from repro.hw.ops import OperatorLibrary, cached_resource_map

__all__ = ["rec_mii", "res_mii", "min_ii", "squash_distances", "EdgeView"]

#: (src, dst, distance) triples — a distance view over the DFG's edges.
EdgeView = list[tuple[DFGNode, DFGNode, int]]

#: Per-DFG memo of the default view (identity-keyed, pinning).  DFGs are
#: frozen once analysis hands them to the schedulers, and every
#: schedule/pressure call on an unrelaxed design re-derives
#: this same list; returning one shared object also lets the II search's
#: identity-keyed context memo hit across repeated calls.  Callers
#: treat views as read-only (squash builds its own list).  Per batch:
#: dropped when the engine's batch lands, with the contexts keyed by it.
_DEFAULT_VIEWS = Memo("edge_view", 1024, per_batch=True)


def default_edge_view(dfg: DFG) -> EdgeView:
    return _DEFAULT_VIEWS.get(
        id(dfg), lambda: [(e.src, e.dst, e.dist) for e in dfg.edges], (dfg,))


def squash_distances(dfg: DFG, sa: StageAssignment) -> EdgeView:
    """Edge distances as seen by the squashed (per-tick) machine.

    A distance-0 edge from stage p to stage c becomes distance ``c - p``
    (the value rides that many pipeline registers); a distance-d backedge
    becomes ``DS*d + (c - p)`` (stage deltas telescope to zero around any
    cycle, so cycle distances scale by exactly DS).
    """
    out: EdgeView = []
    for e in dfg.edges:
        sp = sa.stage.get(e.src.nid, 1)
        sc = sa.stage.get(e.dst.nid, 1)
        out.append((e.src, e.dst, sa.ds * e.dist + (sc - sp)))
    return out


def _scc_map(edges: EdgeView) -> dict[int, int]:
    """Node id -> strongly-connected-component id (iterative Tarjan)."""
    adj: dict[int, list[int]] = {}
    for s, d, _ in edges:
        adj.setdefault(s.nid, []).append(d.nid)
        adj.setdefault(d.nid, [])

    index: dict[int, int] = {}
    low: dict[int, int] = {}
    comp: dict[int, int] = {}
    on_stack: set[int] = set()
    stack: list[int] = []
    counter = ncomps = 0
    for root in adj:
        if root in index:
            continue
        work = [(root, 0)]
        while work:
            v, pi = work[-1]
            if pi == 0:
                index[v] = low[v] = counter
                counter += 1
                stack.append(v)
                on_stack.add(v)
            recurse = False
            for i in range(pi, len(adj[v])):
                w = adj[v][i]
                if w not in index:
                    work[-1] = (v, i + 1)
                    work.append((w, 0))
                    recurse = True
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            if recurse:
                continue
            work.pop()
            if low[v] == index[v]:
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp[w] = ncomps
                    if w == v:
                        break
                ncomps += 1
            if work:
                u, _ = work[-1]
                low[u] = min(low[u], low[v])
    return comp


def _scc_arcs(edges: EdgeView, delay: Callable[[DFGNode], int]
              ) -> list[tuple[list[int], list[tuple[int, int, int, int]]]]:
    """Cycle-capable edges, grouped by SCC, as precomputed probe arcs.

    Each group is ``(node ids, [(u, v, delay(u), dist), ...])`` — the
    structure every lambda probe of that component shares, built once
    per :func:`rec_mii` call.
    """
    comp = _scc_map(edges)
    nids: dict[int, dict[int, None]] = {}
    arcs: dict[int, list[tuple[int, int, int, int]]] = {}
    for s, d, dd in edges:
        c = comp[s.nid]
        if c != comp[d.nid]:
            continue
        arcs.setdefault(c, []).append((s.nid, d.nid, delay(s), dd))
        group = nids.setdefault(c, {})
        group[s.nid] = None
        group[d.nid] = None
    return [(list(nids[c]), arcs[c]) for c in arcs]


def rec_mii(dfg: DFG, delay: Callable[[DFGNode], int],
            edges: Optional[EdgeView] = None) -> int:
    """Recurrence-constrained minimum II (1 if the graph is acyclic).

    The bound decomposes over strongly connected components — a cycle
    never leaves its SCC — so each component gets its own binary search
    over its own (much smaller) delay budget, with the running maximum
    as the lower bound.  A component whose delay budget is within the
    running maximum costs no probe; any other that cannot raise the
    answer is dismissed with a single probe at the running maximum
    (:func:`repro.hw.sched_kernel.make_probe`: integer Bellman-Ford
    negative-cycle detection).
    """
    from repro.hw import sched_kernel

    edges = edges if edges is not None else default_edge_view(dfg)
    best = 1
    for nids, arcs in _scc_arcs(list(edges), delay):
        # any cycle's delay is bounded by the component's total node
        # delay (and cycle distances are >= 1): the search stops there
        hi = sum({u: dly for u, _, dly, _ in arcs}.values()) + 1
        if hi <= best:
            continue
        probe = sched_kernel.make_probe(nids, arcs)
        if not probe(best):
            continue    # no cycle exceeds the running maximum
        lo = best + 1
        # smallest lam with no cycle exceeding lam  ==>  this SCC's RecMII
        while lo < hi:
            mid = (lo + hi) // 2
            if probe(mid):
                lo = mid + 1
            else:
                hi = mid
        best = max(best, lo)
    return best


def res_mii(dfg: DFG, lib: OperatorLibrary) -> int:
    """Resource-constrained minimum II.

    The maximum over the library's shared resources of
    ``ceil(uses / slots)`` — on the spatial datapath that is the single
    memory-bus row (``ceil(memory references / ports)``); on issue-slot
    machines every functional-unit class and the issue width itself
    contribute a bound.  Uses are counted over the (dfg, lib) pair's
    :func:`~repro.hw.ops.cached_resource_map`, which the II search and
    its memo signature read too.
    """
    uses = Counter(r for res in cached_resource_map(dfg, lib).values()
                   for r in res)
    if not uses:
        return 1
    slots = lib.resource_slots()
    return max(1, max(math.ceil(count / slots[r])
                      for r, count in uses.items()))


def min_ii(dfg: DFG, lib: OperatorLibrary,
           edges: Optional[EdgeView] = None) -> int:
    """``max(RecMII, ResMII)`` — the scheduler's starting candidate."""
    return max(rec_mii(dfg, lib.delay, edges), res_mii(dfg, lib))
