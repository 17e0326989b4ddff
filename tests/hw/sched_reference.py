"""Frozen pure-Python reference of the scheduler core: a test oracle.

:mod:`repro.hw.sched_kernel` replaced these loops bit for bit.  They are
kept here as they were (minus the attempt counter and the ``mrt`` view)
so ``tests/hw/test_kernel_parity.py`` can diff the shipped scheduler
core against an independent, sequential implementation:

* ``_pred_map`` / ``_attempt`` / ``_violations`` and the repair loop of
  :func:`search`: the modulo II search;
* ``_probe_exceeding`` and :func:`rec_mii`: the sequential Bellman-Ford
  RecMII probe;
* :func:`list_schedule`: the cycle-by-cycle list scheduler;
* :func:`slack_levels` and ``_slack_orders``: the backtracking orders
  from topological ASAP/ALAP passes.

Do not optimise or "fix" anything here: the oracle is what the parity
suite pins.  Pieces with one implementation (ResMII, SCC grouping, edge
views, the resource map) are imported from ``repro``.

The ``Reference*Scheduler`` classes implement the scheduler protocol
under the shipped names, so ``register_scheduler(..., replace=True)``
routes the whole compilation pipeline through the oracle.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.core.dfg import DFG, DFGNode
from repro.errors import ScheduleError
from repro.hw.listsched import ListSchedule
from repro.hw.mii import EdgeView, _scc_arcs, default_edge_view, res_mii
from repro.hw.modulo import _REPAIR_ROUNDS, ModuloSchedule
from repro.hw.ops import OperatorLibrary, ResourceMap
from repro.hw.ops import cached_resource_map as _resource_map

# ---------------------------------------------------------------------------
# Modulo placement and verification
# ---------------------------------------------------------------------------


def _delay_map(dfg: DFG, lib: OperatorLibrary) -> dict[int, int]:
    """Node-id -> latency memo; the II search re-reads delays O(E * II
    candidates * repair rounds) times, so one dict beats spec lookups."""
    return {n.nid: lib.delay(n) for n in dfg.nodes}


def _pred_map(dfg: DFG, edges: EdgeView, dmap: dict[int, int]
              ) -> dict[int, list[tuple[int, int, int]]]:
    """dst-id -> [(src-id, delay(src), dist)] — built once per search,
    shared by every candidate II, order, and repair round."""
    preds: dict[int, list[tuple[int, int, int]]] = \
        {n.nid: [] for n in dfg.nodes}
    for s, d, dist in edges:
        preds[d.nid].append((s.nid, dmap[s.nid], dist))
    return preds


def _attempt(dfg: DFG, edges: EdgeView, lib: OperatorLibrary, ii: int,
             extra_lat: dict[int, int],
             order: Optional[list[DFGNode]] = None,
             dmap: Optional[dict[int, int]] = None,
             preds: Optional[dict[int, list[tuple[int, int, int]]]] = None,
             rmap: Optional[ResourceMap] = None,
             slots: Optional[dict[str, int]] = None
             ) -> Optional[ModuloSchedule]:
    """One placement pass at a fixed II.

    ``order`` overrides the node placement order (default: topological
    order of the distance-0 subgraph).  Non-topological orders are legal:
    predecessors not yet placed are simply ignored here, and the repair
    loop in the caller catches the resulting violations.  ``dmap``,
    ``preds``, ``rmap``, and ``slots`` let the II search share one delay
    map, predecessor map, and resource description across all candidate
    IIs and repair rounds.
    """
    dmap = dmap if dmap is not None else _delay_map(dfg, lib)
    if preds is None:
        preds = _pred_map(dfg, edges, dmap)
    rmap = rmap if rmap is not None else _resource_map(dfg, lib)
    slots = slots if slots is not None else lib.resource_slots()

    time: dict[int, int] = {}
    rt: dict[str, dict[int, int]] = {r: {} for r in slots}
    time_get = time.get
    length = 0

    for node in (order if order is not None else dfg.topo_order()):
        nid = node.nid
        t = extra_lat.get(nid, 0)
        for snid, sdly, dist in preds[nid]:
            ts = time_get(snid)
            if ts is not None:
                ready = ts + sdly - ii * dist
                if ready > t:
                    t = ready
        if t < 0:
            t = 0
        res = rmap[nid]
        if res:
            # advance until `t mod II` lands on a row with a free slot
            # in every resource the node occupies; after II steps every
            # row has been probed, so give up.
            for _ in range(ii):
                row = t % ii
                if all(rt[r].get(row, 0) < slots[r] for r in res):
                    break
                t += 1
            else:
                return None
            for r in res:
                rt[r][row] = rt[r].get(row, 0) + 1
        time[nid] = t
        end = t + dmap[nid]
        if end > length:
            length = end

    sched = ModuloSchedule(ii=ii, time=time, rec_mii=0, res_mii=0, rt=rt)
    sched.length = length
    return sched


def _violations(dfg: DFG, edges: EdgeView, lib: OperatorLibrary,
                sched: ModuloSchedule,
                dmap: Optional[dict[int, int]] = None
                ) -> list[tuple[DFGNode, DFGNode, int]]:
    dmap = dmap if dmap is not None else _delay_map(dfg, lib)
    time = sched.time
    ii = sched.ii
    out = []
    for s, d, dist in edges:
        if time[d.nid] + ii * dist < time[s.nid] + dmap[s.nid]:
            out.append((s, d, dist))
    return out


# ---------------------------------------------------------------------------
# RecMII
# ---------------------------------------------------------------------------


def _probe_exceeding(nids: list[int],
                     arcs: list[tuple[int, int, int, int]],
                     lam: int) -> bool:
    """Is there a cycle with sum(delay) > lam * sum(distance)?

    Bellman-Ford negative-cycle detection on weights
    ``-(delay(src) - lam*dist)``; the ``(u, v, delay, dist)`` arc list is
    precomputed once per component and only the weights are rescaled per
    probe.  Delays, lambda, and distances are all integers, so
    relaxation compares exactly — a float epsilon here could mask a
    genuine unit-weight cycle or, worse, let rounding turn the tie case
    ``delay == lam * distance`` (weight exactly 0, *not* an exceeding
    cycle) into a spurious one.
    """
    dist_map: dict[int, int] = {nid: 0 for nid in nids}
    for _ in range(len(nids)):
        changed = False
        for u, v, dly, dd in arcs:
            t = dist_map[u] - dly + lam * dd
            if t < dist_map[v]:
                dist_map[v] = t
                changed = True
        if not changed:
            return False
    return True  # still relaxing after n passes: negative cycle exists


def rec_mii(dfg: DFG, delay: Callable[[DFGNode], int],
            edges: Optional[EdgeView] = None) -> int:
    """``repro.hw.mii.rec_mii`` over the sequential probe."""
    edges = edges if edges is not None else default_edge_view(dfg)
    best = 1
    for nids, arcs in _scc_arcs(list(edges), delay):
        hi = sum({u: dly for u, _, dly, _ in arcs}.values()) + 1
        lo = best
        while lo < hi:
            mid = (lo + hi) // 2
            if _probe_exceeding(nids, arcs, mid):
                lo = mid + 1
            else:
                hi = mid
        best = max(best, lo)
    return best


# ---------------------------------------------------------------------------
# The II search
# ---------------------------------------------------------------------------


def search(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
           orders: list[Optional[list[DFGNode]]],
           max_ii: Optional[int] = None,
           min_ii: Optional[int] = None) -> ModuloSchedule:
    """The II search of ``repro.hw.modulo._search_impl`` over the
    reference loops."""
    dmap = _delay_map(dfg, lib)
    rmap = _resource_map(dfg, lib)
    slots = lib.resource_slots()
    topo = dfg.topo_order()
    preds = _pred_map(dfg, edges, dmap)

    rmii = rec_mii(dfg, lambda n: dmap[n.nid], edges)
    smii = res_mii(dfg, lib)
    start_ii = max(rmii, smii, min_ii or 1)
    limit = max_ii or max(start_ii, sum(dmap.values())) + 1

    for ii in range(start_ii, limit + 1):
        for order in orders:
            extra: dict[int, int] = {}
            for _ in range(_REPAIR_ROUNDS):
                sched = _attempt(dfg, edges, lib, ii, extra,
                                 order=order if order is not None else topo,
                                 dmap=dmap, preds=preds, rmap=rmap,
                                 slots=slots)
                if sched is None:
                    break
                bad = _violations(dfg, edges, lib, sched, dmap=dmap)
                if not bad:
                    sched.rec_mii = rmii
                    sched.res_mii = smii
                    return sched
                grew = False
                for s, d, dist in bad:
                    need = sched.time[s.nid] + dmap[s.nid] - ii * dist
                    if need > extra.get(d.nid, 0):
                        extra[d.nid] = need
                        grew = True
                if not grew:
                    # the delay map reached a fixpoint: every further
                    # round replays this exact placement and fails the
                    # same way, so the remaining rounds are pure spin
                    break
    raise ScheduleError(
        f"no modulo schedule found up to II={limit} "
        f"(RecMII={rmii}, ResMII={smii}"
        + (f", II floor {min_ii}" if min_ii else "")
        + (f", {len(orders)} orderings per II" if len(orders) > 1 else "")
        + ")")


def slack_levels(dfg: DFG, edges: EdgeView, dmap: dict[int, int],
                 topo: list[DFGNode]) -> tuple[dict[int, int], dict[int, int]]:
    """ASAP/ALAP levels of the view's distance-0 subgraph by topological
    passes over ``topo`` (the oracle of
    ``repro.hw.sched_kernel.slack_levels``)."""
    asap = {}
    preds: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    succs: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    for s, d, dist in edges:
        if dist == 0:
            preds[d.nid].append(s)
            succs[s.nid].append(d)
    # dfg.topo_order() stays topological here: the view's distance-0
    # subgraph is a subset of the DFG's (relaxation only adds distance)
    for n in topo:
        start = 0
        for p in preds[n.nid]:
            start = max(start, asap[p.nid] + dmap[p.nid])
        asap[n.nid] = start
    length = max((asap[n.nid] + dmap[n.nid] for n in dfg.nodes),
                 default=0)
    alap = {}
    for n in reversed(topo):
        latest = length - dmap[n.nid]
        for d in succs[n.nid]:
            if d.nid in alap:
                latest = min(latest, alap[d.nid] - dmap[n.nid])
        alap[n.nid] = latest
    return asap, alap


def _slack_orders(dfg: DFG, edges: EdgeView, ctx: dict
                  ) -> list[list[DFGNode]]:
    """Alternative placement orders tried after the topological one
    (``repro.hw.schedulers._slack_orders`` with topological ASAP/ALAP
    passes)."""
    rmap, slots, topo = ctx["rmap"], ctx["slots"], ctx["topo"]
    asap, alap = slack_levels(dfg, edges, ctx["dmap"], topo)
    slack = {n.nid: alap[n.nid] - asap[n.nid] for n in topo}

    by_slack = sorted(topo, key=lambda n: (slack[n.nid], asap[n.nid], n.nid))
    uses: dict[str, int] = {}
    for res in rmap.values():
        for r in res:
            uses[r] = uses.get(r, 0) + 1
    pressure = {nid: max((uses[r] / slots[r] for r in res), default=0.0)
                for nid, res in rmap.items()}
    contended_first = sorted(topo, key=lambda n: (-pressure[n.nid],
                                                  slack[n.nid],
                                                  asap[n.nid], n.nid))
    orders, seen = [], {tuple(n.nid for n in topo)}
    for order in (by_slack, contended_first):
        key = tuple(n.nid for n in order)
        if key not in seen:
            seen.add(key)
            orders.append(order)
    return orders


# ---------------------------------------------------------------------------
# List scheduling
# ---------------------------------------------------------------------------


def list_schedule(dfg: DFG, lib: OperatorLibrary) -> ListSchedule:
    """ASAP schedule of the distance-0 subgraph under resource limits."""
    sched = ListSchedule()
    preds: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    for e in dfg.edges:
        if e.dist == 0:
            preds[e.dst.nid].append(e.src)

    slots = lib.resource_slots()
    usage: dict[str, dict[int, int]] = {r: {} for r in slots}
    for node in dfg.topo_order():
        t = 0
        for src in preds[node.nid]:
            t = max(t, sched.time[src.nid] + lib.delay(src))
        res = lib.node_resources(node)
        if res:
            while any(usage[r].get(t, 0) >= slots[r] for r in res):
                t += 1
            for r in res:
                usage[r][t] = usage[r].get(t, 0) + 1
        sched.time[node.nid] = t
    sched.resource_usage = usage
    sched.length = max((sched.time[n.nid] + lib.delay(n) for n in dfg.nodes),
                       default=0)
    # a loop iteration takes at least one cycle even if empty
    sched.length = max(sched.length, 1)
    return sched


# ---------------------------------------------------------------------------
# The strategies, under the shipped registry names
# ---------------------------------------------------------------------------


class ReferenceListScheduler:
    name = "list"
    pipelined = False

    def schedule(self, dfg, lib, edges=None, max_ii=None,
                 min_ii=None) -> ListSchedule:
        return list_schedule(dfg, lib)


class ReferenceModuloScheduler:
    name = "modulo"
    pipelined = True

    def schedule(self, dfg, lib, edges=None, max_ii=None,
                 min_ii=None) -> ModuloSchedule:
        edges = edges if edges is not None else default_edge_view(dfg)
        return search(dfg, lib, edges, orders=[None], max_ii=max_ii,
                      min_ii=min_ii)


class ReferenceBacktrackScheduler:
    name = "backtrack"
    pipelined = True

    def schedule(self, dfg, lib, edges=None, max_ii=None,
                 min_ii=None) -> ModuloSchedule:
        edges = edges if edges is not None else default_edge_view(dfg)
        ctx = {"dmap": _delay_map(dfg, lib), "rmap": _resource_map(dfg, lib),
               "slots": lib.resource_slots(), "topo": dfg.topo_order()}
        orders: list[Optional[list[DFGNode]]] = [None]
        orders += _slack_orders(dfg, edges, ctx)
        return search(dfg, lib, edges, orders=orders, max_ii=max_ii,
                      min_ii=min_ii)


#: The oracle strategies by registry name.
SCHEDULERS = {s.name: s for s in (ReferenceListScheduler(),
                                  ReferenceModuloScheduler(),
                                  ReferenceBacktrackScheduler())}
