"""Modulo scheduling with a generalized reservation table (thesis §3.5).

Implements an iterative modulo scheduler in the style of Rau's IMS over
a *generalized* modulo reservation table: every shared resource the
operator library declares (:meth:`~repro.hw.ops.OperatorLibrary.
resource_slots`) contributes its own row set, and a node occupies one
slot in each of its :meth:`~repro.hw.ops.OperatorLibrary.node_resources`
rows when it issues.  On the spatial FPGA datapath every operator is its
own functional unit, so the only declared resource is the memory bus
(``mem_ports`` references per cycle) and the table degenerates to the
thesis's memory-port MRT exactly; VLIW targets add issue-width and
per-functional-unit rows through the same interface.

For each candidate II starting at ``max(RecMII, ResMII)``:

1. place nodes in topological order of the distance-0 subgraph at their
   earliest dependence-feasible slot, advancing resource-using
   operations until their ``time mod II`` row has a free slot in every
   resource they occupy;
2. verify *all* edges — including backedges to already-placed nodes
   (``t(dst) + II*dist >= t(src) + delay(src)``); if any fails, retry the
   placement with the violated sinks delayed, and ultimately fall back to
   the next II.

The same engine schedules all pipelined variants: the plain loop
(distances as built), and the squashed design (stage-relaxed distances
from :func:`repro.hw.mii.squash_distances`).  ``min_ii`` floors the
candidate range — the register-pressure II bump of
:mod:`repro.vliw.pressure` re-enters the search above an II whose
schedule overflowed the register file.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.caches import PinningLRU, register_cache
from repro.core.dfg import DFG, DFGNode
from repro.errors import ScheduleError
from repro.hw.mii import EdgeView, default_edge_view, min_ii, rec_mii, res_mii
from repro.hw.ops import OperatorLibrary
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["ModuloSchedule", "modulo_schedule"]

#: Search-effort counters (module handles: no registry lookup per loop).
_II_ATTEMPTS = obs_metrics.counter("sched.ii_attempts")
_II_MEMO_SKIPS = obs_metrics.counter("sched.ii_memo_skips")
_REPAIRS = obs_metrics.counter("sched.repair_rounds")

#: nid -> resource-name tuple; hoisted out of the placement hot loop.
ResourceMap = dict[int, tuple[str, ...]]

#: Repair rounds per (II, order) before the candidate is abandoned.
_REPAIR_ROUNDS = 8

#: Identity-keyed memo of one (dfg, lib, edges) triple's search-invariant
#: derivations — delay/resource maps, topological order, the dense
#: :class:`~repro.hw.sched_kernel.SchedProblem`, the backtracking
#: scheduler's slack orders, the register accountant's value edges and
#: recurrence floor, and (lazily) the RecMII/ResMII pair, none of which
#: depend on ``min_ii``/``max_ii``/flavor.  The register-pressure II
#: bump re-enters the search over the *same objects* with a raised
#: floor; without this memo every bump re-derives all of them (RecMII's
#: SCC decomposition dominated the vliw retarget profile).  Keys pin
#: their objects, so ids stay valid.
_CTX = PinningLRU(maxsize=512)
register_cache(_CTX.clear)


def search_context(dfg: DFG, lib: OperatorLibrary, edges: EdgeView) -> dict:
    """The :data:`_CTX` entry of one ``(dfg, lib, edges)`` triple.

    Starts with the delay map alone; every other per-triple invariant
    (the search's structures, slack orders, value edges) is added by
    its owner under its own key on first use, so a design rejected
    before scheduling never pays for the search's.
    """
    from repro.hw import sched_kernel
    from repro.hw.ops import cached_delay_map

    ctx_key = (id(dfg), id(lib), id(edges), sched_kernel.kernel_available())
    ctx = _CTX.get(ctx_key)
    if ctx is None:
        ctx = _CTX.put(ctx_key, (dfg, lib, edges),
                       {"dmap": cached_delay_map(dfg, lib)})
    return ctx


def _search_state(dfg: DFG, lib: OperatorLibrary, edges: EdgeView) -> dict:
    """:func:`search_context` with the II search's invariants filled in:
    resource map and slots, topological order, the dense problem (or the
    reference loops' predecessor map), and the lazily derived MII pair."""
    from repro.hw import sched_kernel

    ctx = search_context(dfg, lib, edges)
    if "prob" not in ctx:
        dmap = ctx["dmap"]
        rmap = ctx["rmap"] = _resource_map(dfg, lib)
        slots = ctx["slots"] = lib.resource_slots()
        ctx["topo"] = dfg.topo_order()
        # the array core and the reference loops are bit-identical (same
        # placement order, probing rule, repair growth, and abandonment
        # cases); REPRO_SCHED_KERNEL=0 pins the reference for parity runs
        prob = ctx["prob"] = sched_kernel.build_problem(dfg, edges, dmap,
                                                        rmap, slots)
        ctx["preds"] = None if prob is not None \
            else _pred_map(dfg, edges, dmap)
        ctx["mii"] = None
    return ctx


@dataclass
class ModuloSchedule:
    """A legal modulo schedule."""

    ii: int
    time: dict[int, int]                 # node id -> start cycle
    rec_mii: int
    res_mii: int
    #: memory-bus MRT occupancy: row -> number of memory references
    #: (back-compat view of ``rt["mem"]``; empty when the target has no
    #: ``"mem"`` resource)
    mrt: dict[int, int] = field(default_factory=dict)
    #: schedule length of one iteration (makespan)
    length: int = 0
    #: full reservation table: resource name -> row -> occupancy
    rt: dict[str, dict[int, int]] = field(default_factory=dict)

    def start(self, node: DFGNode) -> int:
        return self.time[node.nid]


def _delay_map(dfg: DFG, lib: OperatorLibrary) -> dict[int, int]:
    """Node-id -> latency memo; the II search re-reads delays O(E * II
    candidates * repair rounds) times, so one dict beats spec lookups."""
    return {n.nid: lib.delay(n) for n in dfg.nodes}


def _resource_map(dfg: DFG, lib: OperatorLibrary) -> ResourceMap:
    """Node-id -> occupied-resources memo, shared by the whole search."""
    return {n.nid: lib.node_resources(n) for n in dfg.nodes}


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

    from repro.hw import sched_kernel
    sched_kernel.count_python_attempt()

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

    sched = ModuloSchedule(ii=ii, time=time, rec_mii=0, res_mii=0,
                           mrt=rt.get("mem", {}), rt=rt)
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


def _search(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
            orders: list[Optional[list[DFGNode]]],
            max_ii: Optional[int] = None,
            flavor: Optional[str] = None,
            min_ii: Optional[int] = None) -> ModuloSchedule:
    """Traced wrapper over :func:`_search_impl` (the actual II search).

    One ``ii_search`` span per search when tracing is on, stamped with
    the flavor and the found II; the no-op span costs nothing when off.
    """
    with obs_trace.span("ii_search", "sched", nodes=len(dfg.nodes),
                        flavor=flavor or "modulo") as sp:
        sched = _search_impl(dfg, lib, edges, orders, max_ii=max_ii,
                             flavor=flavor, min_ii=min_ii)
        sp.set(ii=sched.ii)
        return sched


def _search_impl(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
                 orders: list[Optional[list[DFGNode]]],
                 max_ii: Optional[int] = None,
                 flavor: Optional[str] = None,
                 min_ii: Optional[int] = None) -> ModuloSchedule:
    """The II search shared by every modulo strategy — incremental.

    For each candidate II (starting at ``max(RecMII, ResMII, min_ii)``),
    each placement ``order`` (``None`` = topological) gets the full
    placement-and-repair budget before the II is abandoned.

    Incrementality (all result-preserving):

    * the delay map, predecessor map, resource map, and topological
      order are computed once and shared by every candidate II, order,
      and repair round;
    * when ``flavor`` names the strategy, the two-tier
      :mod:`repro.hw.iimemo` is consulted: a hit supplies RecMII/ResMII
      (pure functions of the inputs) and the set of *refuted* candidate
      IIs from an earlier identical search, which are skipped — the
      placement/repair machinery is deterministic, so replaying a
      refuted candidate can only fail the same way.  The winning II is
      still placed by the ordinary machinery, so the returned schedule
      is bit-identical to a from-scratch search's.
    """
    from repro.hw import iimemo, sched_kernel

    ctx = _search_state(dfg, lib, edges)
    dmap, rmap, slots = ctx["dmap"], ctx["rmap"], ctx["slots"]
    topo, prob, preds = ctx["topo"], ctx["prob"], ctx["preds"]

    sig = record = None
    if flavor is not None:
        sig = iimemo.search_signature(dfg, lib, edges, flavor, max_ii,
                                      dmap=dmap, min_ii=min_ii)
        record = iimemo.memo_get(sig)
    if record is not None:
        rmii, smii = record["rmii"], record["smii"]
        refuted = set(record["refuted"])
    else:
        if ctx["mii"] is None:
            ctx["mii"] = (rec_mii(dfg, lambda n: dmap[n.nid], edges),
                          res_mii(dfg, lib))
        rmii, smii = ctx["mii"]
        refuted = set()
    start_ii = max(rmii, smii, min_ii or 1)
    limit = max_ii or max(start_ii, sum(dmap.values())) + 1

    if prob is not None:
        order_ids = [[n.nid for n in o] if o is not None
                     else [n.nid for n in topo] for o in orders]
    else:
        order_ids = []

    tried: list[int] = []
    for ii in range(start_ii, limit + 1):
        if ii in refuted:
            _II_MEMO_SKIPS.add()
            tried.append(ii)
            continue
        _II_ATTEMPTS.add()
        if obs_trace.full_enabled():
            obs_trace.instant("ii_try", "sched", ii=ii)
        for oi, order in enumerate(orders):
            if prob is not None:
                hit = sched_kernel.search_rounds(prob, ii, order_ids[oi],
                                                 _REPAIR_ROUNDS)
                if hit is None:
                    continue
                time_arr, occ, length = hit
                rt = prob.reservation_tables(occ, ii)
                sched = ModuloSchedule(
                    ii=ii, time=prob.time_dict(time_arr, order_ids[oi]),
                    rec_mii=rmii, res_mii=smii, mrt=rt.get("mem", {}),
                    rt=rt, length=int(length))
                if sig is not None and record is None:
                    iimemo.memo_put(sig, {"rmii": rmii, "smii": smii,
                                          "refuted": tried, "ii": ii})
                return sched
            extra: dict[int, int] = {}
            for _ in range(_REPAIR_ROUNDS):
                _REPAIRS.add()
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
                    if sig is not None and record is None:
                        iimemo.memo_put(sig, {"rmii": rmii, "smii": smii,
                                              "refuted": tried, "ii": ii})
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
        tried.append(ii)
    if sig is not None and record is None:
        iimemo.memo_put(sig, {"rmii": rmii, "smii": smii,
                              "refuted": tried, "ii": None})
    raise ScheduleError(
        f"no modulo schedule found up to II={limit} "
        f"(RecMII={rmii}, ResMII={smii}"
        + (f", II floor {min_ii}" if min_ii else "")
        + (f", {len(orders)} orderings per II" if len(orders) > 1 else "")
        + ")")


def modulo_schedule(dfg: DFG, lib: OperatorLibrary,
                    edges: Optional[EdgeView] = None,
                    max_ii: Optional[int] = None,
                    min_ii: Optional[int] = None) -> ModuloSchedule:
    """Find a legal modulo schedule; raises :class:`ScheduleError` if none.

    ``edges`` overrides the dependence-distance view (used for squash);
    ``min_ii`` floors the candidate range (the register-pressure bump).
    """
    edges = edges if edges is not None else default_edge_view(dfg)
    return _search(dfg, lib, edges, orders=[None], max_ii=max_ii,
                   flavor="modulo", min_ii=min_ii)
