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

from repro.caches import Memo
from repro.core.dfg import DFG, DFGNode
from repro.errors import ScheduleError
from repro.hw.mii import EdgeView, default_edge_view, rec_mii, res_mii
from repro.hw.ops import OperatorLibrary, cached_delay_map
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["ModuloSchedule", "modulo_schedule"]

#: Search-effort counters (module handles: no registry lookup per loop).
_II_ATTEMPTS = obs_metrics.counter("sched.ii_attempts")
_II_MEMO_SKIPS = obs_metrics.counter("sched.ii_memo_skips")

#: nid -> resource-name tuple; hoisted out of the placement hot loop.
ResourceMap = dict[int, tuple[str, ...]]

#: Repair rounds per (II, order) before the candidate is abandoned.
_REPAIR_ROUNDS = 8

#: Identity-keyed memo of one (dfg, lib, edges) triple's search-invariant
#: derivations — delay/resource maps, topological order, the dense
#: :class:`~repro.hw.sched_kernel.SchedProblem`, the backtracking
#: scheduler's slack orders, the register accountant's value edges and
#: recurrence floor, the II memo's signature body, (lazily) RecMII and
#: ResMII, and the topological order's placement outcome per II
#: (``placed``), none of which depend on ``min_ii``/``max_ii``/flavor.
#: The register-pressure II bump re-enters the search over the *same
#: objects* with a raised floor, and every scheduler of a design gets
#: the same objects from the shared analysis
#: (:meth:`repro.pipeline.analysis.AnalysisCache.squash_for`); without
#: this memo each re-entry re-derives all of them (RecMII's SCC
#: decomposition dominated the vliw retarget profile).  Keys pin their
#: objects, so ids stay valid.  Per batch: the engine drops every
#: context at each kernel boundary inside a batch and when the batch
#: lands (:func:`repro.caches.release_batch`).
_CTX = Memo("search_ctx", 512, per_batch=True)


def search_context(dfg: DFG, lib: OperatorLibrary, edges: EdgeView) -> dict:
    """The :data:`_CTX` entry of one ``(dfg, lib, edges)`` triple.

    Starts with the delay map alone; every other per-triple invariant
    (the search's structures, slack orders, value edges) is added by
    its owner under its own key on first use, so a design rejected
    before scheduling never pays for the search's.
    """
    return _CTX.get((id(dfg), id(lib), id(edges)),
                    lambda: {"dmap": cached_delay_map(dfg, lib)},
                    (dfg, lib, edges))


def search_res_mii(dfg: DFG, lib: OperatorLibrary,
                   edges: Optional[EdgeView] = None) -> int:
    """The triple's ResMII, counted once into its :func:`search_context`
    (the register-pressure floor reads it before any scheduling)."""
    edges = edges if edges is not None else default_edge_view(dfg)
    ctx = search_context(dfg, lib, edges)
    if "res_mii" not in ctx:
        ctx["res_mii"] = res_mii(dfg, lib)
    return ctx["res_mii"]


def _search_state(dfg: DFG, lib: OperatorLibrary, edges: EdgeView) -> dict:
    """:func:`search_context` with the II search's invariants filled in:
    resource map and slots, topological order, the flat problem, and
    the (initially empty) per-II topological placement table."""
    from repro.hw import sched_kernel

    ctx = search_context(dfg, lib, edges)
    if "prob" not in ctx:
        rmap = ctx["rmap"] = _resource_map(dfg, lib)
        slots = ctx["slots"] = lib.resource_slots()
        ctx["topo"] = dfg.topo_order()
        ctx["prob"] = sched_kernel.build_problem(dfg, edges, ctx["dmap"],
                                                 rmap, slots)
        ctx["placed"] = {}
    return ctx


@dataclass
class ModuloSchedule:
    """A legal modulo schedule."""

    ii: int
    time: dict[int, int]                 # node id -> start cycle
    rec_mii: int
    res_mii: int
    #: schedule length of one iteration (makespan)
    length: int = 0
    #: full reservation table: resource name -> row -> occupancy
    rt: dict[str, dict[int, int]] = field(default_factory=dict)

    def start(self, node: DFGNode) -> int:
        return self.time[node.nid]


def _resource_map(dfg: DFG, lib: OperatorLibrary) -> ResourceMap:
    """Node-id -> occupied-resources memo, shared by the whole search."""
    return {n.nid: lib.node_resources(n) for n in dfg.nodes}


#: The alternative placement orders a strategy tries at an II where
#: the topological order failed, built on first use.
MoreOrders = Callable[[], list[list[DFGNode]]]


def _search(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
            max_ii: Optional[int] = None,
            flavor: Optional[str] = None,
            min_ii: Optional[int] = None,
            more_orders: Optional[MoreOrders] = None) -> ModuloSchedule:
    """Traced wrapper over :func:`_search_impl` (the actual II search).

    One ``ii_search`` span per search when tracing is on, stamped with
    the flavor and the found II; the no-op span costs nothing when off.
    """
    with obs_trace.span("ii_search", "sched", nodes=len(dfg.nodes),
                        flavor=flavor or "modulo") as sp:
        sched = _search_impl(dfg, lib, edges, max_ii=max_ii,
                             flavor=flavor, min_ii=min_ii,
                             more_orders=more_orders)
        sp.set(ii=sched.ii)
        return sched


def _search_impl(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
                 max_ii: Optional[int] = None,
                 flavor: Optional[str] = None,
                 min_ii: Optional[int] = None,
                 more_orders: Optional[MoreOrders] = None
                 ) -> ModuloSchedule:
    """The II search shared by every modulo strategy — incremental.

    For each candidate II (starting at ``max(RecMII, ResMII, min_ii)``),
    the topological order, then each of ``more_orders()`` if it fails,
    gets the scheduler core's full placement-and-repair loop
    (:func:`repro.hw.sched_kernel.search_rounds`) before the II is
    abandoned.  ``more_orders`` is called at the first II where the
    topological order fails, so a search that never backtracks never
    builds its alternatives.

    Incrementality (all result-preserving):

    * the delay map, flat problem lists, resource map, and
      topological order are computed once and shared by every candidate
      II, order, and repair round;
    * the topological order's outcome at each II is kept in the
      context's ``placed`` table and read before placing: placement is
      deterministic in (problem, II, order, repair rounds), so
      ``backtrack`` (whose first order is the topological one), the
      backtracking upper-bound probe inside ``exact``, and every
      register-pressure re-entry never re-place what an earlier search
      of the same triple placed;
    * when ``flavor`` names the strategy, the in-memory II memo
      (:data:`repro.hw.iimemo.MEMO`) is consulted: a hit supplies
      RecMII/ResMII (pure functions of the inputs) and the set of
      *refuted* candidate IIs from an earlier identical search in this
      process, which are skipped — the placement/repair machinery is
      deterministic, so replaying a refuted candidate can only fail the
      same way.  The winning II is still placed by the ordinary
      machinery, so the returned schedule is bit-identical to a
      from-scratch search's.
    """
    from repro.hw import iimemo, sched_kernel

    ctx = _search_state(dfg, lib, edges)
    dmap, topo, prob = ctx["dmap"], ctx["topo"], ctx["prob"]

    sig = record = None
    if flavor is not None:
        sig = iimemo.search_signature(dfg, lib, edges, flavor, max_ii,
                                      min_ii=min_ii)
        record = iimemo.MEMO.get(sig)
    if record is not None:
        rmii, smii = record["rmii"], record["smii"]
        refuted = set(record["refuted"])
    else:
        if "rec_mii" not in ctx:
            ctx["rec_mii"] = rec_mii(dfg, lambda n: dmap[n.nid], edges)
        rmii, smii = ctx["rec_mii"], search_res_mii(dfg, lib, edges)
        refuted = set()
    start_ii = max(rmii, smii, min_ii or 1)
    limit = max_ii or max(start_ii, sum(dmap.values())) + 1

    topo_ids = [n.nid for n in topo]
    placed = ctx["placed"]  # II -> the topological order's outcome
    more_ids: Optional[list[list[int]]] = None

    tried: list[int] = []
    for ii in range(start_ii, limit + 1):
        if ii in refuted:
            _II_MEMO_SKIPS.add()
            tried.append(ii)
            continue
        _II_ATTEMPTS.add()
        if obs_trace.full_enabled():
            obs_trace.instant("ii_try", "sched", ii=ii)
        ids = topo_ids
        if ii in placed:
            hit = placed[ii]
        else:
            hit = placed[ii] = sched_kernel.search_rounds(
                prob, ii, ids, _REPAIR_ROUNDS)
        if hit is None and more_orders is not None:
            if more_ids is None:
                more_ids = [[n.nid for n in o] for o in more_orders()]
            for ids in more_ids:
                hit = sched_kernel.search_rounds(prob, ii, ids,
                                                 _REPAIR_ROUNDS)
                if hit is not None:
                    break
        if hit is not None:
            time_arr, occ, length = hit
            sched = ModuloSchedule(
                ii=ii, time=prob.time_dict(time_arr, ids), rec_mii=rmii,
                res_mii=smii, rt=prob.reservation_tables(occ, ii),
                length=int(length))
            if sig is not None and record is None:
                iimemo.MEMO.put(sig, {"rmii": rmii, "smii": smii,
                                      "refuted": tried, "ii": ii})
            return sched
        tried.append(ii)
    if sig is not None and record is None:
        iimemo.MEMO.put(sig, {"rmii": rmii, "smii": smii,
                              "refuted": tried, "ii": None})
    n_orders = 1 + (len(more_orders()) if more_orders is not None else 0)
    raise ScheduleError(
        f"no modulo schedule found up to II={limit} "
        f"(RecMII={rmii}, ResMII={smii}"
        + (f", II floor {min_ii}" if min_ii else "")
        + (f", {n_orders} orderings per II" if n_orders > 1 else "")
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
    return _search(dfg, lib, edges, max_ii=max_ii, flavor="modulo",
                   min_ii=min_ii)
