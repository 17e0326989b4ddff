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

import hashlib
from array import array
from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.caches import Memo
from repro.core.dfg import DFG, DFGNode
from repro.errors import ScheduleError
from repro.hw.mii import EdgeView, default_edge_view, rec_mii, res_mii
from repro.hw.ops import (
    OperatorLibrary, cached_delay_map, cached_resource_map,
)
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["ModuloSchedule", "modulo_schedule", "search_signature"]

#: Search-effort counter (a module handle: no registry lookup per loop).
_II_ATTEMPTS = obs_metrics.counter("sched.ii_attempts")

#: Repair rounds per (II, order) before the candidate is abandoned.
_REPAIR_ROUNDS = 8

#: Identity-keyed memo of one (dfg, lib, edges) triple's search-invariant
#: derivations — delay/resource maps, topological order, the dense
#: :class:`~repro.hw.sched_kernel.SchedProblem`, the backtracking
#: scheduler's slack orders, the register accountant's value edges and
#: recurrence floor, the :func:`search_signature` body, (lazily) RecMII
#: and ResMII, and the topological order's placement outcome per II
#: (``placed``), none of which depend on ``min_ii``/``max_ii``/strategy.
#: The register-pressure II bump re-enters the search over the *same
#: objects* with a raised floor, and every scheduler of a design gets
#: the same objects from the shared analysis
#: (:meth:`repro.pipeline.analysis.AnalysisCache.squash_for`), as does
#: a jam factor past the outer trip and the clamped factor
#: (:meth:`~repro.pipeline.analysis.AnalysisCache.jam_base_for`); without
#: this memo each re-entry re-derives all of them (RecMII's SCC
#: decomposition dominated the vliw retarget profile).  Keys pin their
#: objects, so ids stay valid.  Per batch: the engine drops every
#: context at each (kernel, variant) boundary inside a batch and when
#: the batch lands (:func:`repro.caches.release_batch`).
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


def search_signature(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
                     flavor: str) -> str:
    """Content hash of one scheduling problem as ``flavor`` poses it.

    Covers every input the built-in II searches read: per-node (delay,
    occupied resources), the edge-distance view, the DFG's *raw* edges
    (their distance-0 subgraph drives ``topo_order`` and the slack
    orders, and relaxation erases raw-distance information, so the view
    alone would under-key the placement order), the full resource
    description (every declared resource's slot capacity — not just the
    memory bus), and ``flavor``, the caller's label for what it compares
    (a strategy name, or a scheduling class).  Node ids are
    construction-deterministic, so the signature is stable across
    processes.

    Everything but ``flavor`` is a function of the (dfg, lib, edges)
    triple alone, so it is packed once per triple into the triple's
    :func:`search_context`.
    """
    ctx = search_context(dfg, lib, edges)
    body = ctx.get("sig_body")
    if body is None:
        body = ctx["sig_body"] = _signature_body(dfg, lib, edges,
                                                 ctx["dmap"])
    digest = hashlib.sha256(f"{flavor}|".encode())
    digest.update(body)
    return digest.hexdigest()[:32]


def _signature_body(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
                    dmap: dict[int, int]) -> bytes:
    """The triple's part of a signature, packed as 64-bit integers.

    Resources are numbered by name order.  Every variable-length run
    (the resource table, each node's resources, both edge lists) is
    preceded by its length, so equal bytes mean equal content; the
    resource names follow the integers.
    """
    slots = lib.resource_slots()
    names = sorted(slots)
    index = {r: i for i, r in enumerate(names)}
    # the few distinct resource tuples, each as (count, *indices)
    rmap = cached_resource_map(dfg, lib)
    codes = {res: (len(res), *[index[r] for r in res])
             for res in set(rmap.values())}
    ints = [len(names), *[slots[r] for r in names], len(dfg.nodes)]
    for n in dfg.nodes:
        ints += (n.nid, dmap[n.nid])
        ints += codes[rmap[n.nid]]
    ints.append(len(edges))
    for src, dst, dist in edges:
        ints += (src.nid, dst.nid, dist)
    ints.append(len(dfg.edges))
    for e in dfg.edges:
        ints += (e.src.nid, e.dst.nid, e.dist)
    return array("q", ints).tobytes() + "\0".join(names).encode()


def _search_state(dfg: DFG, lib: OperatorLibrary, edges: EdgeView) -> dict:
    """:func:`search_context` with the II search's invariants filled in:
    resource map and slots, topological order, the flat problem, and
    the (initially empty) per-II topological placement table."""
    from repro.hw import sched_kernel

    ctx = search_context(dfg, lib, edges)
    if "prob" not in ctx:
        rmap = ctx["rmap"] = cached_resource_map(dfg, lib)
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
        sched = _search_impl(dfg, lib, edges, max_ii=max_ii, min_ii=min_ii,
                             more_orders=more_orders)
        sp.set(ii=sched.ii)
        return sched


def _search_impl(dfg: DFG, lib: OperatorLibrary, edges: EdgeView,
                 max_ii: Optional[int] = None,
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

    Incrementality (all result-preserving), through the triple's
    :func:`search_context`:

    * the delay map, flat problem lists, resource map, topological
      order, RecMII and ResMII are computed once and shared by every
      candidate II, order, repair round and later search of the triple;
    * the topological order's outcome at each II is kept in the
      context's ``placed`` table and read before placing: placement is
      deterministic in (problem, II, order, repair rounds), so
      ``backtrack`` (whose first order is the topological one), the
      backtracking upper-bound probe inside ``exact``, every
      register-pressure re-entry and every design that shares the
      triple never re-place what an earlier search of it placed.
    """
    from repro.hw import sched_kernel

    ctx = _search_state(dfg, lib, edges)
    dmap, topo, prob = ctx["dmap"], ctx["topo"], ctx["prob"]
    if "rec_mii" not in ctx:
        ctx["rec_mii"] = rec_mii(dfg, lambda n: dmap[n.nid], edges)
    rmii, smii = ctx["rec_mii"], search_res_mii(dfg, lib, edges)
    start_ii = max(rmii, smii, min_ii or 1)
    limit = max_ii or max(start_ii, sum(dmap.values())) + 1

    topo_ids = [n.nid for n in topo]
    placed = ctx["placed"]  # II -> the topological order's outcome
    more_ids: Optional[list[list[int]]] = None

    for ii in range(start_ii, limit + 1):
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
            return ModuloSchedule(
                ii=ii, time=prob.time_dict(time_arr, ids), rec_mii=rmii,
                res_mii=smii, rt=prob.reservation_tables(occ, ii),
                length=int(length))
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
