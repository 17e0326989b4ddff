"""Pluggable scheduler strategies behind one interface (the registry).

The compilation pipeline never calls :func:`repro.hw.listsched.list_schedule`
or :func:`repro.hw.modulo.modulo_schedule` directly — it resolves a
:class:`Scheduler` from this registry by name and invokes its ``schedule``
method.  That makes the scheduler a first-class design-space axis
(``DesignQuery.scheduler`` / ``repro explore --scheduler``) and the
extension point future backends plug into:

* ``"list"``      — the non-pipelined ASAP list scheduler (the
  ``original`` variant; II = iteration makespan);
* ``"modulo"``    — the iterative modulo scheduler of §3.5 (default for
  all pipelined variants);
* ``"backtrack"`` — a backtracking, slack-driven modulo scheduler: at
  each candidate II it first replays the iterative placement, then
  retries alternative node orderings (least-slack-first, memory-first)
  before giving up and moving to the next II.  It therefore never
  returns a worse II than the iterative scheduler, at the price of more
  placement attempts per II.  The replay is served from the design's
  search context (:func:`repro.hw.modulo._search_impl`), which keeps
  the topological order's outcome per II: after ``modulo`` has
  scheduled the same design, only the alternative orderings place
  anything;
* ``"exact"``     — the branch-and-bound optimal scheduler of
  :mod:`repro.hw.exact`: decides every candidate II below the
  backtracking heuristic's completely, so its II is certified minimal
  (with per-II failure certificates) unless the DFG or search budget
  overflows, in which case it degrades to the backtracking schedule
  with ``certified=False``.  The differential-testing oracle the
  heuristics are checked against.

Registering a new strategy::

    from repro.hw.schedulers import register_scheduler

    class MyScheduler:
        name = "mine"
        pipelined = True
        def schedule(self, dfg, lib, edges=None, max_ii=None): ...

    register_scheduler(MyScheduler())
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Protocol, runtime_checkable

from repro.core.dfg import DFG, DFGNode
from repro.hw.listsched import ListSchedule, list_schedule
from repro.hw.mii import EdgeView, default_edge_view
from repro.hw.modulo import ModuloSchedule, _search, _search_state, \
    modulo_schedule
from repro.hw.ops import OperatorLibrary

if TYPE_CHECKING:
    from repro.hw.exact import ExactSchedule

__all__ = ["DEFAULT_SCHEDULER", "BacktrackingModuloScheduler",
           "ExactModuloScheduler", "IterativeModuloScheduler",
           "ListScheduler", "Scheduler", "available_schedulers",
           "backtracking_modulo_schedule", "is_builtin_scheduler",
           "register_scheduler", "scheduler_by_name"]

#: Name resolved when a query/target does not choose a strategy.
DEFAULT_SCHEDULER = "modulo"


@runtime_checkable
class Scheduler(Protocol):
    """One scheduling strategy the pipeline can be pointed at.

    ``pipelined`` distinguishes modulo-style schedulers (results carry an
    initiation interval smaller than the makespan and are re-verified
    against the reservation table modulo II) from sequential ones
    (re-verified cycle by cycle within one iteration).
    """

    name: str
    pipelined: bool

    def schedule(self, dfg: DFG, lib: OperatorLibrary,
                 edges: Optional[EdgeView] = None,
                 max_ii: Optional[int] = None,
                 min_ii: Optional[int] = None
                 ) -> "ModuloSchedule | ListSchedule":
        ...  # pragma: no cover - protocol


class ListScheduler:
    """Non-pipelined ASAP list scheduling (the ``original`` design)."""

    name = "list"
    pipelined = False

    def schedule(self, dfg, lib, edges=None, max_ii=None,
                 min_ii=None) -> ListSchedule:
        return list_schedule(dfg, lib)


class IterativeModuloScheduler:
    """Rau-style iterative modulo scheduling (§3.5) — the default."""

    name = "modulo"
    pipelined = True

    def schedule(self, dfg, lib, edges=None, max_ii=None,
                 min_ii=None) -> ModuloSchedule:
        return modulo_schedule(dfg, lib, edges=edges, max_ii=max_ii,
                               min_ii=min_ii)


def _slack_orders(dfg: DFG, edges: EdgeView, ctx: dict
                  ) -> list[list[DFGNode]]:
    """Alternative placement orders tried after the topological one.

    Slack = ALAP - ASAP over the distance-0 subgraph *of the given edge
    view* (a squash design's relaxed distances, not the DFG's raw ones):
    nodes with the least scheduling freedom are placed first, so they
    claim contested MRT rows before flexible nodes fill them.  The
    second ordering pulls the most resource-contended operations to the
    very front — ranked by the pressure (``uses / slots``) of the
    scarcest resource each node occupies, which on the spatial datapath
    (memory bus only) reduces to the historical memory-first order.

    ``ctx`` is the triple's II-search state
    (:func:`repro.hw.modulo._search_state`): the delay map, resource
    map, and topological order the search itself uses.
    """
    from repro.hw import sched_kernel

    rmap, slots, topo = ctx["rmap"], ctx["slots"], ctx["topo"]
    asap, alap = sched_kernel.slack_levels(dfg, edges, ctx["dmap"])
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


def backtracking_modulo_schedule(dfg: DFG, lib: OperatorLibrary,
                                 edges: Optional[EdgeView] = None,
                                 max_ii: Optional[int] = None,
                                 min_ii: Optional[int] = None
                                 ) -> ModuloSchedule:
    """Modulo scheduling that retries node orderings before raising an II.

    For each candidate II (starting at ``max(RecMII, ResMII)``) the
    iterative scheduler's placement-and-repair loop runs first with the
    plain topological order; only if that fails does the search backtrack
    and replay the II with the slack-driven orderings.  Because every II
    is attempted with at least the iterative order, the first II that
    succeeds is never larger than the iterative scheduler's.  The
    topological attempts are read from the search context's per-II
    table wherever an earlier search of the same triple ran them.
    """
    edges = edges if edges is not None else default_edge_view(dfg)
    ctx = _search_state(dfg, lib, edges)

    def slack_orders() -> list[list[DFGNode]]:
        # built when the topological order first fails at some II; they
        # depend on the triple alone, so every later search of it (each
        # register-pressure re-entry) reuses them
        if "backtrack_orders" not in ctx:
            ctx["backtrack_orders"] = _slack_orders(dfg, edges, ctx)
        return ctx["backtrack_orders"]

    return _search(dfg, lib, edges, max_ii=max_ii, flavor="backtrack",
                   min_ii=min_ii, more_orders=slack_orders)


class BacktrackingModuloScheduler:
    """Slack-driven backtracking modulo scheduling (never a worse II)."""

    name = "backtrack"
    pipelined = True

    def schedule(self, dfg, lib, edges=None, max_ii=None,
                 min_ii=None) -> ModuloSchedule:
        return backtracking_modulo_schedule(dfg, lib, edges=edges,
                                            max_ii=max_ii, min_ii=min_ii)


class ExactModuloScheduler:
    """Branch-and-bound optimal modulo scheduling (the testing oracle).

    Returns an :class:`repro.hw.exact.ExactSchedule` whose II is
    certified minimal whenever the search completes within the default
    budget (:data:`repro.hw.exact.DEFAULT_BUDGET` search nodes,
    :data:`repro.hw.exact.DEFAULT_NODE_LIMIT` DFG nodes); beyond either
    it degrades to the backtracking heuristic's schedule, uncertified.
    Only this strategy loads :mod:`repro.hw.exact`.
    """

    name = "exact"
    pipelined = True

    def schedule(self, dfg, lib, edges=None, max_ii=None,
                 min_ii=None) -> ExactSchedule:
        from repro.hw.exact import exact_modulo_schedule
        return exact_modulo_schedule(dfg, lib, edges=edges, max_ii=max_ii,
                                     min_ii=min_ii)


_REGISTRY: dict[str, Scheduler] = {}


def register_scheduler(scheduler: Scheduler, *, replace: bool = False
                       ) -> Scheduler:
    """Add a strategy to the registry (``replace=True`` to override).

    The compilation pipeline replays one design's schedule-stage
    outcome for another design that poses the same search only under
    the strategies this module registers (:func:`is_builtin_scheduler`),
    which read nothing of a DFG beyond what
    :func:`repro.hw.modulo.search_signature` signs.  A strategy
    registered here may read anything, so its designs always schedule.
    """
    name = scheduler.name
    if not replace and name in _REGISTRY:
        raise ValueError(f"scheduler {name!r} is already registered; "
                         f"pass replace=True to override")
    _REGISTRY[name] = scheduler
    return scheduler


def scheduler_by_name(name: str) -> Scheduler:
    """Resolve a strategy; ``""`` resolves to the default scheduler."""
    try:
        return _REGISTRY[name or DEFAULT_SCHEDULER]
    except KeyError:
        raise KeyError(f"unknown scheduler {name!r}; "
                       f"have {available_schedulers()}")


def available_schedulers() -> tuple[str, ...]:
    """Registered strategy names, in registration order."""
    return tuple(_REGISTRY)


register_scheduler(ListScheduler())
register_scheduler(IterativeModuloScheduler())
register_scheduler(BacktrackingModuloScheduler())
register_scheduler(ExactModuloScheduler())

_BUILTIN = dict(_REGISTRY)


def is_builtin_scheduler(scheduler: Scheduler) -> bool:
    """Is ``scheduler`` one this module registers (not an addition or a
    replacement made through :func:`register_scheduler`)?"""
    return _BUILTIN.get(scheduler.name) is scheduler
