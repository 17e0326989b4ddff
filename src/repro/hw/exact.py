"""Exact (optimal) modulo scheduling — the differential-testing oracle.

The heuristic strategies in :mod:`repro.hw.schedulers` (``modulo``,
``backtrack``) carry no optimality guarantee, yet the Table 6.2/6.3
claims hinge on the achieved II.  This module provides the reference the
heuristics are checked against, in the spirit of Roorda's *Optimal
Software Pipelining using an SMT-Solver* (PAPERS.md) but pure Python:
for each candidate II starting at ``max(RecMII, ResMII)`` it builds a
complete constraint model and *decides* feasibility, so the first
feasible II is provably minimal and every smaller II comes with a
:class:`IICertificate` naming why it is impossible.

The decision procedure works over the library's *generalized* resource
model (:meth:`~repro.hw.ops.OperatorLibrary.resource_slots`): on the
spatial datapath every operator is its own functional unit and the only
cross-operation resource is the memory bus (``mem_ports`` references
per MRT row); on VLIW targets every slot-using operation is
resource-constrained (issue width plus per-functional-unit rows), which
shrinks the eliminable set and grows the branch space — the budget
degradation below then does real work.

1. **Precedence** edges from the :data:`~repro.hw.mii.EdgeView` are
   difference constraints ``t(dst) - t(src) >= delay(src) - II*dist``.
   A positive cycle under longest-path relaxation refutes the II
   outright (the recurrence bound).
2. **Resources** constrain only ``t mod II`` of resource-using
   operations: per declared resource, at most ``slots`` of its users
   may share a residue row.  Writing ``t = II*q + r`` and eliminating
   the resource-free operations by interior-restricted longest paths
   leaves an integer difference system over the constrained operations'
   ``q`` whose feasibility, for a fixed residue assignment ``r``, is a
   positive-cycle check.
3. The search therefore branches only over residue assignments of the
   resource-using operations — slack-ordered variable selection,
   dependence-driven value order, row-capacity and partial-cycle
   pruning — and is complete: exhausting it proves the II infeasible.

The candidate range is bounded above by the backtracking heuristic's II,
so the oracle never searches past a schedule it already holds; when the
DFG exceeds ``node_limit`` or the search exceeds ``budget`` explored
nodes, the result degrades gracefully to that heuristic schedule with
``certified=False`` (the II is still legal, just not proven minimal).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.dfg import DFG, DFGNode
from repro.hw.mii import EdgeView, default_edge_view
from repro.hw.modulo import ModuloSchedule
from repro.hw.ops import OperatorLibrary, cached_delay_map
from repro.hw.schedulers import backtracking_modulo_schedule
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

#: Total branch-and-bound nodes explored across every exact search in
#: the process (refutations and successes alike).
_EXACT_NODES = obs_metrics.counter("sched.exact_nodes")

__all__ = ["DEFAULT_BUDGET", "DEFAULT_NODE_LIMIT", "ExactSchedule",
           "IICertificate", "exact_modulo_schedule"]

#: Default cap on explored search nodes across the whole II sweep
#: (``budget=`` overrides it per call).
DEFAULT_BUDGET = 200_000

#: Default cap on DFG size; larger graphs skip the exact search entirely
#: (``node_limit=`` overrides it per call).
DEFAULT_NODE_LIMIT = 400


@dataclass(frozen=True)
class IICertificate:
    """Why one candidate II admits no modulo schedule.

    ``reason`` is ``"recurrence"`` (positive dependence cycle),
    ``"resource"`` (some resource has more users than ``slots * II``
    rows can carry), or ``"search-exhausted"`` (the complete residue
    search found no feasible assignment).  ``explored`` counts search
    nodes spent on the refutation.
    """

    ii: int
    reason: str
    explored: int = 0


@dataclass
class ExactSchedule(ModuloSchedule):
    """A modulo schedule with an optimality verdict attached.

    ``certified`` means the II is *proven* minimal: every smaller
    candidate carries a :class:`IICertificate` in ``failed``.  When the
    exact search was skipped (DFG over ``node_limit``) or abandoned
    (``budget`` exhausted), ``certified`` is False and ``fallback``
    names the heuristic whose schedule is returned instead.
    """

    certified: bool = True
    failed: tuple[IICertificate, ...] = ()
    explored: int = 0
    fallback: Optional[str] = None


class _BudgetExceeded(Exception):
    """Internal: the search-node budget ran out mid-decision."""


class _Budget:
    __slots__ = ("limit", "spent")

    def __init__(self, limit: int):
        self.limit = limit
        self.spent = 0

    def tick(self) -> None:
        self.spent += 1
        if self.spent > self.limit:
            raise _BudgetExceeded


# ---------------------------------------------------------------------------
# Constraint-model pieces (per candidate II)
# ---------------------------------------------------------------------------

def _ground_bounds(nids: list[int], arcs: list[tuple[int, int, int]]
                   ) -> Optional[dict[int, int]]:
    """Earliest start times from ``t >= 0`` (longest-path relaxation).

    Returns None when a positive cycle exists — i.e. the precedence
    constraints alone refute this II.
    """
    est = {v: 0 for v in nids}
    changed = True
    for _ in range(len(nids) + 1):
        if not changed:
            return est
        changed = False
        for u, v, w in arcs:
            t = est[u] + w
            if t > est[v]:
                est[v] = t
                changed = True
    return None  # still relaxing after |V| passes: positive cycle


def _interior_paths(src: Optional[int], nids: list[int],
                    arcs: list[tuple[int, int, int]],
                    mem_ids: set[int]) -> dict[int, int]:
    """Longest paths whose *interior* nodes are all resource-free.

    ``src=None`` is the ground (every node's ``t >= 0`` bound); a memory
    source relaxes out of itself once and then only out of resource-free
    nodes, so other memory operations act as sinks.  This is the exact
    elimination of the unconstrained-modulo variables: any path between
    memory operations decomposes into these segments, and difference
    constraints compose transitively.
    """
    if src is None:
        dist: dict[int, Optional[int]] = {v: 0 for v in nids}
    else:
        dist = {v: None for v in nids}
        dist[src] = 0
    for _ in range(len(nids)):
        changed = False
        for u, v, w in arcs:
            if u in mem_ids and u != src:
                continue  # memory nodes are sinks for this segment
            du = dist[u]
            if du is None:
                continue
            t = du + w
            dv = dist[v]
            if dv is None or t > dv:
                dist[v] = t
                changed = True
        if not changed:
            break
    return {v: d for v, d in dist.items() if d is not None}


def _slack_order(dfg: DFG, edges: EdgeView, dmap: dict[int, int],
                 mem: list[DFGNode]) -> list[DFGNode]:
    """Memory operations by ascending scheduling freedom.

    ASAP/ALAP over the distance-0 subgraph of the given edge view (the
    same rule the backtracking scheduler uses): operations with the
    least slack claim contested MRT rows first.
    """
    topo = dfg.topo_order()
    preds: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    succs: dict[int, list[DFGNode]] = {n.nid: [] for n in dfg.nodes}
    for s, d, dist in edges:
        if dist == 0:
            preds[d.nid].append(s)
            succs[s.nid].append(d)
    asap: dict[int, int] = {}
    for n in topo:
        asap[n.nid] = max((asap[p.nid] + dmap[p.nid] for p in preds[n.nid]),
                          default=0)
    length = max((asap[n.nid] + dmap[n.nid] for n in dfg.nodes), default=0)
    alap: dict[int, int] = {}
    for n in reversed(topo):
        latest = length - dmap[n.nid]
        for d in succs[n.nid]:
            if d.nid in alap:
                latest = min(latest, alap[d.nid] - dmap[n.nid])
        alap[n.nid] = latest
    return sorted(mem, key=lambda n: (alap[n.nid] - asap[n.nid],
                                      asap[n.nid], n.nid))


def _q_feasible(order: list[int], residues: dict[int, int],
                inter: dict[int, dict[int, int]], ii: int) -> bool:
    """Is the integer difference system over ``q`` free of positive cycles?

    Only constraints whose endpoints are both assigned participate; the
    ground lower bounds cannot conflict on their own (``q`` is unbounded
    above), so partial assignments prune exactly when a cycle among the
    assigned operations is already impossible.
    """
    assigned = [m for m in order if m in residues]
    qarcs = []
    for s in assigned:
        row_s = residues[s]
        paths = inter.get(s, {})
        for d in assigned:
            w = paths.get(d)
            if w is None:
                continue
            # t_d - t_s >= w  with  t = ii*q + r   =>   q_d - q_s >= c
            c = -((-(w + row_s - residues[d])) // ii)  # ceil division
            qarcs.append((s, d, c))
    if not qarcs:
        return True
    dist = {m: 0 for m in assigned}
    changed = True
    for _ in range(len(assigned) + 1):
        if not changed:
            return True
        changed = False
        for u, v, c in qarcs:
            t = dist[u] + c
            if t > dist[v]:
                dist[v] = t
                changed = True
    return False  # positive cycle: no integer q exists for these residues


def _decide_ii(dfg: DFG, edges: EdgeView, lib: OperatorLibrary, ii: int,
               dmap: dict[int, int], budget: _Budget
               ) -> "tuple[Optional[dict[int, int]], str]":
    """Decide one candidate II: (start times, "") or (None, reason).

    Complete: a ``None`` verdict is a proof that no modulo schedule with
    this II exists.  Raises :class:`_BudgetExceeded` when the search-node
    budget runs out before a verdict.
    """
    nids = [n.nid for n in dfg.nodes]
    arcs = [(s.nid, d.nid, dmap[s.nid] - ii * dist) for s, d, dist in edges]

    est = _ground_bounds(nids, arcs)
    if est is None:
        return None, "recurrence"

    slots = lib.resource_slots()
    mem = [n for n in dfg.nodes if lib.node_resources(n)]
    if not mem:
        return dict(est), ""  # the minimal solution is the schedule
    for res, count in lib.resource_use_counts(mem).items():
        if count > slots[res] * ii:
            return None, "resource"

    mem_ids = {m.nid for m in mem}
    node_res = {m.nid: lib.node_resources(m) for m in mem}
    ground = _interior_paths(None, nids, arcs, mem_ids)
    inter = {m.nid: _interior_paths(m.nid, nids, arcs, mem_ids)
             for m in mem}

    order = [m.nid for m in _slack_order(dfg, edges, dmap, mem)]
    residues: dict[int, int] = {}
    rows: dict[str, dict[int, int]] = {res: {} for res in slots}

    def assign(idx: int) -> bool:
        if idx == len(order):
            return True
        m = order[idx]
        m_res = node_res[m]
        first = est[m] % ii  # dependence-driven value order
        for step in range(ii):
            budget.tick()
            r = (first + step) % ii
            if any(rows[res].get(r, 0) >= slots[res] for res in m_res):
                continue
            residues[m] = r
            for res in m_res:
                rows[res][r] = rows[res].get(r, 0) + 1
            if _q_feasible(order, residues, inter, ii) and assign(idx + 1):
                return True
            for res in m_res:
                rows[res][r] -= 1
            del residues[m]
        return False

    if not assign(0):
        return None, "search-exhausted"

    # Recover start times: minimal q from the ground bounds, then the
    # minimal completion of the resource-free operations.
    q = {m: -((-(ground.get(m, 0) - residues[m])) // ii) for m in order}
    changed = True
    for _ in range(len(order) + 1):
        if not changed:
            break
        changed = False
        for s in order:
            paths = inter[s]
            for d in order:
                w = paths.get(d)
                if w is None or s == d:
                    continue
                c = -((-(w + residues[s] - residues[d])) // ii)
                if q[s] + c > q[d]:
                    q[d] = q[s] + c
                    changed = True
    time = dict(est)
    for m in order:
        time[m] = ii * q[m] + residues[m]
    for _ in range(len(nids)):
        changed = False
        for u, v, w in arcs:
            if v in mem_ids:
                continue  # memory starts are pinned by construction
            t = time[u] + w
            if t > time[v]:
                time[v] = t
                changed = True
        if not changed:
            break
    for s, d, dist in edges:  # defensive: the model must be airtight
        if time[d.nid] + ii * dist < time[s.nid] + dmap[s.nid]:
            # deliberately NOT a ScheduleError: that would be caught by
            # compile_query and demoted to a benign SkipRecord, hiding a
            # soundness bug in the oracle itself — this must propagate
            raise RuntimeError(
                f"exact scheduler internal error: recovered schedule "
                f"violates {s}->{d} (dist {dist}) at II={ii}")
    return time, ""


# ---------------------------------------------------------------------------
# The II sweep
# ---------------------------------------------------------------------------

def _package(time: dict[int, int], ii: int, rmii: int, smii: int,
             dfg: DFG, lib: OperatorLibrary, dmap: dict[int, int],
             **verdict) -> ExactSchedule:
    rt: dict[str, dict[int, int]] = {r: {} for r in lib.resource_slots()}
    for n in dfg.nodes:
        row = time[n.nid] % ii
        for r in lib.node_resources(n):
            rt[r][row] = rt[r].get(row, 0) + 1
    sched = ExactSchedule(ii=ii, time=time, rec_mii=rmii, res_mii=smii,
                          rt=rt, **verdict)
    sched.length = max((time[n.nid] + dmap[n.nid] for n in dfg.nodes),
                       default=0)
    return sched


def exact_modulo_schedule(dfg: DFG, lib: OperatorLibrary,
                          edges: Optional[EdgeView] = None,
                          max_ii: Optional[int] = None,
                          budget: Optional[int] = None,
                          node_limit: Optional[int] = None,
                          min_ii: Optional[int] = None
                          ) -> ExactSchedule:
    """Find a minimum-II modulo schedule, or certify the heuristic's.

    The backtracking heuristic bounds the search from above: candidates
    in ``[max(RecMII, ResMII, min_ii), heuristic II)`` are decided
    exactly, so the returned schedule is certified optimal whenever the
    search completes — either a strictly better II was found, or every
    smaller II was refuted and the heuristic schedule is returned as
    proven minimal.  ``budget`` caps total explored search nodes and
    ``node_limit`` caps the DFG size; beyond either the heuristic
    schedule is returned with ``certified=False``.  ``min_ii`` floors
    the candidate range (the register-pressure II bump) — a certificate
    under a floor proves minimality *above that floor* only.
    """
    with obs_trace.span("exact_search", "sched",
                        nodes=len(dfg.nodes)) as sp:
        result = _exact_impl(dfg, lib, edges, max_ii, budget, node_limit,
                             min_ii)
        _EXACT_NODES.add(result.explored)
        sp.set(ii=result.ii, certified=result.certified,
               explored=result.explored)
        return result


def _exact_impl(dfg: DFG, lib: OperatorLibrary,
                edges: Optional[EdgeView],
                max_ii: Optional[int],
                budget: Optional[int],
                node_limit: Optional[int],
                min_ii: Optional[int]) -> ExactSchedule:
    edges = edges if edges is not None else default_edge_view(dfg)
    budget = DEFAULT_BUDGET if budget is None else budget
    node_limit = DEFAULT_NODE_LIMIT if node_limit is None else node_limit

    ub = backtracking_modulo_schedule(dfg, lib, edges=edges, max_ii=max_ii,
                                      min_ii=min_ii)
    dmap = cached_delay_map(dfg, lib)
    rmii, smii = ub.rec_mii, ub.res_mii
    start_ii = max(rmii, smii, min_ii or 1)

    # Incremental search: an earlier identical run's failed-II
    # certificates are deterministic refutations, so they serve as lower
    # bounds — those candidates are skipped instead of re-decided.  Any
    # *new* refutations this run proves are merged back into the memo
    # (sound even on budget exhaustion: only complete verdicts land in
    # ``failed``, never budget-aborted decisions).  The budget knobs are
    # part of the flavor so a tightly-budgeted search keeps its
    # degradation semantics instead of borrowing a richer run's proofs.
    from repro.hw import iimemo
    sig = iimemo.search_signature(
        dfg, lib, edges, f"exact:{budget}:{node_limit}", max_ii,
        min_ii=min_ii)
    record = iimemo.MEMO.get(sig)
    known: dict[int, IICertificate] = {}
    if record is not None:
        known = {ii: IICertificate(ii, reason, explored)
                 for ii, reason, explored in record.get("failed", ())}

    def remember(failed: list[IICertificate]) -> None:
        fresh = [c for c in failed if c.ii not in known]
        if fresh:
            merged = sorted(set(known.values()) | set(failed),
                            key=lambda c: c.ii)
            iimemo.MEMO.put(sig, {"failed": [(c.ii, c.reason, c.explored)
                                             for c in merged]})

    def heuristic(certified: bool, failed: list[IICertificate],
                  explored: int) -> ExactSchedule:
        remember(failed)
        return _package(dict(ub.time), ub.ii, rmii, smii, dfg, lib, dmap,
                        certified=certified, failed=tuple(failed),
                        explored=explored,
                        fallback=None if certified else "backtrack")

    if ub.ii <= start_ii:
        # the heuristic already meets the lower bound: optimal for free
        return heuristic(True, [], 0)
    if len(dfg.nodes) > node_limit:
        return heuristic(False, [], 0)

    bud = _Budget(budget)
    failed: list[IICertificate] = []
    for ii in range(start_ii, ub.ii):
        if ii in known:
            failed.append(known[ii])
            continue
        before = bud.spent
        try:
            time, reason = _decide_ii(dfg, edges, lib, ii, dmap, bud)
        except _BudgetExceeded:
            return heuristic(False, failed, bud.spent)
        if time is not None:
            remember(failed)
            return _package(time, ii, rmii, smii, dfg, lib, dmap,
                            certified=True, failed=tuple(failed),
                            explored=bud.spent)
        failed.append(IICertificate(ii, reason, bud.spent - before))
    # every II below the heuristic's refuted: the heuristic is optimal
    return heuristic(True, failed, bud.spent)
