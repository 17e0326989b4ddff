"""The scheduler core: the hot loops behind the modulo/list schedulers
(consumed by :mod:`repro.hw.modulo`, :mod:`repro.hw.listsched`,
:mod:`repro.hw.schedulers`, and :mod:`repro.hw.mii`).

It is the only implementation of the II search's placement, repair, and
RecMII probes.  ``BENCH_5.json`` showed the vliw retarget phase spending
98% of its wall inside ``schedule``, almost all of it in per-cycle
``time mod II`` dict probing and per-edge repair loops; this module
runs that machinery over flat, node-indexed Python lists:

* a :class:`SchedProblem` is built **once per II search** from the DFG,
  edge view, and operator library: a node-indexed delay list, per-node
  tuples of ``(src, delay, dist)`` predecessors and of resource-row
  ids, and ``(src, dst, delay, dist)`` edge lists, all shared by every
  candidate II and repair round;
* per-resource reservation tables are flat ``resource x II`` occupancy
  rows with one *availability bitmask integer* per resource (bit ``r``
  set while row ``r`` has a free slot); earliest-feasible-slot probing
  is then two shifts and a lowest-set-bit extraction over the AND of
  the node's resource masks — constant work per node instead of up to
  II occupancy probes;
* the violation check after a pass scans only the edges that pass can
  violate (sources not placed before their sinks), in edge order;
* per-SCC RecMII probes run sequential integer Bellman-Ford relaxation
  over the component's arcs;
* the list scheduler's absolute-cycle probing uses saturation bitmasks
  the same way, and the backtracking scheduler's ASAP/ALAP slack levels
  are one topological pass each.

Every routine is **bit-identical** to the loops it replaced — same
placement order, same tie-breaking, same repair growth, same error
cases.  Those loops live on, frozen, as the test oracle
``tests/hw/sched_reference.py``, which the parity suite diffs schedules,
probe verdicts, and slack levels against.

Node ids must be ``0..n-1`` positionally, which ``DFG.add_node``
guarantees.  Every placement pass bumps the ``sched_kernel_numpy_attempts``
metrics counter: one pass per repair round, so it is the search's
repair-round count (``repro stats`` renders it as "repair rounds").
"""

from __future__ import annotations

from typing import Callable

from repro.obs import metrics as obs_metrics

__all__ = ["SchedProblem", "build_problem", "list_schedule_arrays",
           "make_probe", "slack_levels"]

#: Placement passes, one per repair round of the II search (the key
#: predates the pure-Python core and is kept so recorded runs stay
#: comparable).
_ATTEMPTS = obs_metrics.counter("sched_kernel_numpy_attempts")


# ---------------------------------------------------------------------------
# The modulo-scheduling problem
# ---------------------------------------------------------------------------

class SchedProblem:
    """One II search's flat lists, shared by all IIs/orders/rounds.

    Everything is indexed by node id or edge position: list indexing,
    per-node tuples and big-int bit arithmetic keep the per-node
    placement loop and the per-edge violation scan inside the
    interpreter's fast paths.
    """

    __slots__ = ("n", "delay", "res_names", "res_slots", "preds", "nres",
                 "esrc", "edst", "edelay", "edist")

    def __init__(self, n: int, delay: list[int], res_names: list[str],
                 res_slots: list[int],
                 preds: list[tuple[tuple[int, int, int], ...]],
                 nres: list[tuple[int, ...]], esrc: list[int],
                 edst: list[int], edelay: list[int], edist: list[int]):
        self.n = n
        self.delay = delay
        self.res_names = res_names
        self.res_slots = res_slots
        #: per node, its ``(src, delay(src), dist)`` predecessors in edge
        #: order
        self.preds = preds
        #: per node, the ids of the resources it occupies
        self.nres = nres
        self.esrc = esrc
        self.edst = edst
        self.edelay = edelay
        self.edist = edist

    # -- placement --------------------------------------------------------

    def attempt(self, ii: int, extra: list[int], order_ids: list[int]):
        """One placement pass at a fixed II.

        ``extra`` is the per-node repair-slack list (length n);
        ``order_ids`` the placement order.  Each node starts at its
        earliest dependence-feasible cycle over the already-placed
        predecessors, then advances to the first ``time mod II`` row
        with a free slot in every resource it occupies.  Returns
        ``(time, occ, length)`` — flat Python lists — on success,
        ``None`` when some node probed all II rows without a free slot.
        """
        _ATTEMPTS.add()
        time = [-1] * self.n
        n_res = len(self.res_names)
        occ = [0] * (n_res * ii)
        # availability bitmask per resource: bit ``row`` set while the
        # row still has a free slot, so the first-free probe is the AND
        # of the node's masks plus a lowest-set-bit extraction
        full = (1 << ii) - 1
        masks = [full] * n_res
        slots = self.res_slots
        preds, nres = self.preds, self.nres
        delay = self.delay
        length = 0
        for nid in order_ids:
            t = extra[nid]
            for src, dly, dist in preds[nid]:
                ts = time[src]
                if ts >= 0:
                    c = ts + dly - ii * dist
                    if c > t:
                        t = c
            if t < 0:
                t = 0
            res = nres[nid]
            if res:
                free = full
                for r in res:
                    free &= masks[r]
                t0 = t % ii
                hi = free >> t0
                if hi:
                    t += (hi & -hi).bit_length() - 1
                elif free:
                    # wrap: the earliest free row sits below t0
                    t += (ii - t0) + (free & -free).bit_length() - 1
                else:
                    return None
                row = t % ii
                bit = 1 << row
                for r in res:
                    j = r * ii + row
                    c = occ[j] + 1
                    occ[j] = c
                    if c >= slots[r]:
                        masks[r] &= ~bit
            time[nid] = t
            end = t + delay[nid]
            if end > length:
                length = end
        return time, occ, length

    # -- verification / repair -------------------------------------------

    def backward_edges(self, order_ids: list[int]) -> list[int]:
        """Indices (edge order) of the edges a placement pass in this
        order can violate.

        :meth:`attempt` starts every node at or after each already
        placed predecessor's ``t(src) + delay(src) - II*dist`` and only
        moves it later, so an edge whose source is placed strictly
        before its sink always holds.  Only the others (sources placed
        later, self-loops) need checking after a pass.
        """
        pos = [-1] * self.n
        for i, nid in enumerate(order_ids):
            pos[nid] = i
        return [i for i, (s, d) in enumerate(zip(self.esrc, self.edst))
                if not 0 <= pos[s] < pos[d]]

    def violations(self, time: list[int], ii: int,
                   candidates: list[int]) -> list[int]:
        """Indices (edge order) of the ``candidates`` edges with
        ``t(dst)+II*dist < t(src)+delay(src)``."""
        esrc, edst = self.esrc, self.edst
        edelay, edist = self.edelay, self.edist
        return [i for i in candidates
                if time[edst[i]] + ii * edist[i] < time[esrc[i]] + edelay[i]]

    def grow_extra(self, extra: list[int], time: list[int],
                   bad_idx: list[int], ii: int) -> bool:
        """Repair: raise each violated sink's slack to ``t(src) +
        delay(src) - II*dist`` where that strictly grows it.  Returns
        whether anything grew (``False`` is the repair fixpoint)."""
        esrc, edst = self.esrc, self.edst
        edelay, edist = self.edelay, self.edist
        grew = False
        for i in bad_idx:
            d = edst[i]
            need = time[esrc[i]] + edelay[i] - ii * edist[i]
            if need > extra[d]:
                extra[d] = need
                grew = True
        return grew

    # -- output reconstruction -------------------------------------------

    def time_dict(self, time: list[int],
                  order_ids: list[int]) -> dict[int, int]:
        """Plain-int time map in placement order."""
        return {nid: time[nid] for nid in order_ids}

    def reservation_tables(self, occ: list[int],
                           ii: int) -> dict[str, dict[int, int]]:
        """``resource -> row -> occupancy`` dicts from the flat occupancy
        rows (only touched rows appear)."""
        rt: dict[str, dict[int, int]] = {}
        for ridx, rname in enumerate(self.res_names):
            base = ridx * ii
            rt[rname] = {row: occ[base + row] for row in range(ii)
                         if occ[base + row]}
        return rt


def build_problem(dfg, edges, dmap: dict[int, int],
                  rmap: dict[int, tuple[str, ...]],
                  slots: dict[str, int]) -> SchedProblem:
    """Flatten one search's inputs."""
    n = len(dfg.nodes)
    delay = [dmap[i] for i in range(n)]

    res_names = list(slots)
    rindex = {r: i for i, r in enumerate(res_names)}
    res_slots = [slots[r] for r in res_names]
    nres = [tuple(rindex[r] for r in rmap[i]) for i in range(n)]

    esrc = [s.nid for s, _, _ in edges]
    edst = [d.nid for _, d, _ in edges]
    edist = [dist for _, _, dist in edges]
    edelay = [delay[s] for s in esrc]

    # predecessors per dst, in edge order
    by_dst: list[list[tuple[int, int, int]]] = [[] for _ in range(n)]
    for s, d, dly, dist in zip(esrc, edst, edelay, edist):
        by_dst[d].append((s, dly, dist))
    return SchedProblem(n, delay, res_names, res_slots,
                        [tuple(group) for group in by_dst], nres,
                        esrc, edst, edelay, edist)


def search_rounds(prob: SchedProblem, ii: int, order_ids: list[int],
                  rounds: int):
    """The attempt/verify/repair loop at one (II, order).

    Returns ``(time, occ, length)`` on a violation-free placement, else
    ``None``: a placement overflow, a repair fixpoint (every further
    round would replay the same placement), or ``rounds`` exhausted.
    """
    extra = [0] * prob.n
    candidates = prob.backward_edges(order_ids)
    for _ in range(rounds):
        res = prob.attempt(ii, extra, order_ids)
        if res is None:
            return None
        time, occ, length = res
        bad = prob.violations(time, ii, candidates)
        if not bad:
            return time, occ, length
        if not prob.grow_extra(extra, time, bad, ii):
            return None
    return None


# ---------------------------------------------------------------------------
# RecMII: Bellman-Ford probes
# ---------------------------------------------------------------------------

def make_probe(nids: list[int], arcs: list[tuple[int, int, int, int]]
               ) -> Callable[[int], bool]:
    """A per-SCC lambda probe over the component's arcs: ``probe(lam)``
    asks whether some cycle has ``sum(delay) > lam * sum(distance)``.

    Sequential Bellman-Ford negative-cycle detection on the integer
    weights ``lam*dist - delay(src)``, relaxing the arcs in order: a
    pass that changes nothing certifies the fixpoint (no negative
    cycle), and a negative cycle keeps all ``n`` passes busy.  Integer
    weights compare exactly, so the tie ``delay == lam * distance``
    (weight 0) is never an exceeding cycle.
    """
    idx = {nid: i for i, nid in enumerate(nids)}
    local = [(idx[u], idx[v], dly, dd) for u, v, dly, dd in arcs]
    n = len(nids)

    def probe(lam: int) -> bool:
        weighted = [(u, v, lam * dd - dly) for u, v, dly, dd in local]
        dist = [0] * n
        for _ in range(n):
            changed = False
            for u, v, w in weighted:
                t = dist[u] + w
                if t < dist[v]:
                    dist[v] = t
                    changed = True
            if not changed:
                return False
        return True

    return probe


# ---------------------------------------------------------------------------
# List scheduling: absolute-cycle occupancy probing
# ---------------------------------------------------------------------------

def list_schedule_arrays(dfg, lib):
    """ASAP placement under resource limits over saturation bitmasks.

    Per resource: occupancy counts by absolute cycle plus a bitmask of
    *saturated* cycles, so the first-free probe is one lowest-zero-bit
    extraction over the OR of the node's masks instead of a cycle-by-
    cycle walk re-probing every resource.

    Returns ``(time dict, resource_usage dicts, length)``.
    """
    nodes = dfg.nodes
    n = len(nodes)
    delay = [lib.delay(node) for node in nodes]
    slots = lib.resource_slots()
    res_names = list(slots)
    rindex = {r: i for i, r in enumerate(res_names)}
    res_slots = [slots[r] for r in res_names]

    preds: dict[int, list[tuple[int, int]]] = {i: [] for i in range(n)}
    for e in dfg.edges:
        if e.dist == 0:
            preds[e.dst.nid].append((e.src.nid, delay[e.src.nid]))

    usage: list[dict[int, int]] = [{} for _ in res_names]
    fullmask = [0] * len(res_names)
    time: dict[int, int] = {}
    for node in dfg.topo_order():
        nid = node.nid
        t = 0
        for snid, sdly in preds[nid]:
            ready = time[snid] + sdly
            if ready > t:
                t = ready
        res = lib.node_resources(node)
        if res:
            rows = [rindex[r] for r in res]
            busy = 0
            for r in rows:
                busy |= fullmask[r]
            x = busy >> t
            # first zero bit of x == first cycle >= t with slack everywhere
            t += ((~x) & (x + 1)).bit_length() - 1
            for r in rows:
                u = usage[r]
                c = u.get(t, 0) + 1
                u[t] = c
                if c >= res_slots[r]:
                    fullmask[r] |= 1 << t
        time[nid] = t

    resource_usage = {rname: usage[ridx]
                      for ridx, rname in enumerate(res_names)}
    length = 0
    for nid, t in time.items():
        end = t + delay[nid]
        if end > length:
            length = end
    return time, resource_usage, max(length, 1)


# ---------------------------------------------------------------------------
# Backtracking orders: ASAP/ALAP slack levels
# ---------------------------------------------------------------------------

def slack_levels(dfg, edges, dmap: dict[int, int]):
    """ASAP/ALAP levels of the view's distance-0 subgraph.

    Returns ``(asap, alap)`` as plain-int lists indexed by nid: one
    forward pass in a topological order of the view's distance-0 edges,
    then one backward pass (the DAG longest-path fixpoint is unique, so
    any topological order gives the same levels).  ``dmap`` is the
    search's node-id -> latency map.
    """
    n = len(dfg.nodes)
    delay = [dmap[i] for i in range(n)]
    succs: list[list[int]] = [[] for _ in range(n)]
    indeg = [0] * n
    for s, d, dist in edges:
        if dist == 0:
            succs[s.nid].append(d.nid)
            indeg[d.nid] += 1

    order = [i for i in range(n) if not indeg[i]]
    asap = [0] * n
    for u in order:                 # ``order`` grows as nodes get ready
        end = asap[u] + delay[u]
        for v in succs[u]:
            if end > asap[v]:
                asap[v] = end
            indeg[v] -= 1
            if not indeg[v]:
                order.append(v)
    length = max((a + d for a, d in zip(asap, delay)), default=0)
    alap = [length - d for d in delay]
    for u in reversed(order):
        du = delay[u]
        for v in succs[u]:
            t = alap[v] - du
            if t < alap[u]:
                alap[u] = t
    return asap, alap
