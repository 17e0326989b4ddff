"""Array-programmed scheduler core: the hot loops behind the modulo/list
schedulers (consumed by :mod:`repro.hw.modulo`, :mod:`repro.hw.listsched`,
:mod:`repro.hw.schedulers`, and :mod:`repro.hw.mii`).

It is the only implementation of the II search's placement, repair, and
RecMII probes.  ``BENCH_5.json`` showed the vliw retarget phase spending
98% of its wall inside ``schedule``, almost all of it in per-cycle
``time mod II`` dict probing and per-edge repair loops; this module
expresses that machinery over dense arrays, in the array-programming
idiom of SNIPPETS.md Snippet 1 (CuPADMAN's batched EMC kernels):

* a :class:`SchedProblem` is built **once per II search** from the DFG,
  edge view, and operator library: a node-indexed delay vector, CSR
  predecessor arrays, ``(src, dst, delay, dist)`` edge arrays shared by
  every candidate II and repair round, and per-node resource-row ids;
* per-resource reservation tables are flat ``resource x II`` occupancy
  rows with one *availability bitmask integer* per resource (bit ``r``
  set while row ``r`` has a free slot); earliest-feasible-slot probing
  is then two shifts and a lowest-set-bit extraction over the AND of
  the node's resource masks — constant work per node instead of up to
  II occupancy probes (the per-node loop itself stays in plain Python:
  on small operands, interpreter-resident bit arithmetic beats the
  per-call dispatch overhead of small-array ufuncs);
* edge-violation checks and the repair-slack recomputation are single
  vector comparisons over the edge arrays;
* per-SCC RecMII probes run Bellman-Ford relaxation as whole-front
  ``minimum.at`` sweeps;
* the list scheduler's absolute-cycle probing and the backtracking
  scheduler's ASAP/ALAP slack levels use the same arrays.

Every routine is **bit-identical** to the pure-Python loops it replaced
— same placement order, same tie-breaking, same repair growth, same
error cases.  Those loops live on, frozen, as the test oracle
``tests/hw/sched_reference.py``, which the parity suite diffs schedules
against.  The Bellman-Ford probe is a Jacobi-style sweep where the
reference relaxes sequentially; the *boolean* (negative-cycle) verdict
is still identical: the relaxation map is monotone, so any no-change
sweep proves a fixpoint (no negative cycle) and a negative cycle forces
changes through all ``n`` sweeps.

Node ids must be ``0..n-1`` positionally, which ``DFG.add_node``
guarantees.  Every placement pass bumps the ``sched_kernel_numpy_attempts``
metrics counter: one pass per repair round, so it is the search's
repair-round count (``repro stats`` renders it as "repair rounds").
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.obs import metrics as obs_metrics

__all__ = ["SchedProblem", "build_problem", "list_schedule_arrays",
           "make_probe", "slack_levels"]

#: Placement passes, one per repair round of the II search (the key
#: predates the single core and is kept so recorded runs stay comparable).
_ATTEMPTS = obs_metrics.counter("sched_kernel_numpy_attempts")


# ---------------------------------------------------------------------------
# The modulo-scheduling problem, array-programmed
# ---------------------------------------------------------------------------

class SchedProblem:
    """One II search's dense arrays, shared by all IIs/orders/rounds.

    Two views of the same data coexist: numpy edge arrays for the
    whole-edge-vector work (violation scan), and flat Python-list
    mirrors for the per-node placement loop, where list indexing and
    big-int bit arithmetic run well under the dispatch cost of
    element-at-a-time ufunc calls.
    """

    __slots__ = ("n", "delay", "res_names", "res_slots", "nres_ptr",
                 "nres_ids", "esrc", "edst", "edelay", "edist",
                 "pptr", "psrc", "pdelay", "pdist",
                 "esrc_l", "edst_l", "edelay_l", "edist_l")

    def __init__(self, n: int, delay, res_names: list[str], res_slots,
                 nres_ptr, nres_ids, esrc, edst, edelay, edist,
                 pptr, psrc, pdelay, pdist):
        self.n = n
        self.delay = delay
        self.res_names = res_names
        self.res_slots = res_slots
        self.nres_ptr = nres_ptr
        self.nres_ids = nres_ids
        self.esrc = esrc
        self.edst = edst
        self.edelay = edelay
        self.edist = edist
        self.pptr = pptr
        self.psrc = psrc
        self.pdelay = pdelay
        self.pdist = pdist
        self.esrc_l = esrc.tolist()
        self.edst_l = edst.tolist()
        self.edelay_l = edelay.tolist()
        self.edist_l = edist.tolist()

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
        n = self.n
        time = [-1] * n
        n_res = len(self.res_names)
        occ = [0] * (n_res * ii)
        # availability bitmask per resource: bit ``row`` set while the
        # row still has a free slot, so the first-free probe is the AND
        # of the node's masks plus a lowest-set-bit extraction
        full = (1 << ii) - 1
        masks = [full] * n_res
        padj = (self.pdelay - ii * self.pdist).tolist()
        slots = self.res_slots
        pptr, psrc = self.pptr, self.psrc
        nres_ptr, nres_ids = self.nres_ptr, self.nres_ids
        delay = self.delay
        length = 0
        for nid in order_ids:
            t = extra[nid]
            e = pptr[nid + 1]
            for k in range(pptr[nid], e):
                ts = time[psrc[k]]
                if ts >= 0:
                    c = ts + padj[k]
                    if c > t:
                        t = c
            if t < 0:
                t = 0
            rs = nres_ptr[nid]
            re = nres_ptr[nid + 1]
            if re > rs:
                free = masks[nres_ids[rs]]
                for k in range(rs + 1, re):
                    free &= masks[nres_ids[k]]
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
                for k in range(rs, re):
                    r = nres_ids[k]
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

    def violations(self, time: list[int], ii: int):
        """Indices (edge order) of edges with ``t(dst)+II*dist <
        t(src)+delay(src)``."""
        if self.esrc.size == 0:
            return []
        tarr = np.asarray(time, dtype=np.int64)
        bad = tarr[self.edst] + ii * self.edist \
            < tarr[self.esrc] + self.edelay
        return np.nonzero(bad)[0].tolist()

    def grow_extra(self, extra: list[int], time: list[int],
                   bad_idx: list[int], ii: int) -> bool:
        """Repair: raise each violated sink's slack to ``t(src) +
        delay(src) - II*dist`` where that strictly grows it.  Returns
        whether anything grew (``False`` is the repair fixpoint)."""
        esrc, edst = self.esrc_l, self.edst_l
        edelay, edist = self.edelay_l, self.edist_l
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
    """Densify one search's inputs."""
    n = len(dfg.nodes)
    delay = np.fromiter((dmap[i] for i in range(n)), dtype=np.int64, count=n)

    res_names = list(slots)
    rindex = {r: i for i, r in enumerate(res_names)}
    res_slots = np.fromiter((slots[r] for r in res_names), dtype=np.int64,
                            count=len(res_names))
    nres_ptr = np.zeros(n + 1, dtype=np.int64)
    flat_res: list[int] = []
    for i in range(n):
        for r in rmap[i]:
            flat_res.append(rindex[r])
        nres_ptr[i + 1] = len(flat_res)
    nres_ids = np.array(flat_res, dtype=np.int64)

    ne = len(edges)
    esrc = np.fromiter((s.nid for s, _, _ in edges), dtype=np.int64, count=ne)
    edst = np.fromiter((d.nid for _, d, _ in edges), dtype=np.int64, count=ne)
    edist = np.fromiter((dist for _, _, dist in edges), dtype=np.int64,
                        count=ne)
    edelay = delay[esrc] if ne else np.zeros(0, dtype=np.int64)

    # predecessor CSR, grouped by dst in edge order
    counts = np.zeros(n, dtype=np.int64)
    np.add.at(counts, edst, 1)
    pptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=pptr[1:])
    fill = pptr[:-1].copy()
    psrc = np.zeros(ne, dtype=np.int64)
    pidx = np.zeros(ne, dtype=np.int64)
    for i in range(ne):
        d = edst[i]
        j = fill[d]
        psrc[j] = esrc[i]
        pidx[j] = i
        fill[d] = j + 1
    pdelay = edelay[pidx] if ne else edelay
    pdist = edist[pidx] if ne else edist
    # the placement loop indexes element-at-a-time: hand it plain lists
    # (numpy scalar extraction would dominate the loop)
    return SchedProblem(n, delay.tolist(), res_names, res_slots.tolist(),
                        nres_ptr.tolist(), nres_ids.tolist(),
                        esrc, edst, edelay, edist,
                        pptr.tolist(), psrc.tolist(), pdelay, pdist)


def search_rounds(prob: SchedProblem, ii: int, order_ids: list[int],
                  rounds: int):
    """The attempt/verify/repair loop at one (II, order).

    Returns ``(time, occ, length)`` on a violation-free placement, else
    ``None``: a placement overflow, a repair fixpoint (every further
    round would replay the same placement), or ``rounds`` exhausted.
    """
    extra = [0] * prob.n
    for _ in range(rounds):
        res = prob.attempt(ii, extra, order_ids)
        if res is None:
            return None
        time, occ, length = res
        bad = prob.violations(time, ii)
        if not bad:
            return time, occ, length
        if not prob.grow_extra(extra, time, bad, ii):
            return None
    return None


# ---------------------------------------------------------------------------
# RecMII: vectorized Bellman-Ford probes
# ---------------------------------------------------------------------------

def make_probe(nids: list[int], arcs: list[tuple[int, int, int, int]]
               ) -> Callable[[int], bool]:
    """A per-SCC lambda probe over dense arc arrays: ``probe(lam)`` asks
    whether some cycle has ``sum(delay) > lam * sum(distance)``.

    Bellman-Ford negative-cycle detection on the integer weights
    ``lam*dist - delay(src)``: each sweep applies every relaxation from
    the pre-sweep front (``minimum.at``); the map is monotone, so a
    no-change sweep certifies the fixpoint (no negative cycle) and a
    negative cycle keeps all ``n`` sweeps busy.  Integer weights compare
    exactly, so the tie ``delay == lam * distance`` (weight 0) is never
    an exceeding cycle.
    """
    idx = {nid: i for i, nid in enumerate(nids)}
    na = len(arcs)
    u = np.fromiter((idx[a[0]] for a in arcs), dtype=np.int64, count=na)
    v = np.fromiter((idx[a[1]] for a in arcs), dtype=np.int64, count=na)
    dly = np.fromiter((a[2] for a in arcs), dtype=np.int64, count=na)
    dd = np.fromiter((a[3] for a in arcs), dtype=np.int64, count=na)
    n = len(nids)

    def probe(lam: int) -> bool:
        dist = np.zeros(n, dtype=np.int64)
        w = lam * dd - dly
        for _ in range(n):
            before = dist.copy()
            np.minimum.at(dist, v, dist[u] + w)
            if np.array_equal(dist, before):
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
# Backtracking orders: ASAP/ALAP slack levels by whole-front relaxation
# ---------------------------------------------------------------------------

def slack_levels(dfg, edges, dmap: dict[int, int]):
    """ASAP/ALAP levels of the view's distance-0 subgraph.

    Returns ``(asap, alap)`` as plain-int lists indexed by nid, equal
    to a single topological pass's values (the DAG longest-path
    fixpoint is unique, so repeated ``maximum.at`` / ``minimum.at``
    sweeps converge to exactly them).  ``dmap`` is the search's
    node-id -> latency map.
    """
    nodes = dfg.nodes
    n = len(nodes)
    delay = np.fromiter((dmap[node.nid] for node in nodes),
                        dtype=np.int64, count=n)
    d0 = [(s.nid, d.nid) for s, d, dist in edges if dist == 0]
    src = np.fromiter((s for s, _ in d0), dtype=np.int64, count=len(d0))
    dst = np.fromiter((d for _, d in d0), dtype=np.int64, count=len(d0))

    asap = np.zeros(n, dtype=np.int64)
    if len(d0):
        for _ in range(n):
            before = asap.copy()
            np.maximum.at(asap, dst, asap[src] + delay[src])
            if np.array_equal(asap, before):
                break
    length = int((asap + delay).max()) if n else 0
    alap = length - delay
    if len(d0):
        for _ in range(n):
            before = alap.copy()
            np.minimum.at(alap, src, alap[dst] - delay[src])
            if np.array_equal(alap, before):
                break
    return asap.tolist(), alap.tolist()
