"""An independent, dumb-on-purpose schedule re-verifier.

Given any claimed schedule — a :class:`~repro.hw.modulo.ModuloSchedule`
(including :class:`~repro.hw.exact.ExactSchedule`) or a
:class:`~repro.hw.listsched.ListSchedule` — re-check every invariant
from first principles, sharing **no code** with the schedulers under
test (:mod:`repro.hw.modulo`, :mod:`repro.hw.sched_kernel`,
:mod:`repro.hw.listsched`, :mod:`repro.hw.mii`):

* every precedence constraint
  ``t(dst) + II*dist - t(src) >= delay(src)``, edge by edge, with
  latencies read straight from the operator library;
* the reservation table rebuilt from scratch — each resource-using
  node occupies one slot of each of its resource rows at
  ``t mod II`` — and compared against both the library's slot
  capacities and the schedule's own claimed table;
* the makespan covers every node's completion.

``strict`` mode adds the re-derivation cross-checks:

* **MaxLive** recounted cycle by cycle (an O(sum-of-lifetimes) literal
  walk, deliberately not the difference-array fold of
  :mod:`repro.vliw.pressure`) against the claimed
  :class:`~repro.vliw.pressure.PressureInfo`, and against the
  recurrence pressure floor, which no legal schedule may undercut;
* **MII lower bounds** — ResMII by direct slot counting and RecMII by
  a naive whole-graph parametric Bellman-Ford (no SCC decomposition,
  no vectorized probes) — against the accepted II, and against any
  ``exact_ii`` optimality certificate a design point claims.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Callable, Optional

from repro.core.dfg import DFG, DFGNode
from repro.hw.listsched import ListSchedule
from repro.hw.mii import EdgeView
from repro.hw.modulo import ModuloSchedule
from repro.hw.ops import OperatorLibrary
from repro.verify.findings import Finding, raise_findings

if TYPE_CHECKING:  # break the verify <-> pipeline/vliw import cycles
    from repro.hw.report import DesignPoint
    from repro.pipeline.artifacts import AnalyzedDFG, ScheduledDesign
    from repro.vliw.pressure import PressureInfo

__all__ = ["crosscheck_pressure", "independent_rec_mii",
           "independent_res_mii", "reverify_list", "reverify_modulo",
           "verify_design_point", "verify_scheduled"]


def _raw_view(dfg: DFG, edges: Optional[EdgeView]) -> EdgeView:
    if edges is not None:
        return edges
    return [(e.src, e.dst, e.dist) for e in dfg.edges]


def _placement_findings(dfg: DFG, time: dict[int, int]) -> list[Finding]:
    out: list[Finding] = []
    for n in dfg.nodes:
        t = time.get(n.nid)
        if t is None:
            out.append(Finding(
                "schedule.placement", repr(n),
                "node has no start cycle in the schedule"))
        elif t < 0:
            out.append(Finding(
                "schedule.placement", repr(n),
                f"start cycle {t} is negative"))
    return out


def reverify_modulo(dfg: DFG, lib: OperatorLibrary, sched: ModuloSchedule,
                    edges: Optional[EdgeView] = None) -> list[Finding]:
    """Re-check a modulo schedule from first principles."""
    out: list[Finding] = []
    ii = sched.ii
    if ii < 1:
        out.append(Finding(
            "schedule.ii", f"II={ii}",
            "initiation interval must be at least 1"))
        return out
    out += _placement_findings(dfg, sched.time)
    placed = {n.nid for n in dfg.nodes
              if sched.time.get(n.nid) is not None}

    # -- precedence: t(dst) - t(src) >= delay(src) - II*dist ------------
    for s, d, dist in _raw_view(dfg, edges):
        if s.nid not in placed or d.nid not in placed:
            continue  # already reported as a placement finding
        slack = sched.time[d.nid] + ii * dist \
            - sched.time[s.nid] - lib.delay(s)
        if slack < 0:
            out.append(Finding(
                "schedule.precedence",
                f"{s!r} -> {d!r} (dist {dist})",
                f"t(dst)={sched.time[d.nid]} + II*dist={ii * dist} falls "
                f"{-slack} cycle(s) short of t(src)={sched.time[s.nid]} "
                f"+ delay={lib.delay(s)}"))

    # -- reservation table rebuilt from scratch -------------------------
    slots = lib.resource_slots()
    rebuilt: dict[str, dict[int, int]] = {r: {} for r in slots}
    for n in dfg.nodes:
        if n.nid not in placed:
            continue
        for r in lib.node_resources(n):
            if r not in rebuilt:
                continue  # unknown class: a dfg.resource-class finding
            row = sched.time[n.nid] % ii
            rebuilt[r][row] = rebuilt[r].get(row, 0) + 1
    for r, rows in rebuilt.items():
        cap = slots[r]
        for row, count in sorted(rows.items()):
            if count > cap:
                out.append(Finding(
                    "schedule.resources", f"{r}[row {row}]",
                    f"{count} operations share {cap} slot(s)"))

    # -- the claimed table must agree with the rebuilt one --------------
    claimed = {r: {row: c for row, c in rows.items() if c}
               for r, rows in (sched.rt or {}).items()}
    nonzero = {r: {row: c for row, c in rows.items() if c}
               for r, rows in rebuilt.items()}
    if sched.rt:
        for r in sorted(set(claimed) | set(nonzero)):
            if claimed.get(r, {}) != nonzero.get(r, {}):
                out.append(Finding(
                    "schedule.reservation-table", r,
                    f"claimed occupancy {claimed.get(r, {})} but the "
                    f"placement implies {nonzero.get(r, {})}"))

    # -- makespan covers every completion -------------------------------
    if placed:
        end = max(sched.time[n.nid] + lib.delay(n)
                  for n in dfg.nodes if n.nid in placed)
        if sched.length < end:
            out.append(Finding(
                "schedule.length", f"length={sched.length}",
                f"a node completes at cycle {end}"))
    return out


def reverify_list(dfg: DFG, lib: OperatorLibrary,
                  sched: ListSchedule) -> list[Finding]:
    """Re-check a sequential (non-pipelined) list schedule."""
    out = _placement_findings(dfg, sched.time)
    placed = {n.nid for n in dfg.nodes
              if sched.time.get(n.nid) is not None}

    for e in dfg.edges:
        if e.dist != 0:
            continue  # iterations run back to back: trivially satisfied
        if e.src.nid not in placed or e.dst.nid not in placed:
            continue
        need = sched.time[e.src.nid] + lib.delay(e.src)
        if sched.time[e.dst.nid] < need:
            out.append(Finding(
                "schedule.precedence",
                f"{e.src!r} -> {e.dst!r} (dist 0)",
                f"t(dst)={sched.time[e.dst.nid]} precedes the source's "
                f"completion at {need}"))

    slots = lib.resource_slots()
    usage: dict[str, dict[int, int]] = {r: {} for r in slots}
    for n in dfg.nodes:
        if n.nid not in placed:
            continue
        for r in lib.node_resources(n):
            if r not in usage:
                continue
            t = sched.time[n.nid]
            usage[r][t] = usage[r].get(t, 0) + 1
    for r, cycles in usage.items():
        cap = slots[r]
        for t, count in sorted(cycles.items()):
            if count > cap:
                out.append(Finding(
                    "schedule.resources", f"{r}[cycle {t}]",
                    f"{count} operations share {cap} slot(s)"))

    if placed:
        end = max(sched.time[n.nid] + lib.delay(n)
                  for n in dfg.nodes if n.nid in placed)
        if sched.length < max(end, 1):
            out.append(Finding(
                "schedule.length", f"length={sched.length}",
                f"a node completes at cycle {end}"))
    return out


# ---------------------------------------------------------------------------
# Strict-mode re-derivation cross-checks
# ---------------------------------------------------------------------------

def crosscheck_pressure(dfg: DFG, lib: OperatorLibrary,
                        sched: ModuloSchedule, claimed: "PressureInfo",
                        edges: Optional[EdgeView] = None) -> list[Finding]:
    """Recount MaxLive cycle by cycle against a claimed PressureInfo.

    Uses the same lifetime semantics as :func:`repro.vliw.pressure.
    max_live` — only data-kind flows occupy registers, constants and
    stores produce no value, a value born at ``t(src) + delay`` dies at
    its last use ``t(dst) + II*dist`` — but counts occupancy by walking
    every lifetime cycle literally instead of the O(1) difference-array
    fold, so an error in the fold cannot hide here.

    The recount must also meet :func:`repro.vliw.pressure.
    pressure_floor` at the schedule's II — the schedule-independent
    bound the pipeline rejects designs by before scheduling them — so
    a floor that overstates what a legal schedule needs is a finding.
    """
    from repro.vliw import pressure

    ii = sched.ii
    if ii < 1:
        return []
    data_pairs = {(e.src.nid, e.dst.nid) for e in dfg.edges
                  if e.kind == "data"}
    born: dict[int, int] = {}
    dies: dict[int, int] = {}
    for s, d, dist in _raw_view(dfg, edges):
        if s.kind in ("const", "store") or \
                (s.nid, d.nid) not in data_pairs:
            continue
        b = sched.time[s.nid] + lib.delay(s)
        last = sched.time[d.nid] + ii * dist
        born[s.nid] = b
        dies[s.nid] = max(dies.get(s.nid, b), last)

    counts = [0] * ii
    for nid, b in born.items():
        for cycle in range(b, dies[nid]):
            counts[cycle % ii] += 1
    recounted = max(counts) if counts else 0
    out: list[Finding] = []
    if recounted != claimed.max_live:
        out.append(Finding(
            "pressure.maxlive", f"MaxLive={claimed.max_live}",
            f"a literal cycle-by-cycle recount over the schedule gives "
            f"{recounted}"))
    floor = pressure.pressure_floor(dfg, lib, edges, ii)
    if recounted < floor:
        out.append(Finding(
            "pressure.floor", f"II={ii}",
            f"the literal MaxLive recount {recounted} is below the "
            f"recurrence pressure floor {floor}"))
    return out


def independent_res_mii(dfg: DFG, lib: OperatorLibrary) -> int:
    """ResMII by direct counting: ``max(ceil(uses / slots))``."""
    slots = lib.resource_slots()
    uses: dict[str, int] = {}
    for n in dfg.nodes:
        for r in lib.node_resources(n):
            if r in slots:
                uses[r] = uses.get(r, 0) + 1
    bound = 1
    for r, count in uses.items():
        bound = max(bound, math.ceil(count / slots[r]))
    return bound


def independent_rec_mii(dfg: DFG, delay: Callable[[DFGNode], int],
                        edges: Optional[EdgeView] = None) -> int:
    """RecMII by naive whole-graph parametric Bellman-Ford.

    Binary-searches the smallest ``lam`` admitting no cycle with
    ``sum(delay) > lam * sum(distance)``; each probe relaxes every arc
    ``V`` times over the whole graph — no SCC decomposition, no shared
    probe state, no vectorized sweeps.  Slow and obviously correct.
    """
    view = _raw_view(dfg, edges)
    nids: dict[int, None] = {}
    arcs: list[tuple[int, int, int, int]] = []
    for s, d, dist in view:
        nids[s.nid] = None
        nids[d.nid] = None
        arcs.append((s.nid, d.nid, delay(s), dist))
    nodes = list(nids)

    def has_exceeding_cycle(lam: int) -> bool:
        pot = {nid: 0 for nid in nodes}
        for _ in range(len(nodes)):
            changed = False
            for u, v, dly, dist in arcs:
                cand = pot[u] - dly + lam * dist
                if cand < pot[v]:
                    pot[v] = cand
                    changed = True
            if not changed:
                return False
        return True

    lo, hi = 1, sum(max(dly, 0) for _, _, dly, _ in arcs) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if has_exceeding_cycle(mid):
            lo = mid + 1
        else:
            hi = mid
    return lo


def _mii_findings(dfg: DFG, lib: OperatorLibrary, ii: int,
                  edges: Optional[EdgeView], what: str) -> list[Finding]:
    rec = independent_rec_mii(dfg, lib.delay, edges)
    res = independent_res_mii(dfg, lib)
    out: list[Finding] = []
    if ii < rec:
        out.append(Finding(
            "schedule.ii-below-recmii", f"{what}={ii}",
            f"an independent recurrence bound requires II >= {rec}"))
    if ii < res:
        out.append(Finding(
            "schedule.ii-below-resmii", f"{what}={ii}",
            f"an independent resource count requires II >= {res}"))
    return out


def verify_scheduled(scheduled: "ScheduledDesign", lib: OperatorLibrary,
                     strict: bool = False) -> None:
    """Verify one :class:`~repro.pipeline.artifacts.ScheduledDesign`.

    Raises :class:`~repro.errors.VerifyError` on any finding.  Base
    mode re-checks precedence, resources, the claimed reservation
    table, and the makespan; ``strict`` adds the MaxLive recount and
    the independent MII lower bounds.
    """
    analyzed = scheduled.analyzed
    dfg, edges = analyzed.dfg, analyzed.edges
    sched = scheduled.schedule
    if isinstance(sched, ModuloSchedule):
        findings = reverify_modulo(dfg, lib, sched, edges)
        if strict and not findings:
            findings += _mii_findings(dfg, lib, sched.ii, edges, "II")
            if scheduled.pressure is not None:
                findings += crosscheck_pressure(
                    dfg, lib, sched, scheduled.pressure, edges)
    else:
        findings = reverify_list(dfg, lib, sched)
    raise_findings("schedule", findings)


def verify_design_point(point: "DesignPoint", analyzed: "AnalyzedDFG",
                        lib: OperatorLibrary) -> None:
    """Cross-check a design point's ``exact_ii`` optimality certificate.

    A certified optimum can never undercut the independent MII lower
    bounds — a claim below either bound means the certificate (or the
    artifact it was computed from) is corrupt.  Raises
    :class:`~repro.errors.VerifyError`; no-op when nothing is claimed.
    """
    if getattr(point, "exact_ii", None) is None:
        return
    findings = _mii_findings(analyzed.dfg, lib, point.exact_ii,
                             analyzed.edges, "exact_ii")
    raise_findings(
        "design point",
        [Finding("report.exact-ii", f.where, f.message) for f in findings])
