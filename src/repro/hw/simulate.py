"""Cycle-level simulation of scheduled datapaths.

Two roles:

* **timing validation** — replay a schedule over many iterations,
  tracking memory-port occupancy cycle by cycle, and assert the hardware
  constraints hold dynamically (ports never oversubscribed, dependences
  respected across overlapped iterations).  Scheduler property tests rest
  on this.
* **total-cycle accounting** — the end-to-end execution time model behind
  the Table 6.3 speedups and the Fig. 2.4 operator-occupancy timeline.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.core.dfg import DFG, DFGNode
from repro.errors import ScheduleError
from repro.hw.listsched import ListSchedule
from repro.hw.mii import EdgeView, default_edge_view
from repro.hw.modulo import ModuloSchedule
from repro.hw.ops import OperatorLibrary

__all__ = ["SimulationResult", "simulate_modulo", "simulate_sequential",
           "occupancy_timeline"]


@dataclass
class SimulationResult:
    """Outcome of replaying a schedule for ``iterations`` iterations."""

    iterations: int
    total_cycles: int
    port_peak: int
    port_cycles_used: int
    violations: list[str] = field(default_factory=list)
    #: per-resource peak occupancy over the replay window (the memory
    #: bus's peak is also surfaced as ``port_peak`` for back-compat)
    resource_peaks: dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def _replay_resources(nodes, lib: OperatorLibrary, issue_at,
                      iterations: int, violations: list[str]
                      ) -> dict[str, dict[int, int]]:
    """Cycle-by-cycle occupancy of every declared resource.

    ``issue_at(node, k)`` maps (node, iteration) to the absolute issue
    cycle; oversubscription of any resource's slots is appended to
    ``violations`` (the memory bus keeps its historical message text).
    """
    slots = lib.resource_slots()
    usage: dict[str, dict[int, int]] = {r: {} for r in slots}
    tracked = [(n, lib.node_resources(n)) for n in nodes
               if lib.node_resources(n)]
    for k in range(iterations):
        for n, res in tracked:
            t = issue_at(n, k)
            for r in res:
                occ = usage[r].get(t, 0) + 1
                usage[r][t] = occ
                if occ > slots[r]:
                    if r == "mem":
                        violations.append(
                            f"cycle {t}: {occ} memory refs > "
                            f"{slots[r]} ports")
                    else:
                        violations.append(
                            f"cycle {t}: {occ} {r} issues > "
                            f"{slots[r]} slots")
    return usage


def simulate_modulo(dfg: DFG, lib: OperatorLibrary, sched: ModuloSchedule,
                    iterations: int,
                    edges: Optional[EdgeView] = None) -> SimulationResult:
    """Replay a modulo schedule: iteration ``k`` issues at ``k * II``."""
    edges = edges if edges is not None else default_edge_view(dfg)
    violations: list[str] = []
    usage = _replay_resources(
        dfg.nodes, lib,
        lambda n, k: k * sched.ii + sched.time[n.nid],
        iterations, violations)
    ports = usage.get("mem", {})
    # Dependence check across overlapped iterations.  A modulo schedule
    # is periodic, so the start-time gap of an edge is the same for every
    # source iteration k; the replay window only needs to cover the
    # largest dependence distance plus the iterations a single schedule
    # length keeps in flight.  (The old code hardcoded ``range(min(
    # iterations, 4))`` and skipped any pairing past the replayed
    # iterations, so distance > 4 edges — e.g. squash(8) backedges — and
    # short replays were never checked at all.)  Replaying the window,
    # rather than evaluating the k-invariant inequality once, is
    # deliberate: this validator is an *independent dynamic check* and
    # must not share its algebra with the scheduler's own static
    # violation scan (``SchedProblem.violations``).
    if iterations and sched.ii > 0:
        max_dist = max((dist for _, _, dist in edges), default=0)
        in_flight = -(-sched.length // sched.ii)  # ceil: overlap depth
        window = min(iterations, max_dist + in_flight + 1)
        for s, d, dist in edges:
            delay_s = lib.delay(s)  # k-invariant: hoisted out of the replay
            for k in range(window):
                t_src = k * sched.ii + sched.time[s.nid] + delay_s
                t_dst = (k + dist) * sched.ii + sched.time[d.nid]
                if t_dst < t_src:
                    violations.append(
                        f"dependence {s}->{d} (dist {dist}) violated "
                        f"at iter {k}")
                    break  # periodic: one report per edge suffices

    total = (iterations - 1) * sched.ii + sched.length if iterations else 0
    return SimulationResult(
        iterations=iterations, total_cycles=total,
        port_peak=max(ports.values(), default=0),
        port_cycles_used=len(ports), violations=violations,
        resource_peaks={r: max(occ.values(), default=0)
                        for r, occ in usage.items()})


def simulate_sequential(dfg: DFG, lib: OperatorLibrary, sched: ListSchedule,
                        iterations: int) -> SimulationResult:
    """Replay the non-pipelined design: iterations run back to back."""
    violations: list[str] = []
    usage = _replay_resources(
        dfg.nodes, lib,
        lambda n, k: k * sched.length + sched.time[n.nid],
        iterations, violations)
    ports = usage.get("mem", {})
    return SimulationResult(
        iterations=iterations, total_cycles=iterations * sched.length,
        port_peak=max(ports.values(), default=0),
        port_cycles_used=len(ports), violations=violations,
        resource_peaks={r: max(occ.values(), default=0)
                        for r, occ in usage.items()})


def occupancy_timeline(dfg: DFG, lib: OperatorLibrary, sched: ModuloSchedule,
                       iterations: int, horizon: int) -> dict[str, list[int]]:
    """Per-operator busy/idle timeline (data for thesis Fig. 2.4).

    Returns ``op label -> [iteration-number-or--1 per cycle]`` where -1
    marks idle cycles, for the first ``horizon`` cycles.
    """
    ops = [n for n in dfg.nodes if n.is_operator and n.kind != "inc"]
    timeline = {f"{lib.key_for(n)}#{n.nid}": [-1] * horizon for n in ops}
    for k in range(iterations):
        base = k * sched.ii
        for n in ops:
            label = f"{lib.key_for(n)}#{n.nid}"
            start = base + sched.time[n.nid]
            for c in range(start, min(start + max(lib.delay(n), 1), horizon)):
                if c < horizon:
                    timeline[label][c] = k
    return timeline
