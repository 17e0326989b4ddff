"""Cycle accounting of scheduled datapaths.

The end-to-end execution time model behind the Table 6.3 speedups
(``total_cycles``), the per-resource peak occupancy of a replay window
(``resource_peaks``), and the Fig. 2.4 operator-occupancy timeline.
Nothing here judges a schedule: that is the independent re-verifier's
job (:mod:`repro.verify.schedule`), which the pipeline's validate stage
runs on every design.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dfg import DFG
from repro.hw.listsched import ListSchedule
from repro.hw.modulo import ModuloSchedule
from repro.hw.ops import OperatorLibrary

__all__ = ["SimulationResult", "simulate_modulo", "simulate_sequential",
           "occupancy_timeline"]


@dataclass
class SimulationResult:
    """Total cycles and resource peaks of a schedule's replay."""

    total_cycles: int
    #: per-resource peak occupancy over the replay window
    resource_peaks: dict[str, int] = field(default_factory=dict)


def _resource_peaks(nodes, lib: OperatorLibrary, issue_at,
                    iterations: int) -> dict[str, int]:
    """Peak per-cycle occupancy of every declared resource.

    ``issue_at(node, k)`` maps (node, iteration) to the absolute issue
    cycle.
    """
    usage: dict[str, dict[int, int]] = {r: {} for r in lib.resource_slots()}
    tracked = [(n, lib.node_resources(n)) for n in nodes
               if lib.node_resources(n)]
    for k in range(iterations):
        for n, res in tracked:
            t = issue_at(n, k)
            for r in res:
                usage[r][t] = usage[r].get(t, 0) + 1
    return {r: max(occ.values(), default=0) for r, occ in usage.items()}


def simulate_modulo(dfg: DFG, lib: OperatorLibrary, sched: ModuloSchedule,
                    iterations: int) -> SimulationResult:
    """Replay a modulo schedule: iteration ``k`` issues at ``k * II``."""
    total = (iterations - 1) * sched.ii + sched.length if iterations else 0
    return SimulationResult(
        total_cycles=total,
        resource_peaks=_resource_peaks(
            dfg.nodes, lib, lambda n, k: k * sched.ii + sched.time[n.nid],
            iterations))


def simulate_sequential(dfg: DFG, lib: OperatorLibrary, sched: ListSchedule,
                        iterations: int) -> SimulationResult:
    """Replay the non-pipelined design: iterations run back to back."""
    return SimulationResult(
        total_cycles=iterations * sched.length,
        resource_peaks=_resource_peaks(
            dfg.nodes, lib, lambda n, k: k * sched.length + sched.time[n.nid],
            iterations))


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
