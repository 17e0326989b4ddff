"""Non-pipelined list scheduling — the ``original`` evaluation variant.

Iterations execute back to back: the initiation interval equals the
resource-constrained makespan of a single iteration.  Dependence-feasible
ASAP placement under the library's generalized resource model: a node
issues at the first cycle where every resource it occupies
(:meth:`~repro.hw.ops.OperatorLibrary.node_resources`) still has a free
slot.  On the spatial datapath that is the memory bus limited to
``mem_ports`` references per absolute cycle; VLIW targets add
issue-width and functional-unit rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.dfg import DFG, DFGNode
from repro.hw.ops import OperatorLibrary

__all__ = ["ListSchedule", "list_schedule"]


@dataclass
class ListSchedule:
    """Resource-constrained schedule of one iteration."""

    time: dict[int, int] = field(default_factory=dict)
    length: int = 0                    # makespan == non-pipelined II
    #: per-resource occupancy: resource name -> cycle -> count
    resource_usage: dict[str, dict[int, int]] = field(default_factory=dict)

    def start(self, node: DFGNode) -> int:
        return self.time[node.nid]


def list_schedule(dfg: DFG, lib: OperatorLibrary) -> ListSchedule:
    """ASAP schedule of the distance-0 subgraph under resource limits
    (placed by :func:`repro.hw.sched_kernel.list_schedule_arrays`)."""
    from repro.hw import sched_kernel

    time, usage, length = sched_kernel.list_schedule_arrays(dfg, lib)
    return ListSchedule(time=time, length=length, resource_usage=usage)
