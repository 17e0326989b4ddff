"""Area (rows) and register estimation for the four design variants.

The thesis reports three raw numbers per design (Table 6.2): II, area in
rows, and register count.  This module supplies the area/register half:

* **operator rows** — sum of the operator library's per-op rows over the
  DFG (constants and pure copies are free; registers are counted
  separately at ``lib.reg_rows`` each, 1.0 by default per §6.3);
* **registers**:
  - *original*: one holding register per live-in of the loop;
  - *pipelined / jammed*: modulo-scheduling lifetime registers — a value
    alive for ``l`` cycles under initiation interval ``II`` needs
    ``ceil(l / II)`` rotating copies (plus its holding register);
  - *squashed*: the shift-register chains of
    :func:`repro.core.stages.register_chains`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.dfg import DFG
from repro.hw.modulo import ModuloSchedule
from repro.hw.ops import OperatorLibrary

__all__ = ["AreaEstimate", "operator_rows", "registers_original",
           "registers_pipelined", "area_estimate"]


@dataclass
class AreaEstimate:
    """Rows split into operators and registers."""

    op_rows: int
    registers: int
    reg_rows: float

    @property
    def total_rows(self) -> float:
        return self.op_rows + self.registers * self.reg_rows

    @property
    def operator_fraction(self) -> float:
        """Operators as a fraction of total area (Fig. 6.4)."""
        total = self.total_rows
        return self.op_rows / total if total else 1.0


def operator_rows(dfg: DFG, lib: OperatorLibrary) -> int:
    """Sum of operator areas over the DFG."""
    return sum(lib.rows(n) for n in dfg.nodes if n.is_operator)


def registers_original(dfg: DFG) -> int:
    """Holding registers of the sequential design: one per live-in."""
    return max(1, len(dfg.regs))


def registers_pipelined(dfg: DFG, lib: OperatorLibrary,
                        sched: ModuloSchedule,
                        edges=None) -> int:
    """Lifetime-based register need under a modulo schedule.

    A value only occupies a register for the cycles it lives *beyond* its
    producing operator's latency (values consumed combinationally as they
    are produced cost nothing); under initiation interval II, a residual
    lifetime of ``l`` cycles requires ``ceil(l / II)`` rotating copies.
    Live-in holding registers are always present.
    """
    from repro.hw.mii import default_edge_view
    from repro.hw.ops import cached_delay_map
    edges = edges if edges is not None else default_edge_view(dfg)
    delays = cached_delay_map(dfg, lib)
    life: dict[int, int] = {}
    for s, d, dist in edges:
        if s.kind == "const":
            continue
        lifetime = sched.time[d.nid] + sched.ii * dist - sched.time[s.nid]
        life[s.nid] = max(life.get(s.nid, 0), lifetime)
    regs = 0
    for nid, l in life.items():
        residual = l - delays.get(nid, 0)
        if residual > 0:
            regs += math.ceil(residual / sched.ii)
    return max(regs + len(dfg.regs), registers_original(dfg))


def area_estimate(dfg: DFG, lib: OperatorLibrary, registers: int) -> AreaEstimate:
    """Combine operator rows with a register count."""
    return AreaEstimate(op_rows=operator_rows(dfg, lib), registers=registers,
                        reg_rows=lib.reg_rows)
