"""Hardware operator library — delays (cycles) and areas (rows).

Models the ACEV-class datapath of thesis §5.1/§6.1: the FPGA wrapper
organizes logic in *rows*; every operator instance occupies rows and has
a latency in clock cycles.  Key modeling decisions taken straight from
the thesis:

* **registers are regular operators, each taking a whole row** ("our
  prototype implements the registers as regular operators, i.e., each
  taking a whole row", §6.3) — the packed-shift-register ablation
  (:mod:`benchmarks.bench_ablation_register_packing`) relaxes this;
* **memory references**: at most ``mem_ports`` per clock cycle (§6.1,
  two allowed); ROM lookups are on-chip tables and do not use the bus;
* **floating point** operators are deep but fully pipelinable (§5.4:
  "we modeled some operators such as floating point arithmetic to allow
  deeper pipelining").

All numbers are per-design-point constants of *our* cost model; the
reproduction tracks the paper's relative shapes, not its absolute rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.caches import Memo
from repro.core.dfg import DFGNode

__all__ = ["OpSpec", "OperatorLibrary", "ACEV_LIBRARY", "GARP_LIBRARY"]


@dataclass(frozen=True)
class OpSpec:
    """Latency and area of one operator class."""

    delay: int
    rows: int


#: The spec of every non-operator node (registers, constants, copies).
_FREE = OpSpec(0, 0)


def _default_table() -> dict[str, OpSpec]:
    return {
        # integer arithmetic
        "add": OpSpec(1, 2), "sub": OpSpec(1, 2),
        "min": OpSpec(1, 2), "max": OpSpec(1, 2),
        "mul": OpSpec(2, 8),
        "div": OpSpec(8, 16), "mod": OpSpec(8, 16),
        # logic / shifts
        "and": OpSpec(1, 1), "or": OpSpec(1, 1), "xor": OpSpec(1, 1),
        "not": OpSpec(1, 1), "neg": OpSpec(1, 1),
        "shl": OpSpec(1, 1), "shr": OpSpec(1, 1),
        # comparisons and selection
        "lt": OpSpec(1, 1), "le": OpSpec(1, 1), "gt": OpSpec(1, 1),
        "ge": OpSpec(1, 1), "eq": OpSpec(1, 1), "ne": OpSpec(1, 1),
        "select": OpSpec(1, 2),
        "cast": OpSpec(0, 0),
        # memory
        "load": OpSpec(2, 2), "store": OpSpec(1, 2),
        "rom_load": OpSpec(1, 4),
        # floating point (pipelinable, §5.4)
        "fadd": OpSpec(3, 12), "fsub": OpSpec(3, 12),
        "fmul": OpSpec(4, 20), "fdiv": OpSpec(12, 40),
        "fmin": OpSpec(1, 4), "fmax": OpSpec(1, 4),
    }


@dataclass
class OperatorLibrary:
    """Maps DFG nodes to :class:`OpSpec`; parameterized per target.

    Besides costs, the library describes the machine's *shared
    resources* through two hooks the schedulers consume:

    * :meth:`resource_slots` — named resources with per-cycle slot
      capacities (the rows of the generalized reservation table);
    * :meth:`node_resources` — which of those resources one DFG node
      occupies for a cycle when it issues.

    On the spatial FPGA datapath every operator is its own functional
    unit, so the base library exposes a single resource — the memory
    bus (``"mem"``, ``mem_ports`` slots) — and the generalized
    machinery degenerates to the thesis's memory-port MRT exactly.
    Issue-slot architectures (:mod:`repro.vliw.machine`) override both
    hooks with per-functional-unit rows.
    """

    name: str = "acev"
    table: dict[str, OpSpec] = field(default_factory=_default_table)
    #: rows per register ("registers as regular operators": 1 row each)
    reg_rows: float = 1.0
    #: memory-bus references allowed per clock cycle
    mem_ports: int = 2
    #: architected register-file capacity; ``None`` means unbounded
    #: (the spatial datapath synthesizes registers, it never runs out) —
    #: finite capacities trigger the pipeline's register-pressure II bump
    register_file: "int | None" = None

    def key_for(self, node: DFGNode) -> str:
        if node.kind in ("load", "store", "rom_load", "select", "cast"):
            return node.kind
        if node.kind == "inc":
            return "add"
        op = node.op or ""
        if node.ty.is_float and op in ("add", "sub", "mul", "div", "min", "max"):
            return f"f{op}"
        return op

    def spec(self, node: DFGNode) -> OpSpec:
        if not node.is_operator:
            return _FREE
        key = self.key_for(node)
        try:
            return self.table[key]
        except KeyError:  # pragma: no cover - defensive
            raise KeyError(f"no operator spec for DFG node {node!r} ({key})")

    def delay(self, node: DFGNode) -> int:
        """Latency in cycles (0 for registers/constants/copies)."""
        return self.spec(node).delay

    def rows(self, node: DFGNode) -> int:
        """Area in rows."""
        return self.spec(node).rows

    # -- generalized reservation-table resource model ----------------------

    def resource_slots(self) -> dict[str, int]:
        """Named shared resources and their per-cycle slot capacities.

        The base datapath shares only the memory bus; subclasses add
        issue slots and functional-unit rows.  Keys are stable strings
        (``"mem"``, ``"issue"``, ``"alu"``, ...) — the reservation
        tables, II-search memo signatures, and simulators are all keyed
        by them.
        """
        return {"mem": self.mem_ports}

    def node_resources(self, node: DFGNode) -> tuple[str, ...]:
        """Resources ``node`` occupies for one cycle when it issues.

        Must return a subset of :meth:`resource_slots`'s keys; an empty
        tuple means the operation is spatial/free (its own hardware).
        """
        if node.kind in ("load", "store"):
            return ("mem",)
        return ()

    def resource_use_counts(self, nodes) -> dict[str, int]:
        """Total per-resource issue counts over ``nodes`` (ResMII input)."""
        uses: dict[str, int] = {}
        for n in nodes:
            for r in self.node_resources(n):
                uses[r] = uses.get(r, 0) + 1
        return uses

    def with_ports(self, ports: int) -> "OperatorLibrary":
        return replace(self, mem_ports=ports, table=dict(self.table))

    def with_packed_registers(self, rows_per_register: float) -> "OperatorLibrary":
        """Ablation: registers packed into shift registers (§4.4/§6.3)."""
        return replace(self, reg_rows=rows_per_register, table=dict(self.table))

    def with_op_delay(self, op: str, delay: int) -> "OperatorLibrary":
        """Override one operator class's latency (design-space axis)."""
        table = dict(self.table)
        try:
            spec = table[op]
        except KeyError:
            raise KeyError(f"unknown operator {op!r}; have {sorted(table)}")
        table[op] = OpSpec(delay=delay, rows=spec.rows)
        return replace(self, table=table)


#: Identity-keyed per-(dfg, lib) node-delay maps: the pressure and
#: register-area accountants re-read every producer's latency once per
#: edge per schedule, and the register-pressure II bump re-enters them
#: once per floor — all over the same frozen (dfg, lib) pair.  Keys pin
#: their objects, so ids stay valid while an entry lives.  Per batch: an
#: entry lives until the engine's batch lands.
_DELAY_MAPS = Memo("delay_map", 1024, per_batch=True)


def cached_delay_map(dfg, lib: OperatorLibrary) -> dict[int, int]:
    """``node id -> lib.delay(node)`` memo for one frozen (dfg, lib)."""
    return _DELAY_MAPS.get((id(dfg), id(lib)),
                           lambda: {n.nid: lib.delay(n) for n in dfg.nodes},
                           (dfg, lib))


#: Default target: the ACEV board of §6.1 (2 memory references/cycle).
ACEV_LIBRARY = OperatorLibrary(name="acev", mem_ports=2)

#: A GARP-like alternative with a single memory bus (used in ablations).
GARP_LIBRARY = OperatorLibrary(name="garp", mem_ports=1)
