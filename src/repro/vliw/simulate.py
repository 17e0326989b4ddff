"""Cycle-accurate VLIW replay: issue bundles, units, *and values*.

:mod:`repro.hw.simulate` only counts a schedule's cycles (the pipeline's
validate stage is the static re-verifier, :mod:`repro.verify.schedule`).
This module replays a modulo schedule the way a VLIW core would execute it —
cycle by cycle, bundle by bundle — and additionally **computes every
operation's value** with the IR's scalar semantics
(:func:`repro.ir.interp.eval_binop` / :func:`~repro.ir.interp.
cast_value`), reading each operand from the producing operation of the
correct in-flight iteration.  The replay therefore cross-checks three
things at once:

* **bundles** — no cycle issues more operations than the machine's
  issue width or any functional unit's slot count;
* **timing** — every operand is produced, and its latency elapsed,
  before the cycle that consumes it (an independent re-derivation of
  the dependence rule, not shared with the scheduler's algebra);
* **semantics** — final register values and array contents equal the
  IR interpreter's, via :func:`interpreter_reference` (the inner loop
  replayed sequentially by :func:`repro.ir.interp.run_program`).

The value layer is schedule-agnostic — any legal modulo schedule of the
same DFG must produce the same values — so the differential tests also
run it against ACEV schedules (satellite property tests on
:mod:`repro.ir.randgen` kernels).
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.core.dfg import DFG, DFGNode
from repro.errors import ReproError
from repro.hw.modulo import ModuloSchedule
from repro.hw.ops import OperatorLibrary
from repro.ir.interp import ExecutionResult, array_storage, cast_value, \
    eval_binop, run_program
from repro.ir.nodes import Assign, BinOp, Block, Cast, Const, Expr, For, \
    Load, Program, Select, Store, UnOp, Var

if TYPE_CHECKING:
    import numpy as np

__all__ = ["VLIWReplay", "interpreter_reference", "random_live_ins",
           "vliw_replay"]


@dataclass
class VLIWReplay:
    """Outcome of one cycle-accurate replay."""

    iterations: int
    ii: int
    total_cycles: int
    #: cycles that issued at least one operation
    bundle_count: int
    #: peak operations started in one cycle
    issue_peak: int
    #: per-resource peak occupancy (issue width, FU classes, ...)
    unit_peaks: dict[str, int] = field(default_factory=dict)
    violations: list[str] = field(default_factory=list)
    #: final live-in register values by variable name
    scalars: dict[str, "int | float"] = field(default_factory=dict)
    #: final array contents (ROMs included, unchanged)
    arrays: dict[str, np.ndarray] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.violations


def _const_value(node: DFGNode):
    """Recover a const node's literal (stored as ``repr(value)``)."""
    return ast.literal_eval(node.name or "0")


class _Replay:
    """One replay run; see :func:`vliw_replay` for the public contract."""

    def __init__(self, dfg: DFG, ssa, lib: OperatorLibrary,
                 sched: ModuloSchedule, program: Program,
                 init_regs: dict, iv_step: int):
        self.dfg = dfg
        self.ssa = ssa
        self.lib = lib
        self.sched = sched
        self.program = program
        self.iv_step = iv_step
        self.vals: dict[tuple[int, int], object] = {}  # (nid, iter) -> value
        self.violations: list[str] = []
        self.storage = {name: array_storage(decl)
                        for name, decl in program.arrays.items()}
        self.init_regs = dict(init_regs)
        #: reg node -> its (unique) distance-1 in-edge source, if any
        self.latch: dict[int, DFGNode] = {}
        for e in dfg.edges:
            if e.dist >= 1 and e.dst.kind == "reg" and e.kind == "data":
                self.latch[e.dst.nid] = e.src
        self.delays = {n.nid: lib.delay(n) for n in dfg.nodes}
        #: data-dependence operands per node, for the timing cross-check
        self.data_preds: dict[int, list[tuple[DFGNode, int]]] = \
            {n.nid: [] for n in dfg.nodes}
        for e in dfg.edges:
            if e.kind == "data":
                self.data_preds[e.dst.nid].append((e.src, e.dist))

    # -- value semantics ---------------------------------------------------

    def _reg_init(self, node: DFGNode):
        raw = self.init_regs.get(node.name, 0)
        return cast_value(raw, node.ty)

    def _read(self, leaf: Expr, k: int):
        """Resolve one 3AC leaf exactly as the interpreter's env would:
        the producing node's value, wrapped to the SSA version's declared
        type (assignment-cast semantics survive copy aliasing)."""
        if isinstance(leaf, Const):
            return leaf.value
        if not isinstance(leaf, Var):
            raise ReproError(
                f"simulator read a non-3AC leaf {type(leaf).__name__} — "
                "the scheduled DFG was not built from flattened statements")
        node = self.dfg.defs[leaf.name]
        return cast_value(self.vals[(node.nid, k)],
                          self.ssa.types[leaf.name])

    def _compute(self, node: DFGNode, k: int):
        """The node's value in iteration ``k`` (operands already ready)."""
        if node.kind == "const":
            return _const_value(node)
        if node.kind == "reg":
            if k == 0:
                return self._reg_init(node)
            src = self.latch.get(node.nid)
            if src is None:  # read-only live-in without a cycle
                return self._reg_init(node)
            return cast_value(self.vals[(src.nid, k - 1)], node.ty)
        if node.kind == "inc":
            (reg, _), = [(s, d) for s, d in self.data_preds[node.nid]
                         if d == 0]
            return eval_binop("add", self.vals[(reg.nid, k)], self.iv_step,
                              node.ty)
        stmt = node.stmt
        if isinstance(stmt, Assign):
            raw = self._expr(stmt.expr, k)
            return cast_value(raw, self.ssa.types[stmt.var])
        if isinstance(stmt, Store):
            decl = self.program.arrays[stmt.array]
            idx = tuple(int(self._read(i, k)) for i in stmt.index)
            if not all(0 <= x < s for x, s in zip(idx, decl.shape)):
                self.violations.append(
                    f"iter {k}: out-of-bounds store {stmt.array}{list(idx)}")
                return None
            self.storage[stmt.array][idx] = \
                cast_value(self._read(stmt.value, k), decl.ty)
            return None
        raise ReproError(f"VLIW replay: node {node!r} has no semantics")

    def _expr(self, e: Expr, k: int):
        if isinstance(e, BinOp):
            return eval_binop(e.op, self._read(e.lhs, k),
                              self._read(e.rhs, k), e.ty)
        if isinstance(e, UnOp):
            v = self._read(e.operand, k)
            if e.op == "neg":
                return cast_value(-v, e.ty)
            from repro.ir.types import wrap_int
            return wrap_int(~int(v), e.ty)
        if isinstance(e, Select):
            c = self._read(e.cond, k)
            t = self._read(e.iftrue, k)
            f = self._read(e.iffalse, k)
            return cast_value(t if c else f, e.ty)
        if isinstance(e, Cast):
            return cast_value(self._read(e.operand, k), e.ty)
        if isinstance(e, Load):
            decl = self.program.arrays[e.array]
            idx = tuple(int(self._read(i, k)) for i in e.index)
            if not all(0 <= x < s for x, s in zip(idx, decl.shape)):
                self.violations.append(
                    f"iter {k}: out-of-bounds load {e.array}{list(idx)}")
                return 0
            v = self.storage[e.array][idx]
            return float(v) if decl.ty.is_float else int(v)
        if isinstance(e, (Var, Const)):  # pragma: no cover - copies alias
            return self._read(e, k)
        raise ReproError(
            f"VLIW replay: unsupported 3AC expression {type(e).__name__}")

    # -- the replay --------------------------------------------------------

    def run(self, iterations: int) -> VLIWReplay:
        sched, lib = self.sched, self.lib
        topo_ix = {n.nid: i for i, n in enumerate(self.dfg.topo_order())}
        events: list[tuple[int, int, int, DFGNode]] = []
        for k in range(iterations):
            base = k * sched.ii
            for n in self.dfg.nodes:
                events.append((base + sched.time[n.nid], k,
                               topo_ix[n.nid], n))
        # cycle order is execution order; same-cycle ties resolve by
        # (iteration, topo index), which any zero-latency producer →
        # consumer chain legal in a modulo schedule respects
        events.sort(key=lambda ev: (ev[0], ev[1], ev[2]))

        slots = lib.resource_slots()
        usage: dict[str, dict[int, int]] = {r: {} for r in slots}
        issue_at = {}
        for cycle, k, _, n in events:
            issue_at[(n.nid, k)] = cycle

        for cycle, k, _, node in events:
            # timing cross-check: every operand produced AND latched
            for src, dist in self.data_preds[node.nid]:
                kk = k - dist
                if kk < 0:
                    continue  # pre-loop value: the register init covers it
                ready = issue_at[(src.nid, kk)] + self.delays[src.nid]
                if ready > cycle:
                    self.violations.append(
                        f"cycle {cycle}: {node!r} (iter {k}) consumes "
                        f"{src!r} (iter {kk}) before its result is ready "
                        f"at {ready}")
            # bundle/unit accounting
            for r in lib.node_resources(node):
                occ = usage[r].get(cycle, 0) + 1
                usage[r][cycle] = occ
                if occ > slots[r]:
                    self.violations.append(
                        f"cycle {cycle}: {occ} {r} issues > {slots[r]} "
                        f"slots")
            try:
                self.vals[(node.nid, k)] = self._compute(node, k)
            except KeyError:
                # an operand was never produced before this bundle — a
                # broken schedule (the readiness check above flagged the
                # edge); keep replaying so every violation is collected
                self.violations.append(
                    f"cycle {cycle}: {node!r} (iter {k}) has no operand "
                    f"value; schedule is not executable")
                self.vals[(node.nid, k)] = 0

        scalars: dict[str, object] = {}
        for name, reg in self.dfg.regs.items():
            src = self.latch.get(reg.nid)
            if src is None or iterations == 0:
                scalars[name] = self._reg_init(reg)
            else:
                scalars[name] = cast_value(
                    self.vals[(src.nid, iterations - 1)], reg.ty)

        issue = usage.get("issue", {})
        busy = {c for occ in usage.values() for c in occ}
        total = (iterations - 1) * sched.ii + sched.length if iterations \
            else 0
        return VLIWReplay(
            iterations=iterations, ii=sched.ii, total_cycles=total,
            bundle_count=len(busy),
            issue_peak=max(issue.values(), default=0),
            unit_peaks={r: max(occ.values(), default=0)
                        for r, occ in usage.items()},
            violations=self.violations, scalars=scalars,
            arrays=self.storage)


def vliw_replay(dfg: DFG, ssa, lib: OperatorLibrary, sched: ModuloSchedule,
                program: Program, iterations: int,
                init_regs: Optional[dict] = None,
                iv_step: int = 1) -> VLIWReplay:
    """Replay ``sched`` for ``iterations`` iterations, computing values.

    ``program`` supplies the array declarations (the analysis-front
    *work* program); ``init_regs`` gives the pre-loop value of every
    live-in register (missing names default to 0); ``iv_step`` is the
    inner loop's induction step.  Values follow the DFG's raw
    dependences, which any legal edge-view relaxation must preserve.
    """
    return _Replay(dfg, ssa, lib, sched, program,
                   init_regs or {}, iv_step).run(iterations)


def random_live_ins(work: Program, nest, ssa, rng,
                    params: Optional[dict] = None) -> dict:
    """Pre-loop values for every live-in register, fit for both engines.

    Data live-ins get random (type-wrapped) values; program parameters
    take their bound values; the outer induction variable is drawn from
    its actual iteration range (it indexes arrays, so an arbitrary
    value would fault the interpreter); the inner induction variable
    starts at the loop's lower bound, mirroring ``For`` semantics.
    """
    from repro.analysis.loops import trip_count

    params = params or {}
    init: dict = {}
    m = trip_count(nest.outer) or 1
    for name in ssa.entry:
        if name == nest.inner.var:
            continue
        if name in work.params:
            init[name] = params.get(name, 0)
        elif name == nest.outer.var:
            lo = nest.outer.lo.value if isinstance(nest.outer.lo, Const) \
                else 0
            init[name] = lo + nest.outer.step * rng.randrange(m)
        else:
            ty = work.scalar_type(name)
            init[name] = cast_value(rng.randrange(0, 1 << 16), ty)
    lo = nest.inner.lo
    init[nest.inner.var] = lo.value if isinstance(lo, Const) else 0
    return init


def interpreter_reference(work: Program, inner: For, init_regs: dict,
                          params: Optional[dict] = None,
                          arrays: Optional[dict] = None) -> ExecutionResult:
    """The IR interpreter's answer for the same inner loop.

    Builds a standalone program — live-in initialization statements
    followed by the (already three-address) inner loop — and runs it
    through :func:`repro.ir.interp.run_program`.  Program parameters
    are bound via ``params`` and skipped in the prelude.
    """
    from repro.ir.visitors import clone_program
    from repro.transforms._util import find_in_clone

    ref = clone_program(work)
    r_inner: For = find_in_clone(ref, work, inner)  # type: ignore[assignment]
    prelude = [Assign(name, Const(cast_value(v, ref.scalar_type(name)),
                                  ref.scalar_type(name)))
               for name, v in init_regs.items()
               if name not in ref.params and name != r_inner.var]
    ref.body = Block(prelude + [r_inner])
    return run_program(ref, params=params, arrays=arrays)
