"""The cycle-accurate VLIW replay, differential against the interpreter.

Every Table 6.1 kernel's inner loop is modulo-scheduled on ``vliw4``,
replayed bundle by bundle *with values*, and compared — final carried
scalars and all array contents — against the IR interpreter executing
the same loop sequentially from the same initial state.  The replay's
own invariants (issue width, unit slots, operand readiness) are checked
on the way.
"""

import random

import numpy as np
import pytest

from repro.analysis.loops import trip_count
from repro.core.squash import analyze_nest
from repro.hw.schedulers import scheduler_by_name
from repro.nimble.compiler import _kernel_program
from repro.nimble.target import decode_target
from repro.vliw.simulate import interpreter_reference, random_live_ins, \
    vliw_replay
from repro.workloads import benchmark_by_name, table_6_1_benchmarks

KERNELS = tuple(bm.name for bm in table_6_1_benchmarks())


def _differential(kernel, spec, scheduler, seed):
    bm = benchmark_by_name(kernel)
    prog, nest = _kernel_program(kernel)
    target = decode_target(spec)
    work, w_nest, ssa, dfg, _, check = analyze_nest(
        prog, nest, 1, delay_fn=target.library.delay)
    sched = scheduler_by_name(scheduler).schedule(dfg, target.library)
    init = random_live_ins(work, w_nest, ssa, random.Random(seed),
                           params=bm.params)
    iters = trip_count(w_nest.inner)
    assert iters and iters > 1

    rep = vliw_replay(dfg, ssa, target.library, sched, work, iters,
                      init_regs=init, iv_step=w_nest.inner.step)
    assert rep.ok, rep.violations[:3]

    ref = interpreter_reference(work, w_nest.inner, init, params=bm.params)
    for name in work.arrays:
        np.testing.assert_array_equal(
            rep.arrays[name], ref.arrays[name],
            err_msg=f"{kernel}@{spec}/{scheduler}: array {name!r} diverged")
    carried = {x for x in check.liveness.carried if x in ssa.entry}
    for name in carried:
        assert rep.scalars[name] == ref.scalars[name], \
            f"{kernel}@{spec}/{scheduler}: carried {name!r} diverged"
    return rep, sched, target


class TestWorkloadSuiteDifferential:
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_values_match_the_interpreter(self, kernel):
        rep, sched, target = _differential(kernel, "vliw4", "modulo", 11)
        assert rep.issue_peak <= target.library.issue_width
        for unit, slots in target.library.resource_slots().items():
            assert rep.unit_peaks.get(unit, 0) <= slots

    def test_backtrack_replays_identically(self):
        _differential("des-mem", "vliw4", "backtrack", 13)

    def test_exact_replays_identically(self):
        # skipjack: the heuristic meets the MII bound, so the exact
        # strategy certifies instantly (des-mem's full branch-and-bound
        # on vliw4 is a slow-tier concern, not a value-semantics one)
        _differential("skipjack-mem", "vliw4", "exact", 13)

    def test_narrow_machine_still_correct(self):
        """Halving every unit changes the schedule, never the values."""
        _differential("skipjack-mem", "vliw4::issue=2,alu=1,mul=1,mem=1",
                      "modulo", 17)

    def test_acev_schedules_replay_through_the_same_value_layer(self):
        """The value layer is schedule-agnostic: an ACEV modulo schedule
        of the same DFG computes the same values."""
        _differential("iir", "acev", "modulo", 19)

    def test_total_cycles_and_bundles_are_reported(self):
        rep, sched, _ = _differential("iir", "vliw4", "modulo", 23)
        assert rep.ii == sched.ii
        assert rep.total_cycles == (rep.iterations - 1) * sched.ii \
            + sched.length
        assert rep.bundle_count > 0


class TestReplayCatchesBrokenSchedules:
    """Mutation checks: the replay is a real validator, not a rubber
    stamp — corrupting a legal schedule must surface violations."""

    def _parts(self):
        bm = benchmark_by_name("des-mem")
        prog, nest = _kernel_program("des-mem")
        target = decode_target("vliw4")
        work, w_nest, ssa, dfg, _, _ = analyze_nest(
            prog, nest, 1, delay_fn=target.library.delay)
        sched = scheduler_by_name("modulo").schedule(dfg, target.library)
        init = random_live_ins(work, w_nest, ssa, random.Random(3),
                               params=bm.params)
        return work, w_nest, ssa, dfg, target, sched, init

    def test_oversubscribed_bundle_is_flagged(self):
        import dataclasses
        work, w_nest, ssa, dfg, target, sched, init = self._parts()
        lib = target.library
        crowded = dataclasses.replace(
            sched, time=dict(sched.time),
            rt={r: dict(v) for r, v in sched.rt.items()})
        mems = [n for n in dfg.nodes if "mem" in lib.node_resources(n)]
        assert len(mems) > lib.mem_ports
        for n in mems:  # pile every memory op onto one row
            crowded.time[n.nid] = crowded.time[mems[0].nid]
        rep = vliw_replay(dfg, ssa, lib, crowded, work, 4, init_regs=init,
                          iv_step=w_nest.inner.step)
        assert any("mem issues" in v or "issue issues" in v
                   for v in rep.violations)

    def test_premature_consumption_is_flagged(self):
        import dataclasses
        work, w_nest, ssa, dfg, target, sched, init = self._parts()
        lib = target.library
        # pull one operator with a latency-bearing predecessor to cycle 0
        broken = dataclasses.replace(sched, time=dict(sched.time))
        victim = next(
            n for n in dfg.topo_order()
            if sched.time[n.nid] > 0 and n.is_operator
            and any(e.dist == 0 and lib.delay(e.src) > 0
                    for e in dfg.preds(n)))
        broken.time[victim.nid] = 0
        rep = vliw_replay(dfg, ssa, lib, broken, work, 4, init_regs=init,
                          iv_step=w_nest.inner.step)
        assert any("before its result is ready" in v
                   for v in rep.violations)
