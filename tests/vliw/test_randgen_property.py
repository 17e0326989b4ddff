"""Property test: random squashable nests on ``acev`` *and* ``vliw4``.

For generator-produced kernels (:func:`repro.ir.randgen.
random_squashable_nest`) both backends must (a) produce schedules that
pass the independent re-verifier (:mod:`repro.verify.schedule`) and the
VLIW bundle replay, and (b) compute exactly the IR interpreter's
values.  The fast tier samples a few seeds; the ``slow``
tier (non-blocking CI job, like the exact oracle's) widens the seed
space and the machine shapes.
"""

import random

import numpy as np
import pytest

from repro.analysis.loops import trip_count
from repro.core.squash import analyze_nest
from repro.hw.schedulers import scheduler_by_name
from repro.ir.randgen import SquashNestSpec, random_squashable_nest
from repro.nimble.target import decode_target
from repro.verify import reverify_modulo
from repro.vliw.simulate import interpreter_reference, random_live_ins, \
    vliw_replay

SPECS = ("acev", "vliw4")


def _check_nest(seed, spec, scheduler="modulo", nest_spec=None):
    rng = random.Random(seed)
    prog, outer = random_squashable_nest(rng, nest_spec)
    from repro.analysis.loops import LoopNest, find_loop_nests
    nest = next(n for n in find_loop_nests(prog) if n.outer is outer)
    target = decode_target(spec)
    work, w_nest, ssa, dfg, _, check = analyze_nest(
        prog, nest, 1, delay_fn=target.library.delay)
    sched = scheduler_by_name(scheduler).schedule(dfg, target.library)

    # (a) the independent re-verifier: dependences, resource rows
    # within their slots, the claimed table, the makespan
    assert reverify_modulo(dfg, target.library, sched) == [], \
        f"seed {seed} on {spec}"

    # (b) cycle-accurate value agreement with the IR interpreter
    init = random_live_ins(work, w_nest, ssa, random.Random(seed + 1))
    iters = trip_count(w_nest.inner)
    rep = vliw_replay(dfg, ssa, target.library, sched, work, iters,
                      init_regs=init, iv_step=w_nest.inner.step)
    assert rep.ok, f"seed {seed} on {spec}: {rep.violations[:3]}"
    ref = interpreter_reference(work, w_nest.inner, init)
    for name in work.arrays:
        np.testing.assert_array_equal(
            rep.arrays[name], ref.arrays[name],
            err_msg=f"seed {seed} on {spec}: array {name!r} diverged")
    carried = {x for x in check.liveness.carried if x in ssa.entry}
    for name in carried:
        assert rep.scalars[name] == ref.scalars[name], \
            f"seed {seed} on {spec}: carried {name!r} diverged"


class TestFastTier:
    @pytest.mark.parametrize("spec", SPECS)
    @pytest.mark.parametrize("seed", (2, 7, 23))
    def test_random_nests_schedule_and_agree(self, spec, seed):
        _check_nest(seed, spec)

    def test_backtrack_strategy_too(self):
        _check_nest(5, "vliw4", scheduler="backtrack")


@pytest.mark.slow
class TestExhaustiveTier:
    @pytest.mark.parametrize("spec", SPECS + ("vliw4::issue=2,alu=1,mem=1",
                                              "vliw4::mul=2,regs=128"))
    @pytest.mark.parametrize("seed", tuple(range(24)))
    def test_wide_seed_sweep(self, spec, seed):
        _check_nest(seed, spec)

    @pytest.mark.parametrize("seed", tuple(range(8)))
    def test_bigger_nests(self, seed):
        _check_nest(seed, "vliw4",
                    nest_spec=SquashNestSpec(m=8, n=7, n_state=4, n_ops=10))
