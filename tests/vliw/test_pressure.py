"""Register-pressure accounting, the recurrence floor, and the II bump."""

import os
import random
import subprocess
import sys

import pytest

from repro.core.dfg import DFG
from repro.errors import LegalityError, ScheduleError
from repro.hw.mii import default_edge_view, res_mii
from repro.hw.schedulers import scheduler_by_name
from repro.hw.simulate import simulate_modulo
from repro.nimble.compiler import _kernel_program
from repro.nimble.target import decode_target
from repro.pipeline import VARIANT_PLANS, CompilationPipeline
from repro.verify import reverify_modulo
from repro.vliw.pressure import pressure_floor, register_pressure

#: The Table 6.1 kernels and the pipelined half of the suite design space
#: (the ``original`` variant is list-scheduled and has no pressure).
SUITE = ("skipjack-mem", "skipjack-hw", "des-mem", "des-hw", "iir")
FACTORS = (2, 4, 8, 16, 32)
DESIGNS = ([("pipelined", 1, 1)]
           + [(v, ds, 1) for v in ("squash", "jam") for ds in FACTORS]
           + [("jam+squash", ds, j) for ds in FACTORS for j in (2, 4)])


def _schedule(kernel, spec, scheduler="modulo"):
    from repro.core.squash import analyze_nest
    prog, nest = _kernel_program(kernel)
    t = decode_target(spec)
    _, _, _, dfg, _, _ = analyze_nest(prog, nest, 1,
                                      delay_fn=t.library.delay)
    sched = scheduler_by_name(scheduler).schedule(dfg, t.library)
    return dfg, t.library, sched


class TestPressureModel:
    def test_stores_produce_no_live_values(self):
        """Memory-ordering edges out of stores are constraints, not data
        flow — they must not count as register lifetimes."""
        from repro.core.dfg import DFG
        from repro.hw.modulo import ModuloSchedule
        from repro.ir.types import U32
        from repro.vliw.machine import VLIW4_LIBRARY
        from repro.vliw.pressure import max_live

        g = DFG()
        a = g.add_node(kind="reg", ty=U32, name="a")
        st = g.add_node(kind="store", ty=U32, array="m")
        ld = g.add_node(kind="load", ty=U32, array="m")
        st2 = g.add_node(kind="store", ty=U32, array="m")
        g.add_edge(a, st, 0)                # data: the store consumes a
        g.add_edge(st, ld, 0, kind="mem")   # ordering only, no value
        g.add_edge(ld, st2, 0, kind="mem")  # antidependence, no value
        g.add_edge(a, a, 1)                 # invariant live-in
        sched = ModuloSchedule(
            ii=4, time={a.nid: 0, st.nid: 0, ld.nid: 8, st2.nid: 20},
            rec_mii=0, res_mii=0)
        # only the invariant register is live: the store kept 'alive'
        # until the distant load, and the load kept 'alive' until the
        # antidependent store, would each add 1
        assert max_live(g, VLIW4_LIBRARY, sched) == 1

    def test_pressure_reports_both_models(self):
        dfg, lib, sched = _schedule("iir", "vliw4")
        p = register_pressure(dfg, lib, sched)
        assert p.capacity == 64 and p.rotating
        assert 0 < p.max_live <= p.mve_registers
        assert p.required == p.max_live

    def test_non_rotating_file_pays_mve(self):
        dfg, lib, sched = _schedule("iir", "vliw4::rotating=0")
        p = register_pressure(dfg, lib, sched)
        assert not p.rotating and p.required == p.mve_registers

    def test_unbounded_capacity_always_fits(self):
        from repro.hw import ACEV_LIBRARY
        dfg, _, sched = _schedule("iir", "acev")
        p = register_pressure(dfg, ACEV_LIBRARY, sched)
        assert p.capacity is None and p.fits


class TestIIBump:
    def test_bump_lifts_ii_until_the_schedule_fits(self):
        prog, nest = _kernel_program("des-hw")
        wide = CompilationPipeline(decode_target("vliw4")) \
            .compile(prog, nest, "pipelined")
        tight = CompilationPipeline(decode_target("vliw4::regs=32")) \
            .compile(prog, nest, "pipelined")
        assert wide.max_live is not None and wide.max_live <= 64
        assert tight.max_live is not None and tight.max_live <= 32
        assert tight.ii >= wide.ii  # pressure cost is paid in II
        assert tight.reg_capacity == 32

    def test_spatial_targets_carry_no_pressure_fields(self):
        prog, nest = _kernel_program("des-hw")
        p = CompilationPipeline(decode_target("acev")) \
            .compile(prog, nest, "pipelined")
        assert p.max_live is None and p.reg_capacity is None

    def test_infeasible_pressure_is_a_schedule_reject(self):
        prog, nest = _kernel_program("iir")
        pipe = CompilationPipeline(decode_target("vliw4::regs=8"))
        with pytest.raises(ScheduleError, match="register pressure"):
            pipe.compile(prog, nest, "pipelined")

    def test_deep_squash_overflows_any_finite_file(self):
        """Squash keeps DS data sets live at once; a register file (unlike
        the FPGA's synthesized shift chains) caps the usable depth."""
        prog, nest = _kernel_program("iir")
        pipe = CompilationPipeline(decode_target("vliw4"))
        with pytest.raises(ScheduleError, match="register pressure"):
            pipe.compile(prog, nest, "squash", ds=8)

    def test_bumped_schedule_still_validates(self):
        """The accepted schedule passes the independent re-verifier
        (issue slots, FU rows, dependences), and its replay never
        exceeds the machine's issue width or memory units."""
        target = decode_target("vliw4::regs=32")
        prog, nest = _kernel_program("des-hw")
        run = CompilationPipeline(target).run(prog, nest, "pipelined")
        a, sched = run.analyzed, run.scheduled.schedule
        assert reverify_modulo(a.dfg, target.library, sched, a.edges) == []
        peaks = simulate_modulo(a.dfg, target.library, sched,
                                6).resource_peaks
        assert peaks["issue"] <= 4 and peaks["mem"] <= 2


def _analyzed(pipe, prog, nest, variant, ds, jam=1):
    """The design's analyzed DFG, or None when legality rejects it."""
    try:
        return VARIANT_PLANS[variant].analyze(prog, nest, ds, jam,
                                              pipe.target, pipe.cache)
    except LegalityError:
        return None


def _floor_at_res_mii(analyzed, lib):
    return pressure_floor(analyzed.dfg, lib, analyzed.edges,
                          res_mii(analyzed.dfg, lib))


def _assert_floor_sound(pipe, prog, nest, designs, tag):
    """(a) Every design the pipeline schedules keeps at least the floor
    live at its own II, under both register models.  Returns how many
    designs were checked."""
    lib = pipe.target.library
    checked = 0
    for variant, ds, jam in designs:
        a = _analyzed(pipe, prog, nest, variant, ds, jam)
        if a is None:
            continue
        try:
            scheduled = pipe._schedule(VARIANT_PLANS[variant], a)
        except ScheduleError as exc:
            assert "register pressure" in str(exc)
            continue
        floor = pressure_floor(a.dfg, lib, a.edges, scheduled.schedule.ii)
        where = f"{tag} {variant} ds={ds} jam={jam}"
        assert floor <= scheduled.pressure.max_live, where
        assert floor <= scheduled.pressure.mve_registers, where
        checked += 1
    return checked


def _assert_floor_rejects_walk_rejects(kernel, spec, scheduler):
    """(b) Every design the floor rejects is rejected by the unchanged
    II walk too.  Returns how many designs the floor rejected."""
    prog, nest = _kernel_program(kernel)
    pipe = CompilationPipeline(decode_target(spec))
    lib = pipe.target.library
    strategy = scheduler_by_name(scheduler)
    proven = 0
    for variant, ds, jam in DESIGNS:
        a = _analyzed(pipe, prog, nest, variant, ds, jam)
        if a is None or _floor_at_res_mii(a, lib) <= lib.register_file:
            continue
        proven += 1
        first = strategy.schedule(a.dfg, lib, edges=a.edges)
        with pytest.raises(ScheduleError, match="register pressure"):
            pipe._fit_register_file(strategy, a, first)
    return proven


def _fuzz_nest(seed):
    from repro.analysis.loops import find_kernel_nests
    from repro.lang import compile_source
    from repro.lang.fuzz import SourceNestSpec, random_source_nest

    rng = random.Random(seed)
    text = random_source_nest(rng, SourceNestSpec.sample(rng))
    prog = compile_source(text, filename=f"<floor:{seed}>")
    return prog, find_kernel_nests(prog)[0]


FUZZ_DESIGNS = [("pipelined", 1, 1), ("squash", 2, 1), ("squash", 4, 1),
                ("squash", 8, 1), ("jam", 2, 1), ("jam", 4, 1),
                ("jam+squash", 2, 2)]


class TestPressureFloor:
    """The schedule-independent recurrence floor of
    :func:`repro.vliw.pressure.pressure_floor`."""

    @pytest.mark.parametrize("scheduler", ["modulo", "backtrack"])
    @pytest.mark.parametrize("kernel", SUITE)
    def test_suite_schedules_meet_the_floor(self, kernel, scheduler):
        prog, nest = _kernel_program(kernel)
        pipe = CompilationPipeline(decode_target("vliw4"),
                                   scheduler=scheduler)
        assert _assert_floor_sound(pipe, prog, nest, DESIGNS, kernel)

    @pytest.mark.parametrize("spec", ["vliw4", "vliw4::rotating=0"])
    @pytest.mark.parametrize("seed", range(8))
    def test_fuzz_schedules_meet_the_floor(self, seed, spec):
        prog, nest = _fuzz_nest(seed)
        for scheduler in ("modulo", "backtrack"):
            pipe = CompilationPipeline(decode_target(spec),
                                       scheduler=scheduler)
            _assert_floor_sound(pipe, prog, nest, FUZZ_DESIGNS,
                                f"seed {seed} {spec} {scheduler}")

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", ["vliw4", "vliw4::rotating=0",
                                      "vliw4::regs=32"])
    @pytest.mark.parametrize("seed", range(8, 72))
    def test_fuzz_schedules_meet_the_floor_exhaustive(self, seed, spec):
        prog, nest = _fuzz_nest(seed)
        for scheduler in ("modulo", "backtrack"):
            pipe = CompilationPipeline(decode_target(spec),
                                       scheduler=scheduler)
            _assert_floor_sound(pipe, prog, nest, FUZZ_DESIGNS,
                                f"seed {seed} {spec} {scheduler}")

    @pytest.mark.parametrize("spec", ["vliw4", "vliw4::regs=32"])
    @pytest.mark.parametrize("kernel", SUITE)
    def test_floor_rejects_are_walk_rejects(self, kernel, spec):
        assert _assert_floor_rejects_walk_rejects(kernel, spec, "modulo")

    @pytest.mark.slow
    @pytest.mark.parametrize("spec", ["vliw4", "vliw4::regs=32"])
    @pytest.mark.parametrize("kernel", SUITE)
    def test_floor_rejects_are_backtrack_walk_rejects(self, kernel, spec):
        assert _assert_floor_rejects_walk_rejects(kernel, spec, "backtrack")

    def test_the_floor_proves_deep_squash_and_jam_hopeless(self):
        """The designs the floor exists for: iir squash(8) and jam(16)
        keep more than 64 values live on their recurrences alone."""
        prog, nest = _kernel_program("iir")
        pipe = CompilationPipeline(decode_target("vliw4"))
        for variant, ds in (("squash", 8), ("jam", 16)):
            with pytest.raises(ScheduleError,
                               match=r"register pressure >= \d+ exceeds "
                                     r"the 64-entry register file at every "
                                     r"II >= \d+ \(recurrence cycles alone\)"):
                pipe.compile(prog, nest, variant, ds=ds)

    @pytest.mark.parametrize("variant,ds,jam", [
        ("pipelined", 1, 1), ("squash", 8, 1), ("jam", 4, 1),
        ("jam+squash", 4, 2)])
    @pytest.mark.parametrize("kernel", ["iir", "skipjack-hw", "des-hw"])
    def test_floor_is_non_decreasing_in_ii(self, kernel, variant, ds, jam):
        prog, nest = _kernel_program(kernel)
        pipe = CompilationPipeline(decode_target("vliw4"))
        a = _analyzed(pipe, prog, nest, variant, ds, jam)
        lib = pipe.target.library
        floors = [pressure_floor(a.dfg, lib, a.edges, ii)
                  for ii in range(1, 400)]
        assert floors == sorted(floors)
        assert floors[-1] > 0  # every suite kernel carries a recurrence


class TestFloorDeterminism:
    """``build_dfg`` emits backedges in set-iteration order, which varies
    with ``PYTHONHASHSEED``; the floor and its reject reason must not."""

    @pytest.mark.parametrize("variant,ds,jam", [
        ("jam", 16, 1), ("squash", 8, 1), ("jam+squash", 4, 2)])
    @pytest.mark.parametrize("kernel", ["iir", "skipjack-hw"])
    def test_floor_ignores_edge_order(self, kernel, variant, ds, jam):
        prog, nest = _kernel_program(kernel)
        pipe = CompilationPipeline(decode_target("vliw4"))
        lib = pipe.target.library
        a = _analyzed(pipe, prog, nest, variant, ds, jam)
        view = a.edges if a.edges is not None else default_edge_view(a.dfg)
        want = [pressure_floor(a.dfg, lib, view, ii) for ii in (7, 40, 300)]
        rng = random.Random(0)
        for _ in range(3):
            edges = list(a.dfg.edges)
            rng.shuffle(edges)
            shuffled_view = list(view)
            rng.shuffle(shuffled_view)
            g = DFG(nodes=a.dfg.nodes, edges=edges, regs=a.dfg.regs,
                    defs=a.dfg.defs, stmt_nodes=a.dfg.stmt_nodes,
                    iv_inc=a.dfg.iv_inc)
            assert [pressure_floor(g, lib, shuffled_view, ii)
                    for ii in (7, 40, 300)] == want

    def test_reject_reason_is_byte_identical_across_hash_seeds(
            self, tmp_path):
        code = ("from repro.explore import DesignQuery\n"
                "from repro.nimble.compiler import compile_query\n"
                "r = compile_query(DesignQuery('iir', 'jam', ds=16, "
                "target_spec='vliw4'))\n"
                "print(r.phase + '|' + r.reason)\n")
        reasons = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       REPRO_CACHE_DIR=str(tmp_path / seed))
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.path.dirname(__file__), "..",
                                         "..", "src"),
                            env.get("PYTHONPATH")) if p)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            reasons.append(out.stdout)
        assert reasons[0] == reasons[1]
        assert reasons[0].startswith("schedule|iir/jam(16) [target=vliw4")
        assert "register pressure >= " in reasons[0]
