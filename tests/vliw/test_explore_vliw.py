"""The VLIW backend through the exploration engine, reports, and oracle.

Proves the PR-2 registry architecture is actually retargetable: the
same `DesignSpace`/`evaluate`/Pareto/tables machinery that drives the
ACEV sweeps runs a second machine model end to end — with register
pressure surfacing as new columns and infeasible designs as structured
skips, never crashes.
"""

import re

import pytest

from repro.explore import DesignSpace, evaluate, format_pareto, format_skips
from repro.harness.experiments import format_table_6_2, run_table_6_2, \
    run_table_6_3
from repro.hw.report import DesignPoint


@pytest.fixture(scope="module")
def vliw_result():
    space = DesignSpace(kernels=("iir", "des-mem"),
                        variants=("original", "pipelined", "squash", "jam"),
                        factors=(2, 4), target_specs=("vliw4",))
    return evaluate(space.enumerate(), jobs=1)


class TestExplore:
    def test_sweep_produces_points_and_structured_skips(self, vliw_result):
        pts = vliw_result.points()
        assert pts, "no design evaluable on vliw4"
        # pressure rejections are skips with provenance, not crashes
        for s in vliw_result.skips():
            assert s.phase == "schedule"
            assert "register pressure" in s.reason

    def test_skip_table_names_both_kinds_of_pressure_reject(
            self, vliw_result):
        """iir squash(4) is proven hopeless by the recurrence floor
        before scheduling; des-mem jam(4) is rejected by the II walk.
        Both reasons must be readable in the rendered table."""
        text = format_skips(vliw_result)
        assert "register pressure >= " in text
        assert re.search(r"register pressure \d+ exceeds", text)
        assert "[target=" not in text
        by_label = {(s.query.kernel, s.label): s.reason
                    for s in vliw_result.skips()}
        assert "register pressure >= " in by_label[("iir", "squash(4)")]
        assert "makespan" in by_label[("des-mem", "jam(4)")]

    def test_pipelined_points_carry_pressure_fields(self, vliw_result):
        for q, r in vliw_result.pairs():
            if isinstance(r, DesignPoint) and q.variant != "original":
                assert r.max_live is not None
                assert r.reg_capacity == 64
                assert r.max_live <= 64  # accepted means it fits

    def test_pareto_report_grows_a_live_column(self, vliw_result):
        text = format_pareto(vliw_result)
        assert "live" in text
        assert "/64" in text

    def test_acev_report_keeps_its_layout(self):
        space = DesignSpace(kernels=("iir",), variants=("original",
                                                        "pipelined"),
                            factors=(2,), target_specs=("acev",))
        text = format_pareto(evaluate(space.enumerate(), jobs=1))
        assert "live" not in text

    def test_mixed_target_sweep_separates_groups(self):
        space = DesignSpace(kernels=("iir",),
                            variants=("original", "pipelined"),
                            factors=(2,),
                            target_specs=("acev", "vliw4"))
        result = evaluate(space.enumerate(), jobs=1)
        text = format_pareto(result)
        assert "iir @ acev" in text and "iir @ vliw4" in text
        # the live column is per-group: the acev block keeps its
        # historical (diffable) layout even in a mixed-target run
        acev_block = text.split("iir @ acev")[1].split("iir @ vliw4")[0] \
            if text.index("iir @ acev") < text.index("iir @ vliw4") \
            else text.split("iir @ acev")[1]
        assert "live" not in acev_block


class TestTables:
    def test_table_6_2_has_maxlive_row_on_vliw(self):
        sweep = run_table_6_2(factors=(2,), target_spec="vliw4", jobs=1)
        text = format_table_6_2(sweep)
        assert "MaxLive" in text
        # rejected designs render as '-' cells instead of crashing
        norm = run_table_6_3(sweep)
        assert norm  # normalization survives partial rows

    def test_acev_table_has_no_maxlive_row(self):
        sweep = run_table_6_2(factors=(2,), target_spec="acev", jobs=1)
        assert "MaxLive" not in format_table_6_2(sweep)


class TestOracleOnVLIW:
    def test_exact_certifies_when_heuristic_meets_the_bound(self):
        from repro.core.squash import analyze_nest
        from repro.hw.schedulers import scheduler_by_name
        from repro.nimble.compiler import _kernel_program
        from repro.nimble.target import decode_target

        prog, nest = _kernel_program("skipjack-mem")
        t = decode_target("vliw4")
        _, _, _, dfg, _, _ = analyze_nest(prog, nest, 1,
                                          delay_fn=t.library.delay)
        sched = scheduler_by_name("exact").schedule(dfg, t.library)
        assert sched.certified
        assert sched.ii == max(sched.rec_mii, sched.res_mii)

    def test_pressure_floored_exact_claims_no_design_optimum(self):
        """An exact certificate under a register-pressure ``min_ii``
        floor proves minimality above the floor only — the DesignPoint
        must not advertise a certified optimal II."""
        from repro.nimble.compiler import _kernel_program
        from repro.nimble.target import decode_target
        from repro.pipeline import CompilationPipeline

        prog, nest = _kernel_program("iir")
        run = CompilationPipeline(decode_target("vliw4::regs=45"),
                                  scheduler="exact") \
            .run(prog, nest, "pipelined")
        assert run.scheduled.ii_floored
        assert run.point.exact_ii is None
        assert run.point.max_live <= 45

    def test_unfloored_exact_still_stamps_the_optimum(self):
        from repro.nimble.compiler import _kernel_program
        from repro.nimble.target import decode_target
        from repro.pipeline import CompilationPipeline

        prog, nest = _kernel_program("skipjack-mem")
        run = CompilationPipeline(decode_target("vliw4"),
                                  scheduler="exact") \
            .run(prog, nest, "pipelined")
        assert not run.scheduled.ii_floored
        assert run.point.exact_ii == run.point.ii

    def test_exact_bounds_gracefully_under_budget(self, monkeypatch):
        """On VLIW *every* operation is resource-constrained, so the
        branch space explodes; a capped budget must degrade to the
        backtracking schedule (a sound upper bound), never crash."""
        from repro.core.squash import analyze_nest
        from repro.hw.exact import exact_modulo_schedule
        from repro.hw.schedulers import backtracking_modulo_schedule
        from repro.nimble.compiler import _kernel_program
        from repro.nimble.target import decode_target

        prog, nest = _kernel_program("des-mem")
        t = decode_target("vliw4")
        _, _, _, dfg, _, _ = analyze_nest(prog, nest, 1,
                                          delay_fn=t.library.delay)
        ub = backtracking_modulo_schedule(dfg, t.library)
        sched = exact_modulo_schedule(dfg, t.library, budget=2000)
        assert sched.ii == ub.ii
        if not sched.certified:
            assert sched.fallback == "backtrack"
