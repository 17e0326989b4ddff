"""Oracle tests for jam by replication (repro.core.jamdfg).

``AnalysisCache.jam_base_for`` derives jam(F) for F > 2 by renaming
copy 1 of the jam(2) analysis over the base analysis.  Every test here
compares it with the program-level route, computed from scratch:
unroll-and-jam the whole program, re-locate the fused nest, run the base
builder (``check_squash`` + ``analyze_front``) over it.  The two must
agree field for field: DFG nodes in order (nid, kind, type, operator,
name, array, statement index), edges in order, the register/definition/
statement maps, the printed SSA statements, the ordered entry/exit
tables and the types, carried/invariant, the DS=1 check — or raise
identical errors.
"""

import random

import pytest

import repro
from repro.analysis import find_loop_nests
from repro.analysis.loops import trip_count
from repro.core.jamdfg import replicable
from repro.core.legality import check_squash
from repro.core.squash import analyze_front
from repro.errors import LegalityError
from repro.ir import I32, ProgramBuilder, U32
from repro.ir.nodes import Assign, Var
from repro.ir.printer import stmt_to_str
from repro.ir.randgen import SquashNestSpec, ValueDomain, \
    random_squashable_nest
from repro.pipeline import CompilationPipeline
from repro.pipeline.analysis import AnalysisCache, BaseAnalysis
from repro.transforms.unroll_and_jam import unroll_and_jam

#: the factors every suite kernel is checked at (iir clamps at trip 16)
SUITE_FACTORS = (1, 2, 3, 4, 5, 7, 8, 16, 32, 33)


@pytest.fixture(autouse=True)
def _fresh_caches(monkeypatch, tmp_path):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    repro.clear_caches()
    yield
    repro.clear_caches()


def build_nest(m=8, n=6, reads_outer_iv=True, local="x"):
    """A jam-legal 2-nest with a scalar recurrence in the inner loop."""
    b = ProgramBuilder("jamkern")
    inp = b.array("in", (m,), U32)
    out = b.array("out", (m,), U32, output=True)
    x = b.local(local, U32)
    with b.loop("i", 0, m) as i:
        b.assign(x, inp[i])
        with b.loop("j", 0, n) as j:
            step = (b.var(local) + j) * 3
            b.assign(x, step + i if reads_outer_iv else step)
        out[i] = b.var(local)
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


def build_iv_write(iv):
    """The inner body assigns an induction variable, which every copy then
    writes: the builder's validator rejects that, so the assignment is
    added to the built program, the way a hand-built program could have
    it."""
    prog, nest = build_nest()
    nest.inner.body.stmts.append(Assign(iv, Var(iv, I32)))
    return prog, nest


def build_ambiguous():
    """Two nests share the outer IV: re-location could pick either."""
    b = ProgramBuilder("dup")
    inp = b.array("in", (8,), U32)
    out = b.array("out", (8,), U32, output=True)
    x = b.local("x", U32)
    with b.loop("i", 0, 8) as i:
        b.assign(x, inp[i])
        with b.loop("j", 0, 4) as j:
            b.assign(x, b.var("x") + j)
        out[i] = b.var("x")
    with b.loop("i", 0, 8) as i:
        b.assign(x, inp[i])
        with b.loop("j", 0, 4) as j:
            b.assign(x, b.var("x") * 2 + j)
        out[i] = b.var("x") + out[i]
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


def build_outer_carried():
    """Outer-carried scalar: jam-illegal (check_outer_parallel fails)."""
    b = ProgramBuilder("carried")
    out = b.array("out", (8,), U32, output=True)
    x = b.local("x", U32)
    b.assign(x, 0)
    with b.loop("i", 0, 8) as i:
        with b.loop("j", 0, 4):
            b.assign(x, b.var("x") + 1)
        out[i] = b.var("x")
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


def build_trip_zero():
    b = ProgramBuilder("tripzero")
    out = b.array("out", (4,), U32, output=True)
    x = b.local("x", U32)
    with b.loop("i", 0, 0) as i:
        b.assign(x, 0)
        with b.loop("j", 0, 4):
            b.assign(x, b.var("x") + 1)
        out[i] = b.var("x")
    prog = b.build()
    return prog, find_loop_nests(prog)[0]


def oracle(prog, nest, factor):
    """jam(factor) by the program-level route, from scratch."""
    jammed = unroll_and_jam(prog, nest, factor)
    step = nest.outer.step * min(factor, trip_count(nest.outer) or factor)
    fused = next((n for n in find_loop_nests(jammed)
                  if n.outer.var == nest.outer.var
                  and n.outer.step == step), None)
    if fused is None:
        raise LegalityError("jammed nest not found")
    check = check_squash(jammed, fused, 1)
    if not check.ok:
        return BaseAnalysis(check1=check)
    _, _, ssa, dfg, carried, invariant = analyze_front(
        jammed, fused, check.require_liveness())
    return BaseAnalysis(check1=check, ssa=ssa, dfg=dfg, carried=carried,
                        invariant=invariant)


def fingerprint(base):
    chk = base.check1
    live = chk.liveness
    out = {"check": (chk.ok, chk.reasons, chk.outer_trip, chk.inner_trip,
                     None if live is None else
                     (live.live_in, live.live_out, live.invariant_reads,
                      live.carried, live.defined),
                     None if chk.parallelism is None else
                     (chk.parallelism.ok, chk.parallelism.reasons))}
    if base.dfg is None:
        return out
    dfg, ssa = base.dfg, base.ssa
    index = {id(s): i for i, s in enumerate(ssa.stmts)}
    out.update(
        nodes=[(n.nid, n.kind, str(n.ty), n.op, n.name, n.array,
                None if n.stmt is None else index[id(n.stmt)])
               for n in dfg.nodes],
        edges=[(e.src.nid, e.dst.nid, e.dist, e.kind) for e in dfg.edges],
        regs=[(name, n.nid) for name, n in dfg.regs.items()],
        defs=[(name, n.nid) for name, n in dfg.defs.items()],
        stmt_nodes=sorted((k, n.nid) for k, n in dfg.stmt_nodes.items()),
        iv_inc=None if dfg.iv_inc is None else dfg.iv_inc.nid,
        stmts=[stmt_to_str(s) for s in ssa.stmts],
        entry=list(ssa.entry.items()),
        exit=list(ssa.exit.items()),
        types={v: str(t) for v, t in ssa.types.items()},
        carried=sorted(base.carried),
        invariant=sorted(base.invariant),
    )
    return out


def outcome(fn):
    try:
        return fingerprint(fn())
    except LegalityError as exc:
        return ("error", str(exc), list(exc.reasons))


def assert_matches_oracle(prog, nest, factors):
    cache = AnalysisCache()
    for factor in factors:
        derived = outcome(lambda: cache.jam_base_for(prog, nest, factor))
        expected = outcome(lambda: oracle(prog, nest, factor))
        if derived != expected:
            diff = [k for k in expected if derived.get(k) != expected[k]] \
                if isinstance(derived, dict) and isinstance(expected, dict) \
                else (derived, expected)
            pytest.fail(f"{prog.name} jam({factor}) differs: {diff}")


def random_nest(seed):
    rng = random.Random(seed)
    prog, outer = random_squashable_nest(rng, SquashNestSpec(),
                                         ValueDomain())
    return prog, next(n for n in find_loop_nests(prog) if n.outer is outer)


def source_nest(text):
    from repro.analysis.loops import find_kernel_nests
    from repro.lang import compile_source

    prog = compile_source(text)
    return prog, (find_kernel_nests(prog) or find_loop_nests(prog))[0]


class TestDerivedJamParity:
    @pytest.mark.parametrize("factor", [1, 2, 3, 4, 8, 11])
    def test_identical_artifacts_all_factors(self, factor):
        prog, nest = build_nest()
        assert_matches_oracle(prog, nest, [factor])

    def test_factor_above_trip_clamps_identically(self):
        prog, nest = build_nest(m=3)
        assert_matches_oracle(prog, nest, [5])

    def test_vliw_target_parity(self):
        from repro.nimble.target import decode_target

        prog, nest = build_nest()
        pipe = CompilationPipeline(target=decode_target("vliw4"))
        for factor in (2, 4):
            run = pipe.run(prog, nest, "jam", ds=factor)
            jam = pipe.cache.jam_base_for(prog, nest, factor)
            assert run.analyzed.dfg is jam.dfg
            assert fingerprint(jam) == fingerprint(oracle(prog, nest, factor))

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nests_identical(self, seed):
        prog, nest = random_nest(seed)
        assert_matches_oracle(prog, nest, (2, 3, 4, 8))


class TestReplicationOracle:
    @pytest.mark.parametrize("kernel", ["skipjack-mem", "skipjack-hw",
                                        "des-mem", "des-hw", "iir"])
    def test_suite_kernel_every_factor(self, kernel):
        from repro.nimble.compiler import _kernel_program

        prog, nest = _kernel_program(kernel)
        assert_matches_oracle(prog, nest, SUITE_FACTORS)

    @pytest.mark.parametrize("trip", [1, 2, 3])
    def test_short_outer_trips(self, trip):
        prog, nest = build_nest(m=trip)
        assert_matches_oracle(prog, nest, (1, 2, 3, 4))

    @pytest.mark.parametrize("factor", [2, 4])
    def test_trip_one_jams_to_the_untransformed_program(self, factor):
        # the factor clamps to the trip before any copy is made: no
        # privatized-name fixup names a copy that was never declared
        from repro.ir.interp import run_program
        from repro.ir.printer import program_to_str

        prog, nest = build_nest(m=1)
        jammed = unroll_and_jam(prog, nest, factor)
        assert program_to_str(jammed) == program_to_str(prog)
        want, got = run_program(prog), run_program(jammed)
        assert {k: v.tolist() for k, v in got.arrays.items()} == \
            {k: v.tolist() for k, v in want.arrays.items()}

    def test_body_without_outer_iv(self):
        prog, nest = build_nest(reads_outer_iv=False)
        assert_matches_oracle(prog, nest, (2, 3, 5, 8))

    @pytest.mark.parametrize("local", ["t3_0", "x__u1"])
    def test_made_up_names_take_the_program_route(self, local):
        prog, nest = build_nest(local=local)
        assert not replicable(prog, nest)
        assert_matches_oracle(prog, nest, (1, 2, 3, 4, 8))

    @pytest.mark.parametrize("iv", ["i", "j"])
    def test_body_writes_an_induction_variable(self, iv):
        prog, nest = build_iv_write(iv)
        assert_matches_oracle(prog, nest, (2, 3, 4))

    def test_ambiguous_nest(self):
        prog, nest = build_ambiguous()
        assert not replicable(prog, nest)
        assert_matches_oracle(prog, nest, (1, 2, 3, 4, 8))


class TestDerivedJamErrors:
    def _errors_both(self, prog, nest, factor):
        derived = outcome(
            lambda: AnalysisCache().jam_base_for(prog, nest, factor))
        assert derived == outcome(lambda: oracle(prog, nest, factor))
        with pytest.raises(LegalityError) as exc:
            CompilationPipeline().run(prog, nest, "jam", ds=factor)
        assert derived[1] in str(exc.value)
        return derived

    def test_outer_carried_scalar_same_rejection(self):
        prog, nest = build_outer_carried()
        err = self._errors_both(prog, nest, 2)
        assert "unroll-and-jam rejected" in err[1]

    def test_trip_zero_same_rejection(self):
        prog, nest = build_trip_zero()
        err = self._errors_both(prog, nest, 2)
        assert "jammed nest not found" in err[1]

    def test_bad_factor_same_rejection(self):
        prog, nest = build_nest()
        err = self._errors_both(prog, nest, 0)
        assert "jam factor must be >= 1" in err[1]


class TestDerivedJamMechanics:
    def test_fused_nest_matches_program_transform(self):
        # copy 0 is the base's SSA verbatim (shared statements) and the
        # printed fused block is the program-level route's
        prog, nest = build_nest()
        cache = AnalysisCache()
        base = cache.get_or_build(prog, nest)
        jam = cache.jam_base_for(prog, nest, 4)
        assert all(a is b for a, b in zip(base.ssa.stmts, jam.ssa.stmts))
        assert [stmt_to_str(s) for s in jam.ssa.stmts] == \
            [stmt_to_str(s) for s in oracle(prog, nest, 4).ssa.stmts]

    def test_larger_factors_share_the_copies_smaller_ones_renamed(self):
        # copy k renames copy 1 the same way at every factor: jam(8)'s
        # first four copies are jam(4)'s statement objects
        prog, nest = build_nest()
        cache = AnalysisCache()
        four = cache.jam_base_for(prog, nest, 4)
        eight = cache.jam_base_for(prog, nest, 8)
        n = len(four.ssa.stmts)
        assert len(eight.ssa.stmts) > n
        assert all(a is b for a, b in zip(four.ssa.stmts, eight.ssa.stmts))

    def test_original_program_not_mutated(self):
        from repro.ir.printer import program_to_str

        prog, nest = build_nest()
        before = program_to_str(prog)
        locals_before = dict(prog.locals)
        pipe = CompilationPipeline()
        pipe.run(prog, nest, "jam", ds=2)
        base = pipe.cache.get_or_build(prog, nest)
        template = pipe.cache.jam_base_for(prog, nest, 2)
        prints = (fingerprint(base), fingerprint(template))
        pipe.run(prog, nest, "jam", ds=8)
        assert program_to_str(prog) == before
        assert prog.locals == locals_before
        assert (fingerprint(base), fingerprint(template)) == prints

    def test_duplicate_outer_var_falls_back(self):
        # two nests sharing the outer IV: the analysis takes the
        # program-level route (nest re-location could mismatch)
        prog, nest = build_ambiguous()
        pipe = CompilationPipeline()
        for factor in (2, 4):
            run = pipe.run(prog, nest, "jam", ds=factor)
            jam = pipe.cache.jam_base_for(prog, nest, factor)
            assert run.analyzed.dfg is jam.dfg
            assert fingerprint(jam) == fingerprint(oracle(prog, nest, factor))

    def test_disk_tier_round_trips(self, tmp_path):
        # jam analyses are derived, never stored: a cold sweep with the
        # disk tier on writes no jamdfg- key, and a run from the disk
        # tier alone derives identical artifacts
        prog, nest = build_nest()

        def sweep():
            pipe = CompilationPipeline()
            return [(pipe.run(prog, nest, "jam", ds=f).point,
                     fingerprint(pipe.cache.jam_base_for(prog, nest, f)))
                    for f in (2, 3, 4, 8)]

        cold = sweep()
        keys = [p.name for p in (tmp_path / "analysis").rglob("*.pkl")]
        assert any(k.startswith("base-") for k in keys)
        assert not any(k.startswith("jamdfg-") for k in keys)
        repro.clear_caches(memory_only=True)
        assert sweep() == cold


class TestPastTheOuterTrip:
    """jam(F) past the outer trip fuses the whole loop, as jam(trip)
    does: it shares jam(trip)'s analysis, and through the DFG's identity
    its II-search context, but runs its own legality checks."""

    def test_shares_the_clamped_factors_dfg(self):
        from repro.nimble.compiler import _kernel_program
        from repro.pipeline.analysis import analysis_cache, jam_analyzed_dfg

        prog, nest = _kernel_program("iir")
        assert trip_count(nest.outer) == 16
        sixteen = jam_analyzed_dfg(prog, nest, 16, analysis_cache())
        assert jam_analyzed_dfg(prog, nest, 32, analysis_cache()).dfg \
            is sixteen.dfg

    def test_places_nothing_the_clamped_factor_placed(self):
        from repro.explore import DesignQuery
        from repro.nimble.compiler import compile_query_batch
        from repro.obs import metrics as obs_metrics

        placements = obs_metrics.counter("sched_kernel_numpy_attempts")
        spent, iis = [], []
        for factors in ([16], [16, 32]):
            repro.clear_caches()
            before = placements.value
            results = compile_query_batch(
                [DesignQuery("iir", "jam", ds=f) for f in factors])["results"]
            spent.append(placements.value - before)
            iis.append([r.ii for r in results])
        assert spent[1] == spent[0] > 0   # jam(32) placed nothing
        assert iis[1] == [iis[0][0]] * 2

    def test_runs_its_own_legality_checks(self, monkeypatch):
        from repro.core import jamdfg
        from repro.nimble.compiler import _kernel_program

        checked = []
        real = jamdfg.check_jam

        def spy(program, nest, factor):
            checked.append(factor)
            return real(program, nest, factor)

        monkeypatch.setattr(jamdfg, "check_jam", spy)
        prog, nest = _kernel_program("iir")
        cache = AnalysisCache()
        sixteen = cache.jam_base_for(prog, nest, 16)
        checked.clear()
        assert cache.jam_base_for(prog, nest, 32) is sixteen
        assert checked == [32]


@pytest.mark.fuzz
class TestFuzzOracle:
    def test_randgen_seeds(self):
        for seed in range(100):
            prog, nest = random_nest(seed)
            assert_matches_oracle(prog, nest, (2, 3, 4, 8))

    def test_source_nests(self):
        from repro.lang.fuzz import SourceNestSpec, random_source_nest

        rng = random.Random("jam-replication")
        for _ in range(200):
            text = random_source_nest(rng, SourceNestSpec.sample(rng))
            prog, nest = source_nest(text)
            assert_matches_oracle(prog, nest, (2, 3, 4, 8, 16))
