"""Unit + property tests for the schedulers, area model, and simulator."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_loop_nests
from repro.core import analyze_nest
from repro.hw import (
    ACEV_LIBRARY, GARP_LIBRARY, area_estimate, list_schedule, min_ii,
    modulo_schedule, occupancy_timeline, operator_rows, registers_original,
    registers_pipelined, simulate_modulo, simulate_sequential,
    squash_distances,
)
from repro.hw.mii import default_edge_view
from repro.ir import U32, ProgramBuilder
from repro.ir.randgen import random_squashable_nest
from repro.verify import reverify_modulo
from tests.conftest import build_fig21, build_fig41


def _dfg(prog, ds=1, lib=ACEV_LIBRARY):
    nest = find_loop_nests(prog)[0]
    _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds, delay_fn=lib.delay)
    return dfg, sa


def _assert_schedule_legal(dfg, lib, sched, edges=None):
    edges = edges if edges is not None else default_edge_view(dfg)
    for s, d, dist in edges:
        assert sched.time[d.nid] + sched.ii * dist >= \
            sched.time[s.nid] + lib.delay(s), f"{s} -> {d} (dist {dist})"
    rows: dict[int, int] = {}
    for n in dfg.nodes:
        if lib.uses_mem_port(n):
            r = sched.time[n.nid] % sched.ii
            rows[r] = rows.get(r, 0) + 1
            assert rows[r] <= lib.mem_ports


class TestModuloScheduler:
    def test_fig21_hits_recmii(self):
        dfg, _ = _dfg(build_fig21())
        sched = modulo_schedule(dfg, ACEV_LIBRARY)
        assert sched.ii == 2 == sched.rec_mii
        _assert_schedule_legal(dfg, ACEV_LIBRARY, sched)

    def test_fig41_hits_recmii(self):
        dfg, _ = _dfg(build_fig41())
        sched = modulo_schedule(dfg, ACEV_LIBRARY)
        assert sched.ii == 5
        _assert_schedule_legal(dfg, ACEV_LIBRARY, sched)

    def test_ii_at_least_min_ii(self):
        for builder in (build_fig21, build_fig41):
            dfg, _ = _dfg(builder())
            sched = modulo_schedule(dfg, ACEV_LIBRARY)
            assert sched.ii >= min_ii(dfg, ACEV_LIBRARY)

    def test_squash_relaxed_schedule(self):
        prog = build_fig41()
        for ds in (2, 4, 8):
            dfg, sa = _dfg(prog, ds=ds)
            edges = squash_distances(dfg, sa)
            sched = modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
            _assert_schedule_legal(dfg, ACEV_LIBRARY, sched, edges)
            assert sched.ii <= -(-5 // ds) + 1

    def test_memory_congestion_raises_ii(self):
        # 4 loads + 1 store per iteration on a 2-port bus -> ResMII 3
        b = ProgramBuilder("p")
        src = b.array("src", (64,), U32)
        out = b.array("out", (64,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 0)
            with b.loop("j", 0, 4) as j:
                b.assign(x, b.var("x")
                         + src[(i + j) & 63] + src[(i + j + 1) & 63]
                         + src[(i + j + 2) & 63] + src[(i + j + 3) & 63])
                out[(i * 4 + j) & 63] = b.var("x")
        dfg, _ = _dfg(b.build())
        sched = modulo_schedule(dfg, ACEV_LIBRARY)
        assert sched.res_mii == 3
        assert sched.ii >= 3
        _assert_schedule_legal(dfg, ACEV_LIBRARY, sched)
        sched1 = modulo_schedule(dfg, GARP_LIBRARY)
        assert sched1.ii >= 5

    @given(seed=st.integers(0, 2000), ds=st.sampled_from([1, 2, 4]))
    @settings(max_examples=40, deadline=None)
    def test_random_nests_schedulable(self, seed, ds):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa) if ds > 1 else None
        sched = modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        _assert_schedule_legal(dfg, ACEV_LIBRARY, sched,
                               edges or default_edge_view(dfg))
        assert reverify_modulo(dfg, ACEV_LIBRARY, sched, edges) == []


class TestMRTRowAdvance:
    """Regression for the reservation-row probe of
    ``SchedProblem.attempt``: a fully occupied row must advance the
    operation to the next free row, and a node that finds every row
    full abandons the placement."""

    def _mem_heavy(self, loads: int):
        b = ProgramBuilder("memheavy")
        src = b.array("src", (64,), U32)
        out = b.array("out", (64,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 0)
            with b.loop("j", 0, 4) as j:
                for k in range(loads):
                    b.assign(x, b.var("x") + src[(i + j + k) & 63])
                out[(i * 4 + j) & 63] = b.var("x")
        dfg, _ = _dfg(b.build())
        return dfg

    def _attempt(self, dfg, ii):
        from repro.hw.modulo import _search_state

        ctx = _search_state(dfg, ACEV_LIBRARY, default_edge_view(dfg))
        prob = ctx["prob"]
        order = [n.nid for n in ctx["topo"]]
        res = prob.attempt(ii, [0] * prob.n, order)
        if res is None:
            return None
        time, occ, _ = res
        return time, prob.reservation_tables(occ, ii)

    def test_attempt_advances_past_full_row(self):
        dfg = self._mem_heavy(4)   # 4 loads + 1 store on a 2-port bus
        placed = self._attempt(dfg, 3)
        assert placed is not None
        time, rt = placed
        # every row within capacity; at least one op pushed off row 0
        assert all(v <= ACEV_LIBRARY.mem_ports for v in rt["mem"].values())
        assert sum(rt["mem"].values()) == 5
        mem_rows = {time[n.nid] % 3 for n in dfg.nodes
                    if ACEV_LIBRARY.uses_mem_port(n)}
        assert len(mem_rows) > 1

    def test_attempt_gives_up_when_all_rows_full(self):
        dfg = self._mem_heavy(4)   # 5 memory refs > 2 rows * 2 ports
        assert self._attempt(dfg, 2) is None

    def test_full_search_lands_on_feasible_ii(self):
        dfg = self._mem_heavy(4)
        sched = modulo_schedule(dfg, ACEV_LIBRARY)
        assert sched.ii >= sched.res_mii == 3
        _assert_schedule_legal(dfg, ACEV_LIBRARY, sched)


class TestBacktrackingScheduler:
    def test_matches_iterative_on_thesis_figures(self):
        from repro.hw.schedulers import backtracking_modulo_schedule
        for builder in (build_fig21, build_fig41):
            dfg, _ = _dfg(builder())
            ims = modulo_schedule(dfg, ACEV_LIBRARY)
            bt = backtracking_modulo_schedule(dfg, ACEV_LIBRARY)
            assert bt.ii <= ims.ii
            _assert_schedule_legal(dfg, ACEV_LIBRARY, bt)

    def test_squash_edges_supported(self):
        from repro.hw.schedulers import backtracking_modulo_schedule
        dfg, sa = _dfg(build_fig41(), ds=4)
        edges = squash_distances(dfg, sa)
        bt = backtracking_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        _assert_schedule_legal(dfg, ACEV_LIBRARY, bt, edges)

    @given(seed=st.integers(0, 2000), ds=st.sampled_from([1, 2, 4]))
    @settings(max_examples=25, deadline=None)
    def test_random_nests_never_worse_than_iterative(self, seed, ds):
        from repro.hw.schedulers import backtracking_modulo_schedule
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa) if ds > 1 else None
        ims = modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        bt = backtracking_modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        assert bt.ii <= ims.ii
        _assert_schedule_legal(dfg, ACEV_LIBRARY, bt,
                               edges or default_edge_view(dfg))
        assert reverify_modulo(dfg, ACEV_LIBRARY, bt, edges) == []

    def test_mii_bounds_reported(self):
        from repro.hw.schedulers import backtracking_modulo_schedule
        dfg, _ = _dfg(build_fig41())
        bt = backtracking_modulo_schedule(dfg, ACEV_LIBRARY)
        ims = modulo_schedule(dfg, ACEV_LIBRARY)
        assert (bt.rec_mii, bt.res_mii) == (ims.rec_mii, ims.res_mii)


class TestSchedulerRegistry:
    def test_builtins_registered(self):
        from repro.hw.schedulers import available_schedulers
        names = available_schedulers()
        assert {"list", "modulo", "backtrack"} <= set(names)

    def test_empty_name_resolves_default(self):
        from repro.hw.schedulers import scheduler_by_name
        assert scheduler_by_name("").name == "modulo"
        assert scheduler_by_name("modulo").pipelined
        assert not scheduler_by_name("list").pipelined

    def test_unknown_name_raises(self):
        from repro.hw.schedulers import scheduler_by_name
        with pytest.raises(KeyError, match="unknown scheduler"):
            scheduler_by_name("simulated-annealing")

    def test_duplicate_registration_rejected(self):
        from repro.hw.schedulers import (
            IterativeModuloScheduler, register_scheduler,
        )
        with pytest.raises(ValueError, match="already registered"):
            register_scheduler(IterativeModuloScheduler())

    def test_custom_scheduler_pluggable(self):
        from repro.hw.schedulers import (
            _REGISTRY, Scheduler, register_scheduler, scheduler_by_name,
        )

        class EagerModulo:
            name = "eager"
            pipelined = True

            def schedule(self, dfg, lib, edges=None, max_ii=None):
                return modulo_schedule(dfg, lib, edges=edges, max_ii=max_ii)

        register_scheduler(EagerModulo())
        try:
            strategy = scheduler_by_name("eager")
            assert isinstance(strategy, Scheduler)
            dfg, _ = _dfg(build_fig21())
            assert strategy.schedule(dfg, ACEV_LIBRARY).ii == 2
        finally:
            _REGISTRY.pop("eager", None)


class TestListScheduler:
    def test_length_at_least_critical_path(self):
        dfg, _ = _dfg(build_fig41())
        sched = list_schedule(dfg, ACEV_LIBRARY)
        assert sched.length >= 5

    def test_ports_respected(self):
        dfg, _ = _dfg(build_fig21())
        sched = list_schedule(dfg, ACEV_LIBRARY)
        assert all(v <= ACEV_LIBRARY.mem_ports
                   for v in sched.resource_usage["mem"].values())

    def test_original_slower_than_pipelined(self):
        dfg, _ = _dfg(build_fig41())
        orig = list_schedule(dfg, ACEV_LIBRARY)
        pipe = modulo_schedule(dfg, ACEV_LIBRARY)
        assert pipe.ii <= orig.length


class TestAreaModel:
    def test_operator_rows_positive(self):
        dfg, _ = _dfg(build_fig41())
        assert operator_rows(dfg, ACEV_LIBRARY) > 0

    def test_registers_original_counts_liveins(self):
        dfg, _ = _dfg(build_fig41())
        # live-ins: a, i, k, j
        assert registers_original(dfg) == 4

    def test_registers_pipelined_at_least_original(self):
        dfg, _ = _dfg(build_fig41())
        sched = modulo_schedule(dfg, ACEV_LIBRARY)
        assert registers_pipelined(dfg, ACEV_LIBRARY, sched) >= \
            registers_original(dfg)

    def test_area_estimate_fractions(self):
        dfg, _ = _dfg(build_fig41())
        est = area_estimate(dfg, ACEV_LIBRARY, registers=10)
        assert est.total_rows == est.op_rows + 10
        assert 0 < est.operator_fraction < 1

    def test_packed_registers_cheaper(self):
        dfg, _ = _dfg(build_fig41())
        packed = ACEV_LIBRARY.with_packed_registers(0.25)
        a = area_estimate(dfg, ACEV_LIBRARY, 40).total_rows
        b = area_estimate(dfg, packed, 40).total_rows
        assert b < a


class TestSimulator:
    def test_total_cycles_formula(self):
        dfg, _ = _dfg(build_fig21())
        sched = modulo_schedule(dfg, ACEV_LIBRARY)
        sim = simulate_modulo(dfg, ACEV_LIBRARY, sched, 10)
        assert sim.total_cycles == 9 * sched.ii + sched.length

    def test_sequential_cycles(self):
        dfg, _ = _dfg(build_fig21())
        sched = list_schedule(dfg, ACEV_LIBRARY)
        sim = simulate_sequential(dfg, ACEV_LIBRARY, sched, 10)
        assert sim.total_cycles == 10 * sched.length

    def test_occupancy_timeline_shape(self):
        dfg, sa = _dfg(build_fig21(), ds=2)
        edges = squash_distances(dfg, sa)
        sched = modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        tl = occupancy_timeline(dfg, ACEV_LIBRARY, sched, iterations=6,
                                horizon=12)
        assert all(len(v) == 12 for v in tl.values())
        # squash keeps operators busy: few idle slots in steady state
        busy = sum(1 for v in tl.values() for c in v[2:8] if c >= 0)
        assert busy > 0
