"""The simulator as a schedule *checker* (ISSUE satellites).

Regression for the cross-iteration dependence window — the old code
checked ``range(min(iterations, 4))`` and skipped every pairing past
the replayed iterations, so distance > 4 edges and short replays were
never validated — plus property tests that corrupting one slot of a
valid modulo schedule (precedence break or port collision) is always
caught.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_loop_nests
from repro.core import analyze_nest
from repro.core.dfg import DFG
from repro.hw import ACEV_LIBRARY, modulo_schedule, simulate_modulo, \
    squash_distances
from repro.hw.mii import default_edge_view
from repro.hw.modulo import ModuloSchedule
from repro.ir.randgen import random_squashable_nest
from repro.ir.types import U32
from tests.conftest import build_fig21, build_fig41


def _copy(sched: ModuloSchedule) -> ModuloSchedule:
    return ModuloSchedule(ii=sched.ii, time=dict(sched.time),
                          rec_mii=sched.rec_mii, res_mii=sched.res_mii,
                          length=sched.length,
                          rt={r: dict(v) for r, v in sched.rt.items()})


class TestDependenceWindowRegression:
    def _distance5_violation(self):
        """A div (delay 8) feeding a register over a distance-5 backedge
        scheduled at II=1: ``t(reg) + 5*II < t(div) + 8`` — violated."""
        g = DFG()
        reg = g.add_node(kind="reg", ty=U32, name="x")
        op = g.add_node(kind="binop", ty=U32, op="div", name="x1")
        g.add_edge(reg, op, 0)
        g.add_edge(op, reg, 5)
        sched = ModuloSchedule(ii=1, time={reg.nid: 0, op.nid: 0},
                               rec_mii=2, res_mii=1, length=8)
        return g, sched

    def test_short_replay_no_longer_masks_distant_violation(self):
        g, sched = self._distance5_violation()
        # iterations=3 < distance 5: the old guard skipped every pairing
        sim = simulate_modulo(g, ACEV_LIBRARY, sched, 3)
        assert not sim.ok
        assert "dist 5" in sim.violations[0]

    def test_default_validate_iters_catch_it_too(self):
        g, sched = self._distance5_violation()
        from repro.pipeline.pipeline import VALIDATE_ITERS
        sim = simulate_modulo(g, ACEV_LIBRARY, sched, VALIDATE_ITERS)
        assert not sim.ok

    def test_squash8_distances_are_exercised(self):
        # squash(8) stretches backedges to distance 8 — beyond the old
        # 4-iteration window; a legal schedule must still verify clean
        prog = build_fig41()
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, 8,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa)
        assert max(d for _, _, d in edges) >= 8
        sched = modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        assert simulate_modulo(dfg, ACEV_LIBRARY, sched, 6, edges=edges).ok
        # now corrupt the sink of the longest edge: must be caught even
        # though the replay is far shorter than the distance
        s, d, dist = max(edges, key=lambda e: e[2])
        bad = _copy(sched)
        bad.time[d.nid] = sched.time[s.nid] + ACEV_LIBRARY.delay(s) \
            - sched.ii * dist - 1
        sim = simulate_modulo(dfg, ACEV_LIBRARY, bad, 6, edges=edges)
        assert not sim.ok and f"dist {dist}" in sim.violations[0]


class TestMutationAlwaysCaught:
    """Property: one corrupted slot of a valid schedule => ``ok`` False."""

    @given(seed=st.integers(0, 2000), ds=st.sampled_from([1, 2, 4]),
           pick=st.integers(0, 10**6))
    @settings(max_examples=40, deadline=None)
    def test_precedence_break_detected(self, seed, ds, pick):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, ds,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa) if ds > 1 else \
            default_edge_view(dfg)
        sched = modulo_schedule(dfg, ACEV_LIBRARY,
                                edges=edges if ds > 1 else None)
        assert simulate_modulo(dfg, ACEV_LIBRARY, sched, 6,
                               edges=edges).ok
        # corrupt one edge's sink so the dependence is missed by 1 cycle
        candidates = [e for e in edges if ACEV_LIBRARY.delay(e[0]) > 0]
        if not candidates:
            return  # nothing corruptible in this draw
        s, d, dist = candidates[pick % len(candidates)]
        bad = _copy(sched)
        bad.time[d.nid] = sched.time[s.nid] + ACEV_LIBRARY.delay(s) \
            - sched.ii * dist - 1
        sim = simulate_modulo(dfg, ACEV_LIBRARY, bad, 6, edges=edges)
        assert not sim.ok

    def test_port_collision_detected(self):
        # one port: piling a second memory ref onto an occupied MRT row
        # must oversubscribe the bus in the replay
        lib = ACEV_LIBRARY.with_ports(1)
        g = DFG()
        a = g.add_node(kind="load", ty=U32, array="a")
        b = g.add_node(kind="load", ty=U32, array="b")
        sched = ModuloSchedule(ii=2, time={a.nid: 0, b.nid: 1},
                               rec_mii=1, res_mii=2, length=3)
        assert simulate_modulo(g, lib, sched, 6).ok
        bad = _copy(sched)
        bad.time[b.nid] = 2  # same row (2 mod 2 == 0) as the first load
        sim = simulate_modulo(g, lib, bad, 6)
        assert not sim.ok
        assert any("ports" in v for v in sim.violations)

    @given(seed=st.integers(0, 500))
    @settings(max_examples=15, deadline=None)
    def test_collision_mutation_on_memory_kernel(self, seed):
        from repro.ir import ProgramBuilder
        b = ProgramBuilder("memheavy")
        src = b.array("src", (64,), U32)
        out = b.array("out", (64,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 0)
            with b.loop("j", 0, 4) as j:
                b.assign(x, b.var("x") + src[(i + j) & 63]
                         + src[(i + j + 1) & 63])
                out[(i * 4 + j) & 63] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, _, _ = analyze_nest(prog, nest, 1,
                                          delay_fn=ACEV_LIBRARY.delay)
        lib = ACEV_LIBRARY.with_ports(1)
        mem = [n for n in dfg.nodes if lib.uses_mem_port(n)]
        assert len(mem) >= 3
        sched = modulo_schedule(dfg, lib)
        assert simulate_modulo(dfg, lib, sched, 6).ok
        rng = random.Random(seed)
        m1, m2 = rng.sample(mem, 2)
        bad = _copy(sched)
        bad.time[m2.nid] = bad.time[m1.nid]  # force a shared row
        sim = simulate_modulo(dfg, lib, bad, 6)
        assert not sim.ok
