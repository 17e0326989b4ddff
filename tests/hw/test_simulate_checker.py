"""Corrupted schedules the independent re-verifier must reject.

Corrupting one slot of a valid modulo schedule — a precedence break,
even on an edge whose distance exceeds any replay window, or a port
collision — must always produce a finding from the intended checker of
:func:`repro.verify.schedule.reverify_modulo`, the pipeline's validate
stage.
"""

import random

from hypothesis import given, settings, strategies as st

from repro.analysis import find_loop_nests
from repro.core import analyze_nest
from repro.core.dfg import DFG
from repro.hw import ACEV_LIBRARY, modulo_schedule, squash_distances
from repro.hw.mii import default_edge_view
from repro.hw.modulo import ModuloSchedule
from repro.ir.randgen import random_squashable_nest
from repro.ir.types import U32
from repro.verify import reverify_modulo
from tests.conftest import build_fig41


def _copy(sched: ModuloSchedule) -> ModuloSchedule:
    return ModuloSchedule(ii=sched.ii, time=dict(sched.time),
                          rec_mii=sched.rec_mii, res_mii=sched.res_mii,
                          length=sched.length,
                          rt={r: dict(v) for r, v in sched.rt.items()})


def _shift_sink_early(sched: ModuloSchedule, lib, edge) -> ModuloSchedule:
    """A copy of ``sched`` whose ``edge`` misses its latency by 1 cycle."""
    s, d, dist = edge
    bad = _copy(sched)
    bad.time[d.nid] = sched.time[s.nid] + lib.delay(s) - sched.ii * dist - 1
    return bad


def _precedence_breaks(findings) -> set[str]:
    return {f.where for f in findings if f.checker == "schedule.precedence"}


class TestDependenceWindowRegression:
    def test_squash8_distances_are_exercised(self):
        # squash(8) stretches backedges to distance 8 — beyond the old
        # replay's 4-iteration window; a legal schedule must verify clean
        prog = build_fig41()
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, sa, _ = analyze_nest(prog, nest, 8,
                                           delay_fn=ACEV_LIBRARY.delay)
        edges = squash_distances(dfg, sa)
        assert max(d for _, _, d in edges) >= 8
        sched = modulo_schedule(dfg, ACEV_LIBRARY, edges=edges)
        assert reverify_modulo(dfg, ACEV_LIBRARY, sched, edges) == []
        # now corrupt the sink of the longest edge: the static check
        # covers every distance, however long
        s, d, dist = max(edges, key=lambda e: e[2])
        bad = _shift_sink_early(sched, ACEV_LIBRARY, (s, d, dist))
        findings = reverify_modulo(dfg, ACEV_LIBRARY, bad, edges)
        assert f"{s!r} -> {d!r} (dist {dist})" in _precedence_breaks(findings)


class TestMutationAlwaysCaught:
    """Property: one corrupted slot of a valid schedule => a finding."""

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
        assert reverify_modulo(dfg, ACEV_LIBRARY, sched, edges) == []
        # corrupt one edge's sink so the dependence is missed by 1 cycle
        candidates = [e for e in edges if ACEV_LIBRARY.delay(e[0]) > 0]
        if not candidates:
            return  # nothing corruptible in this draw
        s, d, dist = candidates[pick % len(candidates)]
        bad = _shift_sink_early(sched, ACEV_LIBRARY, (s, d, dist))
        findings = reverify_modulo(dfg, ACEV_LIBRARY, bad, edges)
        assert f"{s!r} -> {d!r} (dist {dist})" in _precedence_breaks(findings)

    def test_port_collision_detected(self):
        # one port: piling a second memory ref onto an occupied MRT row
        # must oversubscribe the bus's reservation row
        lib = ACEV_LIBRARY.with_ports(1)
        g = DFG()
        a = g.add_node(kind="load", ty=U32, array="a")
        b = g.add_node(kind="load", ty=U32, array="b")
        sched = ModuloSchedule(ii=2, time={a.nid: 0, b.nid: 1},
                               rec_mii=1, res_mii=2, length=3)
        assert reverify_modulo(g, lib, sched) == []
        bad = _copy(sched)
        bad.time[b.nid] = 2  # same row (2 mod 2 == 0) as the first load
        findings = reverify_modulo(g, lib, bad)
        assert ("schedule.resources", "mem[row 0]") in \
            {(f.checker, f.where) for f in findings}

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
        mem = [n for n in dfg.nodes if "mem" in lib.node_resources(n)]
        assert len(mem) >= 3
        sched = modulo_schedule(dfg, lib)
        assert reverify_modulo(dfg, lib, sched) == []
        rng = random.Random(seed)
        m1, m2 = rng.sample(mem, 2)
        bad = _copy(sched)
        bad.time[m2.nid] = bad.time[m1.nid]  # force a shared row
        row = bad.time[m1.nid] % bad.ii
        findings = reverify_modulo(dfg, lib, bad)
        assert ("schedule.resources", f"mem[row {row}]") in \
            {(f.checker, f.where) for f in findings}
