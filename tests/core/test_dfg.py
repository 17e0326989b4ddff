"""Unit tests for DFG construction (thesis Fig. 4.1)."""

import os
import subprocess
import sys

import pytest

from repro.analysis import find_loop_nests, loop_liveness, ssa_rename
from repro.core import build_dfg
from repro.ir import U8, I32, ProgramBuilder
from repro.transforms.three_address import lower_block_to_3ac
from tests.conftest import build_fig21, build_fig41, inner_loop


def _dfg_for(prog, live_after=None, use_iv=True):
    inner = inner_loop(prog)
    inner.body = lower_block_to_3ac(prog, inner.body)
    live = loop_liveness(inner, live_after or {"a"})
    extra = {inner.var} if use_iv else set()
    from repro.ir import variables_read
    if inner.var not in variables_read(inner.body):
        extra = set()
    ssa = ssa_rename(inner.body, prog.scalar_type, extra_live_in=extra)
    rom = frozenset(n for n, d in prog.arrays.items() if d.rom)
    carried = {x for x in live.carried if x in ssa.entry}
    invariant = {x for x in ssa.entry if x not in carried and x != inner.var}
    dfg = build_dfg(ssa, carried, invariant, rom,
                    inner_iv=inner.var if inner.var in ssa.entry else None)
    return dfg, ssa, live


class TestFig21DFG:
    def test_structure(self):
        prog = build_fig21()
        dfg, ssa, live = _dfg_for(prog)
        # registers: only `a` is live-in (j unused in body)
        assert set(dfg.regs) == {"a"}
        # two operators: add (f) and xor (g)
        ops = [n for n in dfg.operator_nodes()]
        assert sorted(n.op for n in ops) == ["add", "xor"]
        # one backedge: a@exit -> reg a
        backs = dfg.backedges()
        assert len(backs) == 1
        assert backs[0].dst is dfg.regs["a"]

    def test_topo_order(self):
        prog = build_fig21()
        dfg, _, _ = _dfg_for(prog)
        order = {n.nid: k for k, n in enumerate(dfg.topo_order())}
        for e in dfg.edges:
            if e.dist == 0:
                assert order[e.src.nid] < order[e.dst.nid]


class TestFig41DFG:
    def test_registers_and_cycles(self):
        prog = build_fig41()
        dfg, ssa, live = _dfg_for(prog)
        # live-ins: a (carried), i & k (invariants), j (IV)
        assert set(dfg.regs) == {"a", "i", "k", "j"}
        assert dfg.iv_inc is not None
        backs = dfg.backedges()
        dsts = sorted(e.dst.name for e in backs)
        # cycles: a recurrence, i and k self-cycles, j++ feedback
        assert dsts == ["a", "i", "j", "k"]
        # invariants are self-cycles
        for e in backs:
            if e.dst.name in ("i", "k"):
                assert e.src is e.dst

    def test_operator_inventory(self):
        prog = build_fig41()
        dfg, _, _ = _dfg_for(prog)
        ops = sorted(n.op for n in dfg.operator_nodes() if n.op)
        # add(b=a+i), sub(c=b-j), and(c&15), mul(*k), synthetic j++
        assert ops == ["add", "add", "and", "mul", "sub"]


class TestMemoryEdges:
    def test_store_load_ordering(self):
        b = ProgramBuilder("p")
        buf = b.array("buf", (16,), I32, output=True)
        x = b.local("x", I32)
        with b.loop("i", 0, 4) as i:
            b.assign(x, 0)
            with b.loop("j", 0, 4) as j:
                buf[i] = b.var("x") + 1
                b.assign(x, buf[i])
        prog = b.build()
        dfg, _, _ = _dfg_for(prog, live_after=set())
        mem_edges = [e for e in dfg.edges if e.kind == "mem"]
        # store -> load ordering within the iteration, plus the
        # cross-iteration store -> first-access edge
        assert any(e.dist == 0 for e in mem_edges)
        assert any(e.dist == 1 for e in mem_edges)

    def test_rom_loads_not_ordered(self):
        import numpy as np
        b = ProgramBuilder("p")
        t = b.rom("t", np.arange(256, dtype=np.uint8), U8)
        out = b.array("out", (8,), U8, output=True)
        x = b.local("x", U8)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 1)
            with b.loop("j", 0, 4) as j:
                b.assign(x, t[b.var("x")])
            out[i] = b.var("x")
        prog = b.build()
        dfg, _, _ = _dfg_for(prog, live_after={"x"})
        assert all(e.kind != "mem" for e in dfg.edges)
        assert all(n.kind == "rom_load" for n in dfg.nodes
                   if n.array == "t")

    def test_loads_alone_not_ordered(self):
        b = ProgramBuilder("p")
        src = b.array("src", (16,), I32)
        out = b.array("out", (8,), I32, output=True)
        x = b.local("x", I32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 0)
            with b.loop("j", 0, 2) as j:
                b.assign(x, b.var("x") + src[i] + src[i + 8])
            out[i] = b.var("x")
        prog = b.build()
        dfg, _, _ = _dfg_for(prog, live_after={"x"})
        assert all(e.kind != "mem" for e in dfg.edges)


class TestEdgeOrder:
    def test_edge_order_independent_of_hash_seed(self, tmp_path):
        # backedges follow ssa.entry, not set iteration: iir's base and
        # jam(16) graphs list their edges in one order in every process,
        # whatever the per-process string-hash salt
        code = ("import json\n"
                "from repro.nimble.compiler import _kernel_program\n"
                "from repro.pipeline.analysis import AnalysisCache, "
                "base_analyzed_dfg, jam_analyzed_dfg\n"
                "prog, nest = _kernel_program('iir')\n"
                "cache = AnalysisCache()\n"
                "graphs = [base_analyzed_dfg(prog, nest, cache).dfg,\n"
                "          jam_analyzed_dfg(prog, nest, 16, cache).dfg]\n"
                "print(json.dumps([[(e.src.nid, e.dst.nid, e.dist, e.kind)\n"
                "                   for e in g.edges] for g in graphs]))\n")
        outs = []
        for seed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=seed,
                       REPRO_ANALYSIS_CACHE="mem",
                       REPRO_CACHE_DIR=str(tmp_path / seed))
            env["PYTHONPATH"] = os.pathsep.join(
                p for p in (os.path.join(os.path.dirname(__file__), "..",
                                         "..", "src"),
                            env.get("PYTHONPATH")) if p)
            out = subprocess.run([sys.executable, "-c", code], env=env,
                                 capture_output=True, text=True, check=True)
            outs.append(out.stdout)
        assert outs[0] == outs[1]
        assert outs[0].count("[") > 100   # both graphs, every edge
