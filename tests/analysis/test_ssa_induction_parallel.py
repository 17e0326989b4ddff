"""Unit tests for SSA renaming, induction variables, and the parallel check."""

import random

import pytest

from repro.analysis import (
    check_outer_parallel, find_basic_ivs, find_loop_nests, is_straightline,
    ssa_rename,
)
from repro.errors import LegalityError
from repro.ir import Assign, Block, Const, I32, ProgramBuilder, U32, Var
from repro.ir.randgen import random_squashable_nest
from tests.conftest import inner_loop, outer_loop


class TestSSA:
    def test_fig21_inner(self, fig21):
        inner = inner_loop(fig21)
        ssa = ssa_rename(inner.body, fig21.scalar_type)
        # b = f(a); a = g(b)  ->  b@1 = f(a@0); a@1 = g(b@1)
        assert ssa.entry == {"a": "a@0"}
        assert ssa.exit["a"] == "a@1" and ssa.exit["b"] == "b@1"
        assert [s.var for s in ssa.stmts] == ["b@1", "a@1"]
        assert ssa.stmts[1].expr.lhs.name == "b@1" or \
            "b@1" in {v.name for v in _vars(ssa.stmts[1].expr)}

    def test_multiple_redefinitions(self):
        blk = Block([
            Assign("x", Const(1, I32)),
            Assign("x", Var("x", I32) + 1),
            Assign("y", Var("x", I32)),
        ])
        ssa = ssa_rename(blk, lambda n: I32)
        assert [s.var for s in ssa.stmts] == ["x@1", "x@2", "y@1"]
        assert ssa.entry == {}          # x written before any read
        assert ssa.exit["x"] == "x@2"

    def test_extra_live_in_seeds_entry(self):
        blk = Block([Assign("x", Const(1, I32))])
        ssa = ssa_rename(blk, lambda n: I32, extra_live_in={"j"})
        assert ssa.entry["j"] == "j@0"

    def test_rejects_control_flow(self, fig21):
        outer = outer_loop(fig21)
        with pytest.raises(LegalityError):
            ssa_rename(outer.body, fig21.scalar_type)
        assert not is_straightline(outer.body)


def _vars(e):
    from repro.ir import walk_exprs, Var as V
    return [n for n in walk_exprs(e) if isinstance(n, V)]


class TestInduction:
    def _counter_prog(self):
        b = ProgramBuilder("p")
        out = b.array("out", (8,), I32, output=True)
        p = b.local("p", I32)
        b.assign(p, 100)
        with b.loop("i", 0, 8) as i:
            out[i] = b.var("p")
            b.assign(p, b.var("p") + 4)
        return b.build()

    def test_find_basic_iv(self):
        prog = self._counter_prog()
        loop = outer_loop(prog)
        ivs = find_basic_ivs(loop)
        assert len(ivs) == 1
        assert ivs[0].var == "p" and ivs[0].step == 4

    def test_not_iv_when_written_twice(self):
        b = ProgramBuilder("p")
        p = b.local("p", I32)
        b.assign(p, 0)
        with b.loop("i", 0, 4):
            b.assign(p, b.var("p") + 1)
            b.assign(p, b.var("p") + 2)
        assert find_basic_ivs(outer_loop(b.build())) == []

    def test_subtraction_step(self):
        b = ProgramBuilder("p")
        p = b.local("p", I32)
        b.assign(p, 0)
        with b.loop("i", 0, 4):
            b.assign(p, b.var("p") - 3)
        ivs = find_basic_ivs(outer_loop(b.build()))
        assert ivs[0].step == -3


class TestParallelCheck:
    def test_fig21_parallel(self, fig21):
        nest = find_loop_nests(fig21)[0]
        for ds in (2, 4, 8):
            rep = check_outer_parallel(fig21, nest, ds)
            assert rep.ok, rep.reasons

    def test_scalar_recurrence_blocks(self):
        b = ProgramBuilder("p")
        out = b.array("out", (8,), U32, output=True)
        acc = b.local("acc", U32)
        b.assign(acc, 1)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 4):
                b.assign(acc, b.var("acc") * 3)   # carried across i too
            out[i] = b.var("acc")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        rep = check_outer_parallel(prog, nest, 2)
        assert not rep.ok
        assert "acc" in rep.scalar_conflicts

    def test_iv_excused(self):
        b = ProgramBuilder("p")
        out = b.array("out", (8,), U32, output=True)
        p = b.local("p", I32)
        b.assign(p, 0)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2):
                out[i] = out[i] + 1
            b.assign(p, b.var("p") + 1)
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        assert check_outer_parallel(prog, nest, 2, allow_ivs=True).ok
        assert not check_outer_parallel(prog, nest, 2, allow_ivs=False).ok

    def test_array_neighbor_conflict(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,), U32, output=True)
        x = b.local("x", U32)
        b.assign(x, 0)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2):
                b.assign(x, a[i + 1])
            a[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        rep = check_outer_parallel(prog, nest, 2)
        assert not rep.ok and rep.array_conflicts

    def test_random_squashable_nests_pass(self):
        for seed in range(12):
            prog, outer = random_squashable_nest(random.Random(seed))
            nest = find_loop_nests(prog)[0]
            rep = check_outer_parallel(prog, nest, 4)
            assert rep.ok, (seed, rep.reasons)
