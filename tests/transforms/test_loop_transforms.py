"""Unit + property tests for if-conversion and unroll-and-jam."""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import find_loop_nests, is_straightline
from repro.errors import LegalityError
from repro.ir import (
    Const, For, I32, If, ProgramBuilder, U32, U8, walk_exprs, walk_stmts,
)
from repro.ir.interp import run_program
from repro.ir.randgen import (
    RandConfig, random_program, random_squashable_nest,
)
from repro.transforms import unroll_and_jam
from repro.transforms.ifconvert import if_convert
from tests.conftest import inner_loop


def _same_arrays(p1, p2, params=None):
    a = run_program(p1, params=params)
    b = run_program(p2, params=params)
    assert set(a.arrays) == set(b.arrays)
    for name in a.arrays:
        np.testing.assert_array_equal(a.arrays[name], b.arrays[name],
                                      err_msg=f"array {name}")


class TestIfConvert:
    def test_simple_diamond(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), I32, output=True)
        x = b.local("x", I32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 0)
            with b.if_(i < 4):
                b.assign(x, i * 2)
            with b.else_():
                b.assign(x, i + 100)
            a[i] = b.var("x")
        prog = b.build()
        out = if_convert(prog)
        assert not any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_one_sided(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), I32, output=True)
        x = b.local("x", I32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 7)
            with b.if_(i < 3):
                b.assign(x, 1)
            a[i] = b.var("x")
        prog = b.build()
        out = if_convert(prog)
        assert not any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_chained_assigns_composed(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4,), I32, output=True)
        x = b.local("x", I32)
        y = b.local("y", I32)
        with b.loop("i", 0, 4) as i:
            b.assign(x, i)
            b.assign(y, 0)
            with b.if_(i < 2):
                b.assign(x, i + 1)
                b.assign(y, b.var("x") * 2)   # sees the branch-local x
            a[i] = b.var("x") + b.var("y")
        prog = b.build()
        out = if_convert(prog)
        assert not any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_chained_read_sees_the_wrapped_value(self):
        """A later assignment in the arm reads the earlier target as
        stored, i.e. converted to its declared type."""
        b = ProgramBuilder("p")
        a = b.array("a", (8,), I32, output=True)
        x = b.local("x", U8)
        y = b.local("y", I32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 0)
            b.assign(y, 0)
            with b.if_(i > 2):
                b.assign(x, i + 254)          # wraps to i - 2 in u8
                b.assign(y, b.var("x") * 10)
            a[i] = b.var("y")
        prog = b.build()
        out = if_convert(prog)
        assert not any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_store_blocks_conversion(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), I32, output=True)
        with b.loop("i", 0, 8) as i:
            with b.if_(i < 4):
                a[i] = 1
        prog = b.build()
        out = if_convert(prog)
        assert any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_division_blocks_conversion(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), I32, output=True)
        x = b.local("x", I32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, 1)
            with b.if_(i > 0):
                b.assign(x, Const(100, I32) / i)
            a[i] = b.var("x")
        prog = b.build()
        out = if_convert(prog)
        # converting would evaluate 100/0 in iteration 0
        assert any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_makes_inner_loop_single_block(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, a[i])
            with b.loop("j", 0, 4, kernel=True) as j:
                with b.if_((b.var("x") & 1).eq(1)):
                    b.assign(x, b.var("x") * 3 + 1)
                with b.else_():
                    b.assign(x, b.var("x") >> 1)
            a[i] = b.var("x")
        prog = b.build()
        out = if_convert(prog)
        inner = inner_loop(out)
        assert is_straightline(inner.body)
        _same_arrays(prog, out)

    def test_selects_assign_in_parallel(self):
        """A later select's condition must not read a target an earlier
        select overwrote, and the temporaries that keep the selects
        parallel must not reuse a program scalar's name."""
        b = ProgramBuilder("p")
        a = b.array("a", (8,), I32, output=True)
        c = b.array("c", (8,), I32, output=True)
        x = b.local("x", I32)
        y = b.local("y", I32)
        t = b.local("x__ifc", I32)
        with b.loop("i", 0, 8) as i:
            b.assign(t, i * 5)
            b.assign(x, i)
            with b.if_(b.var("x") > 3):
                b.assign(x, 0)
                b.assign(y, 1)
            with b.else_():
                b.assign(x, 9)
                b.assign(y, 2)
            a[i] = b.var("x") + b.var("x__ifc")
            c[i] = b.var("y")
        prog = b.build()
        out = if_convert(prog)
        assert not any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_branch_local_temp_assigned_unconditionally(self):
        """A scalar one arm assigns and nothing defines before the if is
        undefined on the other arm, so the converted program assigns it
        unconditionally instead of selecting its (undefined) old value."""
        from repro.ir import Select, Var, validate_program
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U32, output=True)
        t = b.local("t", U32)
        acc = b.local("acc", U32)
        with b.loop("i", 0, 8) as i:
            b.assign(acc, 0)
            with b.loop("j", 0, 4, kernel=True) as j:
                with b.if_(j > 1):
                    b.assign(t, i * j)
                    b.assign(acc, b.var("acc") + b.var("t"))
            a[i] = b.var("acc")
        prog = b.build()
        out = if_convert(prog)
        validate_program(out)
        body = inner_loop(out).body.stmts
        assert [s.var for s in body] == ["t", "acc"]
        assert not isinstance(body[0].expr, Select)
        assert not any(isinstance(n, Var) and n.name == "t"
                       for n in walk_exprs(body[1].expr))
        _same_arrays(prog, out)

    def test_nested_clobbered_ifs_keep_their_own_temps(self):
        """An inner if that needs temporaries, nested in the then-arm of
        an outer if that needs them too: the outer staging must not
        share the inner temporaries (x, y keep their values whenever
        the outer condition is false)."""
        b = ProgramBuilder("p")
        a = b.array("a", (8,), I32, output=True)
        c = b.array("c", (8,), I32, output=True)
        x = b.local("x", I32)
        y = b.local("y", I32)
        with b.loop("i", 0, 8) as i:
            b.assign(x, i)
            b.assign(y, 0)
            with b.if_(i > 4):
                with b.if_(b.var("x") > 3):
                    b.assign(x, 0)
                    b.assign(y, 1)
                with b.else_():
                    b.assign(x, 9)
                    b.assign(y, 2)
            a[i] = b.var("x")
            c[i] = b.var("y")
        prog = b.build()
        out = if_convert(prog)
        assert not any(isinstance(s, If) for s in walk_stmts(out.body))
        _same_arrays(prog, out)

    def test_kernel_loops_only_keeps_other_ifs(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            with b.if_(i > 0):
                b.assign(x, a[i - 1])   # guarded: both arms must not run
            with b.else_():
                b.assign(x, 0)
            with b.loop("j", 0, 4, kernel=True):
                with b.if_(b.var("x") > 5):
                    b.assign(x, b.var("x") - 5)
            a[i] = b.var("x")
        prog = b.build()
        out = if_convert(prog, kernel_loops_only=True)
        assert is_straightline(inner_loop(out).body)
        assert [type(s) for s in walk_stmts(out.body)].count(If) == 1
        _same_arrays(prog, out)

    def test_nothing_in_scope_returns_the_program_itself(self, monkeypatch):
        import repro.transforms.ifconvert as ifc

        def no_walk(*args):
            raise AssertionError("cloned or walked an if-free scope")

        monkeypatch.setattr(ifc, "clone_program", no_walk)
        monkeypatch.setattr(ifc, "definitely_assigned", no_walk)
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U32, output=True)
        x = b.local("x", U32)
        with b.loop("i", 0, 8) as i:
            with b.if_(i > 0):          # outside the kernel loop
                b.assign(x, 1)
            with b.else_():
                b.assign(x, 0)
            with b.loop("j", 0, 4, kernel=True):
                b.assign(x, b.var("x") + 1)
            a[i] = b.var("x")
        prog = b.build()
        assert if_convert(prog, kernel_loops_only=True) is prog
        straight = random_squashable_nest(random.Random(3))[0]
        assert if_convert(straight) is straight

    @pytest.mark.parametrize("cfg", [
        RandConfig(), RandConfig(n_arrays=0, allow_div=False),
    ], ids=["default", "scalar-only"])
    def test_preserves_semantics(self, cfg):
        """Outputs and scalars agree over 200 seeded random programs; the
        scalar-only shape has no stores or divisions, so most of its ifs
        (nested ones included) convert."""
        for seed in range(200):
            prog = random_program(random.Random(seed), cfg)
            want = run_program(prog)
            got = run_program(if_convert(prog))
            for name in want.arrays:
                np.testing.assert_array_equal(got.arrays[name],
                                              want.arrays[name],
                                              err_msg=f"seed {seed}")
            assert ({v: got.scalars[v] for v in want.scalars}
                    == want.scalars), f"seed {seed}"


class TestUnrollAndJam:
    @pytest.mark.parametrize("factor", [2, 4, 8])
    def test_fig21_preserved(self, fig21, factor):
        nest = find_loop_nests(fig21)[0]
        out = unroll_and_jam(fig21, nest, factor)
        _same_arrays(fig21, out)

    def test_fig41_preserved(self, fig41):
        nest = find_loop_nests(fig41)[0]
        out = unroll_and_jam(fig41, nest, 2)
        a = run_program(fig41, params={"k": 3})
        b = run_program(out, params={"k": 3})
        np.testing.assert_array_equal(a.arrays["out"], b.arrays["out"])

    def test_remainder_tail(self, ):
        # M=10 jam 4 -> main 8 + tail 2
        from tests.conftest import build_fig21
        prog = build_fig21(m=10, n=3)
        nest = find_loop_nests(prog)[0]
        out = unroll_and_jam(prog, nest, 4)
        _same_arrays(prog, out)
        outer_fors = [s for s in out.body.stmts if isinstance(s, For)]
        assert len(outer_fors) == 2

    def test_single_fused_inner(self, fig21):
        nest = find_loop_nests(fig21)[0]
        out = unroll_and_jam(fig21, nest, 2)
        jammed = next(s for s in out.body.stmts if isinstance(s, For))
        inner_fors = [s for s in walk_stmts(jammed.body) if isinstance(s, For)]
        assert len(inner_fors) == 1
        assert len(inner_fors[0].body.stmts) == 4  # 2 stmts x 2 copies

    def test_operator_count_scales(self, fig21):
        nest = find_loop_nests(fig21)[0]
        out2 = unroll_and_jam(fig21, nest, 2)
        out4 = unroll_and_jam(fig21, nest, 4)
        j2 = next(s for s in out2.body.stmts if isinstance(s, For))
        j4 = next(s for s in out4.body.stmts if isinstance(s, For))
        assert len(list(walk_stmts(j4.body))) > len(list(walk_stmts(j2.body)))

    def test_dependence_hazard_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (16,), U32, output=True)
        x = b.local("x", U32)
        b.assign(x, 0)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2):
                b.assign(x, a[i + 1] + 1)   # reads neighbour written below
            a[i] = b.var("x")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_jam(prog, nest, 2)

    def test_scalar_recurrence_rejected(self):
        b = ProgramBuilder("p")
        out_a = b.array("outa", (8,), U32, output=True)
        acc = b.local("acc", U32)
        b.assign(acc, 1)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, 2):
                b.assign(acc, b.var("acc") + 1)
            out_a[i] = b.var("acc")
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_jam(prog, nest, 2)

    def test_inner_bound_depends_on_outer_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U32, output=True)
        with b.loop("i", 0, 8) as i:
            with b.loop("j", 0, i + 1):
                a[i] = a[i] + 1
        prog = b.build()
        nest = find_loop_nests(prog)[0]
        with pytest.raises(LegalityError):
            unroll_and_jam(prog, nest, 2)

    @given(seed=st.integers(0, 2000), factor=st.sampled_from([2, 3, 4]))
    @settings(max_examples=30, deadline=None)
    def test_random_squashable_nests(self, seed, factor):
        prog, _ = random_squashable_nest(random.Random(seed))
        nest = find_loop_nests(prog)[0]
        out = unroll_and_jam(prog, nest, factor)
        _same_arrays(prog, out)
