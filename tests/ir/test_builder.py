"""Unit tests for the fluent program builder."""

import numpy as np
import pytest

from repro.errors import IRError
from repro.ir import Assign, For, I32, ProgramBuilder, Store, U8, run_program


class TestDeclarations:
    def test_param_and_local(self):
        b = ProgramBuilder("p")
        n = b.param("n", I32)
        x = b.local("x", U8)
        assert n.name == "n" and x.ty is U8
        prog = b.build()
        assert prog.params == {"n": I32}

    def test_duplicate_param_rejected(self):
        b = ProgramBuilder("p")
        b.param("n")
        with pytest.raises(IRError):
            b.param("n")

    def test_duplicate_array_rejected(self):
        b = ProgramBuilder("p")
        b.array("a", (4,), U8)
        with pytest.raises(IRError):
            b.array("a", (4,), U8)

    def test_rom_store_rejected(self):
        b = ProgramBuilder("p")
        t = b.rom("t", np.zeros(4, dtype=np.uint8), U8)
        with pytest.raises(IRError):
            t[0] = 1


class TestStatementEmission:
    def test_array_sugar(self):
        b = ProgramBuilder("p")
        a = b.array("a", (8,), U8, output=True)
        x = b.local("x", U8)
        b.assign(x, a[3])
        a[4] = x
        prog = b.build()
        assert isinstance(prog.body.stmts[0], Assign)
        assert isinstance(prog.body.stmts[1], Store)

    def test_wrong_arity_rejected(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4, 4), U8)
        with pytest.raises(IRError):
            a[1]

    def test_assign_to_param_rejected(self):
        b = ProgramBuilder("p")
        n = b.param("n")
        with pytest.raises(IRError):
            b.assign(n, 3)

    def test_let_infers_type(self):
        b = ProgramBuilder("p")
        x = b.local("x", U8)
        b.assign(x, 5)
        v = b.let("y", b.var("x") + 1)
        assert v.ty is U8
        assert b.program.locals["y"] is U8


class TestControlFlow:
    def test_loop_context(self):
        b = ProgramBuilder("p")
        acc = b.local("acc", I32)
        b.assign(acc, 0)
        with b.loop("i", 0, 10) as i:
            b.assign(acc, acc + i)
        prog = b.build()
        loop = prog.body.stmts[1]
        assert isinstance(loop, For) and loop.var == "i"
        res = run_program(prog)
        assert res.scalars["acc"] == sum(range(10))

    def test_kernel_annotation(self):
        b = ProgramBuilder("p")
        with b.loop("i", 0, 4, kernel=True):
            pass
        assert b.build().body.stmts[0].annotations["kernel"] is True

    def test_if_else(self):
        b = ProgramBuilder("p")
        x = b.local("x", I32)
        b.assign(x, 5)
        with b.if_(b.var("x") < 10):
            b.assign(x, 1)
        with b.else_():
            b.assign(x, 2)
        res = run_program(b.build())
        assert res.scalars["x"] == 1

    def test_else_without_if_rejected(self):
        b = ProgramBuilder("p")
        with pytest.raises(IRError):
            b.else_()

    def test_else_must_follow_if_directly(self):
        b = ProgramBuilder("p")
        x = b.local("x", I32)
        b.assign(x, 0)
        with b.if_(b.var("x") < 1):
            pass
        b.assign(x, 1)
        with pytest.raises(IRError):
            b.else_()

    def test_nested_loop_structure(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4,), I32, output=True)
        with b.loop("i", 0, 4) as i:
            with b.loop("j", 0, 3) as j:
                a[i] = a[i] + j
        prog = b.build()
        res = run_program(prog)
        assert list(res.arrays["a"]) == [3, 3, 3, 3]
