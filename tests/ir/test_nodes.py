"""Unit tests for IR node construction and operator overloading."""

import numpy as np
import pytest

from repro.errors import IRError, TypeMismatchError
from repro.ir import (
    BOOL, F64, I32, U8, ArrayDecl, BinOp, Const, Load, Program, Select, Var,
    const,
)


class TestConst:
    def test_wraps_on_construction(self):
        assert Const(256, U8).value == 0
        assert Const(-1, U8).value == 255

    def test_infer_types(self):
        assert const(5).ty is I32
        assert const(2.5).ty is F64
        assert const(True).ty is BOOL

    def test_float_coerced(self):
        assert isinstance(Const(3, F64).value, float)


class TestOperatorOverloading:
    def test_add_builds_binop(self):
        x = Var("x", I32)
        e = x + 1
        assert isinstance(e, BinOp) and e.op == "add"
        assert isinstance(e.rhs, Const) and e.rhs.value == 1

    def test_reflected(self):
        x = Var("x", I32)
        e = 10 - x
        assert e.op == "sub"
        assert isinstance(e.lhs, Const) and e.lhs.value == 10

    def test_constant_hint_follows_lhs_type(self):
        x = Var("x", U8)
        e = x + 1
        assert e.rhs.ty is U8
        assert e.ty is U8

    def test_comparisons_produce_bool(self):
        x = Var("x", I32)
        assert (x < 3).ty is BOOL
        assert x.eq(3).ty is BOOL
        assert x.ne(3).op == "ne"

    def test_shift_keeps_lhs_type(self):
        x = Var("x", U8)
        assert (x << 2).ty is U8
        assert (x >> 1).ty is U8

    def test_bitwise_on_float_rejected(self):
        f = Var("f", F64)
        with pytest.raises(TypeMismatchError):
            f & 1
        with pytest.raises(TypeMismatchError):
            ~f

    def test_neg_invert(self):
        x = Var("x", I32)
        assert (-x).op == "neg"
        assert (~x).op == "not"

    def test_unknown_op_rejected(self):
        with pytest.raises(IRError):
            BinOp("bogus", Var("x", I32), Var("y", I32))

    def test_identity_equality_nodes_usable_as_keys(self):
        a = Var("x", I32)
        b = Var("x", I32)
        d = {a: 1, b: 2}
        assert len(d) == 2


class TestSelectAndLoad:
    def test_select_unifies(self):
        s = Select(Var("c", BOOL), Var("a", U8), Var("b", I32))
        assert s.ty is I32

    def test_load_single_index_normalized(self):
        ld = Load("arr", Var("i", I32), U8)
        assert isinstance(ld.index, tuple) and len(ld.index) == 1


class TestArrayDecl:
    def test_rom_requires_init(self):
        with pytest.raises(IRError):
            ArrayDecl("t", (4,), U8, rom=True)

    def test_init_shape_checked(self):
        with pytest.raises(IRError):
            ArrayDecl("t", (4,), U8, init=np.zeros(5, dtype=np.uint8))

    def test_init_cast_to_decl_dtype(self):
        d = ArrayDecl("t", (3,), U8, init=np.array([1, 2, 3], dtype=np.int64))
        assert d.init.dtype == np.dtype("u1")

    def test_size(self):
        assert ArrayDecl("t", (4, 8), I32).size == 32


class TestProgram:
    def test_scalar_type_lookup(self):
        p = Program("p", params={"n": I32})
        p.declare_local("x", U8)
        assert p.scalar_type("n") is I32
        assert p.scalar_type("x") is U8
        with pytest.raises(IRError):
            p.scalar_type("nope")

    def test_redeclare_conflict(self):
        p = Program("p")
        p.declare_local("x", U8)
        with pytest.raises(TypeMismatchError):
            p.declare_local("x", I32)

    def test_fresh_name(self):
        p = Program("p")
        p.declare_local("x", U8)
        assert p.fresh_name("x") == "x_1"
        assert p.fresh_name("y") == "y"
