"""Unit tests for IR node construction and operator overloading."""

import math

import numpy as np
import pytest

from repro.errors import IRError, TypeMismatchError
from repro.ir import (
    BOOL, F32, F64, I8, I32, U8, U16, U32, ArrayDecl, BinOp, Const, Load,
    Program, ProgramBuilder, Select, Var, as_expr, clone_program, const,
)
from repro.lang import compile_source


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
        assert d.init == (1, 2, 3)
        assert all(type(v) is int for v in d.init)

    def test_size(self):
        assert ArrayDecl("t", (4, 8), I32).size == 32


class TestArrayContents:
    """``ArrayDecl.init`` is a flat, row-major tuple of Python numbers,
    converted once at construction."""

    def test_nested_rows_flatten_row_major(self):
        d = ArrayDecl("t", (2, 3), I32, init=[[1, 2, 3], [4, 5, 6]])
        assert d.init == (1, 2, 3, 4, 5, 6)
        assert isinstance(d.init, tuple)

    def test_f32_rounds_to_single_precision(self):
        d = ArrayDecl("t", (3,), F32, init=[0.1, 1e39, -1e39])
        assert d.init == (float(np.float32(0.1)), math.inf, -math.inf)
        assert d.init[0] != 0.1
        assert ArrayDecl("t", (1,), F64, init=[0.1]).init == (0.1,)

    @pytest.mark.parametrize("ty, bad", [(U8, 256), (U8, -1), (I8, 128),
                                         (I8, -129), (U32, 1 << 32)])
    def test_out_of_range_int_names_the_array(self, ty, bad):
        with pytest.raises(IRError, match="'tbl'"):
            ArrayDecl("tbl", (2,), ty, init=[0, bad])

    def test_builder_raises_irerror_not_overflowerror(self):
        b = ProgramBuilder("p")
        with pytest.raises(IRError, match="'x'"):
            b.array("x", (2,), U8, init=[300, 1])
        with pytest.raises(IRError, match="'r'"):
            b.rom("r", [1, 2, 256], U8)

    def test_shape_mismatch_and_non_numbers_rejected(self):
        with pytest.raises(IRError, match="init shape"):
            ArrayDecl("t", (2, 2), U8, init=[1, 2, 3, 4])
        with pytest.raises(IRError, match="regular"):
            ArrayDecl("t", (2, 2), U8, init=[[1, 2], [3]])
        with pytest.raises(IRError, match="non-number"):
            ArrayDecl("t", (2,), U8, init=["1", "2"])
        with pytest.raises(IRError, match="'t'"):
            ArrayDecl("t", (1,), I32, init=[math.nan])

    def test_numpy_arrays_and_scalars_accepted(self):
        d = ArrayDecl("t", (2, 2), U16,
                      init=np.arange(4, dtype=np.int64).reshape(2, 2))
        assert d.init == (0, 1, 2, 3)
        assert all(type(v) is int for v in d.init)
        d = ArrayDecl("t", (3,), U8, init=[np.uint8(3), np.int64(4), True])
        assert d.init == (3, 4, 1)
        d = ArrayDecl("t", (2,), F64,
                      init=np.array([0.1, 2.5], dtype=np.float32))
        assert d.init == (float(np.float32(0.1)), 2.5)
        assert all(type(v) is float for v in d.init)
        rom = ProgramBuilder("p").rom("r", np.arange(6).reshape(2, 3), U8)
        assert rom.decl.shape == (2, 3)

    def test_numpy_scalars_as_constants(self):
        assert as_expr(np.int64(7)).value == 7
        assert as_expr(np.uint8(7), U8).ty is U8
        assert as_expr(np.float32(0.5)).ty is F64
        assert as_expr(np.bool_(True)).ty is BOOL
        assert const(np.int32(3)).ty is I32

    def test_clone_shares_contents(self):
        b = ProgramBuilder("p")
        b.array("t", (2,), U8, init=[1, 2])
        prog = b.build()
        twin = clone_program(prog)
        assert twin.arrays["t"] is not prog.arrays["t"]
        assert twin.arrays["t"].init is prog.arrays["t"].init

    def test_lang_initializers_wrap_like_c(self):
        prog = compile_source("""
        kernel k {
          rom u8 lut[3] = { 255, 256, -1 };
          f32 w[2][1] = { 0.1, 2 };
          output u8 o[1];
        }
        """)
        assert prog.arrays["lut"].init == (255, 0, 255)
        assert prog.arrays["w"].shape == (2, 1)
        assert prog.arrays["w"].init == (float(np.float32(0.1)), 2.0)


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
