"""Unit tests for the printer and the structural validator."""

import numpy as np
import pytest

from repro.errors import ValidationError
from repro.ir import (
    Assign, BinOp, Block, Const, For, I32, If, Load, ProgramBuilder, Select,
    Store, U8, Var, expr_to_str, program_to_str, stmt_to_str, validate_program,
)


class TestPrinter:
    def test_precedence_parens(self):
        x, y, z = Var("x", I32), Var("y", I32), Var("z", I32)
        assert expr_to_str((x + y) * z) == "(x + y) * z"
        assert expr_to_str(x + y * z) == "x + y * z"

    def test_load_store(self):
        ld = Load("t", (Var("i", I32),), U8)
        assert expr_to_str(ld) == "t[i]"
        st = Store("t", (Var("i", I32),), Const(3, U8))
        assert "t[i] = 3u8;" in stmt_to_str(st)

    def test_select_and_minmax(self):
        x = Var("x", I32)
        s = Select(x < 0, Const(0, I32), x)
        assert "?" in expr_to_str(s)
        assert expr_to_str(BinOp("min", x, Const(3, I32))) == "min(x, 3)"

    def test_for_rendering(self, fig21):
        text = program_to_str(fig21)
        assert "for (i = 0; i < 8; i++)" in text
        assert "rom" not in text

    def test_if_else_rendering(self):
        s = If(Var("c", U8) < 1, Block([Assign("x", Const(1, I32))]),
               Block([Assign("x", Const(2, I32))]))
        t = stmt_to_str(s)
        assert "else" in t

    def test_step_rendering(self):
        f = For("i", Const(0, I32), Const(8, I32), Block(), step=2)
        assert "i += 2" in stmt_to_str(f)

    def test_program_header(self, fig41):
        text = program_to_str(fig41)
        assert "param i32 k;" in text
        assert "output i32 out[8];" in text


class TestValidator:
    def test_valid_program_passes(self, fig21, fig41):
        validate_program(fig21)
        validate_program(fig41)

    def _prog(self):
        b = ProgramBuilder("p")
        b.array("a", (8,), U8, output=True)
        b.local("x", I32)
        return b

    def test_undefined_read_rejected(self):
        b = self._prog()
        b.program.declare_local("y", I32)
        b.program.body.stmts.append(Assign("x", Var("y", I32)))
        with pytest.raises(ValidationError, match="possibly-undefined"):
            validate_program(b.program)

    def test_if_branch_defines_not_definite(self):
        b = self._prog()
        b.assign("x", 0)
        b.program.declare_local("y", I32)
        with b.if_(b.var("x") < 1):
            b.assign("y", 1)
        b.program.body.stmts.append(Assign("x", Var("y", I32)))
        with pytest.raises(ValidationError):
            validate_program(b.program)

    def test_both_branches_define_is_definite(self):
        b = self._prog()
        b.assign("x", 0)
        b.program.declare_local("y", I32)
        with b.if_(b.var("x") < 1):
            b.assign("y", 1)
        with b.else_():
            b.assign("y", 2)
        b.program.body.stmts.append(Assign("x", Var("y", I32)))
        validate_program(b.program)

    def test_loop_body_defs_definite_when_trip_known_positive(self):
        b = self._prog()
        b.program.declare_local("y", I32)
        with b.loop("i", 0, 4):
            b.assign("y", 1)
        b.program.body.stmts.append(Assign("x", Var("y", I32)))
        validate_program(b.program)  # trip 4 >= 1: y is definite

    def test_loop_body_defs_not_definite_for_symbolic_trip(self):
        b = self._prog()
        b.param("n", I32)
        b.program.declare_local("y", I32)
        with b.loop("i", 0, b.var("n")):
            b.assign("y", 1)
        b.program.body.stmts.append(Assign("x", Var("y", I32)))
        with pytest.raises(ValidationError):
            validate_program(b.program)

    def test_loop_body_defs_not_definite_for_zero_trip(self):
        b = self._prog()
        b.program.declare_local("y", I32)
        with b.loop("i", 0, 0):
            b.assign("y", 1)
        b.program.body.stmts.append(Assign("x", Var("y", I32)))
        with pytest.raises(ValidationError):
            validate_program(b.program)

    def test_undeclared_local_assign(self):
        b = self._prog()
        b.program.body.stmts.append(Assign("zz", Const(1, I32)))
        with pytest.raises(ValidationError, match="undeclared local"):
            validate_program(b.program)

    def test_store_to_rom_rejected(self):
        b = self._prog()
        b.rom("t", np.zeros(4, dtype=np.uint8), U8)
        b.program.body.stmts.append(Store("t", (Const(0, I32),), Const(1, U8)))
        with pytest.raises(ValidationError, match="ROM"):
            validate_program(b.program)

    def test_bounds_clobbered_by_body(self):
        b = self._prog()
        b.assign("x", 4)
        with b.loop("i", 0, b.var("x")):
            b.assign("x", 0)
        with pytest.raises(ValidationError, match="bounds read"):
            validate_program(b.program)

    def test_induction_var_assigned_in_body(self):
        b = self._prog()
        with b.loop("i", 0, 4):
            b.program.body  # keep context
            b.emit(Assign("i", Const(0, I32)))
        with pytest.raises(ValidationError, match="induction variable"):
            validate_program(b.program)

    def test_name_collision_scalar_array(self):
        b = self._prog()
        b.program.declare_local("a", I32)  # collides with array "a"
        with pytest.raises(ValidationError, match="scalar and array"):
            validate_program(b.program)
