"""Unit tests for the ``repro.lang`` parser (source → front-end AST)."""

import pytest

from repro.errors import LangError
from repro.ir.types import I32, U8
from repro.lang.parser import parse
from repro.lang import ast as A


MINIMAL = """
kernel k {
  output u8 out[4];
  u8 x;
  for (i = 0; i < 4; i++) {
    x = 1;
    out[i] = x;
  }
}
"""


def first_stmt(src):
    return parse(src).body[0]


def expr_of(text, decls="u8 x; u8 y; u8 z;"):
    src = f"kernel k {{ output u8 o[1]; {decls} x = {text}; }}"
    unit = parse(src)
    for s in unit.body:
        if isinstance(s, A.LAssign):
            return s.expr
    raise AssertionError("no assignment parsed")


class TestStructure:
    def test_minimal_kernel(self):
        unit = parse(MINIMAL)
        assert unit.name == "k"
        assert [a.name for a in unit.arrays] == ["out"]
        assert unit.arrays[0].output and not unit.arrays[0].rom
        assert isinstance(unit.body[0], A.LFor)

    def test_quoted_kernel_name(self):
        unit = parse('kernel "fig 2.1" { output u8 o[1]; }')
        assert unit.name == "fig 2.1"

    def test_decl_kinds(self):
        unit = parse("""
        kernel k {
          param i32 n;
          rom u8 lut[2] = { 1, 2 };
          output i32 out[4];
          i32 in0[4] = { 0, 1, 2, 3 };
          f64 acc = 0.5;
        }
        """)
        assert [p.name for p in unit.params] == ["n"]
        names = {a.name: a for a in unit.arrays}
        assert names["lut"].rom and list(names["lut"].init) == [1, 2]
        assert names["out"].output and names["out"].init is None
        assert list(names["in0"].init) == [0, 1, 2, 3]
        assert unit.scalars[0].name == "acc"
        assert unit.scalars[0].init is not None

    def test_multidim_array(self):
        unit = parse(
            "kernel k { output u8 m[2][3]; u8 x; x = m[1][2]; }")
        assert list(unit.arrays[0].shape) == [2, 3]
        ld = unit.body[0].expr
        assert isinstance(ld, A.LIndex) and len(ld.index) == 2

    def test_pragma_kernel_marks_loop(self):
        unit = parse("""
        kernel k {
          output u8 o[2];
          u8 a;
          for (i = 0; i < 2; i++) {
            a = 0;
            #pragma kernel
            for (j = 0; j < 3; j++) { a = a + 1; }
            o[i] = a;
          }
        }
        """)
        outer = unit.body[0]
        inner = next(s for s in outer.body if isinstance(s, A.LFor))
        assert not outer.kernel and inner.kernel

    def test_for_step_forms(self):
        def loop(hdr):
            return first_stmt(
                f"kernel k {{ output u8 o[9]; for ({hdr}) {{ o[0] = 1; }} }}")
        assert loop("i = 0; i < 8; i++").step == 1
        assert loop("i = 8; i > 0; i--").step == -1
        assert loop("i = 0; i < 8; i += 2").step == 2
        assert loop("i = 8; i > 0; i -= 2").step == -2

    def test_if_else_chain(self):
        unit = parse("""
        kernel k {
          output u8 o[1];
          u8 x;
          if (x < 1) { x = 0; } else if (x < 2) { x = 1; } else { x = 2; }
        }
        """)
        top = unit.body[0]
        assert isinstance(top, A.LIf)
        assert isinstance(top.orelse[0], A.LIf)


class TestExpressions:
    def test_precedence_ladder(self):
        e = expr_of("x | y ^ z & x")
        assert isinstance(e, A.LBin) and e.op == "or"
        assert e.rhs.op == "xor" and e.rhs.rhs.op == "and"

    def test_arith_binds_tighter_than_shift(self):
        e = expr_of("x + y << 2")
        assert e.op == "shl" and e.lhs.op == "add"

    def test_parens_override(self):
        e = expr_of("x * (y + z)")
        assert e.op == "mul" and e.rhs.op == "add"

    def test_ternary_lowest(self):
        e = expr_of("x < y ? x : y + 1")
        assert isinstance(e, A.LSelect)
        assert isinstance(e.cond, A.LBin) and e.cond.op == "lt"

    def test_cast(self):
        e = expr_of("(i32) x")
        assert isinstance(e, A.LCast) and e.target is I32

    def test_parenthesized_var_is_not_cast(self):
        e = expr_of("(x)")
        assert isinstance(e, A.LVar)

    def test_min_max_calls(self):
        e = expr_of("min(x, max(y, 3))")
        assert isinstance(e, A.LCall) and e.fn == "min"
        assert isinstance(e.args[1], A.LCall) and e.args[1].fn == "max"

    def test_negative_literal_folds(self):
        e = expr_of("-5")
        assert isinstance(e, A.LLit) and e.value == -5

    def test_negated_expression_stays_unop(self):
        e = expr_of("-(5)")
        assert isinstance(e, A.LUn) and e.op == "neg"
        e = expr_of("-x")
        assert isinstance(e, A.LUn) and e.op == "neg"

    def test_typed_literal_suffix(self):
        e = expr_of("255u8")
        assert isinstance(e, A.LLit) and e.suffix is U8

    def test_bool_literals(self):
        e = expr_of("true ? x : y")
        assert isinstance(e.cond, A.LLit) and e.cond.value is True


class TestContextualKeywords:
    def test_rom_as_array_name(self):
        # the randgen nests name their lookup table literally "rom"
        unit = parse("""
        kernel k {
          rom u8 rom[2] = { 1, 2 };
          output u8 o[1];
          u8 x;
          x = rom[0];
        }
        """)
        assert unit.arrays[0].name == "rom" and unit.arrays[0].rom

    def test_output_as_scalar_name(self):
        unit = parse(
            "kernel k { output u8 o[1]; u8 output; output = 1; }")
        assert unit.scalars[0].name == "output"

    def test_hard_keywords_rejected(self):
        with pytest.raises(LangError, match="reserved"):
            parse("kernel k { output u8 o[1]; u8 for; }")


class TestParseErrors:
    @pytest.mark.parametrize("src, fragment", [
        ("kernel", "expected"),
        ("kernel k { output u8 o[1]; x = ; }", "expected"),
        ("kernel k { output u8 o[1]; for (i = 0; j < 4; i++) {} }", "i"),
        ("kernel k { output u8 o[1]; for (i = 0; i < 4; i--) {} }", ""),
        ("kernel k { output u8 o[1]; u8 x; x = min(x); }", "2 argument"),
        ("kernel k { output u8 o[1]; u8 x; x = hypot(x, x); }", "min"),
    ])
    def test_raises_langerror(self, src, fragment):
        with pytest.raises(LangError) as exc:
            parse(src)
        assert fragment in str(exc.value)
        assert ":" in str(exc.value)  # has file:line:col

    def test_missing_semicolon_points_at_line(self):
        src = "kernel k {\n  output u8 o[1];\n  u8 x;\n  x = 1\n}\n"
        with pytest.raises(LangError) as exc:
            parse(src)
        assert ":5:" in str(exc.value) or ":4:" in str(exc.value)
