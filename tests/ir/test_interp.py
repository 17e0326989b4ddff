"""Unit tests for the tree-walking interpreter."""

import numpy as np
import pytest

from repro.errors import InterpError
from repro.ir import F32, F64, I8, I32, U8, ProgramBuilder, Var, run_program
from repro.ir.interp import Interpreter, eval_binop, make_table_cost_model


class TestEvalBinop:
    @pytest.mark.parametrize("op,a,b,expected", [
        ("add", 250, 10, 4),       # u8 wrap
        ("sub", 3, 10, 249),
        ("mul", 16, 16, 0),
        ("and", 0xF3, 0x0F, 3),
        ("or", 0x80, 1, 0x81),
        ("xor", 0xFF, 0x0F, 0xF0),
        ("shl", 0x81, 1, 2),
        ("shr", 0x80, 3, 0x10),
        ("min", 5, 9, 5),
        ("max", 5, 9, 9),
    ])
    def test_u8_ops(self, op, a, b, expected):
        assert eval_binop(op, a, b, U8) == expected

    def test_signed_division_truncates_toward_zero(self):
        assert eval_binop("div", -7, 2, I32) == -3
        assert eval_binop("div", 7, -2, I32) == -3
        assert eval_binop("mod", -7, 2, I32) == -1
        assert eval_binop("mod", 7, -2, I32) == 1

    def test_division_by_zero(self):
        with pytest.raises(InterpError):
            eval_binop("div", 1, 0, I32)
        with pytest.raises(InterpError):
            eval_binop("mod", 1, 0, I32)

    def test_comparisons(self):
        assert eval_binop("lt", 1, 2, U8) == 1
        assert eval_binop("ge", 1, 2, U8) == 0
        assert eval_binop("eq", 3, 3, U8) == 1
        assert eval_binop("ne", 3, 3, U8) == 0

    def test_oversized_shift_is_zero(self):
        assert eval_binop("shl", 1, 8, U8) == 0
        assert eval_binop("shr", 0x80, 9, U8) == 0

    def test_arithmetic_shr_on_signed(self):
        assert eval_binop("shr", -8, 1, I8) == -4

    def test_f32_rounds_each_op(self):
        r = eval_binop("add", 1.0, 1e-9, F32)
        assert r == 1.0  # rounded through IEEE single
        assert eval_binop("add", 1.0, 1e-9, F64) != 1.0

    def test_unpickled_f32_still_rounds(self):
        # types are compared by value: a DFG or program loaded from the
        # artifact store carries copies of F32, not F32 itself
        import pickle
        f32 = pickle.loads(pickle.dumps(F32))
        assert eval_binop("add", 1.0, 1e-9, f32) == 1.0


class TestProgramExecution:
    def test_fig21_runs(self, fig21):
        res = run_program(fig21)
        # reference: 4 rounds of a = ((a+7) & 0xff) ^ 0x5a
        def rounds(a):
            for _ in range(4):
                a = ((a + 7) & 0xFF) ^ 0x5A
            return a
        expected = [rounds(v) for v in range(1, 9)]
        assert list(res.arrays["data_out"]) == expected

    def test_fig41_matches_python(self, fig41):
        res = run_program(fig41, params={"k": 3})
        def ref(i, m=8, n=5):
            a = i * 3 + 1
            for j in range(n):
                b = a + i
                c = b - j
                a = (c & 15) * 3
            return a
        assert list(res.arrays["out"]) == [ref(i) for i in range(8)]

    def test_missing_param_raises(self, fig41):
        with pytest.raises(InterpError):
            run_program(fig41)

    def test_array_override_and_copy(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4,), U8, output=True)
        with b.loop("i", 0, 4) as i:
            a[i] = a[i] + 1
        src = np.array([1, 2, 3, 4], dtype=np.uint8)
        res = run_program(b.build(), arrays={"a": src})
        assert list(res.arrays["a"]) == [2, 3, 4, 5]
        assert list(src) == [1, 2, 3, 4]  # caller's buffer untouched

    def test_rom_override_rejected(self):
        b = ProgramBuilder("p")
        b.rom("t", np.zeros(4, dtype=np.uint8), U8)
        with pytest.raises(InterpError):
            run_program(b.build(), arrays={"t": np.ones(4)})

    def test_out_of_bounds_store(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4,), U8)
        x = b.local("x", I32)
        b.assign(x, 9)
        b.store(a, b.var("x"), 1)
        with pytest.raises(InterpError):
            run_program(b.build())

    def test_out_of_bounds_load(self):
        b = ProgramBuilder("p")
        a = b.array("a", (4,), U8)
        x = b.local("x", I32)
        b.assign(x, a[b.param("n")])
        with pytest.raises(InterpError):
            run_program(b.build(), params={"n": 4})

    def test_undefined_scalar_read(self):
        b = ProgramBuilder("p")
        x = b.local("x", I32)
        y = b.local("y", I32)
        b.assign(x, Var("y", I32))
        with pytest.raises(InterpError):
            run_program(b.build(validate=False))

    def test_assignment_wraps_to_local_type(self):
        b = ProgramBuilder("p")
        x = b.local("x", U8)
        b.assign(x, 300)
        assert run_program(b.build()).scalars["x"] == 44

    def test_select_evaluates_both_arms(self):
        # both arms are charged (hardware select semantics)
        b = ProgramBuilder("p")
        x = b.local("x", I32)
        b.assign(x, 1)
        from repro.ir import Select
        b.assign(x, Select(b.var("x") < 0, b.var("x") + 1, b.var("x") + 2))
        res = run_program(b.build())
        assert res.scalars["x"] == 3
        assert res.op_counts.get("select") == 1
        assert res.op_counts.get("add") == 2


class TestCostAccounting:
    def test_loop_records(self, fig21):
        res = run_program(fig21)
        recs = sorted(res.loop_records.values(), key=lambda r: r.depth)
        assert len(recs) == 2
        outer, inner = recs
        assert outer.iterations == 8
        assert inner.iterations == 32
        assert outer.inclusive_cost > inner.inclusive_cost > 0
        assert res.total_cost >= outer.inclusive_cost

    def test_cost_model_table(self, fig21):
        model = make_table_cost_model({"add": 10, "xor": 1}, default=0)
        res = Interpreter(fig21, model).run()
        # 32 adds (inner) * 10 + 32 xor * 1
        assert res.total_cost == 32 * 10 + 32 * 1

    def test_op_counts(self, fig21):
        res = run_program(fig21)
        assert res.op_counts["load"] == 8    # data_in[i], once per outer iter
        assert res.op_counts["store"] == 8   # data_out[i]
        assert res.op_counts["add"] == 32    # inner body, 8 * 4
        assert res.op_counts["xor"] == 32
