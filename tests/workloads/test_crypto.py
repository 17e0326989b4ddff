"""Known-answer and IR-equivalence tests for the crypto workloads."""

import functools
import operator

import pytest

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.ir.interp import run_program
from repro.workloads import des, skipjack


class TestSkipjackReference:
    def test_nist_known_answer(self):
        ct = skipjack.encrypt_block(skipjack.TEST_VECTOR["key"],
                                    skipjack.TEST_VECTOR["plaintext"])
        assert ct == skipjack.TEST_VECTOR["ciphertext"]

    def test_f_table_is_permutation(self):
        assert sorted(skipjack.F_TABLE) == list(range(256))

    def test_ecb_blocks_independent(self):
        key = skipjack.DEFAULT_KEY
        data = bytes(range(16))
        ct = skipjack.encrypt_ecb(key, data)
        assert ct[:8] == skipjack.encrypt_block(key, data[:8])
        assert ct[8:] == skipjack.encrypt_block(key, data[8:])

    def test_bad_sizes_rejected(self):
        with pytest.raises(ValueError):
            skipjack.encrypt_block(b"short", b"x" * 8)
        with pytest.raises(ValueError):
            skipjack.encrypt_ecb(skipjack.DEFAULT_KEY, b"x" * 9)

    def test_key_schedule_expansion(self):
        cv = skipjack.expanded_key_schedule(skipjack.DEFAULT_KEY)
        assert len(cv) == 128
        assert cv[0] == skipjack.DEFAULT_KEY[0]
        assert cv[10] == skipjack.DEFAULT_KEY[0]


class TestSkipjackIR:
    @pytest.mark.parametrize("variant", ["mem", "hw"])
    def test_matches_reference(self, variant):
        prog = skipjack.build_program(m_blocks=4, variant=variant)
        res = run_program(prog)
        exp = skipjack.reference_output(prog.arrays["data_in"].init)
        assert list(res.arrays["data_out"]) == list(exp)

    def test_hw_variant_uses_roms(self):
        prog = skipjack.build_program(m_blocks=2, variant="hw")
        assert prog.arrays["F"].rom and prog.arrays["cv"].rom
        prog = skipjack.build_program(m_blocks=2, variant="mem")
        assert not prog.arrays["F"].rom

    @pytest.mark.parametrize("ds", [2, 4, 8])
    @pytest.mark.parametrize("variant", ["mem", "hw"])
    def test_squash_preserves_encryption(self, ds, variant):
        prog = skipjack.build_program(m_blocks=8, variant=variant)
        nest = find_kernel_nests(prog)[0]
        res = unroll_and_squash(prog, nest, ds)
        exp = skipjack.reference_output(prog.arrays["data_in"].init)
        got = run_program(res.program).arrays["data_out"]
        assert list(got) == list(exp)

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            skipjack.build_program(variant="bogus")


class TestDESReference:
    def test_classic_known_answer(self):
        ct = des.encrypt_block(des.TEST_VECTOR["key"],
                               des.TEST_VECTOR["plaintext"])
        assert ct == des.TEST_VECTOR["ciphertext"]

    def test_ip_fp_inverse(self):
        for v in (0, 0x0123456789ABCDEF, (1 << 64) - 1, 0xDEADBEEFCAFEF00D):
            assert des.final_permutation(des.initial_permutation(v)) == v

    def test_core_composes_to_full(self):
        key, pt = des.TEST_VECTOR["key"], des.TEST_VECTOR["plaintext"]
        assert des.final_permutation(
            des.des_core(key, des.initial_permutation(pt))) == \
            des.encrypt_block(key, pt)

    def test_key_chunks_shape(self):
        ks = des.key_chunks(des.DEFAULT_KEY)
        assert len(ks) == 128 and max(ks) < 64

    def test_sp_tables_cover_p_outputs(self):
        sp = des.sp_tables()
        assert [len(box) for box in sp] == [64] * 8
        # each table only sets its own P-scattered bit positions; the union
        # across boxes covers all 32 bits
        union = 0
        for s in range(8):
            union |= functools.reduce(operator.or_, sp[s])
        assert union == 0xFFFFFFFF


class TestDESIR:
    @pytest.mark.parametrize("variant", ["mem", "hw"])
    def test_matches_reference(self, variant):
        prog = des.build_program(m_blocks=3, variant=variant)
        res = run_program(prog)
        exp = des.reference_output(prog.arrays["data_in"].init)
        assert list(res.arrays["data_out"]) == list(exp)

    @pytest.mark.parametrize("ds", [2, 4])
    def test_squash_preserves_encryption(self, ds):
        prog = des.build_program(m_blocks=4, variant="hw")
        nest = find_kernel_nests(prog)[0]
        res = unroll_and_squash(prog, nest, ds)
        exp = des.reference_output(prog.arrays["data_in"].init)
        got = run_program(res.program).arrays["data_out"]
        assert list(got) == list(exp)

    def test_reduced_rounds(self):
        prog = des.build_program(m_blocks=2, variant="hw", n_rounds=4)
        res = run_program(prog)
        exp = des.reference_output(prog.arrays["data_in"].init, n_rounds=4)
        assert list(res.arrays["data_out"]) == list(exp)
