"""Tests for the IIR kernel and the Table 1.1 profiling workloads."""

import numpy as np
import pytest

from repro.analysis import find_kernel_nests
from repro.core import unroll_and_squash
from repro.ir import run_program
from repro.nimble import profile_summary
from repro.workloads import (
    adpcm, epic, iir, mpeg2, simple, table_1_1_programs, table_6_1_benchmarks,
    benchmark_by_name, wavelet,
)


class TestIIR:
    def test_matches_reference_bitexact(self):
        prog = iir.build_program(m_channels=3, n_points=16)
        res = run_program(prog, params=iir.default_params())
        exp = iir.reference_output(prog.arrays["x_in"].init, 3, 16)
        np.testing.assert_array_equal(res.arrays["y_out"], exp)

    def test_channels_independent(self):
        x = np.linspace(-1, 1, 32)
        one = iir.filter_channel(x)
        prog = iir.build_program(m_channels=2, n_points=32,
                                 data=np.concatenate([x, x]))
        res = run_program(prog, params=iir.default_params())
        np.testing.assert_array_equal(res.arrays["y_out"][:32], one)
        np.testing.assert_array_equal(res.arrays["y_out"][32:], one)

    @pytest.mark.parametrize("ds", [2, 4, 8])
    def test_squash_preserves_filter(self, ds):
        prog = iir.build_program(m_channels=8, n_points=12)
        nest = find_kernel_nests(prog)[0]
        res = unroll_and_squash(prog, nest, ds)
        exp = iir.reference_output(prog.arrays["x_in"].init, 8, 12)
        got = run_program(res.program, params=iir.default_params())
        np.testing.assert_array_equal(got.arrays["y_out"], exp)

    def test_filter_attenuates_impulse_tail(self):
        x = np.zeros(64)
        x[0] = 1.0
        y = iir.filter_channel(x)
        assert abs(y[-1]) < abs(y[:8]).max()


class TestADPCM:
    def test_ir_matches_reference(self):
        prog = adpcm.build_program(n_samples=64)
        res = run_program(prog)
        codes = adpcm.encode(prog.arrays["pcm"].init)
        np.testing.assert_array_equal(res.arrays["codes"], codes)
        np.testing.assert_array_equal(res.arrays["rec"], adpcm.decode(codes))

    def test_roundtrip_tracks_signal(self):
        t = np.arange(256)
        x = (5000 * np.sin(t / 6.0)).astype(np.int16)
        rec = adpcm.decode(adpcm.encode(x))
        err = np.abs(rec.astype(np.int64) - x).mean()
        assert err < 600  # 4-bit ADPCM tracks a smooth signal closely

    def test_profile_shape(self):
        # Table 1.1 row: 3 loops, all hot, ~all time in loops
        prog = adpcm.build_program(n_samples=128)
        s = profile_summary(prog)
        assert s.n_loops == 3 and s.n_hot_loops == 3
        assert s.hot_share > 0.95


class TestWavelet:
    def test_ir_matches_reference(self):
        prog = wavelet.build_program(n=16, levels=3, q=4)
        res = run_program(prog)
        ref = wavelet.haar2d(prog.arrays["img"].init, 3)
        np.testing.assert_array_equal(res.arrays["img"], ref.astype(np.int32))
        np.testing.assert_array_equal(
            res.arrays["qcoef"], wavelet.quantize(ref, 4).astype(np.int32))

    def test_energy_compacts_into_low_band(self):
        img = wavelet.build_program(n=16, levels=2).arrays["img"].init
        out = wavelet.haar2d(img, 2)
        low = np.abs(out[:4, :4]).mean()
        high = np.abs(out[8:, 8:]).mean()
        assert low > high


class TestEpic:
    def test_encoder_matches_reference(self):
        img = epic.default_image(16)
        bands, base, nz = epic.encode_reference(img, 2, 3)
        prog = epic.build_encoder(16, 2, 3)
        res = run_program(prog)
        assert res.arrays["stats"][0] == nz
        for k, bb in enumerate(bands):
            np.testing.assert_array_equal(
                res.arrays["bands"][k, :bb.shape[0], :bb.shape[1]], bb)

    def test_decoder_matches_reference(self):
        img = epic.default_image(16)
        bands, base, _ = epic.encode_reference(img, 2, 3)
        prog = epic.build_decoder(16, 2, 3)
        res = run_program(prog)
        recon = epic.decode_reference(bands, base, 3)
        np.testing.assert_array_equal(res.arrays["work"],
                                      recon.astype(np.int32))

    def test_reconstruction_close_to_original(self):
        img = epic.default_image(16)
        bands, base, _ = epic.encode_reference(img, 2, 3)
        recon = epic.decode_reference(bands, base, 3)
        err = np.abs(recon - img).mean()
        assert err < 25


class TestMpeg2:
    def test_ir_matches_reference(self):
        cur, ref = mpeg2._frames(16)
        mvs, coeffs, nz = mpeg2.encode_reference(cur, ref, 2, 4)
        prog = mpeg2.build_program(16, 2, 4)
        res = run_program(prog)
        assert res.arrays["stats"][0] == nz
        np.testing.assert_array_equal(res.arrays["coef"],
                                      coeffs.astype(np.int32))
        got_mv = [(int(a), int(b)) for a, b in res.arrays["mv"]]
        assert got_mv == mvs

    def test_motion_search_finds_shift(self):
        # cur is ref rolled by (1, 2): interior blocks should find it
        cur, ref = mpeg2._frames(16)
        dy, dx, sad0 = mpeg2.motion_search_reference(cur, ref, 8, 8, 2)
        _, _, sad_none = (0, 0, int(np.abs(
            cur[8:16, 8:16].astype(np.int64) - ref[8:16, 8:16]).sum()))
        assert sad0 <= sad_none

    def test_dct_dc_term(self):
        blk = np.full((8, 8), 16)
        out = mpeg2.dct8_reference(blk, mpeg2.cos_table())
        assert abs(out[0, 0]) > 8 * abs(out[1:, 1:]).max() or \
            np.abs(out[1:, 1:]).max() == 0


class TestRegistries:
    def test_table_6_1_complete(self):
        names = [b.name for b in table_6_1_benchmarks()]
        assert names == ["skipjack-mem", "skipjack-hw", "des-mem", "des-hw",
                         "iir"]

    def test_table_1_1_complete(self):
        names = [b.name for b in table_1_1_programs()]
        assert names == ["wavelet", "epic", "unepic", "adpcm", "mpeg2",
                         "skipjack"]

    def test_lookup(self):
        bm = benchmark_by_name("iir")
        assert bm.params  # coefficient bindings present
        with pytest.raises(KeyError):
            benchmark_by_name("nope")

    def test_all_small_builds_run(self):
        for bm in table_6_1_benchmarks():
            prog = bm.build(**bm.small_kwargs)
            run_program(prog, params=bm.params)

    def test_profile_concentration_matches_paper(self):
        """Table 1.1's claim: the hot loops cover >= 85% of execution."""
        for bm in table_1_1_programs():
            prog = bm.build(**bm.eval_kwargs)
            s = profile_summary(prog, params=bm.params)
            assert s.hot_share >= 0.85, (bm.name, s.hot_share)
            assert 2 <= s.n_loops and s.n_hot_loops <= s.n_loops
            if bm.name == "adpcm":  # the paper's row: 3 loops, all hot
                assert s.n_loops == 3 and s.n_hot_loops == 3


class TestSimpleNest:
    def test_fg_reference(self):
        prog = simple.build_fg_nest(m=8, n=4)
        res = run_program(prog)
        exp = simple.fg_reference(prog.arrays["data_in"].init, 4)
        np.testing.assert_array_equal(res.arrays["data_out"], exp)

    def test_running_example_kernel_found(self):
        prog = simple.build_running_example()
        assert find_kernel_nests(prog)
