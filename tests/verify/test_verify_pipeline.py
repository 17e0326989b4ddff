"""REPRO_VERIFY wiring: the pipeline hooks, observation-only golden
byte-identity, and the `repro verify` / `repro lint` CLI entry points."""

import pathlib

import pytest

import repro
from repro.analysis import find_loop_nests
from repro.cli import main
from repro.harness import (
    format_table_6_2, format_table_6_3, run_table_6_2, run_table_6_3,
)
from repro.obs import registry
from repro.pipeline import CompilationPipeline
from tests.conftest import build_fig41

DATA = pathlib.Path(__file__).resolve().parents[1] / "data"
KERNELS = (pathlib.Path(__file__).resolve().parents[2]
           / "src" / "repro" / "lang" / "kernels")


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.clear_caches()
    yield
    repro.clear_caches()


DESIGNS = [("original", 1), ("pipelined", 1), ("squash", 4), ("jam", 4),
           ("jam+squash", 2)]


def run_all_variants(monkeypatch, mode):
    if mode is None:
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
    else:
        monkeypatch.setenv("REPRO_VERIFY", mode)
    prog = build_fig41(m=32, n=16)
    nest = find_loop_nests(prog)[0]
    pipe = CompilationPipeline()
    points = {}
    for variant, ds in DESIGNS:
        points[variant] = pipe.compile(prog, nest, variant, ds=ds, jam=2)
    return points


def stage_calls(delta, stage):
    """Timed entries of pipeline stage ``stage`` in a registry delta."""
    return delta["histograms"].get(f"stage.{stage}", {}).get("count", 0)


class TestPipelineHook:
    def test_strict_mode_passes_every_variant(self, monkeypatch):
        run_all_variants(monkeypatch, "strict")

    def test_verified_points_match_unverified(self, monkeypatch):
        baseline = run_all_variants(monkeypatch, None)
        repro.clear_caches()
        strict = run_all_variants(monkeypatch, "strict")
        for variant, point in baseline.items():
            assert strict[variant] == point

    def test_verify_stage_is_timed(self, monkeypatch):
        before = registry().snapshot()
        run_all_variants(monkeypatch, "strict")
        assert stage_calls(registry().delta_since(before), "verify") > 0

    def test_off_mode_skips_the_verify_stage(self, monkeypatch):
        # the knob's extra checks are off, but every design's schedule
        # still passes the validate stage (the re-verifier) once
        before = registry().snapshot()
        run_all_variants(monkeypatch, None)
        delta = registry().delta_since(before)
        assert stage_calls(delta, "verify") == 0
        assert stage_calls(delta, "validate") == len(DESIGNS)


class TestGoldenByteIdentity:
    def test_strict_table_6_2_is_byte_identical(self, monkeypatch):
        monkeypatch.setenv("REPRO_VERIFY", "strict")
        repro.clear_caches()
        sweep = run_table_6_2(factors=(2,))
        golden = (DATA / "golden_table_6_2_f2.txt").read_text()
        assert format_table_6_2(sweep) == golden
        norm = run_table_6_3(sweep)
        golden3 = (DATA / "golden_table_6_3_f2.txt").read_text()
        assert format_table_6_3(norm) == golden3


class TestCLI:
    def test_verify_command_passes_on_iir(self, capsys):
        rc = main(["verify", "--kernel", "iir",
                   "--variants", "original", "pipelined", "squash",
                   "--factors", "2"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "0 failed" in out
        assert "strict mode" in out

    def test_verify_needs_a_kernel(self, capsys):
        assert main(["verify"]) == 2

    def test_verify_covers_every_scheduler(self, capsys):
        rc = main(["verify", "--kernel", "iir",
                   "--variants", "original", "squash", "--factors", "2",
                   "--scheduler", "modulo", "--scheduler", "backtrack"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iir/squash(2)@modulo [acev]: ok" in out
        assert "iir/squash(2)@backtrack [acev]: ok" in out
        # list-scheduled whatever the strategy: verified once, unlabelled
        assert "iir/original [acev]: ok" in out
        assert "original@" not in out
        assert "verified 3 design(s)" in out

    def test_verify_labels_jam_squash_with_both_factors(self, capsys):
        rc = main(["verify", "--kernel", "iir", "--variants", "jam+squash",
                   "--factors", "2", "--jam-factors", "2", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "iir/jam(2)+squash(2) [acev]: ok" in out
        assert "iir/jam(4)+squash(2) [acev]: ok" in out

    def test_lint_clean_kernel_exits_zero(self, capsys):
        path = str(KERNELS / "simple-fg.lang")
        rc = main(["lint", path, "--strict"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "clean" in out

    def test_lint_strict_fails_on_warnings(self, tmp_path, capsys):
        bad = tmp_path / "bad.lang"
        bad.write_text("""\
kernel bad {
  param i32 unused;
  output i32 out[4];
  i32 i;

  for (i = 0; i < 4; i++) {
    out[i] = i;
  }
}
""")
        assert main(["lint", str(bad)]) == 0
        assert main(["lint", str(bad), "--strict"]) == 1
        out = capsys.readouterr().out
        assert "W001" in out

    def test_lint_parse_error_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "broken.lang"
        bad.write_text("kernel broken {")
        assert main(["lint", str(bad)]) == 1
        assert "E000" in capsys.readouterr().out

    def test_lint_missing_file_exits_two(self, capsys):
        assert main(["lint", "/no/such/file.lang"]) == 2
