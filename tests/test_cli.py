"""Tests for the command-line interface."""

import pathlib

import pytest

from repro.cli import main
from repro.hw.schedulers import scheduler_by_name
from tests.conftest import ShiftedSink

EXAMPLES = pathlib.Path(__file__).resolve().parents[1] / "examples"


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "skipjack-mem" in out and "MPEG-2" in out

    def test_profile(self, capsys):
        assert main(["profile", "adpcm"]) == 0
        out = capsys.readouterr().out
        assert "3 loops" in out

    def test_squash_verifies(self, capsys):
        assert main(["squash", "skipjack-hw", "--ds", "2"]) == 0
        out = capsys.readouterr().out
        assert "verified" in out and "speedup" in out

    def test_squash_show_code(self, capsys):
        assert main(["squash", "iir", "--ds", "2", "--show-code"]) == 0
        out = capsys.readouterr().out
        assert "for (" in out

    def test_squash_rejected_design_exits_1(self, capsys):
        assert main(["squash", "iir", "--ds", "16",
                     "--target", "vliw4"]) == 1
        assert "register pressure" in capsys.readouterr().err

    def test_squash_reports_a_rejected_schedule_in_one_line(
            self, capsys, monkeypatch, plant_scheduler):
        # a planted modulo bug reaches the command as a VerifyError from
        # the validate stage: one stderr line, no traceback
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        plant_scheduler(ShiftedSink("modulo", scheduler_by_name("modulo")))
        assert main(["squash", "iir", "--ds", "2"]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert "schedule.precedence" in err[0]
        assert err[0].startswith("iir/squash(2) [target=acev, "
                                 "scheduler=modulo]: ")

    def test_tables_subset(self, capsys):
        assert main(["tables", "6.2", "--factors", "2"]) == 0
        out = capsys.readouterr().out
        assert "II (cycles)" in out

    def test_tables_to_dir(self, tmp_path, capsys):
        assert main(["tables", "fig2.4", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "fig_2_4.txt").exists()

    def test_unknown_benchmark(self):
        with pytest.raises(KeyError):
            main(["profile", "nope"])

    def test_garp_target(self, capsys):
        assert main(["squash", "des-hw", "--ds", "2",
                     "--target", "garp"]) == 0


class TestExploreCommand:
    def test_pareto_and_cache_hits_on_second_run(self, tmp_path, capsys):
        argv = ["explore", "--kernel", "iir", "--factors", "2",
                "--jobs", "2", "--pareto",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "Pareto frontier" in first
        assert "0 hits" in first

        assert main(argv) == 0
        second = capsys.readouterr().out
        assert "100% hit rate" in second
        # identical designs either way
        assert first.split("cache:")[0].split("\n", 1)[0] == \
            second.split("cache:")[0].split("\n", 1)[0]

    def test_no_cache_never_hits(self, tmp_path, capsys):
        argv = ["explore", "--kernel", "iir", "--factors", "2",
                "--no-cache", "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        assert main(argv) == 0
        assert "0 hits" in capsys.readouterr().out

    def test_best_and_skips_and_out(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        assert main(["explore", "--kernel", "iir", "--kernel", "wavelet",
                     "--variants", "original", "squash",
                     "--factors", "2", "--best",
                     "--cache-dir", str(tmp_path / "cache"),
                     "--out", str(out)]) == 0
        text = capsys.readouterr().out
        assert "Best designs" in text and "Skipped designs" in text
        assert out.exists() and "Best designs" in out.read_text()

    def test_clear_cache_recomputes(self, tmp_path, capsys):
        argv = ["explore", "--kernel", "iir", "--variants", "original",
                "--cache-dir", str(tmp_path / "cache")]
        assert main(argv) == 0
        capsys.readouterr()
        assert main(argv + ["--clear-cache"]) == 0
        assert "0 hits" in capsys.readouterr().out

    def test_scheduler_axis(self, tmp_path, capsys):
        assert main(["explore", "--kernel", "iir",
                     "--variants", "original", "squash",
                     "--factors", "2",
                     "--scheduler", "modulo", "--scheduler", "backtrack",
                     "--pareto",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "squash(2)@modulo" in out or "squash(2)@backtrack" in out
        # 1 deduped original + squash under each strategy
        assert "explored 3 designs" in out

    def test_combined_variant_target_spec(self, tmp_path, capsys):
        assert main(["explore", "--kernel", "iir",
                     "--variants", "original", "jam+squash",
                     "--factors", "2", "--jam-factors", "2",
                     "--target", "acev::ports=1", "--pareto",
                     "--cache-dir", str(tmp_path / "cache")]) == 0
        out = capsys.readouterr().out
        assert "jam(2)+squash(2)" in out and "acev::ports=1" in out

    def test_quarantine_surfaces_and_sets_exit_code(self, tmp_path,
                                                    monkeypatch, capsys):
        # every worker dispatch crash-injected, zero retries: the whole
        # sweep quarantines, the report says so, and the exit code is
        # distinct from success — never a silent partial result
        monkeypatch.setenv("REPRO_FAULTS", "crash@worker:1.0")
        assert main(["explore", "--kernel", "iir",
                     "--variants", "original", "--jobs", "1",
                     "--retries", "0", "--no-cache"]) == 3
        out = capsys.readouterr().out
        assert "1 failed (quarantined)" in out
        assert "Quarantined designs" in out and "crash" in out

    def test_retries_recover_injected_crashes(self, tmp_path,
                                              monkeypatch, capsys):
        # p=0.5 coins are re-flipped per attempt: a generous --retries
        # budget converges to the full clean result set
        monkeypatch.setenv("REPRO_FAULTS", "crash@worker:0.5")
        monkeypatch.setenv("REPRO_FAULTS_SEED", "11")
        assert main(["explore", "--kernel", "iir", "--factors", "2",
                     "--jobs", "1", "--retries", "25",
                     "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "4 evaluated, 0 skipped" in out
        assert "failed" not in out

    def test_cache_dir_roots_every_persistent_cache(self, tmp_path,
                                                    monkeypatch, capsys):
        # from a scratch working directory with REPRO_CACHE_DIR unset,
        # --cache-dir holds the results and the analysis store, the
        # forked workers' writes included, and the environment of an
        # in-process caller is left as it was; the II-search memo
        # writes nothing to disk
        import os

        import repro
        work, cache = tmp_path / "work", tmp_path / "cache"
        work.mkdir()
        monkeypatch.chdir(work)
        monkeypatch.delenv("REPRO_CACHE_DIR")
        repro.clear_caches(memory_only=True)  # cold memos: workers write
        assert main(["explore", "--kernel", "iir", "--factors", "2",
                     "--variants", "pipelined", "squash", "--jobs", "2",
                     "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert list(work.iterdir()) == []
        assert list(cache.glob("results-*.jsonl"))
        assert list(cache.glob("analysis/*/base-*.pkl"))
        assert not (cache / "iisearch").exists()
        assert "REPRO_CACHE_DIR" not in os.environ

    def test_a_cold_sweep_persists_at_most_20000_bytes(self, tmp_path,
                                                       capsys):
        # compressed analyses, one artifact per analyzed nest and one
        # compact array per result record: this sweep's 50 designs and 4
        # nests' analyses take 12,664 bytes
        import repro
        cache = tmp_path / "cache"
        repro.clear_caches(memory_only=True)  # cold memos: the store writes
        assert main(["explore", "--kernel", "iir", "--kernel", "des-mem",
                     "--variants", "original", "pipelined", "squash", "jam",
                     "jam+squash", "--factors", "2", "4", "--jam-factors",
                     "2", "--jobs", "1", "--cache-dir", str(cache)]) == 0
        capsys.readouterr()
        assert list(cache.glob("results-*.jsonl"))
        # one artifact per analyzed nest: each kernel's and each
        # kernel's jam(2) program (jam+squash), and nothing else
        assert len(list(cache.glob("analysis/*/base-*.pkl"))) == 4
        assert not list(cache.glob("analysis/*/prep-*.pkl"))
        written = sum(p.stat().st_size for p in cache.rglob("*")
                      if p.is_file())
        assert written <= 20_000

    def test_resume_rejects_no_cache(self, capsys):
        assert main(["explore", "--kernel", "iir", "--resume",
                     "--no-cache"]) == 2
        assert "--resume needs the result cache" in \
            capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["explore", "--kernel", "iir", "--variants", "original",
         "--jobs", "0"],
        ["tables", "6.2", "--factors", "2", "--jobs", "0"],
        ["explore", "--kernel", "iir", "--variants", "original",
         "--retries", "-1"],
        ["explore", "--kernel", "iir", "--variants", "original",
         "--timeout", "0"],
        ["explore", "--kernel", "iir", "--variants", "original",
         "--timeout", "soon"],
    ])
    def test_bad_sweep_flag_is_a_one_line_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert f"error: argument {argv[-2]}: " in err[0]

    def test_bad_fault_spec_fails_before_forking(self, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_FAULTS", "crash@worker")
        assert main(["explore", "--kernel", "iir", "--no-cache"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "malformed" in err


#: (knob, a value it rejects, the accepted values its error names)
BAD_KNOBS = [
    ("REPRO_ANALYSIS_CACHE", "2", "use 0 or 1"),
    ("REPRO_VERIFY", "paranoid", "use 0/off, 1/on, or strict"),
    ("REPRO_TRACE", "bogus", "use 0/off, 1/on, or full"),
    ("REPRO_FAULTS", "bogus", "kind@site:probability"),
]


class TestBadKnobs:
    """A ``REPRO_*`` knob with a value it does not accept stops a command
    before it does any work: one stderr line naming the variable and its
    accepted values, exit 2."""

    @pytest.mark.parametrize("name,raw,accepted", BAD_KNOBS)
    @pytest.mark.parametrize("argv", [
        ["explore", "--kernel", "iir", "--variants", "original",
         "pipelined", "--no-cache", "--jobs", "1"],
        ["tables", "6.2", "6.3", "--factors", "2", "--jobs", "1"],
        ["compile", str(EXAMPLES / "clamp.lang"), "--ds", "2"],
        ["squash", "iir", "--ds", "2"],
    ], ids=["explore", "tables", "compile", "squash"])
    def test_one_line_and_exit_2(self, monkeypatch, capsys, argv, name,
                                 raw, accepted):
        monkeypatch.setenv(name, raw)
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        lines = err.splitlines()
        assert len(lines) == 1
        assert name in lines[0] and accepted in lines[0]

    @pytest.mark.parametrize("name,raw,accepted", BAD_KNOBS)
    def test_verify_checks_every_knob_its_mode_does_not_set(
            self, monkeypatch, capsys, name, raw, accepted):
        monkeypatch.setenv(name, raw)
        rc = main(["verify", "--kernel", "iir", "--variants", "pipelined"])
        out, err = capsys.readouterr()
        if name == "REPRO_VERIFY":  # --mode (default strict) replaces it
            assert rc == 0 and out.endswith("0 failed\n"), out + err
        else:
            assert rc == 2 and out == ""
            lines = err.splitlines()
            assert len(lines) == 1
            assert name in lines[0] and accepted in lines[0]


class TestMainModuleAlias:
    def test_python_dash_m_repro(self, monkeypatch, capsys):
        import runpy
        import sys
        monkeypatch.setattr(sys, "argv", ["repro", "list"])
        with pytest.raises(SystemExit) as exc:
            runpy.run_module("repro", run_name="__main__")
        assert exc.value.code == 0
        assert "skipjack-mem" in capsys.readouterr().out
