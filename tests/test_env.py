"""Validated environment knobs: clear errors instead of raw tracebacks,
and the worker-count scaling rules."""

import pytest

from repro.env import (
    BATCH_TIMEOUT_ENV, RETRIES_ENV, analysis_cache_enabled, batch_timeout,
    env_float, env_int, retries, verify_mode,
)
from repro.errors import ReproError
from repro.explore.engine import (
    _MAX_DEFAULT_JOBS, _MAX_SCALED_JOBS, default_jobs,
)


class TestEnvInt:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_empty_returns_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "  ")
        assert env_int("REPRO_TEST_KNOB", 7) == 7

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "42")
        assert env_int("REPRO_TEST_KNOB", 7) == 42

    def test_non_integer_raises_repro_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "eight")
        with pytest.raises(ReproError, match="REPRO_TEST_KNOB.*integer"):
            env_int("REPRO_TEST_KNOB", 7)

    def test_below_minimum_raises_repro_error(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "-3")
        with pytest.raises(ReproError, match="minimum is 1"):
            env_int("REPRO_TEST_KNOB", 7, minimum=1)


class TestEnvFloat:
    def test_unset_returns_default(self, monkeypatch):
        monkeypatch.delenv("REPRO_TEST_KNOB", raising=False)
        assert env_float("REPRO_TEST_KNOB", 1.5) == 1.5
        assert env_float("REPRO_TEST_KNOB", None) is None

    def test_valid_value_parses(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "2.5")
        assert env_float("REPRO_TEST_KNOB", None) == 2.5

    def test_non_numeric_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "soon")
        with pytest.raises(ReproError, match="REPRO_TEST_KNOB.*number"):
            env_float("REPRO_TEST_KNOB", None)

    def test_exclusive_minimum(self, monkeypatch):
        monkeypatch.setenv("REPRO_TEST_KNOB", "0")
        with pytest.raises(ReproError, match="> 0"):
            env_float("REPRO_TEST_KNOB", None, minimum=0.0,
                      exclusive=True)


class TestSupervisionKnobs:
    def test_retries_default(self, monkeypatch):
        monkeypatch.delenv(RETRIES_ENV, raising=False)
        assert retries() == 2

    def test_retries_env_and_override(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "5")
        assert retries() == 5
        assert retries(0) == 0  # explicit override beats the env

    def test_retries_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv(RETRIES_ENV, "-1")
        with pytest.raises(ReproError, match=RETRIES_ENV):
            retries()
        with pytest.raises(ReproError, match="retries"):
            retries(-3)

    def test_batch_timeout_default_off(self, monkeypatch):
        monkeypatch.delenv(BATCH_TIMEOUT_ENV, raising=False)
        assert batch_timeout() is None

    def test_batch_timeout_env_and_override(self, monkeypatch):
        monkeypatch.setenv(BATCH_TIMEOUT_ENV, "1.5")
        assert batch_timeout() == 1.5
        assert batch_timeout(9.0) == 9.0

    def test_batch_timeout_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv(BATCH_TIMEOUT_ENV, "0")
        with pytest.raises(ReproError, match=BATCH_TIMEOUT_ENV):
            batch_timeout()
        with pytest.raises(ReproError, match="> 0"):
            batch_timeout(0.0)


class TestKnobValidation:
    def test_repro_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "fast")
        with pytest.raises(ReproError, match="REPRO_JOBS"):
            default_jobs()

    def test_repro_jobs_rejects_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ReproError, match="REPRO_JOBS"):
            default_jobs()

    def test_repro_jobs_valid_wins(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "3")
        assert default_jobs() == 3
        assert default_jobs(n_tasks=100000) == 3  # env beats scaling

    def test_exact_budget_rejects_garbage(self, monkeypatch):
        from repro.hw.exact import _env_int
        monkeypatch.setenv("REPRO_EXACT_BUDGET", "lots")
        with pytest.raises(ReproError, match="REPRO_EXACT_BUDGET"):
            _env_int("REPRO_EXACT_BUDGET", 1)

    def test_exact_node_limit_rejects_negative(self, monkeypatch):
        from repro.hw.exact import _env_int
        monkeypatch.setenv("REPRO_EXACT_NODE_LIMIT", "-1")
        with pytest.raises(ReproError, match="REPRO_EXACT_NODE_LIMIT"):
            _env_int("REPRO_EXACT_NODE_LIMIT", 1)

    def test_exact_scheduler_surfaces_the_error(self, monkeypatch):
        from repro.hw.exact import exact_modulo_schedule
        from repro.hw.ops import ACEV_LIBRARY
        from repro.analysis import find_loop_nests
        from repro.core import analyze_nest
        from tests.conftest import build_fig21
        monkeypatch.setenv("REPRO_EXACT_BUDGET", "many")
        prog = build_fig21()
        nest = find_loop_nests(prog)[0]
        _, _, _, dfg, _, _ = analyze_nest(prog, nest, 1)
        with pytest.raises(ReproError, match="REPRO_EXACT_BUDGET"):
            exact_modulo_schedule(dfg, ACEV_LIBRARY)


class TestJobScaling:
    def test_small_sweeps_keep_the_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda _: set(range(64)), raising=False)
        assert default_jobs() == _MAX_DEFAULT_JOBS
        assert default_jobs(n_tasks=8) == _MAX_DEFAULT_JOBS

    def test_large_sweeps_scale_past_the_cap(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda _: set(range(64)), raising=False)
        assert default_jobs(n_tasks=100) == 25
        assert default_jobs(n_tasks=100000) == _MAX_SCALED_JOBS

    def test_never_exceeds_cores(self, monkeypatch):
        monkeypatch.delenv("REPRO_JOBS", raising=False)
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda _: {0, 1}, raising=False)
        assert default_jobs(n_tasks=100000) == 2


class TestAnalysisCacheMode:
    # "disk": the two-tier (memory + disk) memos are on
    @pytest.mark.parametrize("raw,mode", [
        ("0", "off"), ("1", "disk"), ("", "disk"), (" 0 ", "off"),
    ])
    def test_modes(self, monkeypatch, raw, mode):
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", raw)
        assert analysis_cache_enabled() == (mode == "disk")

    def test_unset_defaults_on(self, monkeypatch):
        monkeypatch.delenv("REPRO_ANALYSIS_CACHE", raising=False)
        assert analysis_cache_enabled()

    @pytest.mark.parametrize("raw", ["mem", "MEM", "yes", "off", "no", "2"])
    def test_garbage_raises_repro_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", raw)
        with pytest.raises(ReproError, match="REPRO_ANALYSIS_CACHE"):
            analysis_cache_enabled()


class TestVerifyMode:
    @pytest.mark.parametrize("raw,mode", [
        ("0", "off"), ("off", "off"), ("", "off"), ("  ", "off"),
        ("1", "on"), ("on", "on"), ("ON", "on"),
        ("strict", "strict"), ("STRICT", "strict"),
    ])
    def test_modes(self, monkeypatch, raw, mode):
        monkeypatch.setenv("REPRO_VERIFY", raw)
        assert verify_mode() == mode

    def test_unset_defaults_off(self, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        assert verify_mode() == "off"

    @pytest.mark.parametrize("raw", ["2", "yes", "paranoid"])
    def test_garbage_raises_repro_error(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_VERIFY", raw)
        with pytest.raises(ReproError, match="REPRO_VERIFY"):
            verify_mode()
