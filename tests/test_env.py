"""Validated environment knobs: clear errors instead of raw tracebacks,
the worker-count scaling rules, and the engine's fault-policy defaults."""

import pytest

from repro.env import analysis_cache_enabled, env_int, verify_mode
from repro.errors import ReproError
from repro.explore import engine
from repro.explore.engine import (
    _MAX_DEFAULT_JOBS, _MAX_SCALED_JOBS, default_jobs, evaluate,
)
from repro.explore.space import DesignQuery


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


class TestSupervisionKnobs:
    """``evaluate``'s fault policy: defaults and validation."""

    @staticmethod
    def _policy(monkeypatch) -> dict:
        # two kernels at jobs=2 take the supervised route; the stub
        # records the policy it is handed and evaluates nothing
        seen: dict = {}
        monkeypatch.setattr(engine, "run_supervised",
                            lambda *args, **kwargs: seen.update(kwargs))
        evaluate([DesignQuery("iir", "original"),
                  DesignQuery("des-mem", "original")], jobs=2)
        return seen

    def test_retries_default(self, monkeypatch):
        assert self._policy(monkeypatch)["retries"] == 2

    def test_retries_rejects_garbage(self):
        with pytest.raises(ReproError, match="retries"):
            evaluate([], retries=-3)

    def test_batch_timeout_default_off(self, monkeypatch):
        assert self._policy(monkeypatch)["batch_timeout"] is None

    def test_batch_timeout_rejects_nonpositive(self):
        with pytest.raises(ReproError, match="> 0"):
            evaluate([], batch_timeout=0.0)


class TestCheckKnobs:
    """``evaluate`` parses every knob in the parent, so a bad value
    raises once, before any design is dispatched."""

    @pytest.mark.parametrize("name,raw", [
        ("REPRO_ANALYSIS_CACHE", "2"), ("REPRO_VERIFY", "paranoid"),
        ("REPRO_TRACE", "bogus"), ("REPRO_FAULTS", "bogus"),
    ])
    def test_evaluate_rejects_before_dispatch(self, monkeypatch, name, raw):
        dispatched: list = []
        monkeypatch.setattr(engine, "run_inline",
                            lambda *args, **kwargs: dispatched.append(args))
        monkeypatch.setenv(name, raw)
        with pytest.raises(ReproError, match=name):
            evaluate([DesignQuery("iir", "original")], jobs=1)
        assert dispatched == []


class TestJobScaling:
    def test_small_sweeps_keep_the_cap(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda _: set(range(64)), raising=False)
        assert default_jobs() == _MAX_DEFAULT_JOBS
        assert default_jobs(n_tasks=8) == _MAX_DEFAULT_JOBS

    def test_large_sweeps_scale_past_the_cap(self, monkeypatch):
        monkeypatch.setattr("os.sched_getaffinity",
                            lambda _: set(range(64)), raising=False)
        assert default_jobs(n_tasks=100) == 25
        assert default_jobs(n_tasks=100000) == _MAX_SCALED_JOBS

    def test_never_exceeds_cores(self, monkeypatch):
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
