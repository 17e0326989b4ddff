"""The supervised dispatcher: retries, crash recovery, stragglers,
bisection/quarantine, interrupts, and killed-sweep resume.

Driven with synthetic module-level workers (picklable under the fork
start method) so every failure mode is scripted, not statistical; the
engine-level chaos runs live in ``test_concurrent_cache.py`` (torn
writes) and ``tests/obs/test_integration.py`` (worker crashes).  The
event counts are ``supervise.*`` metrics-registry deltas.
"""

import gc
import os
import signal
import time

import pytest

from repro.explore.supervise import (
    BatchFailure, SweepInterrupted, run_inline, run_supervised,
)
from repro.obs import metrics as obs_metrics

# --- synthetic workers (module-level: pickled by reference) -----------
#
# Each item is a tuple whose head selects the behavior:
#   ("ok", x)             -> contributes x * 2
#   ("raise_until", n, x) -> raises while attempt < n, then ok
#   ("crash_until", n, x) -> kills the worker process while attempt < n
#   ("hang", x)           -> sleeps far past any test timeout
#   ("poison", x)         -> raises on every attempt
#   ("interrupt", x)      -> raises KeyboardInterrupt
#   ("frozen", x)         -> contributes the worker's gc.get_freeze_count()
#   ("sleep", s, x)       -> sleeps s seconds, then ok
#   ("attempt", x)        -> contributes the batch's attempt number


def _stub_worker(items, attempt):
    out = []
    for item in items:
        kind, rest = item[0], item[1:]
        if kind == "raise_until" and attempt < rest[0]:
            raise RuntimeError(f"flaky until {rest[0]} (attempt {attempt})")
        if kind == "crash_until" and attempt < rest[0]:
            os._exit(42)
        if kind == "hang":
            time.sleep(120)
        if kind == "poison":
            raise RuntimeError("always fails")
        if kind == "interrupt":
            raise KeyboardInterrupt
        if kind == "frozen":
            out.append(gc.get_freeze_count())
            continue
        if kind == "sleep":
            time.sleep(rest[0])
        if kind == "attempt":
            out.append(attempt)
            continue
        out.append(rest[-1] * 2)
    return out


class _Events:
    """The ``supervise.*`` counters' deltas since construction, read as
    attributes (``events.retries``)."""

    def __init__(self):
        self._start = obs_metrics.registry().snapshot()

    def __getattr__(self, event):
        delta = obs_metrics.registry().delta_since(self._start)
        return delta["counters"].get(f"supervise.{event}", 0)


def _collect():
    """(on_payload, on_failure) pair recording into shared dicts."""
    got: dict[int, int] = {}
    fails: list[BatchFailure] = []

    def on_payload(positions, payload):
        got.update(zip(positions, payload))

    return got, fails, on_payload, fails.append


class TestInline:
    def test_happy_path(self):
        items = [("ok", i) for i in range(5)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_inline([[0, 1, 2], [3, 4]], items, _stub_worker, on_p, on_f)
        assert got == {i: i * 2 for i in range(5)}
        assert not fails
        assert (events.dispatches, events.retries, events.quarantined) == \
            (2, 0, 0)

    def test_retry_then_success(self):
        items = [("raise_until", 2, 7)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_inline([[0]], items, _stub_worker, on_p, on_f, retries=2)
        assert got == {0: 14} and not fails
        assert events.retries == 2 and events.exceptions == 2

    def test_bisection_corners_the_culprit(self):
        # one poison item inside a batch of five: the innocents must all
        # complete and exactly the culprit must be quarantined
        items = [("ok", 0), ("ok", 1), ("poison", 2), ("ok", 3),
                 ("ok", 4)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_inline([[0, 1, 2, 3, 4]], items, _stub_worker,
                   on_p, on_f, retries=1)
        assert got == {0: 0, 1: 2, 3: 6, 4: 8}
        assert [f.position for f in fails] == [2]
        assert fails[0].kind == "exception"
        assert "always fails" in fails[0].reason
        assert fails[0].attempts >= 2  # burned a real budget
        assert events.bisects >= 1 and events.quarantined == 1

    def test_zero_retries_quarantines_immediately(self):
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_inline([[0]], [("poison", 1)], _stub_worker,
                   on_p, on_f, retries=0)
        assert fails[0].attempts == 1
        assert events.dispatches == 1

    def test_keyboard_interrupt_becomes_sweep_interrupted(self):
        items = [("ok", 0), ("interrupt", 1), ("ok", 2)]
        got, fails, on_p, on_f = _collect()
        with pytest.raises(SweepInterrupted) as exc:
            run_inline([[0], [1], [2]], items, _stub_worker, on_p, on_f)
        assert got == {0: 0}  # the completed batch was committed
        assert exc.value.committed == 1 and exc.value.total == 3
        assert "resume" in str(exc.value)
        assert isinstance(exc.value, KeyboardInterrupt)


class TestSupervised:
    def test_happy_path_parallel(self):
        items = [("ok", i) for i in range(6)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_supervised([[0, 1], [2, 3], [4, 5]], items,
                       _stub_worker, on_p, on_f, workers=2)
        assert got == {i: i * 2 for i in range(6)}
        assert not fails and events.respawns == 0

    def test_worker_crash_respawns_and_recovers(self):
        # the batch kills its worker on attempt 0; the pool must break,
        # respawn, and the retry (attempt 1) must succeed
        items = [("crash_until", 1, 5), ("ok", 9)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_supervised([[0], [1]], items, _stub_worker,
                       on_p, on_f, workers=2, retries=3)
        assert got == {0: 10, 1: 18}
        assert not fails
        assert events.crashes >= 1 and events.respawns >= 1
        assert gc.get_freeze_count() == 0   # thawed after respawns too

    def test_workers_fork_from_a_frozen_heap(self):
        # the parent's heap is frozen before the first submit forks, so
        # a worker's collector never walks what it inherited; the
        # parent thaws it when the pool is gone
        got, fails, on_p, on_f = _collect()
        run_supervised([[0], [1]], [("frozen", 0), ("frozen", 1)],
                       _stub_worker, on_p, on_f, workers=2)
        assert not fails and got[0] > 0 and got[1] > 0
        assert gc.get_freeze_count() == 0

    def test_persistent_crasher_is_quarantined_innocents_survive(self):
        items = [("crash_until", 99, 0), ("ok", 1), ("ok", 2)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_supervised([[0, 1, 2]], items, _stub_worker,
                       on_p, on_f, workers=2, retries=1)
        assert got == {1: 2, 2: 4}
        assert [f.position for f in fails] == [0]
        assert fails[0].kind == "crash"
        assert events.quarantined == 1

    def test_hung_batch_times_out_and_neighbors_complete(self):
        items = [("hang", 0), ("ok", 1)]
        got, fails, on_p, on_f = _collect()
        t0 = time.monotonic()
        events = _Events()
        run_supervised([[0], [1]], items, _stub_worker,
                       on_p, on_f, workers=2, retries=0,
                       batch_timeout=1.0)
        assert time.monotonic() - t0 < 30  # never waits out the sleep
        assert got == {1: 2}
        assert [f.kind for f in fails] == ["timeout"]
        assert "1s wall-clock budget" in fails[0].reason
        assert events.timeouts >= 1 and events.respawns >= 1

    def test_no_orphaned_workers_after_timeout(self):
        import multiprocessing
        items = [("hang", 0)]
        got, fails, on_p, on_f = _collect()
        run_supervised([[0]], items, _stub_worker, on_p, on_f,
                       workers=2, retries=0, batch_timeout=0.5)
        # the hung worker was explicitly terminated, not abandoned
        assert multiprocessing.active_children() == []

    def test_worker_keyboard_interrupt_interrupts_the_sweep(self):
        items = [("interrupt", 0)]
        got, fails, on_p, on_f = _collect()
        with pytest.raises(SweepInterrupted):
            run_supervised([[0]], items, _stub_worker, on_p, on_f,
                           workers=2)
        assert gc.get_freeze_count() == 0

    def test_a_queued_batch_is_timed_from_its_promotion(self):
        # one worker, two outstanding batches: the second waits in the
        # pool's queue while the first runs 0.8 s, and its 1.2 s budget
        # starts when it is promoted, not when it was submitted
        items = [("sleep", 0.8, 1), ("sleep", 0.8, 2)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_supervised([[0], [1]], items, _stub_worker, on_p, on_f,
                       workers=1, retries=0, batch_timeout=1.2)
        assert got == {0: 2, 1: 4} and not fails
        assert events.timeouts == 0 and events.respawns == 0

    def test_a_batch_queued_behind_a_crash_is_not_charged(self):
        # the queued batch's future fails with the broken pool too, but
        # it never started: it runs again at attempt 0, and only the
        # crasher is retried
        items = [("crash_until", 1, 5), ("attempt", 0)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_supervised([[0], [1]], items, _stub_worker, on_p, on_f,
                       workers=1, retries=1)
        assert got == {0: 10, 1: 0} and not fails
        assert events.crashes == 1 and events.retries == 1

    def test_mixed_failures_converge(self):
        items = [("raise_until", 1, 0), ("crash_until", 1, 1),
                 ("ok", 2), ("ok", 3)]
        got, fails, on_p, on_f = _collect()
        events = _Events()
        run_supervised([[0, 1], [2, 3]], items, _stub_worker,
                       on_p, on_f, workers=2, retries=6)
        assert got == {0: 0, 1: 2, 2: 4, 3: 6}
        assert not fails
        assert events.retries > 0


class TestKilledSweepResume:
    def test_sigkilled_sweep_resumes_from_the_cache(self, tmp_path):
        """SIGKILL the whole sweep process mid-run; rerun must resume.

        The child runs a real multi-batch sweep committing per batch;
        the parent waits for the cache file to hold at least one record,
        then SIGKILLs the child — the harshest interrupt there is.  The
        rerun must serve the committed batches from the cache and
        produce the same results as an undisturbed sweep.
        """
        from repro.explore import DesignSpace, ResultCache, evaluate

        space = DesignSpace(kernels=("iir",), variants=("squash", "jam"),
                            factors=(2, 4))
        qs = space.enumerate()
        cache_dir = tmp_path / "cache"

        pid = os.fork()
        if pid == 0:  # child: sweep until killed
            try:
                evaluate(qs, jobs=1, cache=ResultCache(cache_dir))
            finally:
                os._exit(0)

        try:
            cache_file = ResultCache(cache_dir).path
            deadline = time.monotonic() + 60
            while time.monotonic() < deadline:
                if cache_file.exists() and \
                        cache_file.read_text().count("\n") >= 1:
                    break
                time.sleep(0.01)
            else:
                pytest.fail("child sweep never committed a batch")
        finally:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)

        resumed = evaluate(qs, jobs=1, cache=ResultCache(cache_dir))
        assert resumed.cache_stats.hits >= 1  # resumed, not restarted
        fresh = evaluate(qs, jobs=1, cache=None)
        assert resumed.results == fresh.results
