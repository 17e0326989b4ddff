"""Shared fixtures and program factories used across the test suite."""

from __future__ import annotations

import dataclasses
import os
import signal
import threading

import numpy as np
import pytest

from repro.ir import I32, U8, ProgramBuilder

#: Per-test wall-clock budget (seconds).  The supervised engine and the
#: chaos suite deliberately spawn pools, kill workers, and inject hangs;
#: a bug there must fail one test, not wedge the whole CI job.  Override
#: with ``REPRO_TEST_TIMEOUT`` (0 disables).
_TEST_TIMEOUT = float(os.environ.get("REPRO_TEST_TIMEOUT", "300"))


@pytest.fixture(autouse=True)
def _per_test_timeout():
    """SIGALRM watchdog around every test (pytest-timeout isn't vendored).

    Uses ``setitimer`` so fractional budgets work; the timer is cleared
    on the way out, and fork children do *not* inherit itimers, so the
    engine's worker processes are unaffected.  No-op off the main
    thread or when the budget is disabled.
    """
    if _TEST_TIMEOUT <= 0 or \
            threading.current_thread() is not threading.main_thread():
        yield
        return

    def _expired(signum, frame):
        pytest.fail(f"test exceeded the {_TEST_TIMEOUT:g}s wall-clock "
                    "budget (REPRO_TEST_TIMEOUT)", pytrace=False)

    old_handler = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, _TEST_TIMEOUT)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, old_handler)


@pytest.fixture(autouse=True, scope="session")
def _isolated_result_cache(tmp_path_factory):
    """Point the persistent exploration cache at a per-session tmp dir.

    Keeps test runs hermetic (no hits from earlier processes) and keeps
    ``.repro_cache/`` out of the working tree.
    """
    old = os.environ.get("REPRO_CACHE_DIR")
    os.environ["REPRO_CACHE_DIR"] = \
        str(tmp_path_factory.mktemp("repro_cache"))
    yield
    if old is None:
        os.environ.pop("REPRO_CACHE_DIR", None)
    else:
        os.environ["REPRO_CACHE_DIR"] = old


def memo_traffic(name: str):
    """A callable reading the (hits, misses) of memo ``name``'s memory
    tier since this call, from the metrics registry."""
    from repro.obs import metrics as obs_metrics
    hits = obs_metrics.counter(f"{name}_mem_hits")
    misses = obs_metrics.counter(f"{name}_mem_misses")
    start = (hits.value, misses.value)
    return lambda: (hits.value - start[0], misses.value - start[1])


class ShiftedSink:
    """A planted scheduler bug: ``base``'s schedule with the sink of one
    tight dependence moved a cycle early, so that edge misses its
    latency by exactly one cycle."""

    def __init__(self, name: str, base):
        self.name, self.base, self.pipelined = name, base, base.pipelined

    def schedule(self, dfg, lib, edges=None, max_ii=None, min_ii=None):
        sched = self.base.schedule(dfg, lib, edges=edges, max_ii=max_ii,
                                   min_ii=min_ii)
        view = edges if edges is not None else \
            [(e.src, e.dst, e.dist) for e in dfg.edges]
        time = dict(sched.time)
        for s, d, dist in view:
            if s is not d and time[d.nid] > 0 and \
                    time[d.nid] + sched.ii * dist == \
                    time[s.nid] + lib.delay(s):
                time[d.nid] -= 1
                return dataclasses.replace(sched, time=time)
        raise AssertionError("no tight dependence to break")


class ShortMakespan:
    """A planted scheduler bug: ``base``'s schedule claiming a makespan
    one cycle short of its last completion."""

    def __init__(self, name: str, base):
        self.name, self.base, self.pipelined = name, base, base.pipelined

    def schedule(self, dfg, lib, edges=None, max_ii=None, min_ii=None):
        sched = self.base.schedule(dfg, lib, edges=edges, max_ii=max_ii,
                                   min_ii=min_ii)
        end = max(sched.time[n.nid] + lib.delay(n) for n in dfg.nodes)
        return dataclasses.replace(sched, length=end - 1)


@pytest.fixture
def plant_scheduler(monkeypatch):
    """Register a strategy for one test, ``replace=True`` (it may shadow
    a shipped one); the registry is restored on teardown."""
    from repro.hw import schedulers

    monkeypatch.setattr(schedulers, "_REGISTRY",
                        dict(schedulers._REGISTRY))
    return lambda strategy: schedulers.register_scheduler(strategy,
                                                          replace=True)


def build_fig21(m: int = 8, n: int = 4):
    """The thesis Fig. 2.1 motivating nest.

    for (i) { a = in[i]; for (j) { b = f(a); a = g(b); } out[i] = a; }
    with f(x) = (x + 7) & 0xff and g(x) = (x ^ 0x5a) as 1-cycle ops.
    """
    b = ProgramBuilder("fig21")
    data_in = b.array("data_in", (m,), U8,
                      init=np.arange(1, m + 1, dtype=np.uint8))
    data_out = b.array("data_out", (m,), U8, output=True)
    a = b.local("a", U8)
    bb = b.local("b", U8)
    with b.loop("i", 0, m) as i:
        b.assign(a, data_in[i])
        with b.loop("j", 0, n, kernel=True):
            b.assign(bb, a + 7)
            b.assign(a, bb ^ 0x5A)
        data_out[i] = a
    return b.build()


def build_fig41(m: int = 8, n: int = 5, k: int = 3):
    """The thesis Fig. 4.1 running example.

    for (i) { a = in[i]; for (j) { b = a + i; c = b - j; a = (c & 15) * k; }
              out[i] = a; }
    """
    b = ProgramBuilder("fig41")
    src = b.array("in", (m,), I32, init=np.arange(m, dtype=np.int32) * 3 + 1)
    dst = b.array("out", (m,), I32, output=True)
    kk = b.param("k", I32)
    a = b.local("a", I32)
    bv = b.local("b", I32)
    cv = b.local("c", I32)
    with b.loop("i", 0, m) as i:
        b.assign(a, src[i])
        with b.loop("j", 0, n, kernel=True) as j:
            b.assign(bv, a + i)
            b.assign(cv, bv - j)
            b.assign(a, (cv & 15) * kk)
        dst[i] = a
    return b.build()


def outer_loop(prog):
    """First top-level For statement of a program."""
    from repro.ir import For
    return next(s for s in prog.body.stmts if isinstance(s, For))


def inner_loop(prog):
    """First kernel-annotated (or innermost) loop under the outer loop."""
    from repro.ir import For, walk_stmts
    outer = outer_loop(prog)
    for s in walk_stmts(outer.body):
        if isinstance(s, For):
            return s
    raise AssertionError("no inner loop")


@pytest.fixture
def fig21():
    return build_fig21()


@pytest.fixture
def fig41():
    return build_fig41()
