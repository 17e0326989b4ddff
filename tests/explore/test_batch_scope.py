"""A worker's heap holds one batch of designs.

``compile_query_batch`` releases the per-batch memos (search contexts,
edge views, delay maps, squash and jam analyses) when its batch ends,
by any exit; the per-worker memos keep the kernels' base analyses and
preparations for later batches.  ``run_supervised`` freezes the parent
heap while its pool lives and thaws it on every path out.
"""

import gc

import pytest

import repro
from repro.caches import _MEMOS
from repro.core.dfg import DFG
from repro.explore import DesignSpace, evaluate
from repro.explore.engine import _batched
from repro.explore.supervise import run_inline
from repro.hw.schedulers import scheduler_by_name
from repro.nimble.compiler import (
    _kernel_program, compile_query, compile_query_batch,
)
from repro.pipeline.analysis import analysis_cache, content_key
from tests.conftest import ShiftedSink

#: The memos whose entries are keyed by per-design objects.
PER_BATCH = {"search_ctx", "edge_view", "delay_map", "squash_analysis",
             "jam_analysis"}

KERNELS = ("iir", "des-mem")


def _space(scheduler="modulo"):
    return DesignSpace(kernels=KERNELS,
                       variants=("squash", "jam", "jam+squash"),
                       factors=(2, 4), jam_factors=(2,),
                       target_specs=("vliw4",), schedulers=(scheduler,))


@pytest.fixture(autouse=True)
def _fresh_caches():
    repro.clear_caches()
    yield
    repro.clear_caches()


def _live_dfgs() -> dict:
    gc.collect()
    return {id(o): o for o in gc.get_objects() if isinstance(o, DFG)}


def _batch_state(baseline: dict, compiled: set) -> dict:
    """What the worker's heap holds between two batches, after batches
    over the ``compiled`` kernels."""
    live = _live_dfgs()   # collects first
    cache = analysis_cache()
    held = {id(base.dfg) for _, base in cache._bases._data.values()
            if base.dfg is not None}
    keys = {k: content_key(*_kernel_program(k)) for k in compiled}
    return {
        "per_batch": {m.name: len(m) for m in _MEMOS if m.per_batch},
        "kernels_dropped": sorted(
            k for k, key in keys.items()
            if f"base-{key}" not in cache._bases._data
            or f"prep-{key}" not in cache._preps._data),
        "extra_dfgs": set(live) - set(baseline) - held,
        "held_dfgs": len(held),
    }


def _sweep_inline(queries):
    """Run ``queries`` through ``run_inline``; the heap's state is
    recorded before every batch after the first, and after the last.

    The state is read when the next batch starts rather than in the
    batch's own ``finally``: while a batch's exception propagates, its
    traceback still holds the frames (and the DFGs) of the query that
    raised.
    """
    baseline = _live_dfgs()
    states, results = [], {}
    compiled: set = set()

    def worker(items, attempt):
        if compiled:
            states.append(_batch_state(baseline, compiled))
        compiled.update(q.kernel for q in items)
        return compile_query_batch(items, attempt)

    def on_payload(positions, payload):
        results.update(zip(positions, payload["results"]))

    def on_failure(failure):
        results[failure.position] = failure

    run_inline(_batched(queries), queries, worker, on_payload, on_failure)
    states.append(_batch_state(baseline, compiled))
    return states, [results[i] for i in range(len(queries))]


def _assert_released(states):
    assert states
    for state in states:
        assert state["per_batch"] == dict.fromkeys(PER_BATCH, 0), state
        assert state["kernels_dropped"] == [], state
        assert state["extra_dfgs"] == set(), state
        assert state["held_dfgs"] > 0


class _Raising:
    """A planted strategy that schedules, then raises an unclassified
    error, so the exception leaves ``compile_query_batch``."""

    def __init__(self, name, base):
        self.name, self.base, self.pipelined = name, base, base.pipelined

    def schedule(self, dfg, lib, edges=None, max_ii=None, min_ii=None):
        self.base.schedule(dfg, lib, edges=edges, max_ii=max_ii,
                           min_ii=min_ii)
        raise RuntimeError("planted scheduler fault")


class TestBatchScope:
    def test_only_the_per_batch_memos_are_released(self):
        gc.collect()   # memos other tests built die with them
        assert {m.name for m in _MEMOS if m.per_batch} == PER_BATCH

    def test_each_batch_leaves_only_the_kernels(self):
        states, results = _sweep_inline(_space().enumerate())
        _assert_released(states)
        assert all(not isinstance(r, Exception) for r in results)

    def test_a_quarantined_verify_fault_releases_too(self, plant_scheduler):
        plant_scheduler(ShiftedSink("shifted", scheduler_by_name("modulo")))
        queries = _space().enumerate() + _space("shifted").enumerate()
        states, results = _sweep_inline(queries)
        _assert_released(states)
        assert any(getattr(r, "kind", None) == "verify" for r in results)

    def test_an_exception_leaving_the_batch_releases_too(
            self, plant_scheduler):
        plant_scheduler(_Raising("raising", scheduler_by_name("modulo")))
        queries = _space("raising").enumerate()
        states, results = _sweep_inline(queries)
        _assert_released(states)
        # every design the planted fault reached was quarantined; the
        # rest were rejected before scheduling
        outcomes = {getattr(r, "kind", None) or getattr(r, "phase", None)
                    for r in results}
        assert "exception" in outcomes
        assert outcomes <= {"exception", "legality", "schedule"}


class TestParity:
    def test_jobs_and_fresh_caches_agree(self):
        queries = DesignSpace(
            kernels=KERNELS, variants=("squash", "jam", "jam+squash"),
            factors=(2, 4, 8), jam_factors=(2,), target_specs=("vliw4",),
            schedulers=("modulo", "backtrack")).enumerate()
        inline = evaluate(queries, jobs=1, cache=None).results
        assert gc.get_freeze_count() == 0
        pooled = evaluate(queries, jobs=2, cache=None).results
        assert gc.get_freeze_count() == 0
        assert pooled == inline
        for q, record in zip(queries, inline):
            repro.clear_caches()
            assert compile_query(q) == record, q.label
