"""A worker's heap holds one kernel's designs.

``compile_query_batch`` releases the per-batch memos (search contexts,
edge views, delay and resource maps, squash and jam analyses) at each
``(kernel, variant)`` boundary inside its batch and when the batch
ends, by any exit; the
per-worker memos keep the kernels' base analyses and preparations for
later batches.  ``run_supervised`` freezes the parent
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
from repro.nimble import compiler
from repro.nimble.compiler import (
    _kernel_program, compile_query, compile_query_batch,
)
from repro.pipeline.analysis import analysis_cache, content_key
from tests.conftest import ShiftedSink

#: The memos whose entries are keyed by per-design objects.
PER_BATCH = {"search_ctx", "edge_view", "delay_map", "resource_map",
             "squash_analysis", "jam_analysis"}

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


def _base_kernels(kernels) -> set:
    """The ``kernels`` whose base analysis the per-worker memo holds."""
    cache = analysis_cache()
    return {k for k in kernels
            if f"base-{content_key(*_kernel_program(k))}"
            in cache._bases._data}


def _batch_state(baseline: dict, built: set) -> dict:
    """What the worker's heap holds after a release, when the releases
    so far found the ``built`` kernels' base analyses in the memos."""
    live = _live_dfgs()   # collects first
    cache = analysis_cache()
    held = {id(base.dfg) for _, base in cache._bases._data.values()
            if base.dfg is not None}
    return {
        "per_batch": {m.name: len(m) for m in _MEMOS if m.per_batch},
        "kernels_dropped": sorted(built - _base_kernels(built)),
        "extra_dfgs": set(live) - set(baseline) - held,
        "held_dfgs": len(held),
    }


def _sweep_inline(queries, releases=None, batches=None):
    """Run ``queries`` through ``run_inline`` in ``batches`` (default:
    the engine's, without ``jobs``); the heap's state is recorded before
    every batch after the first, and after the last.

    The state is read when the next batch starts rather than in the
    batch's own ``finally``: while a batch's exception propagates, its
    traceback still holds the frames (and the DFGs) of the query that
    raised.  Every release first notes which kernels' base analyses
    the memos hold, so a state names a kernel as dropped only if a
    release found its base and it is gone since.  ``releases``, when
    given, also collects the state right after every release, kernel
    boundaries inside a batch included; only a sweep in which no batch
    raises may ask for it.
    """
    baseline = _live_dfgs()
    states, results = [], {}
    built: set = set()
    kernels = {q.kernel for q in queries}
    release_batch = compiler.release_batch
    started = []

    def release():
        built.update(_base_kernels(kernels))
        release_batch()
        if releases is not None:
            releases.append(_batch_state(baseline, built))

    def worker(items, attempt):
        if started:
            states.append(_batch_state(baseline, built))
        started.append(items)
        return compile_query_batch(items, attempt)

    def on_payload(positions, payload):
        results.update(zip(positions, payload["results"]))

    def on_failure(failure):
        results[failure.position] = failure

    # the parent's scheduling classes release once before dispatch;
    # only the workers' releases are recorded
    if batches is None:
        batches = _batched(queries)
    compiler.release_batch = release
    try:
        run_inline(batches, queries, worker, on_payload, on_failure)
    finally:
        compiler.release_batch = release_batch
    states.append(_batch_state(baseline, built))
    return states, [results[i] for i in range(len(queries))]


def _assert_released(states):
    assert states
    for state in states:
        assert state["per_batch"] == dict.fromkeys(PER_BATCH, 0), state
        assert state["kernels_dropped"] == [], state
        assert state["extra_dfgs"] == set(), state
    # a heaviest-first sweep may start with a batch that builds no base
    # analysis (a jam(2) takes the program-level route); the last state
    # holds the sweep's kernels
    assert states[-1]["held_dfgs"] > 0


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


    def test_a_class_batch_releases_at_each_kernel_boundary(self):
        # on vliw4, des-mem and des-hw pose the same scheduling problems:
        # each variant's two groups share one batch, des-mem's first
        queries = DesignSpace(
            kernels=("des-mem", "des-hw"), variants=("squash", "jam"),
            factors=(2, 4), target_specs=("vliw4",),
            schedulers=("modulo", "backtrack")).enumerate()
        batches = _batched(queries)
        assert len(batches) == 2
        for batch in batches:
            kernels = [queries[p].kernel for p in batch]
            assert kernels == sorted(kernels, key=("des-mem",
                                                   "des-hw").index)
        releases: list = []
        states, results = _sweep_inline(queries, releases)
        # one release at the boundary inside each batch, one at its end
        assert len(releases) == 4
        _assert_released(releases + states)
        # the scheduling classes built both kernels' base analyses
        # before dispatch; every release keeps both and no design
        assert [r["held_dfgs"] for r in releases] == [2, 2, 2, 2]
        assert _base_kernels({"des-mem", "des-hw"}) == {"des-mem", "des-hw"}
        assert all(not isinstance(r, Exception) for r in results)

    def test_a_merged_batch_releases_at_each_variant_boundary(self):
        # a light class is one batch over all its variants: each
        # (kernel, variant) group's designs go before the next group's
        queries = DesignSpace(
            kernels=("iir",), variants=("squash", "jam", "jam+squash"),
            factors=(2, 4), jam_factors=(2,),
            target_specs=("vliw4",)).enumerate()
        releases: list = []
        states, results = _sweep_inline(
            queries, releases, batches=[list(range(len(queries)))])
        # one release at each of the two boundaries, one at the end
        assert len(releases) == 3
        _assert_released(releases + states)
        assert all(not isinstance(r, Exception) for r in results)

    def test_the_classes_leave_the_parent_no_design_state(self):
        # the parent compares the kernels' base designs before it forks
        # the pool: their base analyses stay for the workers, but the
        # per-design state the comparison built (search contexts, edge
        # views, delay maps) does not
        queries = DesignSpace(
            kernels=("des-mem", "des-hw"), variants=("jam",),
            factors=(2,), target_specs=("vliw4",)).enumerate()
        assert len(_batched(queries)) == 1
        assert {m.name: len(m) for m in _MEMOS if m.per_batch} == \
            dict.fromkeys(PER_BATCH, 0)
        assert _base_kernels({"des-mem", "des-hw"}) == {"des-mem", "des-hw"}


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
