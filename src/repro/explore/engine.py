"""Parallel design-space evaluation engine with supervised dispatch.

Fans :class:`DesignQuery` objects out over a process pool through the
fault-tolerant supervisor (:mod:`repro.explore.supervise`), consulting a
persistent :class:`ResultCache` first so repeated sweeps are
incremental.  Designs the compiler rejects — ``LegalityError`` /
``ScheduleError`` — come back as structured :class:`SkipRecord` entries.
A ``VerifyError`` from the pipeline's schedule check is deterministic, so
the worker quarantines that design as a :class:`FailRecord` after one
compile and its batch neighbours still commit.  Queries whose
*evaluation* fails (worker crash, straggler timeout, unclassified
exception) are retried, bisected to the culprit, and quarantined as
:class:`FailRecord` entries instead of aborting the sweep.  Fails are
never cached.

The unit of dispatch is a *batch*: cache-missing queries are grouped by
``(kernel, variant)`` so one worker ships each kernel once and compiles
all its targets, factors, and schedulers against the shared base
analysis (and the shared II-search memo) instead of re-running the
front-end in every process that happens to receive one of its queries.
Kernels that pose the same scheduling problems on the sweep's targets
form one *scheduling class*
(:func:`repro.nimble.compiler.scheduling_classes`: on ``vliw4``, the
``-mem`` and ``-hw`` versions of skipjack and DES), and one variant's
groups over a class share a batch, one kernel after the other, so the
later kernel replays the earlier one's schedules in the same worker
instead of searching them again in another.  Batches dispatch heaviest
first, weighed by the operator copies their queries schedule, so the
longest batch does not start last.  The weight counts copies, not the
size of a kernel's DFG: one variant's skipjack and DES batches weigh
the same, and such ties keep the order the kernels were named in.
Each batch's results commit to the cache **as the batch lands**, so an
interrupted, crashed, or killed sweep resumes from the cache —
recompiling only the unfinished batches — instead of restarting.

The worker, :func:`repro.nimble.compiler.compile_query`, is a pure
function of the query, so results are independent of worker count,
batch shape, arrival order, and retry history: ``evaluate(qs, jobs=1)``
and ``evaluate(qs, jobs=8)`` return identical points, with or without
injected faults (:mod:`repro.faults`).
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.env import check_knobs
from repro.errors import ReproError
from repro.explore.cache import CacheStats, NullCache, ResultCache
from repro.explore.space import DesignQuery, FailRecord, SkipRecord
from repro.explore.supervise import BatchFailure, run_inline, run_supervised
from repro.hw.report import DesignPoint
from repro.nimble.compiler import compile_query_batch
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["DEFAULT_RETRIES", "ExploreResult", "default_jobs", "evaluate"]

#: Cap on the default worker count for *small* sweeps: tens of designs
#: pay more in fork cost than they win in parallelism beyond this.
_MAX_DEFAULT_JOBS = 8

#: Hard ceiling on the auto-scaled worker count for large sweeps (an
#: explicit ``jobs`` is never capped).
_MAX_SCALED_JOBS = 32

#: Re-dispatches of a failing batch before bisection when the caller
#: does not choose (``--retries``).
DEFAULT_RETRIES = 2


def _physical_target(spec: str) -> str:
    """A target spec with its ``scheduler=`` modifier stripped.

    The scheduler changes which schedule is *found*, not which hardware
    the design runs on, so optimality comparisons group by the physical
    target alone.
    """
    name, _, mods = spec.partition("::")
    kept = [m for m in mods.split(",")
            if m and not m.startswith("scheduler=")]
    return name + ("::" + ",".join(kept) if kept else "")


def default_jobs(n_tasks: Optional[int] = None) -> int:
    """Worker count when the caller does not choose.

    The machine's core count, capped at ``_MAX_DEFAULT_JOBS`` — unless
    ``n_tasks`` says the sweep is large, in which case the cap scales
    with the actual work (one worker per ~4 dispatch units, up to
    ``_MAX_SCALED_JOBS``) instead of idling cores on thousand-point
    sweeps.
    """
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        cores = os.cpu_count() or 1
    cap = _MAX_DEFAULT_JOBS
    if n_tasks is not None and n_tasks > 4 * _MAX_DEFAULT_JOBS:
        cap = min(_MAX_SCALED_JOBS, n_tasks // 4)
    return max(1, min(cores, cap))


def _weight(q: DesignQuery) -> int:
    """Operator copies one query schedules: DS for ``jam``, J for
    ``jam+squash``, 1 for everything else."""
    if q.variant == "jam":
        return q.ds
    if q.variant == "jam+squash":
        return q.jam
    return 1


def _batched(todo: list[DesignQuery],
             jobs: Optional[int] = None) -> list[list[int]]:
    """Group positions in ``todo`` into dispatch batches.

    Queries group by ``(kernel, variant)``, and the groups of one
    variant over the kernels of one scheduling class
    (:func:`repro.nimble.compiler.scheduling_classes` on the queries'
    targets) join one batch, one kernel's group after the other in
    first-appearance order.  Queries keep their relative order inside a
    group.  When grouping alone would leave fewer batches than ``jobs``
    (e.g. a single-kernel sweep over many factors), large batches are
    split so the requested parallelism is honoured — locality is a
    tie-breaker, never a reason to idle explicitly requested workers.
    Batches are returned heaviest first (:func:`_weight` summed over the
    batch), ties in first-appearance order, so dispatch is
    deterministic and the longest batch starts first.
    """
    from repro.nimble.compiler import scheduling_classes

    classes = scheduling_classes([q.kernel for q in todo],
                                 [q.target_spec for q in todo])
    groups: dict[tuple[str, str], dict[str, list[int]]] = {}
    for pos, q in enumerate(todo):
        groups.setdefault((classes[q.kernel], q.variant), {}) \
            .setdefault(q.kernel, []).append(pos)
    batches = [[pos for group in kernels.values() for pos in group]
               for kernels in groups.values()]
    if jobs is not None and len(batches) < jobs:
        size = max(1, -(-len(todo) // jobs))
        batches = [batch[i:i + size]
                   for batch in batches
                   for i in range(0, len(batch), size)]
    batches.sort(key=lambda batch: -sum(_weight(todo[p]) for p in batch))
    return batches


@dataclass
class ExploreResult:
    """The outcome of one engine run, aligned with its query list."""

    queries: list[DesignQuery]
    results: list["DesignPoint | SkipRecord | FailRecord"]
    cache_stats: CacheStats = field(default_factory=CacheStats)
    jobs: int = 1

    def pairs(self) -> list[
            tuple[DesignQuery, "DesignPoint | SkipRecord | FailRecord"]]:
        return list(zip(self.queries, self.results))

    def points(self) -> list[DesignPoint]:
        return [r for r in self.results if isinstance(r, DesignPoint)]

    def skips(self) -> list[SkipRecord]:
        return [r for r in self.results if isinstance(r, SkipRecord)]

    def fails(self) -> list[FailRecord]:
        return [r for r in self.results if isinstance(r, FailRecord)]

    def attach_base_ii(self) -> None:
        """Propagate each (kernel, target) group's original II.

        ``compile_query`` is pure per query, so squash/jam points come
        back with ``base_ii=None``; total-cycle costing of the peeled
        remainder needs the original design's II (§4.4).  Only the
        transformed variants get a base (original/pipelined cost
        ``II*M*N`` outright — the serial path leaves them unset, and we
        must produce identical points).  Groups without an ``original``
        point are left untouched.
        """
        base: dict[tuple[str, str], int] = {}
        for q, r in self.pairs():
            if q.variant == "original" and isinstance(r, DesignPoint):
                base[(q.kernel, q.target_spec)] = r.ii
        for q, r in self.pairs():
            if (q.variant not in ("original", "pipelined")
                    and isinstance(r, DesignPoint)
                    and (q.kernel, q.target_spec) in base):
                r.base_ii = base[(q.kernel, q.target_spec)]

    def attach_exact_ii(self) -> None:
        """Propagate certified-optimal IIs across the scheduler axis.

        A sweep that includes the ``exact`` strategy yields points with
        ``exact_ii`` stamped (when the search certified).  The same
        design under a heuristic scheduler is the same (kernel, target,
        variant, factors) group, so its optimality gap is measurable —
        copy the certified optimum onto every group member that lacks
        it.  The scheduler can be chosen either per query or via the
        target-spec modifier (``acev::scheduler=exact``), so grouping
        strips the modifier: both routes describe the same physical
        design.  Uncertified (budget-degraded) exact points claim
        nothing and propagate nothing.
        """
        def key_of(q: DesignQuery) -> tuple[str, str, str, int, int]:
            return (q.kernel, _physical_target(q.target_spec),
                    q.variant, q.ds, q.jam)

        exact: dict[tuple[str, str, str, int, int], int] = {}
        for q, r in self.pairs():
            if isinstance(r, DesignPoint) and r.exact_ii is not None:
                exact[key_of(q)] = r.exact_ii
        for q, r in self.pairs():
            if isinstance(r, DesignPoint) and r.exact_ii is None:
                key = key_of(q)
                if key in exact:
                    r.exact_ii = exact[key]


def evaluate(queries: "Sequence[DesignQuery] | Iterable[DesignQuery]",
             jobs: Optional[int] = None,
             cache: "ResultCache | NullCache | None" = None,
             retries: Optional[int] = None,
             batch_timeout: Optional[float] = None,
             on_progress=None) -> ExploreResult:
    """Evaluate every query, through the cache, under supervision.

    ``jobs=None`` picks :func:`default_jobs` scaled by the cache-miss
    count (a fully-warm run forks nothing); ``jobs=1`` runs inline
    (no pool, deterministic single-process debugging).  ``cache=None``
    disables caching entirely.  Identical queries are deduplicated —
    duplicates cost one compile (and one cache lookup), not N.

    Fault policy: ``retries`` (``None``: :data:`DEFAULT_RETRIES`) bounds
    how often a failing batch is re-dispatched before bisection/
    quarantine; ``batch_timeout`` (seconds; ``None``: off) arms the
    straggler watchdog.  A negative ``retries`` or a non-positive
    ``batch_timeout`` raises :class:`~repro.errors.ReproError`, and so
    does a ``REPRO_*`` knob set to a value it does not accept
    (:func:`repro.env.check_knobs`), before any design is dispatched.

    ``on_progress`` (optional) receives a small dict (designs done /
    total, retries, quarantines, respawns) after every batch completion
    or failure — the ``--progress`` live line.  Purely observational.

    Completed batches are committed to the cache as they land, so a
    sweep that dies — crash, OOM, Ctrl-C (re-raised as
    :class:`~repro.explore.supervise.SweepInterrupted` after a hard
    pool shutdown) — resumes from the cache on the next run.
    """
    check_knobs()   # in the parent, before any design is dispatched
    if retries is None:
        retries = DEFAULT_RETRIES
    elif retries < 0:
        raise ReproError(f"retries must be >= 0, got {retries}")
    if batch_timeout is not None and batch_timeout <= 0:
        raise ReproError(
            f"the batch timeout must be > 0 seconds, got {batch_timeout}")

    queries = list(queries)
    cache = cache if cache is not None else NullCache()
    # snapshot the cache counters so the result reports THIS run's
    # hit/miss/store deltas even when the caller reuses one cache
    before = (cache.stats.hits, cache.stats.misses, cache.stats.stores)

    # None marks not-yet-evaluated; every slot is filled (point, skip,
    # or fail) before the result is built, so the annotation stays loose
    results: list = [None] * len(queries)
    pending: list[int] = []
    first_at: dict[DesignQuery, int] = {}
    alias: dict[int, int] = {}   # duplicate position -> canonical position
    for i, q in enumerate(queries):
        if q in first_at:
            alias[i] = first_at[q]
            continue
        first_at[q] = i
        hit = cache.get(q)
        if hit is not None:
            results[i] = hit
        else:
            pending.append(i)

    if pending:
        todo = [queries[i] for i in pending]
        jobs = default_jobs(len(todo)) if jobs is None else max(1, jobs)
        batches = _batched(todo, jobs)
        workers = min(jobs, len(batches))
        pooled = workers > 1
        obs_metrics.gauge("explore.jobs").set(workers)

        def on_payload(positions: Sequence[int], payload: dict) -> int:
            # commit this batch NOW: a later crash must not discard it;
            # the designs the worker quarantined are counted, not cached
            quarantined = 0
            for p, r in zip(positions, payload["results"]):
                results[pending[p]] = r
                if isinstance(r, FailRecord):
                    quarantined += 1
                else:
                    cache.put(todo[p], r)
            # merge the batch's observability home.  Trace events are
            # safe to re-inject unconditionally (the worker drained its
            # buffer into the payload, so inline mode moves, not
            # duplicates); the metrics delta merges only from *pooled*
            # workers — inline batches already mutated this process's
            # registry directly, and merging their delta would double-
            # count every counter.
            obs_trace.inject(payload.get("trace") or [])
            if pooled:
                delta = payload.get("metrics")
                if delta:
                    obs_metrics.registry().merge(delta)
            return quarantined

        def on_failure(failure: BatchFailure) -> None:
            results[pending[failure.position]] = FailRecord(
                query=todo[failure.position], kind=failure.kind,
                reason=failure.reason, attempts=failure.attempts,
                elapsed=failure.elapsed)

        with obs_trace.span("evaluate", "explore", designs=len(todo),
                            batches=len(batches), workers=workers):
            if workers <= 1:
                run_inline(batches, todo, compile_query_batch, on_payload,
                           on_failure, retries=retries,
                           on_progress=on_progress)
            else:
                run_supervised(batches, todo, compile_query_batch,
                               on_payload, on_failure, workers=workers,
                               retries=retries, batch_timeout=batch_timeout,
                               on_progress=on_progress)
    else:
        jobs = default_jobs() if jobs is None else max(1, jobs)

    for dup, canon in alias.items():
        results[dup] = results[canon]

    run_stats = CacheStats(hits=cache.stats.hits - before[0],
                           misses=cache.stats.misses - before[1],
                           stores=cache.stats.stores - before[2])
    return ExploreResult(queries=queries, results=results,
                         cache_stats=run_stats, jobs=jobs)
