"""Supervised batch dispatch: the fault-tolerant core of the engine.

:func:`run_supervised` replaces the engine's historical
``ProcessPoolExecutor.map`` with per-batch futures consumed as they
complete, so results commit incrementally and one bad batch cannot
discard its neighbors' work.  The supervisor owns the failure policy:

* **worker death** (``BrokenProcessPool`` — crash, OOM kill, signal):
  the pool is torn down and respawned with capped exponential backoff,
  and every batch that was in flight is re-dispatched.  Batches that
  complete on retry were innocent bystanders; the culprit keeps
  failing and burns its retry budget.
* **stragglers**: with a wall-clock ``batch_timeout``, a batch that
  overruns its deadline is presumed hung — the pool (including the
  sleeping worker process) is killed, respawned, and the survivors
  re-dispatched.  Dispatch is windowed to ``workers`` outstanding
  futures so "time since dispatch" approximates "time running".
* **exceptions**: a batch whose worker raised an unclassified exception
  is retried like a crash (the failure may be environmental).
* **bisection & quarantine**: a batch that exhausts its retry budget is
  split in half (each half with a fresh budget); a *single* query that
  exhausts it is quarantined as a :class:`~repro.explore.space.FailRecord`
  with full provenance (kind, attempts, elapsed, reason) instead of
  poisoning further retries of innocent neighbors.  A worker may also
  quarantine items itself (a deterministic fault, which no retry would
  mend): ``on_payload`` returns how many, and they count here too.
* **KeyboardInterrupt**: the pool is shut down hard (worker processes
  killed, not orphaned) and :class:`SweepInterrupted` — still a
  ``KeyboardInterrupt`` — is raised; everything that completed was
  already committed via ``on_payload``, so the same command resumes
  from the result cache.

Every event counts in the metrics registry (``supervise.dispatches``,
``supervise.crashes``, ``supervise.retries``, ...), the one tally
``repro stats`` and the tests read.  While its pool lives,
:func:`run_supervised` keeps the parent's heap frozen (:func:`gc.freeze`):
the forked workers inherit it in the collector's permanent generation,
so their collections never walk the imported modules and the parent's
state.

:func:`run_inline` is the poolless (``jobs=1``) twin with the same
retry/bisect/quarantine policy; injected main-process faults
(:mod:`repro.faults`) surface there as ordinary exceptions.

The supervisor is deliberately generic — it moves opaque *items*
through a picklable ``worker_fn(items, attempt)`` and hands payloads
back through callbacks — so chaos tests can drive it with synthetic
workers and the engine stays a thin client.
"""

from __future__ import annotations

import gc
import time
from collections import deque
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor
from concurrent.futures import wait as futures_wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace

__all__ = ["BatchFailure", "SweepInterrupted", "run_inline",
           "run_supervised"]

#: Commits one completed batch: ``(positions, payload)`` -> how many of
#: its items the worker quarantined itself (``None`` for none).
OnPayload = Callable[[Sequence[int], object], Optional[int]]

#: Respawn backoff: ``min(CAP, BASE * 2**events)`` seconds between pool
#: teardowns, so a crash-looping sweep degrades instead of fork-bombing.
_BACKOFF_BASE = 0.02
_BACKOFF_CAP = 1.0

#: How long to wait for a killed worker process to reap before SIGKILL.
_REAP_SECONDS = 0.5


class SweepInterrupted(KeyboardInterrupt):
    """Ctrl-C mid-sweep, after the pool was shut down hard.

    Still a ``KeyboardInterrupt`` for callers that catch that, but
    carries enough context for the CLI to print a resume hint: every
    completed batch was committed to the result cache before the
    interrupt, so re-running the same command resumes from there.
    """

    def __init__(self, committed: int, total: int):
        self.committed = committed
        self.total = total
        super().__init__(
            f"sweep interrupted: {committed} of {total} batches already "
            "committed to the result cache; rerun the same command to "
            "resume from there")


@dataclass
class BatchFailure:
    """One quarantined item, delivered through ``on_failure``."""

    position: int
    kind: str      # "crash" | "timeout" | "exception"
    reason: str
    attempts: int
    elapsed: float


@dataclass
class _Task:
    """One dispatchable unit: positions into the caller's item list."""

    positions: tuple[int, ...]
    attempts: int = 0
    elapsed: float = 0.0
    last_kind: str = ""
    last_reason: str = ""
    started: float = field(default=0.0, compare=False)
    deadline: float = field(default=0.0, compare=False)


class _Run:
    """Shared retry/bisect/quarantine policy for both dispatch modes."""

    def __init__(self, batches: Sequence[Sequence[int]],
                 on_payload: OnPayload,
                 on_failure: Callable[[BatchFailure], None],
                 retries: int,
                 on_progress: Optional[Callable[[dict], None]] = None):
        self.queue: "deque[_Task]" = deque(
            _Task(tuple(posns)) for posns in batches)
        self.on_payload = on_payload
        self.on_failure = on_failure
        self.on_progress = on_progress
        self.retries = retries
        #: what ``_progress`` reports; the registry counts every event
        self.retried = self.quarantined = self.respawns = 0
        self.total = len(self.queue)
        self.total_items = sum(len(t.positions) for t in self.queue)
        self.done_items = 0
        self.committed = 0
        #: consecutive pool-teardown events since the last completed
        #: batch — the backoff exponent, so progress resets the delay
        self.backoff_streak = 0

    def _progress(self) -> None:
        if self.on_progress is not None:
            self.on_progress({
                "done": self.done_items, "total": self.total_items,
                "retries": self.retried, "quarantined": self.quarantined,
                "respawns": self.respawns})

    def complete(self, task: _Task, payload: object) -> None:
        quarantined = self.on_payload(task.positions, payload) or 0
        if quarantined:
            self.quarantined += quarantined
            obs_metrics.counter("supervise.quarantined").add(quarantined)
        self.committed += 1
        self.done_items += len(task.positions)
        self.backoff_streak = 0
        obs_metrics.counter("supervise.batches").add()
        obs_metrics.counter("supervise.designs").add(len(task.positions))
        if task.started:
            obs_trace.emit_span("batch", "supervise", task.started,
                                time.perf_counter(),
                                designs=len(task.positions),
                                attempt=task.attempts)
        self._progress()

    def fail(self, task: _Task, kind: str, reason: str,
             elapsed: float) -> None:
        """Charge one failed dispatch; requeue, bisect, or quarantine."""
        task.attempts += 1
        task.elapsed += elapsed
        task.last_kind, task.last_reason = kind, reason
        if task.attempts <= self.retries:
            self.retried += 1
            obs_metrics.counter("supervise.retries").add()
            obs_trace.instant("retry", "supervise", kind=kind,
                              attempt=task.attempts,
                              designs=len(task.positions))
            self.queue.append(task)
            self._progress()
            return
        if len(task.positions) > 1:
            # The batch keeps failing: split it so the culprit query is
            # cornered while its neighbors get a fresh budget.  Total
            # work stays O(retries * n log n) per poisoned batch.
            obs_metrics.counter("supervise.bisects").add()
            obs_trace.instant("bisect", "supervise", kind=kind,
                              designs=len(task.positions))
            mid = len(task.positions) // 2
            self.queue.appendleft(_Task(task.positions[mid:]))
            self.queue.appendleft(_Task(task.positions[:mid]))
            self.total += 1
            return
        self.quarantined += 1
        self.done_items += 1
        obs_metrics.counter("supervise.quarantined").add()
        obs_trace.instant("quarantine", "supervise", kind=kind,
                          attempts=task.attempts)
        self.on_failure(BatchFailure(
            position=task.positions[0], kind=kind, reason=reason,
            attempts=task.attempts, elapsed=round(task.elapsed, 4)))
        self._progress()


def _kill_pool(pool: Optional[ProcessPoolExecutor]) -> None:
    """Tear a pool down *hard*: no orphans, even with hung workers.

    ``shutdown`` alone would block on (or abandon) a worker sleeping in
    an injected hang or a real livelock, so the worker processes are
    terminated explicitly and reaped, escalating to SIGKILL.
    """
    if pool is None:
        return
    procs_map = getattr(pool, "_processes", None)
    procs = list(procs_map.values()) if procs_map else []
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except Exception:  # pragma: no cover - shutdown of a broken pool
        pass
    for p in procs:
        try:
            p.terminate()
        except Exception:  # pragma: no cover - already dead
            pass
    deadline = time.monotonic() + _REAP_SECONDS
    for p in procs:
        p.join(max(0.0, deadline - time.monotonic()))
        if p.is_alive():  # pragma: no cover - stubborn worker
            p.kill()
            p.join(_REAP_SECONDS)


def run_inline(batches: Sequence[Sequence[int]],
               items: Sequence,
               worker_fn: Callable,
               on_payload: OnPayload,
               on_failure: Callable[[BatchFailure], None],
               retries: int = 0,
               on_progress: Optional[Callable[[dict], None]] = None
               ) -> None:
    """Poolless supervised dispatch (``jobs=1``): same policy, no forks.

    Injected main-process faults and real worker exceptions both arrive
    as exceptions here; ``KeyboardInterrupt`` commits nothing further
    and re-raises as :class:`SweepInterrupted`.
    """
    run = _Run(batches, on_payload, on_failure, retries,
               on_progress=on_progress)
    try:
        while run.queue:
            task = run.queue.popleft()
            obs_metrics.counter("supervise.dispatches").add()
            t0 = task.started = time.perf_counter()
            try:
                payload = worker_fn([items[p] for p in task.positions],
                                    task.attempts)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                obs_metrics.counter("supervise.exceptions").add()
                run.fail(task, "exception", repr(exc),
                         time.perf_counter() - t0)
                continue
            run.complete(task, payload)
    except KeyboardInterrupt:
        raise SweepInterrupted(run.committed, run.total) from None


def run_supervised(batches: Sequence[Sequence[int]],
                   items: Sequence,
                   worker_fn: Callable,
                   on_payload: OnPayload,
                   on_failure: Callable[[BatchFailure], None],
                   workers: int,
                   retries: int = 0,
                   batch_timeout: Optional[float] = None,
                   on_progress: Optional[Callable[[dict], None]] = None
                   ) -> None:
    """Pool-backed supervised dispatch — the engine's parallel core.

    Submits at most ``workers`` batches at a time (so deadlines measure
    running time, not queue time), consumes futures as they complete,
    and applies the module-level failure policy.  ``worker_fn`` must be
    a picklable module-level callable taking ``(items, attempt)``.

    The parent's heap stays frozen (:func:`gc.freeze`) from before the
    first submit forks the workers until the pool is torn down, on
    every path out (done, crash, timeout, interrupt); respawned pools
    fork from the same frozen heap.
    """
    run = _Run(batches, on_payload, on_failure, retries,
               on_progress=on_progress)
    pool: Optional[ProcessPoolExecutor] = None
    inflight: dict[Future, _Task] = {}

    def spawn() -> ProcessPoolExecutor:
        return ProcessPoolExecutor(max_workers=workers)

    def respawn() -> None:
        nonlocal pool
        _kill_pool(pool)
        delay = min(_BACKOFF_CAP, _BACKOFF_BASE * 2 ** run.backoff_streak)
        run.backoff_streak += 1
        run.respawns += 1
        obs_metrics.counter("supervise.respawns").add()
        obs_trace.instant("respawn", "supervise", backoff_s=delay)
        time.sleep(delay)
        pool = spawn()

    def abandon_inflight(kind: str, reason: str,
                         overdue: "Optional[Future]" = None) -> None:
        """Every in-flight batch just lost its worker; charge and requeue.

        Only the ``overdue`` future (timeout case) keeps the specific
        kind/reason; collateral batches are charged a dispatch too (their
        work is lost and, under fault injection, their next attempt must
        draw a fresh coin) but labeled as collateral of this event.
        """
        now = time.perf_counter()
        for fut, task in sorted(inflight.items(),
                                key=lambda ft: ft[1].attempts):
            if overdue is None or fut is overdue:
                run.fail(task, kind, reason, now - task.started)
            else:
                run.fail(task, kind, f"collateral: {reason}",
                         now - task.started)
        inflight.clear()

    gc.freeze()
    try:
        pool = spawn()
        while run.queue or inflight:
            # --- windowed submission: at most `workers` outstanding ----
            while run.queue and len(inflight) < workers:
                task = run.queue.popleft()
                task.started = time.perf_counter()
                if batch_timeout is not None:
                    task.deadline = task.started + batch_timeout
                try:
                    fut = pool.submit(
                        worker_fn, [items[p] for p in task.positions],
                        task.attempts)
                except (BrokenProcessPool, RuntimeError):
                    # the pool broke between completions; put the task
                    # back and let the crash path below respawn
                    run.queue.appendleft(task)
                    obs_metrics.counter("supervise.crashes").add()
                    abandon_inflight("crash", "worker pool broke")
                    respawn()
                    continue
                obs_metrics.counter("supervise.dispatches").add()
                inflight[fut] = task

            if not inflight:
                continue

            slack = None
            if batch_timeout is not None:
                now = time.perf_counter()
                slack = max(0.0, min(t.deadline for t in inflight.values())
                            - now) + 0.01
            done, _ = futures_wait(set(inflight), timeout=slack,
                                   return_when=FIRST_COMPLETED)

            crashed = False
            for fut in done:
                task = inflight.pop(fut)
                try:
                    payload = fut.result()
                except BrokenProcessPool as exc:
                    obs_metrics.counter("supervise.crashes").add()
                    run.fail(task, "crash",
                             f"worker process died ({exc})",
                             time.perf_counter() - task.started)
                    crashed = True
                except KeyboardInterrupt:  # pragma: no cover - re-raised
                    raise
                except Exception as exc:
                    obs_metrics.counter("supervise.exceptions").add()
                    run.fail(task, "exception", repr(exc),
                             time.perf_counter() - task.started)
                else:
                    run.complete(task, payload)
            if crashed:
                # every other in-flight future is doomed with the pool
                abandon_inflight("crash", "worker process died")
                respawn()
                continue

            if batch_timeout is not None:
                now = time.perf_counter()
                overdue = next((f for f, t in inflight.items()
                                if now > t.deadline), None)
                if overdue is not None:
                    obs_metrics.counter("supervise.timeouts").add()
                    abandon_inflight(
                        "timeout",
                        f"batch exceeded the {batch_timeout:g}s "
                        "wall-clock budget", overdue=overdue)
                    respawn()
    except KeyboardInterrupt:
        raise SweepInterrupted(run.committed, run.total) from None
    finally:
        _kill_pool(pool)
        gc.unfreeze()
