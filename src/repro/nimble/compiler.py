"""End-to-end variant compilation — the Table 6.2 engine.

For one kernel nest, produce the thesis's ten design points:

* ``original``      — non-pipelined list schedule (II = iteration makespan);
* ``pipelined``     — modulo schedule of the untransformed loop;
* ``squash(DS)``    — DS-stage squash: same operators, stage-relaxed
  dependence distances, shift-register chains;
* ``jam(DS)``       — unroll-and-jam: the jammed program's inner loop is
  re-analyzed, so operators (and memory traffic) scale with DS.

All variants flow through the staged
:class:`repro.pipeline.CompilationPipeline` — the ``compile_*``
functions kept here are thin per-variant wrappers over it, preserved as
the driver's public API.  Every schedule passes the independent
re-verifier (:mod:`repro.verify.schedule`) before being reported, and
the base analysis of a kernel nest is shared across all its variants
via the process-local :class:`repro.pipeline.AnalysisCache`.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from functools import lru_cache
from typing import TYPE_CHECKING, Optional, Sequence

if TYPE_CHECKING:  # avoid the explore <-> nimble import cycle at runtime
    from repro.explore.space import DesignQuery, SkipRecord

from repro.analysis.loops import LoopNest, find_kernel_nests, find_loop_nests
from repro.caches import register_cache, release_batch
from repro.errors import LegalityError, ScheduleError, VerifyError
from repro.hw.report import DesignPoint
from repro.ir.nodes import Program
from repro.nimble.target import ACEV, Target
from repro.pipeline import CompilationPipeline

__all__ = ["VariantSet", "compile_query", "compile_query_batch",
           "compile_variants", "compile_original", "compile_squash",
           "compile_jam", "compile_jam_squash", "scheduling_classes"]


@dataclass
class VariantSet:
    """All design points for one kernel (one Table 6.2 row group)."""

    kernel: str
    target: Target
    original: DesignPoint
    pipelined: DesignPoint
    squash: dict[int, DesignPoint] = field(default_factory=dict)
    jam: dict[int, DesignPoint] = field(default_factory=dict)

    def all_points(self) -> list[DesignPoint]:
        pts = [self.original, self.pipelined]
        pts += [self.squash[k] for k in sorted(self.squash)]
        pts += [self.jam[k] for k in sorted(self.jam)]
        return pts


def compile_original(program: Program, nest: LoopNest,
                     target: Target = ACEV) -> DesignPoint:
    """The non-pipelined baseline design."""
    return CompilationPipeline(target).compile(program, nest, "original")


def compile_squash(program: Program, nest: LoopNest, ds: int,
                   target: Target = ACEV,
                   base_ii: Optional[int] = None,
                   scheduler: Optional[str] = None) -> DesignPoint:
    """Unroll-and-squash by DS: shared operators, relaxed recurrences."""
    return CompilationPipeline(target, scheduler=scheduler).compile(
        program, nest, "squash", ds=ds, base_ii=base_ii)


def compile_jam(program: Program, nest: LoopNest, ds: int,
                target: Target = ACEV,
                base_ii: Optional[int] = None,
                scheduler: Optional[str] = None) -> DesignPoint:
    """Unroll-and-jam by DS, then pipeline the fused inner loop."""
    return CompilationPipeline(target, scheduler=scheduler).compile(
        program, nest, "jam", ds=ds, base_ii=base_ii)


def compile_jam_squash(program: Program, nest: LoopNest, jam: int, ds: int,
                       target: Target = ACEV,
                       base_ii: Optional[int] = None,
                       scheduler: Optional[str] = None) -> DesignPoint:
    """The combined Ch. 2 transformation: jam by ``jam``, squash by ``ds``.

    Operator count scales with ``jam``; the recurrence is then relaxed by
    ``ds`` over the duplicated operators.
    """
    return CompilationPipeline(target, scheduler=scheduler).compile(
        program, nest, "jam+squash", ds=ds, jam=jam, base_ii=base_ii)


@lru_cache(maxsize=32)
def _kernel_program(kernel: str):
    """Per-process memo of (program, kernel nest) for one benchmark.

    Benchmark builds are deterministic and the transforms never mutate
    their input program, so every query against the same kernel can
    share one build — as the pre-engine serial sweep did.
    """
    from repro.workloads import benchmark_by_name
    bm = benchmark_by_name(kernel)
    prog = bm.build(**bm.eval_kwargs)
    nests = find_kernel_nests(prog) or find_loop_nests(prog)
    return prog, (nests[0] if nests else None)


register_cache(_kernel_program.cache_clear)


def scheduling_classes(kernels: Sequence[str],
                       target_specs: Sequence[str]) -> dict[str, str]:
    """Map each kernel to the first kernel of its scheduling class.

    A kernel's class on a target is the scheduling-problem signature
    (:func:`repro.hw.modulo.search_signature`) of its base design: the
    ``pipelined`` DFG with the default edge view, on the target's
    library.  Kernels whose classes match on any of ``target_specs``
    share a class (on ``vliw4``, the ``-mem`` and ``-hw`` versions of
    skipjack and DES).  Only kernels that one benchmark builder makes
    with different arguments are compared; the rest, ``.lang`` kernels
    included, are their own class without being built.  The builds and
    base analyses land in :func:`_kernel_program`'s cache and the
    analysis memos, which workers forked later inherit; the per-design
    memos the comparison fills are released before it returns.  Without
    shared analyses (``REPRO_ANALYSIS_CACHE=0``) nothing is compared.

    A class only decides which designs share a worker; what a design
    replays rests on its own content key
    (:class:`repro.pipeline.CompilationPipeline`).
    """
    from repro.env import analysis_cache_enabled

    order = list(dict.fromkeys(kernels))
    first = {k: k for k in order}
    named = [k for k in order
             if not (k.startswith("lang:") or k.endswith(".lang"))]
    if len(named) < 2 or not analysis_cache_enabled():
        return first

    from repro.errors import ReproError
    from repro.hw.mii import default_edge_view
    from repro.hw.modulo import search_signature
    from repro.nimble.target import decode_target
    from repro.pipeline.analysis import analysis_cache
    from repro.workloads import benchmark_by_name

    by_builder: dict[tuple[str, str], list[str]] = {}
    for k in named:
        try:
            build = benchmark_by_name(k).build
        except KeyError:
            continue  # compile_query reports it
        # by name: a builder wrapped per lookup is a new object each time
        by_builder.setdefault((getattr(build, "__module__", ""),
                               getattr(build, "__qualname__", "")),
                              []).append(k)
    libs = []
    for spec in dict.fromkeys(target_specs):
        try:
            libs.append(decode_target(spec).library)
        except ReproError:
            continue  # compile_query reports it
    seen: dict[tuple[int, str], str] = {}
    for group in by_builder.values():
        if len(group) < 2:
            continue
        for k in group:
            prog, nest = _kernel_program(k)
            if nest is None:
                continue
            dfg = analysis_cache().get_or_build(prog, nest).dfg
            if dfg is None:
                continue
            view = default_edge_view(dfg)
            for i, lib in enumerate(libs):
                twin = seen.setdefault(
                    (i, search_signature(dfg, lib, view, "class")), k)
                # the earlier kernel's class absorbs the later one's
                lo, hi = sorted((first[twin], first[k]), key=order.index)
                first = {x: lo if c == hi else c for x, c in first.items()}
    # the signatures filled per-design memos (search contexts, edge
    # views, delay maps), which forked workers would otherwise inherit
    release_batch()
    return first


def compile_query(query: "DesignQuery",
                  replays: Optional[dict] = None
                  ) -> "DesignPoint | SkipRecord":
    """Compile one :class:`repro.explore.space.DesignQuery` — the pure,
    picklable worker the exploration engine dispatches.

    Builds the named benchmark at evaluation scale, selects its kernel
    nest, decodes the target spec, resolves the scheduling strategy, and
    drives the requested variant through the pipeline.  Designs the
    compiler rejects come back as structured :class:`SkipRecord` entries
    (``phase`` = ``"legality"`` or ``"schedule"``); any other exception
    propagates.  That includes a :class:`~repro.errors.VerifyError`: a
    schedule the validate stage rejects is a compiler fault, so
    :func:`compile_query_batch` quarantines the design instead of
    caching a skip.  The result is a function of the query alone — no
    ambient state — so it is safe to evaluate in any process, in any
    order, and to cache by query hash.  ``replays`` is the pipeline's
    table of schedule-stage outcomes (:class:`~repro.pipeline.
    CompilationPipeline`); replaying one gives the same result.
    """
    from repro.explore.space import SkipRecord
    from repro.nimble.target import decode_target

    try:
        prog, nest = _kernel_program(query.kernel)
        if nest is None:
            return SkipRecord(query, "legality",
                              f"no loop nest in {query.kernel!r}")
        target = decode_target(query.target_spec)
        pipe = CompilationPipeline(target,
                                   scheduler=query.scheduler or None,
                                   replays=replays)
        return pipe.compile(prog, nest, query.variant,
                            ds=query.ds, jam=query.jam)
    except LegalityError as exc:
        return SkipRecord(query, "legality", str(exc))
    except ScheduleError as exc:
        return SkipRecord(query, "schedule", str(exc))


def compile_query_batch(queries: "Sequence[DesignQuery]",
                        attempt: int = 0) -> dict:
    """Compile a batch of queries in one worker — the engine's dispatch
    unit.

    The engine batches the queries of one ``(kernel, variant)`` group,
    of one variant over the kernels of one scheduling class
    (:func:`scheduling_classes`), one kernel's group after the other,
    or, for a light class, of every variant over the class's kernels.
    One process builds each kernel once and serves every
    target/factor/scheduler crossing from its process-local caches
    (benchmark build, shared base analysis).  Returns
    ``{"results", "metrics"}``: the per-query results and the batch's
    metrics-registry delta (stage wall times, cache hits and misses,
    scheduler effort), which the engine merges into the parent
    registry; traced runs add ``"trace"``, the batch's drained span
    events.

    A query whose schedule the validate stage rejects
    (:class:`~repro.errors.VerifyError`) is a deterministic compiler
    fault: a retry would fail the same way, so its slot holds a
    ``kind="verify"`` :class:`~repro.explore.space.FailRecord` after one
    compile and the batch goes on with its neighbours.

    ``attempt`` is the supervisor's dispatch count for this batch; it
    feeds the chaos-test fault site so a query that drew an injected
    crash/hang draws a *fresh* deterministic coin on each retry.

    One ``(kernel, variant)`` group's designs are the lifetime of
    per-design state: at each group boundary inside the batch, and when
    the batch ends, even by an exception,
    :func:`repro.caches.release_batch` drops the search contexts, edge
    views, delay and resource maps and squash and jam analyses its
    designs built, so a merged batch never holds more of it than a
    one-group batch.  The per-kernel state (built kernels, base analyses,
    content keys, jammed programs) stays for the worker's later
    batches.  A batch over more than one kernel also gives the
    pipeline a replay table that lives as long as the batch:
    a design that poses a scheduling problem an earlier design of the
    batch solved replays that schedule-stage outcome.  Under
    ``REPRO_ANALYSIS_CACHE=0`` nothing is replayed.
    """
    from repro.env import analysis_cache_enabled
    from repro.explore.space import FailRecord
    from repro.faults import fault_site
    from repro.obs import metrics as obs_metrics
    from repro.obs import trace as obs_trace

    before_metrics = obs_metrics.registry().snapshot()
    replays = {} if len({q.kernel for q in queries}) > 1 \
        and analysis_cache_enabled() else None
    with obs_trace.span("batch", "worker", size=len(queries),
                        attempt=attempt):
        results = []
        group = None
        try:
            for q in queries:
                if group is not None and (q.kernel, q.variant) != group:
                    release_batch()
                group = (q.kernel, q.variant)
                fault_site("worker", f"{q.query_hash}:{attempt}")
                t0 = time.perf_counter()
                try:
                    results.append(compile_query(q, replays))
                except VerifyError as exc:
                    results.append(FailRecord(
                        query=q, kind="verify", reason=repr(exc),
                        attempts=1,
                        elapsed=round(time.perf_counter() - t0, 4)))
        finally:
            release_batch()
    payload = {"results": results,
               "metrics": obs_metrics.registry().delta_since(before_metrics)}
    if obs_trace.enabled():
        # ship the batch's spans home; the engine re-injects them into
        # the supervisor's buffer so the exported trace is sweep-wide
        payload["trace"] = obs_trace.drain()
    return payload


def compile_variants(program: Program, nest: Optional[LoopNest] = None,
                     factors: Sequence[int] = (2, 4, 8, 16),
                     target: Target = ACEV,
                     scheduler: Optional[str] = None) -> VariantSet:
    """Produce the full Table 6.2 row group for one kernel."""
    if nest is None:
        from repro.nimble.kernel import select_kernel
        nest = select_kernel(program, ds_hint=min(factors)).nest
    pipe = CompilationPipeline(target, scheduler=scheduler)
    original = pipe.compile(program, nest, "original")
    pipelined = pipe.compile(program, nest, "pipelined")
    vs = VariantSet(kernel=program.name, target=target,
                    original=original, pipelined=pipelined)
    for ds in factors:
        vs.squash[ds] = pipe.compile(program, nest, "squash", ds=ds,
                                     base_ii=original.ii)
        vs.jam[ds] = pipe.compile(program, nest, "jam", ds=ds,
                                  base_ii=original.ii)
    return vs
