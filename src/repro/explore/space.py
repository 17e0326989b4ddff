"""Declarative design-space descriptions for the exploration engine.

A :class:`DesignSpace` names the axes of an unroll-and-squash search —
variant kind, DS/J factors, target parameters, kernel selection — and
enumerates to concrete :class:`DesignQuery` objects.  Queries are frozen,
hashable, and carry a *stable content hash* (independent of process,
enumeration order, and dict seeds) used as the persistent-cache key.

Spaces compose with ``|`` (union, deduplicated, first-seen order), so
callers can assemble e.g. a squash sweep on two targets plus a jam sweep
on one without writing loops.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Iterator, Sequence

__all__ = ["VARIANTS", "DesignQuery", "DesignSpace", "FailRecord",
           "SkipRecord", "table_sweep_space"]

#: Variant kinds the compiler knows how to build (thesis Ch. 2/4).
VARIANTS = ("original", "pipelined", "squash", "jam", "jam+squash")

#: Variants that take no unroll factor (exactly one design point each).
_FACTORLESS = ("original", "pipelined")


@dataclass(frozen=True)
class DesignQuery:
    """One fully-specified design point to evaluate.

    ``ds`` is the squash depth (or the jam factor for plain ``jam``);
    ``jam`` is the duplication factor of the combined ``jam+squash``
    variant and 1 otherwise.  ``target_spec`` is a
    :func:`repro.nimble.target.decode_target` string, e.g. ``"acev"`` or
    ``"acev::ports=1,reg_rows=0.25"``.
    """

    kernel: str
    variant: str
    ds: int = 1
    jam: int = 1
    target_spec: str = "acev"
    #: scheduling strategy for pipelined variants ("" = target default);
    #: see :func:`repro.hw.schedulers.available_schedulers`
    scheduler: str = ""

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise ValueError(f"unknown variant {self.variant!r}; "
                             f"have {VARIANTS}")
        if self.ds < 1 or self.jam < 1:
            raise ValueError(f"factors must be >= 1: ds={self.ds}, "
                             f"jam={self.jam}")
        if self.scheduler:
            from repro.hw.schedulers import scheduler_by_name
            try:
                scheduler_by_name(self.scheduler)
            except KeyError as exc:
                raise ValueError(exc.args[0]) from None
        # Normalize factors the variant ignores, so semantically identical
        # designs hash (and cache) identically.
        if self.variant in _FACTORLESS and self.ds != 1:
            object.__setattr__(self, "ds", 1)
        if self.variant != "jam+squash" and self.jam != 1:
            object.__setattr__(self, "jam", 1)
        # The original design is list-scheduled regardless of strategy.
        if self.variant == "original" and self.scheduler:
            object.__setattr__(self, "scheduler", "")

    @property
    def label(self) -> str:
        from repro.hw.report import variant_label
        base = variant_label(self.variant, self.ds, self.jam)
        if self.scheduler:
            return f"{base}@{self.scheduler}"
        return base

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    @cached_property
    def query_hash(self) -> str:
        """Stable content hash (sha256 of the canonical JSON encoding).

        Computed on first read and kept in the instance ``__dict__``,
        outside the fields: equality, hashing and :meth:`to_dict` never
        see it.
        """
        blob = json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:24]


@dataclass(frozen=True)
class SkipRecord:
    """A query the compiler could not realize, captured instead of raised.

    ``phase`` names the pipeline stage that rejected the design:
    ``"legality"`` (transformation preconditions) or ``"schedule"``
    (no legal hardware schedule).
    """

    query: DesignQuery
    phase: str
    reason: str

    @property
    def label(self) -> str:
        return self.query.label


@dataclass(frozen=True)
class FailRecord:
    """A query the *engine* had to quarantine, with full provenance.

    The structured sibling of :class:`SkipRecord` for failures that are
    not the compiler's verdict on the design: the worker process died
    (``kind="crash"``), overran the per-batch wall-clock budget
    (``kind="timeout"``), raised an exception the compiler does not
    classify (``kind="exception"``), or produced a schedule the validate
    stage rejected (``kind="verify"``, a compiler fault, quarantined
    after one compile).  The supervised engine retries and bisects the
    other failing batches down to the culprit query before writing one
    of these, so a ``FailRecord`` always names a single design — never a
    batch of innocent neighbors — and a sweep always accounts for every
    query (points + skips + fails), with no silent gaps.

    Unlike skips, fails are **never cached**: the failure may be
    environmental (OOM kill, transient signal), so a re-run retries the
    quarantined queries from scratch.
    """

    query: DesignQuery
    #: ``"crash"`` | ``"timeout"`` | ``"exception"`` | ``"verify"``
    kind: str
    #: the exception repr, signal description, or timeout summary
    reason: str
    #: total dispatch attempts spent before quarantine (1 = no retry)
    attempts: int = 1
    #: wall-clock seconds burned across all attempts of the owning batch
    elapsed: float = 0.0

    @property
    def label(self) -> str:
        return self.query.label


@dataclass(frozen=True)
class DesignSpace:
    """A cross product of exploration axes; enumerates to queries.

    ``factors`` feeds the ``squash``/``jam`` variants (one query per
    factor); ``jam_factors`` crosses with ``factors`` for the combined
    ``jam+squash`` variant.  Factor-less variants contribute one query
    per (kernel, target) regardless of the factor axes.
    """

    kernels: tuple[str, ...]
    variants: tuple[str, ...] = ("original", "pipelined", "squash", "jam")
    factors: tuple[int, ...] = (2, 4, 8, 16)
    jam_factors: tuple[int, ...] = (2,)
    target_specs: tuple[str, ...] = ("acev",)
    #: scheduling strategies to sweep ("" = each target's default)
    schedulers: tuple[str, ...] = ("",)
    #: extra spaces unioned in by ``|`` (kept for composability)
    extra: tuple["DesignSpace", ...] = field(default=(), repr=False)

    def __post_init__(self):
        for v in self.variants:
            if v not in VARIANTS:
                raise ValueError(f"unknown variant {v!r}; have {VARIANTS}")

    def __or__(self, other: "DesignSpace") -> "DesignSpace":
        if not isinstance(other, DesignSpace):  # pragma: no cover
            return NotImplemented
        return DesignSpace(self.kernels, self.variants, self.factors,
                           self.jam_factors, self.target_specs,
                           self.schedulers, extra=self.extra + (other,))

    def _own_queries(self) -> Iterator[DesignQuery]:
        for target in self.target_specs:
            for sched in self.schedulers:
                for kernel in self.kernels:
                    for variant in self.variants:
                        if variant in _FACTORLESS:
                            yield DesignQuery(kernel, variant,
                                              target_spec=target,
                                              scheduler=sched)
                        elif variant == "jam+squash":
                            for j in self.jam_factors:
                                for ds in self.factors:
                                    yield DesignQuery(
                                        kernel, variant, ds=ds, jam=j,
                                        target_spec=target, scheduler=sched)
                        else:
                            for ds in self.factors:
                                yield DesignQuery(kernel, variant, ds=ds,
                                                  target_spec=target,
                                                  scheduler=sched)

    def enumerate(self) -> list[DesignQuery]:
        """All queries of this space (and unioned spaces), deduplicated."""
        seen: set[DesignQuery] = set()
        out: list[DesignQuery] = []
        todo: list[DesignSpace] = [self]
        while todo:
            space = todo.pop(0)
            for q in space._own_queries():
                if q not in seen:
                    seen.add(q)
                    out.append(q)
            todo.extend(space.extra)
        return out

    @property
    def size(self) -> int:
        return len(self.enumerate())


def table_sweep_space(kernels: Sequence[str],
                      factors: Sequence[int] = (2, 4, 8, 16),
                      target_spec: str = "acev",
                      scheduler: str = "") -> DesignSpace:
    """The Table 6.2 space: original + pipelined + squash/jam per factor."""
    return DesignSpace(kernels=tuple(kernels),
                       variants=("original", "pipelined", "squash", "jam"),
                       factors=tuple(factors),
                       target_specs=(target_spec,),
                       schedulers=(scheduler,))
