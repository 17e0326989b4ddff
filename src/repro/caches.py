"""One memo type for every process-local cache, and the clear hook.

Several layers reuse expensive work within one process: the shared
front-end analysis (:mod:`repro.pipeline.analysis`) and the scheduler's
per-design search context (:mod:`repro.hw.modulo`), among others.  Each
keeps it in a :class:`Memo` — a bounded LRU whose single
:meth:`Memo.get` goes memory → disk → compute → publish.  A memo's key
is one of two kinds:

* an **identity** key built from object ids (``(id(dfg), id(lib))``):
  the entry holds strong references to the objects passed as ``pins``,
  so an id can never be recycled by a different live object while its
  entry exists.  Identity memos live in memory only;
* a **content** key — a string hashing everything the value depends on.
  The base-analysis memo keys its entries by content and also keeps
  them on disk, in the :class:`repro.store.ArtifactStore` that worker
  processes and later runs share.

A memo lives as long as one of two scopes:

* **per worker** (the default): per-kernel state every later batch of
  the process can reuse — base analyses, content keys, jammed
  programs.  An entry lives until the LRU bound drops it;
* **per group inside a batch** (``per_batch=True``): state keyed by
  per-design objects — search contexts, edge views, delay and resource
  maps, squash and jam analyses.  :func:`release_batch` drops them at
  each ``(kernel, variant)`` boundary inside an engine batch and when
  the batch lands (:func:`repro.nimble.compiler.compile_query_batch`),
  so a worker's heap holds one group's designs, not every design it
  ever compiled.

Tests and benchmarks need one switch that drops *all* caches so
repeated runs stay hermetic: every memo is registered here when it is
built, the few other caches (two ``functools.lru_cache`` functions, the
Table 6.2 sweep memo, the source-tree hash, the artifact store)
register a clear function, and :func:`clear_caches` runs them all and
then empties the persistent result cache.
"""

from __future__ import annotations

import weakref
from collections import OrderedDict
from typing import TYPE_CHECKING, Any, Callable, Hashable, Optional

from repro.env import analysis_cache_enabled
from repro.obs import metrics as obs_metrics

if TYPE_CHECKING:  # store -> caches import cycle: the type only
    from repro.store import ArtifactStore

__all__ = ["Memo", "clear_caches", "register_cache", "release_batch"]

_CLEARERS: list[Callable[[], None]] = []
_DISK_CLEARERS: list[Callable[[], None]] = []
#: Every live memo; weak, so a dropped ``AnalysisCache`` takes its
#: memos (and the objects they pin) with it.
_MEMOS: "weakref.WeakSet[Memo]" = weakref.WeakSet()


class Memo:
    """A bounded, pinning LRU with an optional content-keyed disk tier.

    ``get(key, compute, pins)`` returns the memory entry, else the
    ``store``'s artifact (refilling memory), else ``compute()`` published
    to both tiers.  A memo with a ``store`` takes string content keys;
    it is the shared-analysis machinery ``REPRO_ANALYSIS_CACHE=0`` turns
    off, so under that setting its ``get`` only computes.

    Memory traffic counts as ``<name>_mem_hits``/``<name>_mem_misses``
    in the metrics registry, and every entry the LRU bound drops as
    ``<name>_mem_evictions`` (a :meth:`clear` is not an eviction); the
    store counts its own disk traffic.  ``per_batch`` marks a memo that
    :func:`release_batch` empties.
    """

    def __init__(self, name: str, maxsize: int,
                 store: "Optional[ArtifactStore]" = None,
                 per_batch: bool = False):
        self.name = name
        self.maxsize = maxsize
        self.store = store
        self.per_batch = per_batch
        self._data: "OrderedDict[Hashable, tuple[tuple, Any]]" = OrderedDict()
        self._hits = obs_metrics.counter(f"{name}_mem_hits")
        self._misses = obs_metrics.counter(f"{name}_mem_misses")
        self._evictions = obs_metrics.counter(f"{name}_mem_evictions")
        _MEMOS.add(self)

    def __len__(self) -> int:
        return len(self._data)

    def get(self, key: Any, compute: Callable[[], Any],
            pins: tuple = ()) -> Any:
        store = self.store
        if store is not None and not analysis_cache_enabled():
            return compute()
        entry = self._data.get(key)
        if entry is not None:
            self._hits.add()
            self._data.move_to_end(key)
            return entry[1]
        self._misses.add()
        value = store.get(key) if store is not None else None
        if value is None:
            value = compute()
            if store is not None:
                store.put(key, value)
        self._data[key] = (pins, value)
        if len(self._data) > self.maxsize:
            self._data.popitem(last=False)
            self._evictions.add()
        return value

    def clear(self) -> None:
        """Drop the memory tier (the store keeps its artifacts)."""
        self._data.clear()


def register_cache(clear_fn: Callable[[], None], *,
                   disk: bool = False) -> Callable[[], None]:
    """Register a non-:class:`Memo` cache's clear function.

    Returns the function unchanged so it can be used as a decorator.
    Registration is idempotent per function object.  ``disk=True`` marks
    caches whose state lives on disk (the persistent artifact store);
    ``clear_caches(memory_only=True)`` leaves those intact.
    """
    registry = _DISK_CLEARERS if disk else _CLEARERS
    if clear_fn not in registry:
        registry.append(clear_fn)
    return clear_fn


def release_batch() -> None:
    """Drop every per-batch memo's entries (and the objects they pin).

    Called at each ``(kernel, variant)`` boundary inside a batch of
    design queries, when the batch lands, and after the parent compares
    the kernels' scheduling classes
    (:func:`repro.nimble.compiler.scheduling_classes`); the per-worker
    memos keep their entries for the next batch.
    """
    for memo in list(_MEMOS):
        if memo.per_batch:
            memo.clear()


def clear_caches(memory_only: bool = False) -> None:
    """Drop every memo and registered cache plus the persistent
    exploration result cache.

    The one hook tests/benchmarks call to guarantee the next sweep
    recomputes from scratch.  ``memory_only=True`` drops just the
    process-local tiers — tests use it to simulate a fresh worker
    process against populated on-disk stores.
    """
    for memo in list(_MEMOS):
        memo.clear()
    for fn in list(_CLEARERS):
        fn()
    if memory_only:
        return
    for fn in list(_DISK_CLEARERS):
        fn()
    from repro.explore.cache import ResultCache
    ResultCache().clear()
