"""Persistent on-disk result cache for design-space exploration.

Results live as JSON lines under ``.repro_cache/`` (override with the
``REPRO_CACHE_DIR`` environment variable), one file per *code version* —
a hash over every ``repro`` source file — so editing the compiler
invalidates stale results automatically instead of serving them.  Each
record is keyed by the query's stable content hash; repeated sweeps,
benchmarks, and CLI runs are therefore incremental across processes.

A record is one compact JSON array, ``[query_hash, kind, *values]``:
a point's values are its :class:`DesignPoint` fields in
:data:`_POINT_FIELDS` order, a skip's its phase and reason.  The query
itself is not stored — ``get`` is handed it, and a skip decodes with
the caller's query.  A line that is torn, not an array, of an unknown
kind or of the wrong length is a miss.

The cache is append-only: ``put`` appends one line per new record (a
landed batch's records in one write), ``get`` reads from an in-memory
index loaded once per instance.  Deserialization builds fresh
:class:`DesignPoint` objects on every ``get`` so callers may mutate the
returned point (e.g. attach ``base_ii``) without corrupting the store.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import pathlib
from dataclasses import dataclass
from typing import Iterable

from repro.caches import register_cache
from repro.explore.space import DesignQuery, SkipRecord
from repro.hw.report import DesignPoint
from repro.obs import metrics as obs_metrics

#: Registry counters aggregated across every ResultCache instance in the
#: process; the per-instance CacheStats dataclasses stay the per-run
#: source of truth (ExploreResult.cache_stats diffs them around a run).
_HITS = obs_metrics.counter("explore.cache.hits")
_MISSES = obs_metrics.counter("explore.cache.misses")
_STORES = obs_metrics.counter("explore.cache.stores")
_TORN = obs_metrics.counter("explore.cache.torn")

__all__ = ["CacheStats", "NullCache", "ResultCache", "code_version",
           "default_cache_dir"]

#: ``DesignPoint``'s fields in the order a point record stores their
#: values (``dataclasses.fields`` order).
_POINT_FIELDS = tuple(f.name for f in dataclasses.fields(DesignPoint))

#: How many values follow the hash and the kind in each kind of record.
_ARITY = {"point": len(_POINT_FIELDS), "skip": 2}

_ENV_DIR = "REPRO_CACHE_DIR"
_DEFAULT_DIR = ".repro_cache"

_code_version: str | None = None


def code_version() -> str:
    """Hash of every ``repro`` source file — the cache generation key."""
    global _code_version
    if _code_version is None:
        import repro
        root = pathlib.Path(repro.__file__).parent
        h = hashlib.sha256()
        for path in sorted(root.rglob("*.py")):
            h.update(str(path.relative_to(root)).encode())
            h.update(b"\0")
            h.update(path.read_bytes())
            h.update(b"\0")
        _code_version = h.hexdigest()[:12]
    return _code_version


@register_cache
def _reset_code_version() -> None:
    """Drop the memoized source-tree hash (``repro.clear_caches`` hook).

    Long-lived processes that edit sources (tests, notebooks) must not
    keep writing results under a stale generation key.
    """
    global _code_version
    _code_version = None


def default_cache_dir() -> pathlib.Path:
    return pathlib.Path(os.environ.get(_ENV_DIR, _DEFAULT_DIR))


@dataclass
class CacheStats:
    """Hit/miss/store counters for one cache instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: appends deliberately torn by fault injection (chaos tests only)
    torn: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    def describe(self) -> str:
        base = (f"{self.hits} hits, {self.misses} misses "
                f"({self.hit_rate:.0%} hit rate), {self.stores} stored")
        if self.torn:
            base += f", {self.torn} torn"
        return base


class NullCache:
    """The ``--no-cache`` escape hatch: never hits, never stores."""

    def __init__(self):
        self.stats = CacheStats()

    def get(self, query: DesignQuery):
        self.stats.misses += 1
        _MISSES.add()
        return None

    def put(self, records: Iterable[tuple[DesignQuery, object]]) -> None:
        pass

    def clear(self) -> None:
        pass


class ResultCache:
    """JSON-lines result store keyed by query hash + code version."""

    def __init__(self, directory: str | os.PathLike | None = None,
                 version: str | None = None):
        self.directory = pathlib.Path(directory) if directory \
            else default_cache_dir()
        self.version = version or code_version()
        self.stats = CacheStats()
        self._index: dict[str, list] | None = None

    @property
    def path(self) -> pathlib.Path:
        return self.directory / f"results-{self.version}.jsonl"

    def _load(self) -> dict[str, list]:
        if self._index is None:
            self._index = {}
            if self.path.exists():
                with self.path.open() as fh:
                    for line in fh:
                        try:
                            rec = json.loads(line)
                        except json.JSONDecodeError:
                            continue  # torn write or blank line: drop it
                        if _fits(rec):
                            self._index[rec[0]] = rec
        return self._index

    def __len__(self) -> int:
        return len(self._load())

    def get(self, query: DesignQuery) -> DesignPoint | SkipRecord | None:
        rec = self._load().get(query.query_hash)
        if rec is None:
            self.stats.misses += 1
            _MISSES.add()
            return None
        self.stats.hits += 1
        _HITS.add()
        return _decode_result(query, rec)

    def put(self, records: Iterable[tuple[DesignQuery,
                                          DesignPoint | SkipRecord]]
            ) -> None:
        """Store every ``(query, result)`` not stored yet: one line each,
        appended with one ``open`` and one ``write``.

        The bytes are those of one append per record, torn records
        included.
        """
        from repro.faults import torn_write

        index = self._load()
        lines = []
        for query, result in records:
            key = query.query_hash
            if key in index:
                continue
            rec = index[key] = _encode_result(query, result)
            line = json.dumps(rec, separators=(",", ":")) + "\n"
            if torn_write("cache", key):
                # Chaos injection: the appender died mid-line — half the
                # record, no newline.  The in-memory index keeps the real
                # result (this process computed it), but a fresh load must
                # drop the line and treat the query as a miss.
                line = line[:max(1, len(line) // 2)].rstrip("\n")
                self.stats.torn += 1
                _TORN.add()
            else:
                self.stats.stores += 1
                _STORES.add()
            lines.append(line)
        if not lines:
            return
        self.directory.mkdir(parents=True, exist_ok=True)
        with self.path.open("a") as fh:
            fh.write("".join(lines))

    def clear(self) -> None:
        """Drop every stored result (all code versions)."""
        self._index = None
        if self.directory.is_dir():
            for path in self.directory.glob("results-*.jsonl"):
                path.unlink(missing_ok=True)


def _encode_result(query: DesignQuery,
                   result: DesignPoint | SkipRecord) -> list:
    if isinstance(result, SkipRecord):
        return [query.query_hash, "skip", result.phase, result.reason]
    return [query.query_hash, "point",
            *(getattr(result, name) for name in _POINT_FIELDS)]


def _fits(rec) -> bool:
    """Whether a decoded line is a record this ``repro`` can read.

    A line written by an older or newer ``repro`` (an unknown kind, or
    more or fewer values than this ``DesignPoint`` has fields) does not
    fit: the code-version key partitions the default directory, but a
    custom ``REPRO_CACHE_DIR`` or a pinned ``version=`` can serve
    foreign records.  It is left out of the index, so its query is a
    miss that recomputes and appends a fresh record.
    """
    return isinstance(rec, list) and len(rec) >= 2 \
        and isinstance(rec[0], str) and isinstance(rec[1], str) \
        and _ARITY.get(rec[1]) == len(rec) - 2


def _decode_result(query: DesignQuery,
                   rec: list) -> DesignPoint | SkipRecord:
    """Rebuild a stored result from a record that :func:`_fits`."""
    if rec[1] == "point":
        return DesignPoint(*rec[2:])
    return SkipRecord(query, *rec[2:])
