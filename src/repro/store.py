"""Persistent, content-addressed artifact store shared across processes.

The disk tier of the :class:`repro.caches.Memo` instances worth sharing
across processes: the per-nest front-end analysis
(:mod:`repro.pipeline.analysis`, the ``analysis`` family, one
``base-<key>`` artifact per analyzed nest).  Each artifact lives as one
zlib-compressed pickle per key under
``<cache dir>/<family>/<code_version>/``, so ``ProcessPoolExecutor``
workers and repeated ``repro explore`` / ``repro tables`` runs share one
computation instead of redoing it per process.  Only what a later
process cannot cheaply rebuild is stored: a base analysis pickles as
its legality preparation and SSA block, without its DFG
(:class:`repro.pipeline.analysis.BaseAnalysis`), and no scheduling work
reaches the disk at all.

Keys are content hashes (never object ids), and the directory is
partitioned by :func:`repro.explore.cache.code_version`, so editing any
``repro`` source invalidates every stored artifact automatically.
Each store counts its traffic per instance (:class:`StoreStats`) and in
the metrics registry as ``<name>_disk_{hits,misses,stores}``
(``analysis_disk_hits``, ...).

Concurrency: writes go to a unique temp file in the same directory and
are published with :func:`os.replace` (atomic on POSIX), under an
advisory ``fcntl`` lock on a sidecar lockfile so two sweeps hammering
the same ``.repro_cache/`` never interleave partial writes; readers
need no lock — they either see the old artifact, the new one, or
nothing, and any torn, truncated or foreign blob (one that does not
decompress, or whose pickle does not load) is a miss.
"""

from __future__ import annotations

import os
import pathlib
import pickle
import tempfile
import zlib
from dataclasses import dataclass
from typing import Any, Optional

from repro.caches import register_cache
from repro.obs import metrics as obs_metrics

__all__ = ["ArtifactStore", "StoreStats", "analysis_store"]

try:  # pragma: no cover - import guard for non-POSIX platforms
    import fcntl
except ImportError:  # pragma: no cover
    fcntl = None  # type: ignore[assignment]


@dataclass
class StoreStats:
    """Hit/miss/store counters for one store instance."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    #: publishes deliberately torn by fault injection (chaos tests only)
    torn: int = 0


class ArtifactStore:
    """Content-hash-keyed store of compressed pickles, with atomic,
    locked writes.

    The directory is resolved lazily on every operation (honouring
    ``REPRO_CACHE_DIR`` changes mid-process, as the test harness makes),
    and partitioned by code version so stale artifacts are never served.
    ``name`` namespaces one artifact family (``analysis``) and prefixes
    its registry counters.
    """

    def __init__(self, name: str = "analysis",
                 directory: "str | os.PathLike | None" = None):
        self.name = name
        self._directory = pathlib.Path(directory) if directory else None
        self.stats = StoreStats()

    def _count(self, what: str) -> None:
        setattr(self.stats, what, getattr(self.stats, what) + 1)
        obs_metrics.counter(f"{self.name}_disk_{what}").add()

    def root(self) -> pathlib.Path:
        if self._directory is not None:
            base = self._directory
        else:
            from repro.explore.cache import default_cache_dir
            base = default_cache_dir()
        from repro.explore.cache import code_version
        return base / self.name / code_version()

    def _path(self, key: str) -> pathlib.Path:
        return self.root() / f"{key}.pkl"

    def get(self, key: str) -> Optional[Any]:
        """Load one artifact; any read/decode failure is a miss."""
        try:
            blob = self._path(key).read_bytes()
            value = pickle.loads(zlib.decompress(blob))
        except (OSError, zlib.error, pickle.UnpicklingError, EOFError,
                AttributeError, ImportError, IndexError, ValueError):
            self._count("misses")
            return None
        self._count("hits")
        return value

    def put(self, key: str, value: Any) -> None:
        """Publish one artifact atomically (last concurrent writer wins).

        Unpicklable values are dropped silently — the store is a cache,
        not a database, and the in-process tier still holds the object.
        """
        path = self._path(key)
        root = path.parent
        try:
            root.mkdir(parents=True, exist_ok=True)
            blob = zlib.compress(
                pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        except (OSError, pickle.PicklingError, TypeError, AttributeError,
                RecursionError):
            return
        from repro.faults import torn_write
        if torn_write("store", key):
            # Chaos injection: simulate a writer that died mid-publish on
            # a filesystem without the atomic-rename guarantee — half the
            # blob lands on the *final* path.  Readers must miss.
            try:
                path.write_bytes(blob[:max(1, len(blob) // 2)])
            except OSError:
                return
            self.stats.torn += 1
            obs_metrics.counter(f"store.{self.name}.torn").add()
            return
        lock_path = root / ".lock"
        try:
            with open(lock_path, "a+b") as lock:
                if fcntl is not None:
                    fcntl.flock(lock, fcntl.LOCK_EX)
                try:
                    fd, tmp = tempfile.mkstemp(dir=root,
                                               prefix=f".{key}.", suffix=".tmp")
                    try:
                        with os.fdopen(fd, "wb") as fh:
                            fh.write(blob)
                        os.replace(tmp, path)
                    except BaseException:
                        try:
                            os.unlink(tmp)
                        except OSError:
                            pass
                        raise
                finally:
                    if fcntl is not None:
                        fcntl.flock(lock, fcntl.LOCK_UN)
        except OSError:
            return
        self._count("stores")

    def __len__(self) -> int:
        try:
            return sum(1 for _ in self.root().glob("*.pkl"))
        except OSError:  # pragma: no cover - unreadable cache dir
            return 0

    def clear(self) -> None:
        """Drop every stored artifact of this family (all code versions)."""
        self.stats = StoreStats()
        if self._directory is not None:
            base = self._directory
        else:
            from repro.explore.cache import default_cache_dir
            base = default_cache_dir()
        family = base / self.name
        if not family.is_dir():
            return
        for version_dir in family.iterdir():
            if not version_dir.is_dir():
                continue
            for path in list(version_dir.glob("*.pkl")) \
                    + list(version_dir.glob(".*")):
                try:
                    path.unlink()
                except OSError:  # pragma: no cover - concurrent clear
                    pass
            try:
                version_dir.rmdir()
            except OSError:  # pragma: no cover - non-empty (racing writer)
                pass


#: The process-wide store instance.
_ANALYSIS_STORE = ArtifactStore("analysis")
register_cache(_ANALYSIS_STORE.clear, disk=True)


def analysis_store() -> ArtifactStore:
    """The shared store for front-end analysis artifacts."""
    return _ANALYSIS_STORE
