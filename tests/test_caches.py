"""``repro.caches.Memo``: one bounded, pinning LRU with an optional
content-keyed disk tier, and the ``clear_caches`` hook over all of them."""

import gc
import weakref

import pytest

import repro
from repro.caches import Memo
from repro.store import ArtifactStore, analysis_store
from tests.conftest import memo_traffic


def _never():
    pytest.fail("recomputed a value a tier should have served")


class _Pinned:
    pass


class TestMemoryTier:
    def test_get_computes_once_and_counts_registry_traffic(self):
        memo = Memo("test_count", 4)
        traffic = memo_traffic("test_count")
        calls = []
        for _ in range(3):
            assert memo.get("k", lambda: calls.append(1) or "v") == "v"
        assert calls == [1]
        assert traffic() == (2, 1)

    def test_none_values_are_entries_too(self):
        memo = Memo("test_none", 4)
        assert memo.get("k", lambda: None) is None
        assert memo.get("k", _never) is None
        assert len(memo) == 1

    def test_miss_without_compute_returns_none(self):
        memo = Memo("test_peek", 4)
        assert memo.get("k") is None
        assert len(memo) == 0

    def test_entries_pin_their_key_objects(self):
        memo = Memo("test_pins", 4)
        obj = _Pinned()
        ref = weakref.ref(obj)
        memo.get(id(obj), lambda: "derived", (obj,))
        del obj
        gc.collect()
        assert ref() is not None   # the id cannot be recycled
        memo.clear()
        gc.collect()
        assert ref() is None

    def test_clear_caches_drops_every_memo(self):
        memo = Memo("test_hook", 4)
        memo.put("k", 1)
        repro.clear_caches(memory_only=True)
        assert len(memo) == 0

    def test_knob_leaves_identity_memos_on(self, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")
        memo = Memo("test_identity_off", 4)
        memo.get("k", lambda: 1)
        assert memo.get("k", _never) == 1


class TestDiskTier:
    def test_disk_hit_refills_the_memory_tier(self, tmp_path):
        store = ArtifactStore("memo", tmp_path)
        Memo("test_disk", 4, store).get("k", lambda: {"v": 1})
        fresh = Memo("test_disk", 4, store)   # a new process stand-in
        traffic = memo_traffic("test_disk")
        assert fresh.get("k", _never) == {"v": 1}
        assert store.stats.hits == 1 and len(fresh) == 1
        assert fresh.get("k", _never) == {"v": 1}
        assert store.stats.hits == 1   # the second read stayed in memory
        assert traffic() == (1, 1)

    def test_put_publishes_to_both_tiers(self, tmp_path):
        store = ArtifactStore("memo", tmp_path)
        Memo("test_put", 4, store).put("k", [1, 2])
        assert store.get("k") == [1, 2]

    def test_torn_artifact_reads_as_a_miss(self, tmp_path, monkeypatch):
        store = ArtifactStore("memo", tmp_path)
        monkeypatch.setenv("REPRO_FAULTS", "torn@store:1.0")
        Memo("test_torn", 4, store).get("k", lambda: {"v": 1})
        assert store.stats.torn == 1
        monkeypatch.delenv("REPRO_FAULTS")
        fresh = Memo("test_torn", 4, store)
        assert fresh.get("k", lambda: {"v": 2}) == {"v": 2}   # recomputed
        assert store.stats.misses == 2   # the cold read, then the torn one
        # ... and republished whole
        assert Memo("test_torn", 4, store).get("k", _never) == {"v": 2}

    def test_memory_only_clear_keeps_the_disk_tier(self, tmp_path,
                                                   monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        memo = Memo("test_clear", 4, analysis_store())
        memo.get("k", lambda: {"v": 1})
        repro.clear_caches(memory_only=True)
        assert len(memo) == 0
        assert memo.get("k", _never) == {"v": 1}   # served by the disk
        repro.clear_caches()
        assert memo.get("k", lambda: {"v": 2}) == {"v": 2}

    def test_knob_off_bypasses_both_tiers(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_ANALYSIS_CACHE", "0")
        store = ArtifactStore("memo", tmp_path)
        memo = Memo("test_off", 4, store)
        traffic = memo_traffic("test_off")
        calls = []
        for _ in range(2):
            assert memo.get("k", lambda: calls.append(1) or 1) == 1
        assert memo.put("j", 2) == 2
        assert memo.get("j") is None
        assert len(calls) == 2 and len(memo) == 0 and len(store) == 0
        assert traffic() == (0, 0)
