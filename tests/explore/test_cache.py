"""Persistent result cache: hit/miss across simulated runs, isolation."""

from repro.explore import (
    DesignQuery, NullCache, ResultCache, SkipRecord, code_version,
)
from repro.hw.report import DesignPoint


def _point(kernel="iir", variant="squash", factor=2, ii=7) -> DesignPoint:
    return DesignPoint(kernel=kernel, variant=variant, factor=factor,
                       ii=ii, op_rows=100, registers=20, reg_rows=1.0,
                       rec_mii=2, res_mii=1, outer_trip=16, inner_trip=64,
                       schedule_length=9)


class TestResultCache:
    def test_miss_then_hit_across_instances(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        first = ResultCache(tmp_path)
        assert first.get(q) is None
        first.put([(q, _point())])
        assert first.stats.misses == 1 and first.stats.stores == 1

        # a "second run": fresh instance over the same directory
        second = ResultCache(tmp_path)
        got = second.get(q)
        assert isinstance(got, DesignPoint) and got == _point()
        assert second.stats.hits == 1 and second.stats.misses == 0
        assert second.stats.hit_rate == 1.0

    def test_get_returns_fresh_objects(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        cache = ResultCache(tmp_path)
        cache.put([(q, _point())])
        a, b = cache.get(q), cache.get(q)
        assert a == b and a is not b
        a.base_ii = 999  # mutating a hit must not corrupt the store
        assert cache.get(q).base_ii is None

    def test_skip_records_roundtrip(self, tmp_path):
        q = DesignQuery("wavelet", "squash", ds=4)
        cache = ResultCache(tmp_path)
        cache.put([(q, SkipRecord(q, "legality", "rejected"))])
        got = ResultCache(tmp_path).get(q)
        assert isinstance(got, SkipRecord)
        assert got.phase == "legality" and got.query == q

    def test_version_partitions_results(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        ResultCache(tmp_path, version="aaa").put([(q, _point())])
        assert ResultCache(tmp_path, version="bbb").get(q) is None
        assert ResultCache(tmp_path, version="aaa").get(q) is not None

    def test_clear_drops_every_version(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        for ver in ("aaa", "bbb"):
            ResultCache(tmp_path, version=ver).put([(q, _point())])
        cache = ResultCache(tmp_path, version="aaa")
        cache.clear()
        assert cache.get(q) is None
        assert ResultCache(tmp_path, version="bbb").get(q) is None

    def test_tolerates_torn_writes(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        cache = ResultCache(tmp_path)
        cache.put([(q, _point())])
        with cache.path.open("a") as fh:
            fh.write('{"hash": "truncated...')  # crash mid-append
        reread = ResultCache(tmp_path)
        assert reread.get(q) == _point()

    def test_put_is_idempotent(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        cache = ResultCache(tmp_path)
        cache.put([(q, _point())])
        cache.put([(q, _point())])
        assert cache.stats.stores == 1
        assert len(ResultCache(tmp_path)) == 1

    def test_a_batch_appends_the_per_record_bytes_at_once(
            self, tmp_path, monkeypatch):
        # a landed batch is one open and one write, of exactly the bytes
        # one put per record writes: torn records (half a line, no
        # newline) included
        import pathlib

        monkeypatch.setenv("REPRO_FAULTS", "torn@cache:0.5")
        records = [(DesignQuery("iir", "squash", ds=ds), _point(factor=ds))
                   for ds in range(2, 18)]
        one_by_one = ResultCache(tmp_path / "one")
        for record in records:
            one_by_one.put([record])
        opened = []
        real_open = pathlib.Path.open
        monkeypatch.setattr(pathlib.Path, "open", lambda path, *a, **kw:
                            opened.append(path) or real_open(path, *a, **kw))
        batch = ResultCache(tmp_path / "batch")
        batch.put(records)
        assert opened == [batch.path]
        assert batch.path.read_bytes() == one_by_one.path.read_bytes()
        assert 0 < batch.stats.torn < len(records)
        assert (batch.stats.torn, batch.stats.stores) == \
            (one_by_one.stats.torn, one_by_one.stats.stores)

    def test_code_version_is_stable_and_short(self):
        assert code_version() == code_version()
        assert len(code_version()) == 12


class TestNullCache:
    def test_never_hits(self):
        q = DesignQuery("iir", "squash", ds=2)
        cache = NullCache()
        cache.put([(q, _point())])
        assert cache.get(q) is None
        assert cache.stats.misses == 1 and cache.stats.stores == 0


class TestForeignRecordTolerance:
    """Records from an older/newer ``DesignPoint``/``DesignQuery`` field
    set (possible under a custom ``REPRO_CACHE_DIR`` or a pinned
    ``version=``) must decode as misses, not crash the sweep."""

    def _tamper(self, cache, mutate):
        import json
        lines = cache.path.read_text().splitlines()
        rec = json.loads(lines[0])
        mutate(rec)
        cache.path.write_text(json.dumps(rec) + "\n")

    def test_record_from_the_future_is_a_miss(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        cache = ResultCache(tmp_path)
        cache.put([(q, _point())])
        self._tamper(cache, lambda r: r["data"].update(hologram_rows=9))
        reread = ResultCache(tmp_path)
        assert reread.get(q) is None
        assert reread.stats.misses == 1 and reread.stats.hits == 0

    def test_record_missing_required_field_is_a_miss(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        cache = ResultCache(tmp_path)
        cache.put([(q, _point())])
        self._tamper(cache, lambda r: r["data"].pop("ii"))
        assert ResultCache(tmp_path).get(q) is None

    def test_record_with_unknown_scheduler_is_a_miss(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        cache = ResultCache(tmp_path)
        cache.put([(q, _point())])
        self._tamper(cache,
                     lambda r: r["query"].update(scheduler="quantum"))
        assert ResultCache(tmp_path).get(q) is None

    def test_malformed_structure_is_a_miss(self, tmp_path):
        q = DesignQuery("iir", "squash", ds=2)
        cache = ResultCache(tmp_path)
        cache.put([(q, _point())])
        self._tamper(cache, lambda r: r.pop("kind"))
        assert ResultCache(tmp_path).get(q) is None

    def test_miss_recomputes_and_moves_on(self, tmp_path):
        # the whole point: a foreign record must not poison evaluate()
        from repro.explore import evaluate
        q = DesignQuery("iir", "pipelined")
        cache = ResultCache(tmp_path)
        cache.put([(q, _point(variant="pipelined", factor=1))])
        self._tamper(cache, lambda r: r["data"].update(alien=True))
        result = evaluate([q], jobs=1, cache=ResultCache(tmp_path))
        assert len(result.points()) == 1
        assert result.cache_stats.misses == 1


class TestCodeVersionClearHook:
    def test_reset_is_registered_with_clear_caches(self):
        from repro.caches import _CLEARERS
        from repro.explore.cache import _reset_code_version
        assert _reset_code_version in _CLEARERS

    def test_reset_drops_the_memo(self):
        from repro.explore import cache as cache_mod
        from repro.explore.cache import _reset_code_version
        first = code_version()
        assert cache_mod._code_version == first
        _reset_code_version()
        assert cache_mod._code_version is None
        assert code_version() == first  # recomputed, same sources

    def test_clear_caches_recomputes_from_disk(self):
        # clear_caches ends by clearing the persistent store, whose
        # constructor re-reads the source tree — so after the hook the
        # memo is *fresh*, never the value cached before the clear
        import repro
        from repro.explore import cache as cache_mod
        first = code_version()
        repro.clear_caches()
        assert cache_mod._code_version == first  # same sources on disk
