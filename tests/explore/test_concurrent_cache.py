"""Concurrency: two processes sweeping one ``.repro_cache/`` at once.

The persistent result cache and the analysis store are shared,
append-on-publish structures; simultaneous sweeps must never corrupt
them (torn JSON lines, partial blobs) and every process must end up
with the full, correct result set.
"""

import json
import multiprocessing
import pickle
import zlib

import pytest

from repro.explore import DesignSpace, ResultCache, evaluate
from repro.hw.report import DesignPoint
from repro.store import ArtifactStore

SPACE = DesignSpace(kernels=("iir",), factors=(2, 4))


def _sweep_worker(cache_dir, out_queue):
    from repro.explore import ResultCache, evaluate
    result = evaluate(SPACE.enumerate(), jobs=1,
                      cache=ResultCache(cache_dir))
    out_queue.put([(type(r).__name__, getattr(r, "ii", None))
                   for r in result.results])


def _store_worker(directory, key, payload, rounds):
    from repro.store import ArtifactStore
    store = ArtifactStore("analysis", directory)
    for _ in range(rounds):
        store.put(key, payload)
        got = store.get(key)
        assert got is None or got == payload  # never a torn read


class TestConcurrentResultCache:
    def test_two_processes_same_cache_dir(self, tmp_path):
        """Both sweeps finish, agree, and leave a readable store."""
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_sweep_worker, args=(tmp_path, queue))
                 for _ in range(2)]
        for p in procs:
            p.start()
        outcomes = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert outcomes[0] == outcomes[1]

        # the store must replay cleanly in a third reader, and every
        # line must be valid JSON (no interleaved torn writes)
        cache = ResultCache(tmp_path)
        warm = evaluate(SPACE.enumerate(), jobs=1, cache=cache)
        assert warm.cache_stats.hit_rate == 1.0
        assert all(isinstance(r, DesignPoint) for r in warm.results)
        for path in tmp_path.glob("results-*.jsonl"):
            for line in path.read_text().splitlines():
                json.loads(line)

    def test_interleaved_writers_one_process(self, tmp_path):
        """Two cache instances over one file interleave without loss."""
        a, b = ResultCache(tmp_path), ResultCache(tmp_path)
        queries = SPACE.enumerate()
        evaluate(queries[:2], jobs=1, cache=a)
        rb = evaluate(queries, jobs=1, cache=b)
        # b's index loads lazily, so it serves a's two earlier records
        assert rb.cache_stats.hits == 2
        assert rb.cache_stats.misses == len(queries) - 2
        fresh = ResultCache(tmp_path)
        assert len(fresh) == len(queries)
        assert [fresh.get(q) for q in queries] == rb.results


class TestConcurrentArtifactStore:
    def test_parallel_put_get_same_key(self, tmp_path):
        payload = {"blob": list(range(500)), "tag": "x" * 100}
        ctx = multiprocessing.get_context("fork")
        procs = [ctx.Process(target=_store_worker,
                             args=(tmp_path, "hot-key", payload, 20))
                 for _ in range(3)]
        for p in procs:
            p.start()
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert ArtifactStore("analysis", tmp_path).get("hot-key") == payload

    def test_torn_publish_is_a_miss(self, tmp_path, monkeypatch):
        # injected, not hand-crafted: the store's own publish path tears
        # the pickle mid-write (as a writer dying without the atomic
        # rename would), and the reader must treat it as a miss
        monkeypatch.setenv("REPRO_FAULTS", "torn@store:1.0")
        store = ArtifactStore("analysis", tmp_path)
        store.put("k", {"v": 1})
        assert store.stats.torn == 1 and store.stats.stores == 0
        assert (store.root() / "k.pkl").exists()  # half a pickle landed
        fresh = ArtifactStore("analysis", tmp_path)
        assert fresh.get("k") is None
        assert fresh.stats.misses == 1
        # recovery: without the fault the same publish heals the entry
        monkeypatch.delenv("REPRO_FAULTS")
        store.put("k", {"v": 1})
        assert ArtifactStore("analysis", tmp_path).get("k") == {"v": 1}

    def test_unpicklable_value_is_dropped_silently(self, tmp_path):
        store = ArtifactStore("analysis", tmp_path)
        store.put("bad", lambda: None)  # lambdas don't pickle
        assert store.get("bad") is None
        assert store.stats.stores == 0

    def test_clear_drops_all_versions(self, tmp_path):
        store = ArtifactStore("analysis", tmp_path)
        store.put("k", 1)
        assert len(store) == 1
        store.clear()
        assert len(store) == 0
        assert store.get("k") is None


class TestStoreRoundTrip:
    def test_value_round_trips_bytes_identical(self, tmp_path):
        store = ArtifactStore("analysis", tmp_path)
        record = {"rmii": 3, "smii": 2, "refuted": [3, 4], "ii": 5}
        store.put("sig", record)
        loaded = ArtifactStore("analysis", tmp_path).get("sig")
        assert loaded == record
        assert pickle.dumps(loaded) == pickle.dumps(record)

    def test_a_stored_blob_is_the_compressed_pickle(self, tmp_path):
        store = ArtifactStore("analysis", tmp_path)
        value = {"nodes": list(range(200)), "tag": "x" * 100}
        store.put("k", value)
        blob = (store.root() / "k.pkl").read_bytes()
        assert blob == zlib.compress(
            pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL))
        assert len(blob) < len(pickle.dumps(value))

    def test_a_bit_flipped_blob_is_a_miss(self, tmp_path):
        # a flip the inflater does not reject fails the stream's Adler-32
        # check; the one kind that loads flips a padding bit of deflate's
        # last byte, which the inflater ignores, so it loads the value
        # stored: no flip at any byte ever serves a different value
        store = ArtifactStore("analysis", tmp_path)
        value = {"nodes": list(range(50)), "tag": "x" * 20}
        store.put("k", value)
        path = store.root() / "k.pkl"
        blob = path.read_bytes()
        loaded = []
        for pos in range(len(blob)):
            for bit in (0x01, 0x10, 0x80):
                damaged = bytearray(blob)
                damaged[pos] ^= bit
                path.write_bytes(bytes(damaged))
                got = ArtifactStore("analysis", tmp_path).get("k")
                assert got is None or got == value, (pos, bit)
                if got is not None:
                    loaded.append(pos)
        # only the last deflate byte, just before the 4-byte checksum
        assert set(loaded) <= {len(blob) - 5}

    @pytest.mark.parametrize("keep", [0, 1, 2, 0.5, -4, -1])
    def test_a_truncated_blob_is_a_miss(self, tmp_path, keep):
        store = ArtifactStore("analysis", tmp_path)
        store.put("k", {"nodes": list(range(50)), "tag": "x" * 20})
        path = store.root() / "k.pkl"
        blob = path.read_bytes()
        cut = int(len(blob) * keep) if isinstance(keep, float) else keep
        path.write_bytes(blob[:cut])
        fresh = ArtifactStore("analysis", tmp_path)
        assert fresh.get("k") is None
        assert fresh.stats.misses == 1 and fresh.stats.hits == 0


class TestFaultInjectedTearing:
    """Torn-write chaos through the production code paths themselves."""

    def test_torn_cache_append_recovers_on_reload(self, tmp_path,
                                                  monkeypatch):
        queries = SPACE.enumerate()
        monkeypatch.setenv("REPRO_FAULTS", "torn@cache:1.0")
        torn_cache = ResultCache(tmp_path)
        torn_run = evaluate(queries, jobs=1, cache=torn_cache)
        assert torn_cache.stats.torn == len(queries)
        assert torn_cache.stats.stores == 0
        # every line on disk is torn: a fresh load must drop them all
        # and recompute — same results, zero hits, no crash
        monkeypatch.delenv("REPRO_FAULTS")
        fresh = ResultCache(tmp_path)
        rerun = evaluate(queries, jobs=1, cache=fresh)
        assert rerun.cache_stats.hits == 0
        assert rerun.results == torn_run.results
        assert all(isinstance(r, DesignPoint) for r in rerun.results)

    def test_the_run_reports_its_torn_appends(self, tmp_path, monkeypatch):
        queries = SPACE.enumerate()
        monkeypatch.setenv("REPRO_FAULTS", "torn@cache:1.0")
        run = evaluate(queries, jobs=1, cache=ResultCache(tmp_path))
        assert run.cache_stats.torn == len(queries)
        assert run.cache_stats.describe().endswith(
            f"0 stored, {len(queries)} torn")

    def test_deterministic_tearing_is_stable_across_runs(self, tmp_path,
                                                         monkeypatch):
        # store/cache torn coins key on content alone (no attempt), so
        # the same artifact tears on every run — the read-side recovery
        # path is exercised every time, not once in a blue moon
        monkeypatch.setenv("REPRO_FAULTS", "torn@store:0.5")
        first, second = [], []
        for trace in (first, second):
            store = ArtifactStore("analysis", tmp_path / "s")
            for i in range(32):
                store.put(f"key-{i}", {"v": i})
            trace.append((store.stats.torn, store.stats.stores))
        assert first == second
        assert 0 < first[0][0] < 32  # some torn, some published

    def test_two_processes_sweep_one_store_under_torn_faults(
            self, tmp_path, monkeypatch):
        """The headline chaos test: concurrent sweeps + torn publishes.

        Both sweep children inherit ``torn@cache`` + ``torn@store``
        injection, so every result-cache append and artifact publish is
        torn under concurrency — and both processes must still produce
        the full, correct, identical result set (recomputing what the
        torn records refused to serve).
        """
        monkeypatch.setenv("REPRO_FAULTS",
                           "torn@cache:1.0,torn@store:1.0")
        ctx = multiprocessing.get_context("fork")
        queue = ctx.Queue()
        procs = [ctx.Process(target=_sweep_worker, args=(tmp_path, queue))
                 for _ in range(2)]
        for p in procs:
            p.start()
        outcomes = [queue.get(timeout=120) for _ in procs]
        for p in procs:
            p.join(timeout=120)
            assert p.exitcode == 0
        assert outcomes[0] == outcomes[1]

        # fault-free ground truth from a pristine process-local state
        monkeypatch.delenv("REPRO_FAULTS")
        clean = evaluate(SPACE.enumerate(), jobs=1, cache=None)
        expected = [(type(r).__name__, getattr(r, "ii", None))
                    for r in clean.results]
        assert outcomes[0] == expected

        # and the shared cache file, full of torn lines, must still be
        # loadable: a fresh reader recomputes instead of crashing
        warm = evaluate(SPACE.enumerate(), jobs=1,
                        cache=ResultCache(tmp_path))
        assert warm.results == clean.results


@pytest.fixture(autouse=True)
def _no_ambient_cache(monkeypatch, tmp_path):
    """Each test gets a private cache dir even if it forgets one."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "ambient"))
