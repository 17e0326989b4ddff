"""The typed metrics registry: series, snapshots, deltas, merging."""

from repro.obs.metrics import (
    MetricsRegistry, percentile, registry, reset_metrics,
)


class TestSeries:
    def test_counter_get_or_create_and_add(self):
        reg = MetricsRegistry()
        c = reg.counter("a.b")
        c.add()
        c.add(4)
        assert reg.counter("a.b") is c
        assert reg.counter_values() == {"a.b": 5}

    def test_gauge_last_write_wins(self):
        reg = MetricsRegistry()
        g = reg.gauge("jobs")
        g.set(4)
        g.set(2)
        assert reg.snapshot()["gauges"] == {"jobs": 2}

    def test_histogram_exact_aggregates(self):
        reg = MetricsRegistry()
        h = reg.histogram("t")
        for v in (3.0, 1.0, 2.0):
            h.observe(v)
        d = h.as_dict()
        assert d["count"] == 3
        assert d["sum"] == 6.0
        assert d["min"] == 1.0
        assert d["max"] == 3.0
        assert d["samples"] == [3.0, 1.0, 2.0]

    def test_histogram_reservoir_stays_bounded(self):
        reg = MetricsRegistry()
        h = reg.histogram("t")
        n = 3 * 2048
        for i in range(n):
            h.observe(float(i))
        # exact aggregates survive the decimation; samples stay bounded
        assert h.count == n
        assert h.vmax == float(n - 1)
        assert len(h.samples) <= 2048
        # decimated samples still span the distribution
        assert percentile(h.samples, 50) > percentile(h.samples, 10)


class TestDeltaAndMerge:
    def test_delta_since_subtracts_counters(self):
        reg = MetricsRegistry()
        reg.counter("a").add(2)
        before = reg.snapshot()
        reg.counter("a").add(5)
        reg.counter("b").add(1)
        delta = reg.delta_since(before)
        assert delta["counters"] == {"a": 5, "b": 1}

    def test_delta_drops_unchanged_series(self):
        reg = MetricsRegistry()
        reg.counter("a").add(2)
        reg.histogram("h").observe(1.0)
        delta = reg.delta_since(reg.snapshot())
        assert delta["counters"] == {}
        assert delta["histograms"] == {}

    def test_delta_ships_only_new_histogram_samples(self):
        reg = MetricsRegistry()
        reg.histogram("h").observe(1.0)
        before = reg.snapshot()
        reg.histogram("h").observe(2.0)
        reg.histogram("h").observe(3.0)
        d = reg.delta_since(before)["histograms"]["h"]
        assert d["count"] == 2
        assert d["sum"] == 5.0
        assert d["samples"] == [2.0, 3.0]

    def test_merge_folds_worker_delta_into_parent(self):
        worker = MetricsRegistry()
        worker.counter("sched.ii_attempts").add(7)
        worker.gauge("explore.jobs").set(4)
        worker.histogram("stage.schedule").observe(0.25)
        delta = worker.delta_since({})

        parent = MetricsRegistry()
        parent.counter("sched.ii_attempts").add(1)
        parent.histogram("stage.schedule").observe(0.5)
        parent.merge(delta)
        values = parent.counter_values()
        assert values["sched.ii_attempts"] == 8
        h = parent.histogram("stage.schedule")
        assert h.count == 2
        assert h.total == 0.75
        assert sorted(h.samples) == [0.25, 0.5]

    def test_round_trip_worker_to_parent_equals_local(self):
        # the same observations split across two registries and merged
        # must equal one registry that saw everything
        local = MetricsRegistry()
        parent = MetricsRegistry()
        worker = MetricsRegistry()
        for i in range(10):
            local.counter("c").add(i)
            (parent if i % 2 else worker).counter("c").add(i)
            local.histogram("h").observe(float(i))
            (parent if i % 2 else worker).histogram("h").observe(float(i))
        parent.merge(worker.delta_since({}))
        assert parent.counter_values() == local.counter_values()
        assert parent.histogram("h").count == local.histogram("h").count
        assert parent.histogram("h").total == local.histogram("h").total


class TestResetSemantics:
    def test_reset_zeroes_in_place_so_handles_stay_live(self):
        reg = MetricsRegistry()
        c = reg.counter("a")
        h = reg.histogram("h")
        c.add(5)
        h.observe(1.0)
        reg.reset()
        assert c.value == 0
        assert h.count == 0
        c.add(2)  # the module-cached handle still feeds the registry
        assert reg.counter_values()["a"] == 2


class TestModuleSingleton:
    def test_reset_metrics_zeroes_process_registry(self):
        registry().counter("test.only.series").add(3)
        reset_metrics()
        assert registry().counter_values()["test.only.series"] == 0


class TestPercentile:
    def test_empty_is_none(self):
        assert percentile([], 50) is None

    def test_nearest_rank(self):
        samples = [float(i) for i in range(1, 11)]
        assert percentile(samples, 0) == 1.0
        assert percentile(samples, 50) in (5.0, 6.0)  # nearest rank
        assert percentile(samples, 100) == 10.0
