"""Tests for the metrics registry: counters, gauges, histograms."""

import json

import pytest

from repro.obs.metrics import (
    DEFAULT_LATENCY_BUCKETS,
    OBS_ENV_VAR,
    Registry,
    get_registry,
    log_buckets,
    quantile_from_sample,
    set_registry,
)


@pytest.fixture
def registry() -> Registry:
    return Registry(enabled=True)


class TestLogBuckets:
    def test_log_spacing(self):
        edges = log_buckets(0.001, 2.0, 5)
        assert edges == (0.001, 0.002, 0.004, 0.008, 0.016)

    def test_default_latency_buckets_cover_ms_to_minutes(self):
        assert DEFAULT_LATENCY_BUCKETS[0] == 0.001
        assert DEFAULT_LATENCY_BUCKETS[-1] > 300.0

    def test_rejects_bad_params(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 2.0, 3)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0, 3)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, 0)


class TestCounter:
    def test_inc_and_value(self, registry):
        c = registry.counter("requests")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5

    def test_labelled_series_independent(self, registry):
        c = registry.counter("requests", labels=("status",))
        c.inc(status=200)
        c.inc(status=200)
        c.inc(status=429)
        assert c.value(status=200) == 2
        assert c.value(status=429) == 1
        assert c.value(status=404) == 0

    def test_label_mismatch_rejected(self, registry):
        c = registry.counter("requests", labels=("status",))
        with pytest.raises(ValueError):
            c.inc()
        with pytest.raises(ValueError):
            c.inc(code=200)

    def test_negative_increment_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.counter("requests").inc(-1)

    def test_get_or_create_returns_same_object(self, registry):
        assert registry.counter("x") is registry.counter("x")

    def test_kind_conflict_rejected(self, registry):
        registry.counter("x")
        with pytest.raises(ValueError):
            registry.gauge("x")

    def test_label_conflict_rejected(self, registry):
        registry.counter("x", labels=("a",))
        with pytest.raises(ValueError):
            registry.counter("x", labels=("b",))


class TestGauge:
    def test_set_inc_dec(self, registry):
        g = registry.gauge("frontier")
        g.set(10)
        g.inc(5)
        g.dec(3)
        assert g.value() == 12


class TestHistogram:
    def test_bucket_edges_le_semantics(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        # Values on an edge land in that edge's bucket (le semantics);
        # values past the last edge land in the +inf overflow bucket.
        for v in (0.5, 1.0, 1.5, 2.0, 4.0, 99.0):
            h.observe(v)
        stats = h.series_stats()
        assert stats["count"] == 6
        assert stats["bucket_edges"] == [1.0, 2.0, 4.0, "+inf"]
        assert stats["cumulative_counts"] == [2, 4, 5, 6]
        assert stats["min"] == 0.5
        assert stats["max"] == 99.0
        assert stats["sum"] == pytest.approx(108.0)

    def test_unobserved_series_is_none(self, registry):
        h = registry.histogram("lat")
        assert h.series_stats() is None

    def test_non_increasing_buckets_rejected(self, registry):
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(2.0, 1.0))

    def test_labelled_histogram(self, registry):
        h = registry.histogram("lat", labels=("machine",), buckets=(1.0,))
        h.observe(0.5, machine="10.0.0.1")
        h.observe(3.0, machine="10.0.0.2")
        assert h.series_stats(machine="10.0.0.1")["count"] == 1
        assert h.series_stats(machine="10.0.0.2")["cumulative_counts"] == [0, 1]


class TestHistogramQuantile:
    def test_uniform_distribution_interpolates(self, registry):
        # 1000 evenly spaced values in (0, 10]: the q-quantile of the
        # data is ~10q, and with fine buckets the estimate must land
        # within one bucket width of it.
        h = registry.histogram("lat", buckets=tuple(float(e) for e in range(1, 11)))
        for i in range(1, 1001):
            h.observe(i / 100.0)
        assert h.quantile(0.5) == pytest.approx(5.0, abs=1.0)
        assert h.quantile(0.99) == pytest.approx(9.9, abs=1.0)
        assert h.quantile(0.1) == pytest.approx(1.0, abs=1.0)

    def test_extremes_are_exact_min_max(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.25, 3.0, 7.5):
            h.observe(v)
        assert h.quantile(0.0) == 0.25
        assert h.quantile(1.0) == 7.5

    def test_single_value_series_is_constant(self, registry):
        h = registry.histogram("lat", buckets=(1.0, 2.0, 4.0))
        h.observe(1.5)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert h.quantile(q) == 1.5

    def test_overflow_bucket_reports_maximum(self, registry):
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        h.observe(500.0)  # lands past the last edge
        assert h.quantile(0.99) == 500.0

    def test_unobserved_series_returns_none(self, registry):
        assert registry.histogram("lat").quantile(0.5) is None

    def test_skewed_distribution(self, registry):
        # 99 fast responses and one slow one: p50 stays in the fast
        # bucket, p99 jumps to the slow tail.
        h = registry.histogram("lat", buckets=(0.01, 0.1, 1.0, 10.0))
        for _ in range(99):
            h.observe(0.005)
        h.observe(8.0)
        assert h.quantile(0.5) <= 0.01
        assert h.quantile(0.995) > 1.0

    def test_quantile_from_snapshot_sample(self, registry):
        # The module-level helper works on a sample dict read back from
        # a report, without the Histogram object.
        h = registry.histogram("lat", labels=("machine",), buckets=(1.0, 2.0))
        h.observe(0.5, machine="a")
        h.observe(1.5, machine="a")
        sample = json.loads(json.dumps(h.series_stats(machine="a")))
        assert quantile_from_sample(sample, 0.0) == 0.5
        assert quantile_from_sample(sample, 1.0) == 1.5

    def test_rejects_bad_q(self, registry):
        h = registry.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        with pytest.raises(ValueError):
            h.quantile(-0.1)
        with pytest.raises(ValueError):
            h.quantile(1.1)

    def test_empty_sample_rejected(self):
        sample = {
            "count": 0, "sum": 0.0, "min": 0.0, "max": 0.0,
            "bucket_edges": [1.0, "+inf"], "cumulative_counts": [0, 0],
        }
        with pytest.raises(ValueError):
            quantile_from_sample(sample, 0.5)


class TestSnapshotAndReset:
    def test_snapshot_structure(self, registry):
        registry.counter("c", help="a counter", labels=("k",)).inc(k="v")
        registry.gauge("g").set(7)
        snap = registry.snapshot()
        assert snap["enabled"] is True
        names = [m["name"] for m in snap["metrics"]]
        assert names == ["c", "g"]  # sorted
        counter = snap["metrics"][0]
        assert counter["kind"] == "counter"
        assert counter["help"] == "a counter"
        assert counter["samples"] == [{"labels": {"k": "v"}, "value": 1.0}]

    def test_reset_zeroes_values_keeps_registration(self, registry):
        c = registry.counter("c", labels=("k",))
        c.inc(k="v")
        registry.reset()
        assert c.value(k="v") == 0
        assert registry.counter("c", labels=("k",)) is c
        assert registry.snapshot()["metrics"][0]["samples"] == []

    def test_to_json_round_trips(self, registry):
        registry.counter("c").inc(3)
        data = json.loads(registry.to_json())
        assert data["metrics"][0]["samples"][0]["value"] == 3.0

    def test_render_text(self, registry):
        registry.counter("http.requests", help="reqs", labels=("status",)).inc(
            status=200
        )
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        text = registry.render_text()
        assert "# HELP http.requests reqs" in text
        assert '# TYPE http.requests counter' in text
        assert 'http.requests{status="200"} 1' in text
        assert "lat_count 1" in text
        assert "lat_sum 0.5" in text


class TestDisable:
    def test_disabled_mutators_are_noops(self, registry):
        registry.disable()
        c = registry.counter("c")
        g = registry.gauge("g")
        h = registry.histogram("h")
        c.inc()
        g.set(5)
        h.observe(1.0)
        assert c.value() == 0
        assert g.value() == 0
        assert h.series_stats() is None

    def test_reenable(self, registry):
        registry.disable()
        registry.enable()
        registry.counter("c").inc()
        assert registry.counter("c").value() == 1

    def test_env_var_disables_fresh_registries(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "0")
        assert Registry().enabled is False
        monkeypatch.setenv(OBS_ENV_VAR, "1")
        assert Registry().enabled is True
        monkeypatch.delenv(OBS_ENV_VAR)
        assert Registry().enabled is True

    def test_explicit_enabled_overrides_env(self, monkeypatch):
        monkeypatch.setenv(OBS_ENV_VAR, "0")
        assert Registry(enabled=True).enabled is True


def record(registry: Registry, bound: bool) -> None:
    """The same recordings, through labelled calls or bound children."""
    requests = registry.counter("http.requests", "reqs", labels=("status",))
    latency = registry.histogram("lat", labels=("machine",))
    depth = registry.gauge("depth", labels=("queue",))
    pages = registry.counter("pages")
    statuses = (200, 429, 200, 503, 200)
    waits = (0.0005, 0.003, 0.04, 2.0, 900.0)
    if bound:
        by_status = {s: requests.labels(status=s) for s in set(statuses)}
        machine = latency.labels(machine="10.0.0.1")
        queue = depth.labels(queue="main")
        for status, wait in zip(statuses, waits):
            by_status[status].inc()
            machine.observe(wait)
            pages.inc()
        queue.set(7)
        queue.inc(2)
        queue.dec()
    else:
        for status, wait in zip(statuses, waits):
            requests.inc(status=status)
            latency.observe(wait, machine="10.0.0.1")
            pages.inc()
        depth.set(7, queue="main")
        depth.inc(2, queue="main")
        depth.dec(queue="main")


class TestBoundSeries:
    def test_snapshots_byte_identical_to_labelled_calls(self):
        labelled, bound = Registry(enabled=True), Registry(enabled=True)
        record(labelled, bound=False)
        record(bound, bound=True)
        assert bound.to_json() == labelled.to_json()
        assert bound.render_text() == labelled.render_text()

    def test_child_reads_its_series(self, registry):
        counter = registry.counter("c", labels=("status",))
        child = counter.labels(status=200)
        child.inc(3)
        assert child.value() == counter.value(status="200") == 3

    def test_unrecorded_child_adds_no_series(self, registry):
        counter = registry.counter("c", labels=("status",))
        counter.labels(status=200)
        assert counter.samples() == []

    def test_child_survives_reset(self, registry):
        child = registry.counter("c", labels=("status",)).labels(status=200)
        child.inc()
        registry.reset()
        child.inc()
        assert child.value() == 1

    def test_label_mismatch_rejected_when_binding(self, registry):
        counter = registry.counter("c", labels=("status",))
        with pytest.raises(ValueError):
            counter.labels(code=200)
        with pytest.raises(ValueError):
            counter.labels()

    def test_negative_increment_rejected(self, registry):
        child = registry.counter("c", labels=("status",)).labels(status=200)
        with pytest.raises(ValueError):
            child.inc(-1)

    def test_disabled_registry_children_are_noops(self):
        registry = Registry(enabled=False)
        record(registry, bound=True)
        assert all(m["samples"] == [] for m in registry.snapshot()["metrics"])
        registry.enable()
        child = registry.counter("http.requests", labels=("status",)).labels(status=1)
        registry.disable()
        child.inc()
        assert child.value() == 0

    def test_unlabelled_metric_takes_the_empty_key(self, registry):
        counter = registry.counter("c")
        counter.inc()
        counter.labels().inc()
        assert counter.samples() == [{"labels": {}, "value": 2.0}]
        with pytest.raises(ValueError):
            counter.inc(status=200)

    def test_bucket_index_is_first_edge_at_or_above(self, registry):
        edges = (0.001, 0.01, 0.1, 1.0)
        histogram = registry.histogram("h", buckets=edges)
        for value in (0.0, 0.001, 0.0011, 0.01, 0.5, 1.0, 1.5, -3.0):
            expected = next(
                (i for i, edge in enumerate(edges) if edge >= value), len(edges)
            )
            assert histogram._bucket_index(value) == expected


class TestDefaultRegistry:
    def test_global_registry_is_stable(self):
        assert get_registry() is get_registry()

    def test_set_registry_returns_the_replaced_registry(self):
        original = get_registry()
        mine = Registry(enabled=True)
        old = set_registry(mine)
        try:
            assert old is original
            assert get_registry() is mine
            get_registry().counter("restore.probe", "probe").inc()
        finally:
            assert set_registry(old) is mine
        assert get_registry() is original
        assert mine.get("restore.probe").value() == 1

