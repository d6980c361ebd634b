"""Tests for the dual-clock span tracer."""

import pytest

from repro.obs.metrics import Registry
from repro.obs import trace as trace_mod
from repro.obs.trace import Tracer
from repro.platform.http import SimulatedClock


@pytest.fixture
def tracer() -> Tracer:
    return Tracer()


class TestSpans:
    def test_wall_time_recorded(self, tracer):
        with tracer.span("work"):
            pass
        (stats,) = tracer.summary()
        assert stats.name == "work"
        assert stats.count == 1
        assert stats.wall_seconds >= 0.0

    def test_nested_spans_build_paths(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
            with tracer.span("inner"):
                pass
        paths = {s.path: s.count for s in tracer.summary()}
        assert paths == {("outer",): 1, ("outer", "inner"): 2}

    def test_same_name_different_parents_kept_apart(self, tracer):
        with tracer.span("a"):
            with tracer.span("shared"):
                pass
        with tracer.span("b"):
            with tracer.span("shared"):
                pass
        paths = [s.path for s in tracer.summary()]
        assert ("a", "shared") in paths
        assert ("b", "shared") in paths

    def test_attributes_recorded(self, tracer):
        with tracer.span("crawl", machines=11):
            pass
        (stats,) = tracer.summary()
        assert stats.attributes == {"machines": 11}

    def test_exception_still_records_span(self, tracer):
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("x")
        assert tracer.summary()[0].count == 1


class TestVirtualTime:
    def test_virtual_time_from_bound_clock(self, tracer):
        clock = SimulatedClock()
        tracer.bind_clock(clock)
        with tracer.span("crawl"):
            clock.advance(12.5)
        (stats,) = tracer.summary()
        assert stats.virtual_seconds == pytest.approx(12.5)
        assert stats.wall_seconds < 1.0  # virtual time is not wall time

    def test_nested_virtual_accounting(self, tracer):
        clock = SimulatedClock()
        tracer.bind_clock(clock)
        with tracer.span("outer"):
            clock.advance(1.0)
            with tracer.span("inner"):
                clock.advance(2.0)
            clock.advance(4.0)
        by_name = {s.name: s for s in tracer.summary()}
        assert by_name["outer"].virtual_seconds == pytest.approx(7.0)
        assert by_name["inner"].virtual_seconds == pytest.approx(2.0)

    def test_no_clock_means_zero_virtual(self, tracer):
        with tracer.span("work"):
            pass
        assert tracer.summary()[0].virtual_seconds == 0.0


class TestDisable:
    def test_disabled_tracer_records_nothing(self, tracer):
        tracer.disable()
        with tracer.span("work"):
            pass
        assert tracer.summary() == []

    def test_registry_disable_silences_tracer(self):
        registry = Registry(enabled=True)
        tracer = Tracer(registry=registry)
        registry.disable()
        with tracer.span("work"):
            pass
        assert tracer.summary() == []
        registry.enable()
        with tracer.span("work"):
            pass
        assert len(tracer.summary()) == 1


class TestSummaryRendering:
    def test_render_summary_indents_by_depth(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        text = tracer.render_summary()
        lines = text.splitlines()
        assert any(line.startswith("outer") for line in lines)
        assert any(line.startswith("  inner") for line in lines)

    def test_empty_summary(self, tracer):
        assert "no spans" in tracer.render_summary()

    def test_reset(self, tracer):
        with tracer.span("work"):
            pass
        tracer.reset()
        assert tracer.summary() == []

    def test_span_stats_json_dict(self, tracer):
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner = [s for s in tracer.summary() if s.name == "inner"][0]
        record = inner.to_json_dict()
        assert record["path"] == "outer/inner"
        assert record["count"] == 1
        assert set(record) >= {"name", "path", "count", "wall_seconds", "virtual_seconds"}


class TestDefaultTracer:
    def test_set_tracer_returns_the_replaced_tracer(self):
        original = trace_mod.get_tracer()
        mine = Tracer(registry=Registry(enabled=True))
        old = trace_mod.set_tracer(mine)
        try:
            assert old is original
            assert trace_mod.get_tracer() is mine
            with trace_mod.span("inside"):
                pass
        finally:
            assert trace_mod.set_tracer(old) is mine
        assert trace_mod.get_tracer() is original
        assert [s.name for s in mine.summary()] == ["inside"]
