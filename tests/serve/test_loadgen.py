"""Load-generator determinism: the trace is a pure function of the seed,
the event clock dispatches exactly, and an exported generator resumes
bit-identically on a rebuilt world."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from repro.obs.metrics import Registry
from repro.serve import (
    BehaviorMix,
    EventClock,
    MIXED,
    READ_HEAVY,
    build_traffic,
)
from repro.serve.loadgen import trace_record_bytes
from repro.synth import WorldConfig, build_world

USERS = 1_200
SEED = 21


def make_traffic(
    *, cache=True, n_clients=60, seed=SEED, mix="mixed", record_bodies=True, **extra
):
    world = build_world(WorldConfig(n_users=USERS, seed=SEED))
    clock = EventClock(world.clock.now())
    world.clock = clock
    config = {
        "n_clients": n_clients,
        "seed": seed,
        "mix": mix,
        "think_mean": 0.05,
        "cache": {} if cache else False,
        "record_bodies": record_bodies,
        "keep_trace": True,
        **extra,
    }
    return build_traffic(world.service, clock, config, registry=Registry(enabled=False))


class TestEventClock:
    def test_dispatches_in_time_order_at_exact_times(self):
        clock = EventClock()
        seen = []
        clock.schedule(2.0, lambda now: seen.append(("b", now)))
        clock.schedule(1.0, lambda now: seen.append(("a", now)))
        clock.schedule(5.0, lambda now: seen.append(("late", now)))
        clock.advance(3.0)
        assert seen == [("a", 1.0), ("b", 2.0)]
        assert clock.now() == 3.0
        assert clock.pending() == 1

    def test_tie_break_is_stable_across_insertion_order(self):
        order_a, order_b = [], []
        clock_a, clock_b = EventClock(), EventClock()
        clock_a.schedule(1.0, lambda now: order_a.append(1), tie=1)
        clock_a.schedule(1.0, lambda now: order_a.append(0), tie=0)
        clock_b.schedule(1.0, lambda now: order_b.append(0), tie=0)
        clock_b.schedule(1.0, lambda now: order_b.append(1), tie=1)
        clock_a.advance(2.0)
        clock_b.advance(2.0)
        assert order_a == order_b == [0, 1]

    def test_callbacks_scheduled_during_dispatch_run_in_same_advance(self):
        clock = EventClock()
        seen = []

        def first(now):
            seen.append(("first", now))
            clock.schedule(now + 0.5, lambda t: seen.append(("chained", t)))

        clock.schedule(1.0, first)
        clock.advance(2.0)
        assert seen == [("first", 1.0), ("chained", 1.5)]

    def test_restore_never_dispatches(self):
        clock = EventClock()
        fired = []
        clock.schedule(1.0, fired.append)
        clock.restore(5.0)
        assert fired == []
        assert clock.pending() == 1

    def test_cannot_schedule_in_the_past(self):
        clock = EventClock(10.0)
        with pytest.raises(ValueError):
            clock.schedule(9.0, lambda now: None)

    def test_cannot_rewind(self):
        with pytest.raises(ValueError):
            EventClock().advance(-0.1)


class TestBehaviorMix:
    def test_rejects_negative_and_zero_weights(self):
        with pytest.raises(ValueError):
            BehaviorMix(browse=-0.1)
        with pytest.raises(ValueError):
            BehaviorMix(0.0, 0.0, 0.0, 0.0, 0.0)

    def test_cumulative_reaches_one(self):
        assert MIXED.cumulative()[-1][1] == 1.0
        assert READ_HEAVY.circle_edit == 0.0


class TestDeterminism:
    def test_same_seed_same_trace(self):
        a = make_traffic()
        b = make_traffic()
        a.run_requests(800)
        b.run_requests(800)
        assert a.trace == b.trace
        assert a.trace_digest == b.trace_digest
        assert a.slo.export_state() == b.slo.export_state()

    def test_different_seed_different_trace(self):
        a = make_traffic()
        b = make_traffic(seed=SEED + 1)
        a.run_requests(200)
        b.run_requests(200)
        assert a.trace_digest != b.trace_digest

    def test_ops_follow_the_mix(self):
        traffic = make_traffic(mix="read_heavy")
        traffic.run_requests(1_000)
        assert "circle_edit" not in traffic.op_counts
        assert traffic.op_counts["browse"] > traffic.op_counts["plus_one"]
        assert not any(
            kind.startswith("circle") for kind, *_ in traffic.stack.mutation_log
        )

    def test_cache_on_off_serve_identical_bodies(self):
        cached = make_traffic(cache=True)
        uncached = make_traffic(cache=False)
        cached.run_requests(600)
        uncached.run_requests(600)
        assert cached.cache.hits > 0
        project = lambda t: [(r[3], r[4], r[6]) for r in t.trace]  # noqa: E731
        assert project(cached) == project(uncached)


class TestExportRestore:
    def test_resume_is_bit_identical(self):
        straight = make_traffic()
        straight.run_requests(500)

        interrupted = make_traffic()
        interrupted.run_requests(200)
        exported = interrupted.export_state()

        resumed = make_traffic()  # fresh world, fresh generator
        resumed.restore_state(exported)
        assert resumed.export_state() == exported
        resumed.run_requests(straight.n_requests - resumed.n_requests)
        assert resumed.n_requests == straight.n_requests
        assert resumed.trace_digest == straight.trace_digest
        assert resumed.slo.export_state() == straight.slo.export_state()
        assert resumed.cache.export_state() == straight.cache.export_state()

    def test_client_count_mismatch_rejected(self):
        a = make_traffic()
        b = make_traffic(n_clients=10)
        with pytest.raises(ValueError):
            b.restore_state(a.export_state())

    def test_schema_mismatch_rejected(self):
        traffic = make_traffic()
        state = traffic.export_state()
        state["schema"] = 99
        with pytest.raises(ValueError):
            traffic.restore_state(state)


class TestValidation:
    def test_bad_mix_name_rejected(self):
        with pytest.raises(ValueError):
            make_traffic(mix="nope")

    def test_zipf_must_be_heavy_tailed(self):
        with pytest.raises(ValueError):
            make_traffic(zipf_s=1.0)

    def test_think_mean_positive(self):
        with pytest.raises(ValueError):
            make_traffic(think_mean=0.0)


#: Path text with the characters JSON must escape or may pass through:
#: quotes, backslashes, control characters, non-ASCII and astral ones.
_path_text = st.text(
    alphabet=st.one_of(
        st.sampled_from('"\\/\b\f\n\r\t\x00\x1f\x7f\u2028é漢😀'),
        st.characters(),
    ),
    max_size=24,
)
_latency = st.one_of(
    st.none(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-300, 1e300, 1.7976931348623157e308, 0.0004]),
)
_body = st.one_of(st.just(""), st.binary(min_size=32, max_size=32).map(bytes.hex))


class TestTraceRecordBytes:
    """The hand-rolled trace encoder writes exactly what json.dumps does."""

    @settings(max_examples=400, deadline=None)
    @given(
        index=st.integers(min_value=0, max_value=2**63),
        client=st.integers(min_value=0, max_value=10**6),
        op=st.sampled_from(["browse", "stream", "search", "circle_edit", "plus_one"]),
        path=_path_text.map(lambda text: "/search?q=" + text),
        status=st.sampled_from([200, 404, 408, 429, 503]),
        latency=_latency,
        body=_body,
    )
    def test_matches_json_dumps(self, index, client, op, path, status, latency, body):
        record = [index, client, op, path, status, latency, body]
        expected = json.dumps(record, separators=(",", ":")).encode("utf-8")
        assert trace_record_bytes(record) == expected

    @pytest.mark.parametrize(
        "odd",
        [
            [0, 1, "browse", "/u/1", 200, float("inf"), ""],
            [0, 1, "browse", "/u/1", 200, float("nan"), ""],
            [True, 1, "browse", "/u/1", 200, 0.5, ""],
            [0, 1, "browse", "/u/1", 200, 1, ""],
            [0, 1, "browse", None, 200, 0.5, ""],
        ],
    )
    def test_other_shapes_fall_back_to_json_dumps(self, odd):
        expected = json.dumps(odd, separators=(",", ":")).encode("utf-8")
        assert trace_record_bytes(odd) == expected
