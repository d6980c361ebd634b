"""Tests for the simulated HTTP layer: clock, rate limiter, front end."""

import pytest

from repro.platform.http import (
    HttpFrontend,
    RateLimiter,
    Request,
    Response,
    SimulatedClock,
    STATUS_NOT_FOUND,
    STATUS_OK,
    STATUS_SERVER_ERROR,
    STATUS_TOO_MANY_REQUESTS,
    TokenBucket,
)


class TestResponse:
    def test_ok(self):
        assert Response(STATUS_OK).ok
        assert not Response(STATUS_NOT_FOUND).ok

    def test_should_retry_only_transient_statuses(self):
        assert Response(STATUS_TOO_MANY_REQUESTS, retry_after=0.5).should_retry
        assert Response(STATUS_SERVER_ERROR).should_retry
        assert not Response(STATUS_OK).should_retry
        assert not Response(STATUS_NOT_FOUND).should_retry


class TestClock:
    def test_starts_at_zero(self):
        assert SimulatedClock().now() == 0.0

    def test_advance(self):
        clock = SimulatedClock(10.0)
        assert clock.advance(2.5) == 12.5
        assert clock.now() == 12.5

    def test_cannot_rewind(self):
        with pytest.raises(ValueError):
            SimulatedClock().advance(-1.0)


class TestTokenBucket:
    def test_starts_full(self):
        bucket = TokenBucket(rate=1.0, capacity=3.0)
        for _ in range(3):
            granted, _ = bucket.try_take(0.0)
            assert granted

    def test_empty_bucket_refuses_with_retry_after(self):
        bucket = TokenBucket(rate=2.0, capacity=1.0)
        assert bucket.try_take(0.0) == (True, 0.0)
        granted, retry_after = bucket.try_take(0.0)
        assert not granted
        assert retry_after == pytest.approx(0.5)

    def test_refills_over_time(self):
        bucket = TokenBucket(rate=1.0, capacity=1.0)
        bucket.try_take(0.0)
        granted, _ = bucket.try_take(1.0)
        assert granted

    def test_capacity_bounds_refill(self):
        bucket = TokenBucket(rate=10.0, capacity=2.0)
        bucket.try_take(0.0)
        bucket.try_take(0.0)
        # After a long idle period the bucket holds at most `capacity`.
        for _ in range(2):
            granted, _ = bucket.try_take(100.0)
            assert granted
        granted, _ = bucket.try_take(100.0)
        assert not granted

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            TokenBucket(rate=0.0, capacity=1.0)
        with pytest.raises(ValueError):
            TokenBucket(rate=1.0, capacity=0.0)


class TestRateLimiter:
    def test_buckets_are_per_ip(self):
        clock = SimulatedClock()
        limiter = RateLimiter(rate_per_ip=1.0, burst=1.0, clock=clock)
        assert limiter.admit("10.0.0.1")[0]
        assert not limiter.admit("10.0.0.1")[0]
        assert limiter.admit("10.0.0.2")[0]  # fresh bucket


def echo_handler(path: str):
    if path == "/missing":
        return STATUS_NOT_FOUND, None
    return STATUS_OK, path


class TestFrontend:
    def test_serves_handler_payload(self):
        frontend = HttpFrontend(echo_handler)
        response = frontend.handle(Request("/u/1", "1.2.3.4"))
        assert response.ok
        assert response.payload == "/u/1"
        assert frontend.requests_served == 1

    def test_not_found_passthrough(self):
        frontend = HttpFrontend(echo_handler)
        response = frontend.handle(Request("/missing", "1.2.3.4"))
        assert response.status == STATUS_NOT_FOUND

    def test_throttling_kicks_in(self):
        frontend = HttpFrontend(echo_handler, rate_per_ip=1.0, burst=2.0)
        statuses = [
            frontend.handle(Request("/u/1", "9.9.9.9")).status for _ in range(4)
        ]
        assert STATUS_TOO_MANY_REQUESTS in statuses
        assert frontend.requests_throttled > 0

    def test_throttle_response_carries_retry_after(self):
        frontend = HttpFrontend(echo_handler, rate_per_ip=1.0, burst=1.0)
        frontend.handle(Request("/u/1", "9.9.9.9"))
        response = frontend.handle(Request("/u/1", "9.9.9.9"))
        assert response.status == STATUS_TOO_MANY_REQUESTS
        assert response.retry_after > 0

    def test_error_injection(self):
        frontend = HttpFrontend(echo_handler, error_rate=0.5, seed=3)
        statuses = [
            frontend.handle(Request("/u/1", f"ip-{i}")).status for i in range(60)
        ]
        assert STATUS_SERVER_ERROR in statuses
        assert STATUS_OK in statuses

    def test_clock_shared_with_limiter(self):
        frontend = HttpFrontend(echo_handler, rate_per_ip=1.0, burst=1.0)
        frontend.handle(Request("/u/1", "ip"))
        assert frontend.handle(Request("/u/1", "ip")).status == STATUS_TOO_MANY_REQUESTS
        frontend.clock.advance(1.5)
        assert frontend.handle(Request("/u/1", "ip")).ok

    def test_requests_counted_by_status(self):
        from repro.obs.metrics import Registry

        registry = Registry(enabled=True)
        frontend = HttpFrontend(
            echo_handler, rate_per_ip=1.0, burst=1.0, registry=registry
        )
        frontend.handle(Request("/u/1", "ip"))       # 200
        frontend.handle(Request("/u/1", "ip"))       # throttled
        frontend.clock.advance(2.0)
        frontend.handle(Request("/missing", "ip"))   # 404
        counter = registry.get("http.requests")
        assert counter.value(status=STATUS_OK) == 1
        assert counter.value(status=STATUS_TOO_MANY_REQUESTS) == 1
        assert counter.value(status=STATUS_NOT_FOUND) == 1
        assert counter.value(status=STATUS_SERVER_ERROR) == 0
        # Throttle waits feed the advertised-delay histogram.
        assert registry.get("http.throttle_wait_seconds").series_stats()["count"] == 1


class TestRateLimiterPruning:
    def _limiter(self, prune_interval=300.0):
        clock = SimulatedClock()
        return clock, RateLimiter(
            rate_per_ip=2.0, burst=4.0, clock=clock, prune_interval=prune_interval
        )

    def test_idle_buckets_are_pruned(self):
        clock, limiter = self._limiter()
        for i in range(50):
            limiter.admit(f"ip-{i}")
        assert len(limiter) == 50
        clock.advance(400.0)  # every bucket fully refills
        limiter.admit("fresh-ip")
        assert len(limiter) == 1  # only the bucket just touched survives

    def test_unrefilled_buckets_survive(self):
        clock, limiter = self._limiter(prune_interval=1.0)
        for _ in range(4):
            limiter.admit("busy-ip")  # drained: needs 2s to refill
        clock.advance(1.0)
        limiter.admit("other-ip")  # triggers a prune pass
        assert "busy-ip" in limiter.export_state()["buckets"]

    def test_prune_preserves_admission_behavior(self):
        # The same request sequence against a pruning and a non-pruning
        # limiter must produce identical admission decisions: only
        # fully-refilled buckets (indistinguishable from fresh ones) are
        # ever dropped.
        clock_a = SimulatedClock()
        clock_b = SimulatedClock()
        pruning = RateLimiter(2.0, 3.0, clock_a, prune_interval=5.0)
        control = RateLimiter(2.0, 3.0, clock_b, prune_interval=0.0)
        schedule = [
            (0.0, "a"), (0.1, "a"), (0.1, "b"), (6.0, "a"), (6.0, "a"),
            (6.1, "b"), (12.5, "a"), (12.5, "b"), (12.5, "c"), (30.0, "a"),
            (30.0, "a"), (30.0, "a"), (30.0, "a"), (30.1, "b"),
        ]
        last = 0.0
        results = []
        for when, ip in schedule:
            clock_a.advance(when - last)
            clock_b.advance(when - last)
            last = when
            results.append((pruning.admit(ip), control.admit(ip)))
        assert all(a == b for a, b in results)

    def test_restore_pre_prune_state_roundtrips_bit_identically(self):
        # Regression: a checkpoint taken before a prune pass must restore
        # and re-export bit-identically, and the resumed limiter must
        # prune at the same virtual time the uninterrupted one did.
        clock, limiter = self._limiter(prune_interval=10.0)
        for i in range(8):
            limiter.admit(f"ip-{i}")
        clock.advance(3.0)
        limiter.admit("ip-0")
        exported = limiter.export_state()

        clock2 = SimulatedClock()
        clock2.advance(3.0)
        restored = RateLimiter(2.0, 4.0, clock2, prune_interval=10.0)
        restored.restore_state(exported)
        assert restored.export_state() == exported

        # Drive both past the prune horizon identically: still identical.
        clock.advance(20.0)
        clock2.advance(20.0)
        assert limiter.admit("late-ip") == restored.admit("late-ip")
        assert limiter.export_state() == restored.export_state()

    def test_restore_accepts_legacy_flat_schema(self):
        clock, limiter = self._limiter()
        legacy = {"1.2.3.4": {"tokens": 1.5, "last_refill": 0.0}}
        limiter.restore_state(legacy)
        state = limiter.export_state()
        assert state["buckets"]["1.2.3.4"]["tokens"] == 1.5

    def test_disabled_pruning_never_drops(self):
        clock, limiter = self._limiter(prune_interval=0.0)
        for i in range(20):
            limiter.admit(f"ip-{i}")
        clock.advance(10_000.0)
        limiter.admit("one-more")
        assert len(limiter) == 21


def viewer_echo_handler(path: str, viewer_id=None):
    return STATUS_OK, (path, viewer_id)


class TestViewerThreading:
    def test_viewer_id_passed_to_two_arg_handlers(self):
        frontend = HttpFrontend(viewer_echo_handler)
        response = frontend.handle(Request("/u/1", "ip", viewer_id=42))
        assert response.payload == ("/u/1", 42)

    def test_default_viewer_is_anonymous(self):
        frontend = HttpFrontend(viewer_echo_handler)
        response = frontend.handle(Request("/u/1", "ip"))
        assert response.payload == ("/u/1", None)

    def test_one_arg_handlers_still_work(self):
        frontend = HttpFrontend(echo_handler)
        response = frontend.handle(Request("/u/1", "ip", viewer_id=42))
        assert response.payload == "/u/1"

    def test_service_pages_are_privacy_filtered_by_viewer(self):
        from repro.platform.models import UserProfile
        from repro.platform.privacy import YOUR_CIRCLES
        from repro.platform.service import GooglePlusService

        service = GooglePlusService(open_signup=True)
        for uid in range(3):
            service.register(UserProfile(user_id=uid, name=f"User {uid}"))
        service.update_field(0, "occupation", "engineer", YOUR_CIRCLES)
        service.add_to_circle(0, 1)
        frontend = HttpFrontend(service.handle_path)

        anon = frontend.handle(Request("/u/0", "ip"))
        member = frontend.handle(Request("/u/0", "ip", viewer_id=1))
        outsider = frontend.handle(Request("/u/0", "ip", viewer_id=2))
        assert "occupation" not in anon.payload.fields
        assert member.payload.fields["occupation"] == "engineer"
        assert "occupation" not in outsider.payload.fields
