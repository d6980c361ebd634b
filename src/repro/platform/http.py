"""Simulated HTTP front end of the Google+ service.

The authors collected profiles "by making HTTP requests to publicly
available user profile pages" from 11 machines with different IP addresses
(Section 2.2). This module reproduces the transport-level conditions a
large crawl faces — per-IP rate limiting, transient server errors, and a
simulated clock — without any real network I/O, so crawls are fast and
perfectly deterministic.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Any, Mapping

from repro.faults.schedule import (
    BernoulliErrors,
    FaultSchedule,
    STATUS_FORBIDDEN,
    STATUS_REQUEST_TIMEOUT,
    corrupt_payload,
)
from repro.obs.metrics import Registry, get_registry, log_buckets

#: HTTP-ish status codes the simulated server can return.  403 and 408
#: are injected by the fault layer (:mod:`repro.faults`) and defined
#: there; they are re-exported here as the canonical status namespace.
STATUS_OK = 200
STATUS_NOT_FOUND = 404
STATUS_TOO_MANY_REQUESTS = 429
STATUS_SERVER_ERROR = 503

#: Statuses that signal a transient condition worth retrying: throttle,
#: flake/outage, temporary ban, and request timeout.
RETRYABLE_STATUSES = frozenset(
    {
        STATUS_TOO_MANY_REQUESTS,
        STATUS_SERVER_ERROR,
        STATUS_FORBIDDEN,
        STATUS_REQUEST_TIMEOUT,
    }
)


def profile_path_user_id(path: str) -> int | None:
    """The user id of a canonical ``/u/<id>`` path, else ``None``.

    Canonical ids are ASCII digits with no leading zero (``"0"`` itself
    is allowed), so each user has exactly one page path.  ``int()``
    alone would also accept signs, spaces, underscores and non-ASCII
    digits, letting ``/u/+10`` or ``/u/010`` alias user 10's page.
    """
    if not path.startswith("/u/"):
        return None
    digits = path[3:]
    if not (digits.isascii() and digits.isdigit()):
        return None
    if digits[0] == "0" and digits != "0":
        return None
    return int(digits)


@dataclass(frozen=True)
class Request:
    """One client request: a path such as ``/u/123`` from a client IP.

    ``viewer_id`` identifies the logged-in user issuing the request;
    ``None`` is an anonymous client — the crawler's case — which keeps
    every pre-existing request equivalent to the two-argument form.
    """

    path: str
    client_ip: str
    viewer_id: int | None = None


@dataclass(frozen=True)
class Response:
    """The server's reply. ``payload`` carries the page document on 200.

    ``slow_by`` is extra virtual latency a fault rule attached to a
    successful response — the client must spend it on the clock.
    """

    status: int
    payload: Any = None
    retry_after: float = 0.0
    slow_by: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    @property
    def should_retry(self) -> bool:
        """True for transient statuses (429 throttle, 503 flake/outage,
        403 temporary ban, 408 timeout).

        Clients should wait at least :attr:`retry_after` (the server's
        advertised delay; 0 when it offered none) before retrying.
        """
        return self.status in RETRYABLE_STATUSES


class SimulatedClock:
    """A monotonically advancing virtual clock shared by server and clients."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def now(self) -> float:
        return self._now

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("the clock only moves forward")
        self._now += seconds
        return self._now

    def restore(self, now: float) -> None:
        """Jump to an absolute (not earlier) time — checkpoint resume."""
        if now < self._now:
            raise ValueError("the clock only moves forward")
        self._now = float(now)


@dataclass
class TokenBucket:
    """Classic token-bucket limiter: ``rate`` tokens/s, burst of ``capacity``."""

    rate: float
    capacity: float
    tokens: float = field(default=-1.0)
    last_refill: float = 0.0

    def __post_init__(self) -> None:
        if self.rate <= 0 or self.capacity <= 0:
            raise ValueError("rate and capacity must be positive")
        if self.tokens < 0:
            self.tokens = self.capacity

    def try_take(self, now: float) -> tuple[bool, float]:
        """Attempt to consume one token at virtual time ``now``.

        Returns ``(granted, retry_after)``; ``retry_after`` is the delay
        until a token will be available when the request is refused.
        """
        elapsed = max(0.0, now - self.last_refill)
        self.tokens = min(self.capacity, self.tokens + elapsed * self.rate)
        self.last_refill = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class RateLimiter:
    """Per-client-IP token buckets, as a web front end would maintain.

    Buckets are pruned on a fixed virtual-time cadence: an idle bucket
    that has refilled to capacity is byte-for-byte equivalent to the
    fresh bucket :meth:`admit` would lazily recreate, so dropping it
    cannot change any future admission decision.  Without the prune the
    table grows one bucket per distinct client IP forever — a real leak
    once thousands of load-generator clients hit the front end.  The
    prune clock (``_last_prune``) rides ``export_state`` so a resumed
    run prunes at the same virtual times as an uninterrupted one.
    """

    def __init__(
        self,
        rate_per_ip: float,
        burst: float,
        clock: SimulatedClock,
        prune_interval: float = 300.0,
    ):
        self._rate = rate_per_ip
        self._burst = burst
        self._clock = clock
        self._buckets: dict[str, TokenBucket] = {}
        #: Virtual seconds between idle-bucket sweeps (0 disables).
        self._prune_interval = prune_interval
        self._last_prune = clock.now()

    def __len__(self) -> int:
        return len(self._buckets)

    def admit(self, ip: str) -> tuple[bool, float]:
        now = self._clock.now()
        if self._prune_interval and now - self._last_prune >= self._prune_interval:
            self.prune(now)
        bucket = self._buckets.get(ip)
        if bucket is None:
            bucket = TokenBucket(self._rate, self._burst)
            bucket.last_refill = now
            self._buckets[ip] = bucket
        return bucket.try_take(now)

    def prune(self, now: float) -> int:
        """Drop every bucket that has refilled to capacity; return count.

        Only fully-refilled buckets go: for any other bucket the pending
        token deficit still shapes future ``try_take`` outcomes.
        """
        self._last_prune = now
        full = [
            ip
            for ip, bucket in self._buckets.items()
            if bucket.tokens + (now - bucket.last_refill) * bucket.rate
            >= bucket.capacity
        ]
        for ip in full:
            del self._buckets[ip]
        return len(full)

    def export_state(self) -> dict:
        """Bucket levels + prune clock, JSON-ready (see :mod:`repro.store`)."""
        return {
            "last_prune": self._last_prune,
            "buckets": {
                ip: {"tokens": bucket.tokens, "last_refill": bucket.last_refill}
                for ip, bucket in sorted(self._buckets.items())
            },
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        if "buckets" in state:
            entries = state["buckets"]
            self._last_prune = float(state["last_prune"])
        else:  # legacy flat {ip: {...}} schema, from before bucket pruning
            entries = state
            self._last_prune = self._clock.now()
        self._buckets = {
            ip: TokenBucket(
                self._rate,
                self._burst,
                tokens=float(entry["tokens"]),
                last_refill=float(entry["last_refill"]),
            )
            for ip, entry in entries.items()
        }


def _handler_accepts_viewer(handler) -> bool:
    """Whether a page handler takes a ``(path, viewer_id)`` pair.

    Decided once at construction from the signature so legacy one-
    argument handlers (plenty exist in tests) keep working unchanged,
    with no per-request ``TypeError`` probing.
    """
    try:
        signature = inspect.signature(handler)
    except (TypeError, ValueError):
        return False
    positional = 0
    for parameter in signature.parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ):
            positional += 1
        elif parameter.kind is inspect.Parameter.VAR_POSITIONAL:
            return True
    return positional >= 2


class HttpFrontend:
    """Ties the rate limiter and fault schedule in front of a page handler.

    The handler is any callable mapping a path to ``(status, payload)``;
    :class:`repro.platform.service.GooglePlusService` provides one.  A
    handler whose signature accepts a second positional argument is
    called as ``handler(path, viewer_id)``, which is how logged-in
    clients get privacy-filtered pages; one-argument handlers keep the
    anonymous-only behaviour.

    ``faults`` is a :class:`repro.faults.FaultSchedule` of scripted
    failure windows; the legacy ``error_rate``/``seed`` pair still works
    and simply prepends an always-on Bernoulli 503 rule.
    """

    def __init__(
        self,
        handler,
        clock: SimulatedClock | None = None,
        rate_per_ip: float = 50.0,
        burst: float = 100.0,
        error_rate: float = 0.0,
        seed: int = 0,
        faults: FaultSchedule | None = None,
        registry: Registry | None = None,
    ):
        self._handler = handler
        self._pass_viewer = _handler_accepts_viewer(handler)
        self.clock = clock if clock is not None else SimulatedClock()
        self._limiter = RateLimiter(rate_per_ip, burst, self.clock)
        rules = list(faults.rules) if faults is not None else []
        if error_rate:
            rules.insert(0, BernoulliErrors(error_rate, seed=seed))
        self._faults = FaultSchedule(rules) if rules else None
        self.requests_served = 0
        self.requests_throttled = 0
        self.requests_failed = 0
        registry = registry if registry is not None else get_registry()
        self._m_requests = registry.counter(
            "http.requests", "Requests handled by the front end", labels=("status",)
        )
        self._m_throttle_wait = registry.histogram(
            "http.throttle_wait_seconds",
            "Retry-after advertised on rate-limiter rejections",
            buckets=log_buckets(0.001, 2.0, 16),
        )
        self._m_faults = registry.counter(
            "http.faults_injected",
            "Faults injected by the schedule, per rule kind",
            labels=("kind",),
        )
        #: One bound ``http.requests`` series per status seen.
        self._status_counts: dict[int, Any] = {}
        # Materialise every status series up front so reports always carry
        # the full 200/403/404/408/429/503 breakdown, zeros included.
        for status in (
            STATUS_OK,
            STATUS_FORBIDDEN,
            STATUS_NOT_FOUND,
            STATUS_REQUEST_TIMEOUT,
            STATUS_TOO_MANY_REQUESTS,
            STATUS_SERVER_ERROR,
        ):
            self._count_status(status, 0)

    def _count_status(self, status: int, amount: float = 1.0) -> None:
        series = self._status_counts.get(status)
        if series is None:
            series = self._status_counts[status] = self._m_requests.labels(
                status=status
            )
        series.inc(amount)

    @property
    def faults(self) -> FaultSchedule | None:
        """The active fault schedule (None when the transport is clean)."""
        return self._faults

    def export_state(self) -> dict:
        """Complete resumable transport state: clock, counters, limiter, RNG.

        Restoring this on a freshly built front end (same handler, same
        construction parameters) makes the remaining request sequence
        bit-identical to one that was never interrupted — the property
        :mod:`repro.store` checkpoints rely on.
        """
        return {
            "clock": self.clock.now(),
            "requests_served": self.requests_served,
            "requests_throttled": self.requests_throttled,
            "requests_failed": self.requests_failed,
            "limiter": self._limiter.export_state(),
            "faults": self._faults.export_state() if self._faults is not None else None,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        self.clock.restore(float(state["clock"]))
        self.requests_served = int(state["requests_served"])
        self.requests_throttled = int(state["requests_throttled"])
        self.requests_failed = int(state["requests_failed"])
        self._limiter.restore_state(state["limiter"])
        faults_state = state.get("faults")
        if faults_state is not None:
            if self._faults is None:
                raise ValueError(
                    "checkpoint carries fault-schedule state but this front "
                    "end was built without a fault schedule"
                )
            self._faults.restore_state(faults_state)

    def handle(self, request: Request) -> Response:
        """Serve one request, applying throttling and fault injection."""
        granted, retry_after = self._limiter.admit(request.client_ip)
        if not granted:
            self.requests_throttled += 1
            self._count_status(STATUS_TOO_MANY_REQUESTS)
            self._m_throttle_wait.observe(retry_after)
            return Response(STATUS_TOO_MANY_REQUESTS, retry_after=retry_after)
        decision = (
            self._faults.evaluate(self.clock.now(), request.client_ip)
            if self._faults is not None
            else None
        )
        if decision is not None and decision.status is not None:
            self.requests_failed += 1
            self._count_status(decision.status)
            self._m_faults.inc(kind=decision.kind)
            return Response(decision.status, retry_after=decision.retry_after)
        if self._pass_viewer:
            status, payload = self._handler(request.path, request.viewer_id)
        else:
            status, payload = self._handler(request.path)
        slow_by = 0.0
        if decision is not None and status == STATUS_OK:
            slow_by = decision.slow_by
            if slow_by:
                self._m_faults.inc(kind="slow_responses")
            if decision.corrupt_mode is not None:
                payload = corrupt_payload(payload, decision.corrupt_mode)
                self._m_faults.inc(kind=decision.kind)
        self.requests_served += 1
        self._count_status(status)
        return Response(status, payload, slow_by=slow_by)
