"""Fetching profile pages over the simulated HTTP front end.

One :class:`Fetcher` models one crawl machine: it has its own IP address,
respects the server's throttling by sleeping (on the virtual clock) for
the advertised retry-after, and retries transient 503s with exponential
backoff — the operational realities of the authors' 46-day crawl.

Each fetcher publishes a per-machine virtual-latency histogram and retry
counters to the metrics registry (see ``docs/observability.md``), so a
study run can show how evenly the fleet's load and throttle pressure
were spread.
"""

from __future__ import annotations

import dataclasses
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.faults.schedule import rng_from_json, rng_to_json
from repro.obs.metrics import Registry, get_registry
from repro.platform.http import (
    HttpFrontend,
    Request,
    STATUS_FORBIDDEN,
    STATUS_NOT_FOUND,
    STATUS_REQUEST_TIMEOUT,
    STATUS_TOO_MANY_REQUESTS,
)
from repro.platform.pages import ProfilePage

from .resilience import CircuitBreaker, RetryBudget


class FetchError(Exception):
    """A page could not be retrieved after exhausting retries."""


#: Floor applied to throttle waits so a zero retry-after cannot spin.
MIN_THROTTLE_WAIT = 0.01


@dataclass
class FetchStats:
    """Counters for one fetcher (one crawl machine).

    All fields must stay numeric and additive: :meth:`merge` combines
    stats field-by-field via :func:`dataclasses.fields`, so newly added
    counters aggregate without touching any call site.
    """

    pages_fetched: int = 0
    not_found: int = 0
    throttled: int = 0
    server_errors: int = 0
    banned: int = 0
    timeouts: int = 0
    slow_responses: int = 0
    time_waiting: float = 0.0
    time_slowed: float = 0.0

    def merge(self, other: "FetchStats") -> "FetchStats":
        """Add ``other``'s counters into self (in place); returns self."""
        for f in dataclasses.fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def __add__(self, other: "FetchStats") -> "FetchStats":
        if not isinstance(other, FetchStats):
            return NotImplemented
        return FetchStats(
            **{
                f.name: getattr(self, f.name) + getattr(other, f.name)
                for f in dataclasses.fields(self)
            }
        )

    __radd__ = __add__


@dataclass
class Fetcher:
    """HTTP client for one crawl machine.

    ``request_latency`` is the virtual time one request occupies; with
    ``parallelism`` machines crawling concurrently, each advances the
    shared clock by ``latency / parallelism`` so wall-clock accounting
    approximates a parallel fleet without threads.
    """

    frontend: HttpFrontend
    ip: str
    request_latency: float = 0.02
    parallelism: int = 1
    max_retries: int = 6
    initial_backoff: float = 0.5
    max_backoff: float = 8.0
    backoff_seed: int = 0
    breaker: CircuitBreaker = field(default_factory=CircuitBreaker)
    budget: RetryBudget | None = None
    stats: FetchStats = field(default_factory=FetchStats)
    registry: Registry | None = None

    def __post_init__(self) -> None:
        # Decorrelated-jitter RNG: seeded from the campaign backoff seed
        # plus a stable per-IP salt (crc32, never Python's salted hash),
        # so two machines never share a jitter stream yet every run with
        # the same seed replays the same waits.
        self._jitter_rng = np.random.default_rng(
            [self.backoff_seed, zlib.crc32(self.ip.encode("utf-8"))]
        )
        registry = self.registry if self.registry is not None else get_registry()
        self._m_latency = registry.histogram(
            "crawler.fetch_virtual_seconds",
            "Virtual time per completed fetch, per crawl machine",
            labels=("machine",),
        ).labels(machine=self.ip)
        self._m_retries = registry.counter(
            "crawler.fetch_retries",
            "Retries performed, per machine and transient cause",
            labels=("machine", "reason"),
        )

    def _next_backoff(self, prev: float) -> float:
        """Capped decorrelated jitter: ``min(cap, U(initial, prev * 3))``."""
        prev = prev if prev > 0.0 else self.initial_backoff
        draw = float(self._jitter_rng.uniform(self.initial_backoff, prev * 3.0))
        return min(self.max_backoff, draw)

    def fetch_profile(self, user_id: int) -> ProfilePage | None:
        """Fetch one profile page; None for 404, FetchError when exhausted."""
        clock = self.frontend.clock
        started = clock.now()
        backoff = 0.0
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            clock.advance(self.request_latency / max(1, self.parallelism))
            response = self.frontend.handle(Request(f"/u/{user_id}", self.ip))
            if response.ok:
                if response.slow_by:
                    # Fault-injected extra latency: the machine is busy
                    # for it, like request_latency it shrinks with fleet
                    # parallelism.
                    self.stats.slow_responses += 1
                    self.stats.time_slowed += response.slow_by
                    clock.advance(response.slow_by / max(1, self.parallelism))
                self.breaker.record_success(clock.now())
                self.stats.pages_fetched += 1
                self._m_latency.observe(clock.now() - started)
                return response.payload
            if response.status == STATUS_NOT_FOUND:
                self.breaker.record_success(clock.now())
                self.stats.not_found += 1
                return None
            if not response.should_retry:
                raise FetchError(
                    f"unexpected status {response.status} for user {user_id}"
                )
            throttled = response.status == STATUS_TOO_MANY_REQUESTS
            if throttled:
                # Throttling is ordinary backpressure: it touches neither
                # the breaker nor the retry budget.
                self.stats.throttled += 1
                reason = "throttled"
            else:
                # An injected fault (503 flake/outage, 403 ban, 408
                # timeout): the breaker hears about it either way.
                if response.status == STATUS_FORBIDDEN:
                    self.stats.banned += 1
                    reason = "banned"
                elif response.status == STATUS_REQUEST_TIMEOUT:
                    self.stats.timeouts += 1
                    reason = "timeout"
                else:
                    self.stats.server_errors += 1
                    reason = "server_error"
                self.breaker.record_failure(clock.now())
            if attempt == attempts - 1:
                # Terminal failure: no further attempt follows, so the
                # backoff wait is never paid — no clock advance, no
                # time_waiting, no budget spend, no jitter draw.
                break
            if throttled:
                wait = max(response.retry_after, MIN_THROTTLE_WAIT)
            else:
                # The retry is paid for from the campaign budget.
                if self.budget is not None and not self.budget.spend():
                    self._m_retries.inc(machine=self.ip, reason="budget_exhausted")
                    raise FetchError(
                        f"retry budget exhausted fetching user {user_id}"
                    )
                backoff = self._next_backoff(backoff)
                wait = max(response.retry_after, backoff)
            self._m_retries.inc(machine=self.ip, reason=reason)
            self.stats.time_waiting += wait
            # Waits are NOT divided by fleet parallelism: the server's
            # retry-after is wall-clock time that must actually elapse
            # before the per-IP bucket refills.
            clock.advance(wait)
        raise FetchError(f"retries exhausted fetching user {user_id}")

    # -- checkpointing (see repro.store) ----------------------------------

    def export_resilience_state(self) -> dict:
        """Jitter-RNG and breaker state (stats are exported by the pool)."""
        state: dict = {
            "jitter_rng": rng_to_json(self._jitter_rng),
            "breaker": self.breaker.export_state(),
        }
        return state

    def restore_resilience_state(self, state: dict) -> None:
        rng_from_json(self._jitter_rng, state["jitter_rng"])
        self.breaker.restore_state(state["breaker"])
