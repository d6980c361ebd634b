"""Deterministic concurrent-client load generator on the virtual clock.

Thousands of simulated Google+ members browse profiles, read streams,
search, edit circles, and +1 posts while the crawler fleet works the
same front door.  Concurrency is cooperative: every client schedules
its next request on an :class:`EventClock` (a :class:`SimulatedClock`
with an event heap), and whoever advances the clock — the crawler's
politeness waits, or a pure-traffic driver — dispatches the due client
requests at their exact virtual times.

Determinism is the design constraint everything else bends around:

* every client owns a seeded RNG; think times and op choices consume
  only that stream, so the same seed yields the identical request
  trace regardless of what else runs on the clock;
* traffic is **open-loop** — the next request time never depends on the
  previous response — so toggling the page cache (which changes
  latencies, not the trace) cannot perturb the request sequence, which
  is what makes the cache-on/cache-off differential proof meaningful;
* the whole generator exports and restores its state (client RNGs,
  next-event times, the applied-mutation log, cache metadata) through
  the crawler snapshot extension hooks, so a killed mixed
  crawl+traffic campaign resumes bit-identically.

The trace digest is a hash chain over every request record; two runs
are identical iff their digests match.
"""

from __future__ import annotations

import hashlib
import heapq
import json
from dataclasses import dataclass
from functools import partial
from typing import Any, Mapping

import numpy as np

from repro.faults.schedule import rng_from_json, rng_to_json
from repro.obs.metrics import Registry, get_registry
from repro.platform.http import (
    STATUS_OK,
    HttpFrontend,
    Request,
    SimulatedClock,
    profile_path_user_id,
)

from .cache import payload_digest

__all__ = [
    "MIXES",
    "MIXED",
    "READ_HEAVY",
    "BehaviorMix",
    "EventClock",
    "LoadGenerator",
    "ServingStack",
    "op_of",
]


class EventClock(SimulatedClock):
    """A virtual clock with a heap of scheduled callbacks.

    :meth:`advance` dispatches every event due at or before the target
    time, at its exact virtual time, in ``(time, tie, insertion)``
    order — ``tie`` is a stable caller-chosen key (the client index) so
    the order of same-instant events survives a checkpoint/resume, when
    the heap is rebuilt in a different insertion order.  :meth:`restore`
    (checkpoint resume) never dispatches.  Callbacks must not re-enter
    ``advance``; client request handling is instantaneous in virtual
    time, which keeps traffic open-loop.
    """

    def __init__(self, start: float = 0.0):
        super().__init__(start)
        self._events: list[tuple[float, int, int, Any]] = []
        self._seq = 0
        self._dispatching = False

    def schedule(self, when: float, callback, tie: int = 0) -> None:
        if when < self._now:
            raise ValueError("cannot schedule an event in the virtual past")
        heapq.heappush(self._events, (float(when), tie, self._seq, callback))
        self._seq += 1

    def pending(self) -> int:
        return len(self._events)

    def next_event_time(self) -> float | None:
        return self._events[0][0] if self._events else None

    def clear_scheduled(self) -> None:
        self._events.clear()

    def advance(self, seconds: float) -> float:
        if seconds < 0:
            raise ValueError("the clock only moves forward")
        target = self._now + seconds
        if not self._dispatching:
            self._dispatching = True
            try:
                while self._events and self._events[0][0] <= target:
                    when, _, _, callback = heapq.heappop(self._events)
                    if when > self._now:
                        self._now = when
                    callback(self._now)
            finally:
                self._dispatching = False
        self._now = target
        return self._now


@dataclass(frozen=True)
class BehaviorMix:
    """Per-request op probabilities for one client population."""

    browse: float = 0.6
    stream: float = 0.2
    search: float = 0.1
    circle_edit: float = 0.05
    plus_one: float = 0.05

    def __post_init__(self) -> None:
        weights = self.weights()
        if any(w < 0 for _, w in weights):
            raise ValueError("behavior weights must be >= 0")
        if sum(w for _, w in weights) <= 0:
            raise ValueError("behavior weights must sum to > 0")

    def weights(self) -> tuple[tuple[str, float], ...]:
        return (
            ("browse", self.browse),
            ("stream", self.stream),
            ("search", self.search),
            ("circle_edit", self.circle_edit),
            ("plus_one", self.plus_one),
        )

    def cumulative(self) -> tuple[tuple[str, float], ...]:
        total = sum(w for _, w in self.weights())
        acc = 0.0
        out = []
        for name, weight in self.weights():
            acc += weight / total
            out.append((name, acc))
        out[-1] = (out[-1][0], 1.0)
        return tuple(out)


#: The serving-bench mix: pure reads plus +1s (which mutate posts, never
#: profile pages) — no circle edits, so the graph the crawler walks is
#: untouched and its edge arrays stay bit-identical to a no-traffic run.
READ_HEAVY = BehaviorMix(
    browse=0.62, stream=0.2, search=0.1, circle_edit=0.0, plus_one=0.08
)

#: A realistic interactive mix including circle edits (graph mutations).
MIXED = BehaviorMix(browse=0.48, stream=0.18, search=0.1, circle_edit=0.12, plus_one=0.12)

MIXES: dict[str, BehaviorMix] = {"read_heavy": READ_HEAVY, "mixed": MIXED}


def op_of(path: str) -> str:
    if path.startswith("/u/"):
        return "browse"
    if path == "/stream":
        return "stream"
    if path.startswith("/search"):
        return "search"
    if path.startswith("/circle/"):
        return "circle_edit"
    if path.startswith("/plus/"):
        return "plus_one"
    return "other"


class ServingStack:
    """The member-facing front door: router, optional page cache, and a
    deterministic latency model, behind an :class:`HttpFrontend` of its
    own (own rate limiter, own fault schedule) so serving traffic never
    perturbs the crawler transport's RNG draws.

    Applied graph/content mutations (circle edits, +1s) are appended to
    :attr:`mutation_log` *after* the service call succeeds; replaying
    the log against a freshly rebuilt world reproduces the exact
    service state, which is how mixed campaigns resume.
    """

    def __init__(
        self,
        service,
        clock: SimulatedClock,
        cache=None,
        rate_per_ip: float = 50.0,
        burst: float = 200.0,
        faults=None,
        registry: Registry | None = None,
        hit_latency: float = 0.0004,
        miss_latency: float = 0.004,
        op_latency: float = 0.002,
    ):
        self.service = service
        self.cache = cache
        self.hit_latency = float(hit_latency)
        self.miss_latency = float(miss_latency)
        self.op_latency = float(op_latency)
        self.frontend = HttpFrontend(
            self._route,
            clock=clock,
            rate_per_ip=rate_per_ip,
            burst=burst,
            faults=faults,
            registry=registry,
        )
        self.mutation_log: list[list] = []
        self._name_index: dict[str, tuple[int, ...]] | None = None
        self._last_hit: bool | None = None

    def _names(self) -> dict[str, tuple[int, ...]]:
        if self._name_index is None:
            index: dict[str, list[int]] = {}
            for user_id in sorted(self.service.user_ids()):
                index.setdefault(self.service.name(user_id), []).append(user_id)
            self._name_index = {name: tuple(ids) for name, ids in index.items()}
        return self._name_index

    def _route(self, path: str, viewer_id: int | None = None) -> tuple[int, Any]:
        service = self.service
        self._last_hit = None
        if path.startswith("/u/"):
            owner_id = profile_path_user_id(path)
            if owner_id is None or owner_id not in service:
                return 404, None
            if self.cache is not None:
                page, hit = self.cache.lookup(owner_id, viewer_id)
                self._last_hit = hit
            else:
                page = service.profile_page(owner_id, viewer_id=viewer_id)
                self._last_hit = False
            return STATUS_OK, page
        if path == "/stream":
            if viewer_id is None:
                return 404, None
            posts = service.stream_for(viewer_id)
            return STATUS_OK, {"posts": [post.post_id for post in posts]}
        if path.startswith("/search?q="):
            name = path[len("/search?q=") :]
            return STATUS_OK, {"results": list(self._names().get(name, ()))}
        if path.startswith("/circle/add/"):
            return self._circle_edit(path[len("/circle/add/") :], viewer_id, add=True)
        if path.startswith("/circle/remove/"):
            return self._circle_edit(
                path[len("/circle/remove/") :], viewer_id, add=False
            )
        if path.startswith("/plus/"):
            if viewer_id is None:
                return 404, None
            try:
                post_id = int(path[len("/plus/") :])
            except ValueError:
                return 404, None
            try:
                service.plus_one(viewer_id, post_id)
            except KeyError:
                return 404, None
            self.mutation_log.append(["plus_one", viewer_id, post_id])
            return STATUS_OK, {"ok": True}
        return 404, None

    def _circle_edit(
        self, raw_target: str, viewer_id: int | None, add: bool
    ) -> tuple[int, Any]:
        if viewer_id is None:
            return 404, None
        try:
            target_id = int(raw_target)
        except ValueError:
            return 404, None
        if target_id not in self.service or target_id == viewer_id:
            return 404, None
        if add:
            changed = self.service.add_to_circle(viewer_id, target_id)
            self.mutation_log.append(["circle_add", viewer_id, target_id])
        else:
            changed = self.service.remove_from_circle(viewer_id, target_id)
            self.mutation_log.append(["circle_remove", viewer_id, target_id])
        return STATUS_OK, {"changed": bool(changed)}

    def replay_mutations(self, log) -> None:
        """Re-apply an exported mutation log against the (rebuilt) world."""
        service = self.service
        for kind, actor_id, target_id in log:
            actor_id, target_id = int(actor_id), int(target_id)
            if kind == "circle_add":
                service.add_to_circle(actor_id, target_id)
            elif kind == "circle_remove":
                service.remove_from_circle(actor_id, target_id)
            elif kind == "plus_one":
                service.plus_one(actor_id, target_id)
            else:
                raise ValueError(f"unknown mutation kind: {kind!r}")
        self.mutation_log = [list(entry) for entry in log]
        self._name_index = None

    def serve(self, request: Request):
        """Handle one request; returns ``(response, latency, cache_hit)``.

        ``latency`` is the modelled virtual service time for successful
        responses (including fault-injected ``slow_by``), ``None`` for
        throttles and failures.  ``cache_hit`` is None off the page
        path.
        """
        self._last_hit = None
        response = self.frontend.handle(request)
        hit = self._last_hit
        latency = None
        if response.status == STATUS_OK:
            if request.path.startswith("/u/"):
                base = self.hit_latency if hit else self.miss_latency
            else:
                base = self.op_latency
            latency = base + response.slow_by
        return response, latency, hit


class _Client:
    __slots__ = ("index", "user_id", "ip", "rng", "next_at")

    def __init__(self, index: int, user_id: int, ip: str, rng: np.random.Generator):
        self.index = index
        self.user_id = user_id
        self.ip = ip
        self.rng = rng
        self.next_at = 0.0


class LoadGenerator:
    """Drives ``n_clients`` seeded open-loop clients against a
    :class:`ServingStack` on a shared :class:`EventClock`.

    Target users are drawn Zipf-skewed over the in-degree popularity
    ranking (celebrities absorb most reads — the cacheable regime).  A
    deterministic batch of seed posts is published at construction so
    +1 targets exist; because construction also runs before a resume,
    post ids are identical in interrupted and uninterrupted runs.
    """

    STATE_SCHEMA = 1

    def __init__(
        self,
        stack: ServingStack,
        clock: EventClock,
        n_clients: int,
        seed: int = 0,
        mix: BehaviorMix = READ_HEAVY,
        zipf_s: float = 1.3,
        think_mean: float = 1.0,
        n_seed_posts: int = 32,
        record_bodies: bool = False,
        keep_trace: bool = False,
        slo=None,
        registry: Registry | None = None,
    ):
        if n_clients < 1:
            raise ValueError("need at least one client")
        if zipf_s <= 1.0:
            raise ValueError("zipf_s must be > 1")
        if think_mean <= 0:
            raise ValueError("think_mean must be positive")
        self.stack = stack
        self.cache = stack.cache
        self.slo = slo
        self._clock = clock
        self._mix = mix
        self._cumulative = mix.cumulative()
        self._zipf_s = float(zipf_s)
        self._think_mean = float(think_mean)
        self._record_bodies = bool(record_bodies)
        service = stack.service
        users = sorted(service.user_ids())
        if not users:
            raise ValueError("cannot generate load against an empty world")
        in_degrees = np.fromiter(
            (service.in_degree(u) for u in users), dtype=np.int64, count=len(users)
        )
        order = np.lexsort((np.asarray(users, dtype=np.int64), -in_degrees))
        self._ranking = [users[i] for i in order]
        self._post_ids = self._seed_posts(service, n_seed_posts)
        picker = np.random.default_rng(np.random.SeedSequence([int(seed), 0]))
        assignment = picker.permutation(len(users))
        self._clients: list[_Client] = []
        for index in range(int(n_clients)):
            user_id = users[int(assignment[index % len(users)])]
            rng = np.random.default_rng(np.random.SeedSequence([int(seed), 1, index]))
            ip = f"10.{(index // 62500) % 256}.{(index // 250) % 250}.{index % 250}"
            self._clients.append(_Client(index, user_id, ip, rng))
        self.n_requests = 0
        self._digest = bytes(32)
        self.trace: list[tuple] | None = [] if keep_trace else None
        self.op_counts: dict[str, int] = {}
        self.status_counts: dict[str, int] = {}
        registry = registry if registry is not None else get_registry()
        self._m_clients = registry.gauge("serve.clients", "Simulated client count")
        self._m_clients.set(float(n_clients))
        for client in self._clients:
            client.next_at = clock.now() + float(client.rng.exponential(self._think_mean))
            self._schedule(client)

    @staticmethod
    def _seed_posts(service, n_seed_posts: int) -> list[int]:
        post_ids = []
        authors = sorted(service.user_ids())[:8]
        for k in range(int(n_seed_posts)):
            author = authors[k % len(authors)]
            post = service.publish(author, f"seed-post-{k}")
            post_ids.append(post.post_id)
        return post_ids

    @property
    def clients(self) -> int:
        return len(self._clients)

    @property
    def client_user_ids(self) -> list[int]:
        """The logged-in user each client browses as, by client index
        (trace records carry the client index, not the user id)."""
        return [client.user_id for client in self._clients]

    @property
    def trace_digest(self) -> str:
        """Hex digest of the hash chain over every request record."""
        return self._digest.hex()

    def _schedule(self, client: _Client) -> None:
        self._clock.schedule(client.next_at, partial(self._fire, client), tie=client.index)

    def _pick_op(self, client: _Client) -> str:
        draw = float(client.rng.random())
        for name, edge in self._cumulative:
            if draw <= edge:
                return name
        return self._cumulative[-1][0]

    def _pick_target(self, client: _Client) -> int:
        rank = int(client.rng.zipf(self._zipf_s))
        return self._ranking[(rank - 1) % len(self._ranking)]

    def _build_path(self, client: _Client, op: str) -> str:
        if op == "browse":
            return f"/u/{self._pick_target(client)}"
        if op == "stream":
            return "/stream"
        if op == "search":
            name = self.stack.service.name(self._pick_target(client))
            return f"/search?q={name}"
        if op == "circle_edit":
            target = self._pick_target(client)
            if float(client.rng.random()) < 0.7:
                return f"/circle/add/{target}"
            return f"/circle/remove/{target}"
        # plus_one
        post_index = int(client.rng.integers(len(self._post_ids)))
        return f"/plus/{self._post_ids[post_index]}"

    def _fire(self, client: _Client, now: float) -> None:
        op = self._pick_op(client)
        path = self._build_path(client, op)
        request = Request(path, client.ip, viewer_id=client.user_id)
        response, latency, hit = self.stack.serve(request)
        body = ""
        if self._record_bodies and response.status == STATUS_OK:
            body = payload_digest(response.payload)
        record = [
            self.n_requests,
            client.index,
            op,
            path,
            response.status,
            latency,
            body,
        ]
        encoded = json.dumps(record, separators=(",", ":")).encode("utf-8")
        self._digest = hashlib.sha256(self._digest + encoded).digest()
        if self.trace is not None:
            self.trace.append(tuple(record))
        self.n_requests += 1
        self.op_counts[op] = self.op_counts.get(op, 0) + 1
        status_key = str(response.status)
        self.status_counts[status_key] = self.status_counts.get(status_key, 0) + 1
        if self.slo is not None:
            self.slo.observe(op, response.status, latency=latency, hit=hit)
        client.next_at = now + float(client.rng.exponential(self._think_mean))
        self._schedule(client)

    # -- pure-traffic driving (no crawler on the clock) ----------------------

    def run_requests(self, count: int) -> int:
        """Advance the clock until ``count`` more requests have fired."""
        target = self.n_requests + int(count)
        clock = self._clock
        while self.n_requests < target:
            when = clock.next_event_time()
            if when is None:
                break
            clock.advance(when - clock.now())
        return self.n_requests

    def run_until(self, until: float) -> None:
        """Advance the clock to an absolute virtual time."""
        remaining = until - self._clock.now()
        if remaining > 0:
            self._clock.advance(remaining)

    # -- resumable state ------------------------------------------------------

    def export_state(self) -> dict:
        """Everything needed to resume: client RNGs and next-event times,
        the applied-mutation log, transport state, and cache metadata."""
        return {
            "schema": self.STATE_SCHEMA,
            "n_requests": self.n_requests,
            "digest": self._digest.hex(),
            "op_counts": dict(self.op_counts),
            "status_counts": dict(self.status_counts),
            "clients": [
                {
                    "user_id": client.user_id,
                    "ip": client.ip,
                    "next_at": client.next_at,
                    "rng": rng_to_json(client.rng),
                }
                for client in self._clients
            ],
            "mutations": [list(entry) for entry in self.stack.mutation_log],
            "frontend": self.stack.frontend.export_state(),
            "cache": self.cache.export_state() if self.cache is not None else None,
            "slo": self.slo.export_state() if self.slo is not None else None,
        }

    def restore_state(self, state: Mapping[str, Any]) -> None:
        if int(state.get("schema", 0)) != self.STATE_SCHEMA:
            raise ValueError(f"unsupported loadgen state schema: {state.get('schema')}")
        if len(state["clients"]) != len(self._clients):
            raise ValueError(
                "checkpoint was taken with a different client count "
                f"({len(state['clients'])} != {len(self._clients)})"
            )
        self._clock.clear_scheduled()
        self.stack.frontend.restore_state(state["frontend"])
        if self.cache is not None:
            self.cache.clear()
        self.stack.replay_mutations(state["mutations"])
        if self.cache is not None and state.get("cache") is not None:
            self.cache.restore_state(state["cache"])
        if self.slo is not None and state.get("slo") is not None:
            self.slo.restore_state(state["slo"])
        for client, entry in zip(self._clients, state["clients"]):
            client.user_id = int(entry["user_id"])
            client.ip = str(entry["ip"])
            client.next_at = float(entry["next_at"])
            rng_from_json(client.rng, entry["rng"])
            self._schedule(client)
        self.n_requests = int(state["n_requests"])
        self._digest = bytes.fromhex(state["digest"])
        self.op_counts = {str(k): int(v) for k, v in state["op_counts"].items()}
        self.status_counts = {
            str(k): int(v) for k, v in state["status_counts"].items()
        }

    def summary(self) -> dict:
        section = {
            "clients": len(self._clients),
            "requests": self.n_requests,
            "trace_digest": self.trace_digest,
            "ops": dict(sorted(self.op_counts.items())),
            "statuses": dict(sorted(self.status_counts.items())),
        }
        if self.cache is not None:
            section["cache"] = self.cache.stats()
        return section
