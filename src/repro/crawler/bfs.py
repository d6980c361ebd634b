"""The bidirectional breadth-first crawler (Section 2.2).

Starting from a seed profile, the crawler fetches pages in BFS order and
follows *both* circle lists — out-circles ("In user's circles") and
in-circles ("Have user in circles") — which is what let the authors
recover almost all edges lost to the 10,000-entry display cap: an edge
``u -> v`` hidden by truncation on v's in-list usually still appears on
u's out-list.

The crawler never touches the service's internals: everything flows
through the HTTP front end, the same way the authors' crawler saw
Google+.

Long campaigns (the authors' ran ~52 days) survive interruption through
the :class:`CrawlHooks` extension points: a hooks object can persist
every page as it lands, ask for periodic checkpoints, and hand back a
:class:`ResumeState` so a killed crawl continues exactly where it
stopped.  :mod:`repro.store.campaign` provides the durable
implementation; the crawler itself stays storage-agnostic.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.platform.http import HttpFrontend

from .dataset import CrawlDataset, CrawlStats
from .fetch import FetchError
from .frontier import BFSFrontier
from .parse import ID_LIMIT, PageParseError, ParsedProfile, parse_profile_page
from .resilience import ResiliencePolicy
from .workers import MachinePool, publish_fetch_stats, publish_pool_health

#: Packing base for the edge-dedup set (``u * _PACK + v``): the parser's
#: id bound, so two distinct edges never share a key.
_PACK = ID_LIMIT
_PACK_BITS = _PACK.bit_length() - 1


@dataclass(frozen=True)
class CrawlConfig:
    """Crawl campaign parameters.

    The resilience block (retries, backoff, breaker, budget) flows down
    to every fetcher via :meth:`resilience_policy`; ``parse_retries``
    and ``max_redrive_rounds`` govern how hard the crawl fights for a
    page before and after dead-lettering it.
    """

    n_machines: int = 11
    max_pages: int | None = None
    follow_in_lists: bool = True
    follow_out_lists: bool = True
    request_latency: float = 0.02
    # -- resilience (see repro.crawler.resilience) -----------------------
    max_retries: int = 6
    initial_backoff: float = 0.5
    max_backoff: float = 8.0
    backoff_seed: int = 0
    retry_budget: int | None = None
    breaker_failure_threshold: int = 5
    breaker_cooldown: float = 1.0
    breaker_probe_successes: int = 2
    #: Immediate refetch attempts for a page whose payload fails to parse.
    parse_retries: int = 1
    #: End-of-crawl passes over the dead-letter queue.
    max_redrive_rounds: int = 2

    def __post_init__(self) -> None:
        if not (self.follow_in_lists or self.follow_out_lists):
            raise ValueError("crawler must follow at least one list direction")
        if self.parse_retries < 0:
            raise ValueError("parse_retries must be >= 0")
        if self.max_redrive_rounds < 0:
            raise ValueError("max_redrive_rounds must be >= 0")
        self.resilience_policy()  # validate the resilience knobs eagerly

    def resilience_policy(self) -> ResiliencePolicy:
        """The fleet policy this config describes."""
        return ResiliencePolicy(
            max_retries=self.max_retries,
            initial_backoff=self.initial_backoff,
            max_backoff=self.max_backoff,
            backoff_seed=self.backoff_seed,
            retry_budget=self.retry_budget,
            breaker_failure_threshold=self.breaker_failure_threshold,
            breaker_cooldown=self.breaker_cooldown,
            breaker_probe_successes=self.breaker_probe_successes,
        )


class DeadLetterQueue:
    """Pages that exhausted their retries, awaiting end-of-crawl redrive.

    ``pending`` is the current redrive round's remaining work,
    ``requeued`` collects this round's repeat failures (they become the
    next round's ``pending``), and ``failed`` is the permanent record
    once rounds run out.  The split keeps redrive order — and therefore
    the virtual timeline — identical whether or not a checkpoint/resume
    happened mid-round.
    """

    def __init__(self) -> None:
        self.pending: list[tuple[int, str]] = []
        self.requeued: list[tuple[int, str]] = []
        self.failed: list[tuple[int, str]] = []
        self.rounds_done = 0
        self.redriven = 0
        self.parse_errors = 0

    def add(self, user_id: int, reason: str) -> None:
        self.pending.append((int(user_id), reason))

    def __len__(self) -> int:
        return len(self.pending) + len(self.requeued)

    def export_state(self) -> dict:
        return {
            "pending": [[u, r] for u, r in self.pending],
            "requeued": [[u, r] for u, r in self.requeued],
            "failed": [[u, r] for u, r in self.failed],
            "rounds_done": self.rounds_done,
            "redriven": self.redriven,
            "parse_errors": self.parse_errors,
        }

    def restore_state(self, state: dict) -> None:
        self.pending = [(int(u), str(r)) for u, r in state.get("pending", [])]
        self.requeued = [(int(u), str(r)) for u, r in state.get("requeued", [])]
        self.failed = [(int(u), str(r)) for u, r in state.get("failed", [])]
        self.rounds_done = int(state.get("rounds_done", 0))
        self.redriven = int(state.get("redriven", 0))
        self.parse_errors = int(state.get("parse_errors", 0))


@dataclass
class CrawlSnapshot:
    """Complete control state of a crawl at a page boundary.

    Everything a resumed process needs — beyond the durable page/edge
    log itself — to continue a crawl bit-identically: the frontier
    contents, the fleet's rotation cursor and per-machine counters, the
    HTTP front end's clock/limiter/RNG state, and the loop's own
    accounting.  All values are plain JSON-serialisable types.
    """

    started: float
    virtual_now: float
    n_pages: int
    n_edges: int
    frontier: dict
    pool: dict
    frontend: dict
    config: dict = field(default_factory=dict)
    #: Dead-letter queue state (see :class:`DeadLetterQueue`); empty dict
    #: on snapshots from before the resilience layer.
    dead_letter: dict = field(default_factory=dict)
    #: Opaque per-subsystem state (keyed by extension name) contributed
    #: by :attr:`BidirectionalBFSCrawler.extension_providers` — e.g. the
    #: serving layer's load-generator state.  Empty dict on snapshots
    #: from before the extension mechanism.
    extensions: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "started": self.started,
            "virtual_now": self.virtual_now,
            "n_pages": self.n_pages,
            "n_edges": self.n_edges,
            "frontier": self.frontier,
            "pool": self.pool,
            "frontend": self.frontend,
            "config": self.config,
            "dead_letter": self.dead_letter,
            "extensions": self.extensions,
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CrawlSnapshot":
        return cls(
            started=float(data["started"]),
            virtual_now=float(data["virtual_now"]),
            n_pages=int(data["n_pages"]),
            n_edges=int(data["n_edges"]),
            frontier=data["frontier"],
            pool=data["pool"],
            frontend=data["frontend"],
            config=dict(data.get("config", {})),
            dead_letter=dict(data.get("dead_letter", {})),
            extensions=dict(data.get("extensions", {})),
        )


@dataclass
class ResumeState:
    """A restored crawl: control snapshot plus the replayed crawl data.

    ``sources``/``targets`` are the edge columns, as int lists or int64
    arrays.
    """

    snapshot: CrawlSnapshot
    profiles: dict[int, ParsedProfile]
    sources: list[int] | np.ndarray
    targets: list[int] | np.ndarray


class CrawlHooks:
    """Extension points :meth:`BidirectionalBFSCrawler.crawl` calls.

    The default implementation is a no-op, so ``crawl(seeds)`` behaves
    exactly as an unhooked in-memory crawl.  A durable store overrides:

    * :meth:`resume_state` — return the state to continue from (or None
      for a fresh crawl);
    * :meth:`on_page` — called once per successfully fetched page, with
      the newly discovered (deduplicated) edges that page contributed;
    * :meth:`should_checkpoint` / :meth:`on_checkpoint` — the periodic
      checkpoint cadence and the snapshot sink.  A final checkpoint is
      always taken when the frontier drains, and a best-effort one when
      the crawl aborts mid-run;
    * :meth:`on_dead_letter` / :meth:`on_redrive` — a page entering the
      dead-letter queue after exhausting retries, and one recovered by
      an end-of-crawl redrive pass (for the store's audit journal);
    * :meth:`on_finish` — the completed dataset, for archival.
    """

    def bind_clock(self, clock) -> None:
        """Called once, before any other hook, with the crawl's virtual clock."""
        pass

    def resume_state(self) -> ResumeState | None:
        return None

    def on_resume(self, resume: ResumeState) -> None:
        """Called after control state is restored from :meth:`resume_state`."""
        pass

    def on_page(
        self,
        user_id: int,
        profile: ParsedProfile,
        new_edges: list[tuple[int, int]],
    ) -> None:
        pass

    def should_checkpoint(self, n_pages: int, virtual_now: float) -> bool:
        return False

    def on_checkpoint(self, snapshot: CrawlSnapshot) -> None:
        pass

    def on_dead_letter(self, user_id: int, reason: str, virtual_now: float) -> None:
        pass

    def on_redrive(self, user_id: int, virtual_now: float) -> None:
        pass

    def on_abort(self, error: BaseException) -> None:
        """Called when the crawl dies mid-run, before the abort ``on_finish``."""
        pass

    def on_finish(self, dataset: CrawlDataset) -> None:
        """Called exactly once per crawl — with the partial dataset on abort."""
        pass


class HookChain(CrawlHooks):
    """Fan one crawl's hook events out to several hook objects, in order.

    Order matters and is the contract observers rely on: the durable
    store must come *first* so that by the time a telemetry consumer
    sees an event, the store has already journaled it (an exception from
    an earlier hook skips the later ones — data is never observed ahead
    of durability).  ``resume_state`` returns the first non-None answer;
    ``should_checkpoint`` asks *every* member (no short-circuit, so each
    can maintain its own cadence state) and triggers if any says yes.
    """

    def __init__(self, *hooks: CrawlHooks | None):
        self.hooks: list[CrawlHooks] = [h for h in hooks if h is not None]

    def bind_clock(self, clock) -> None:
        for hook in self.hooks:
            hook.bind_clock(clock)

    def resume_state(self) -> ResumeState | None:
        for hook in self.hooks:
            state = hook.resume_state()
            if state is not None:
                return state
        return None

    def on_resume(self, resume: ResumeState) -> None:
        for hook in self.hooks:
            hook.on_resume(resume)

    def on_page(self, user_id, profile, new_edges) -> None:
        for hook in self.hooks:
            hook.on_page(user_id, profile, new_edges)

    def should_checkpoint(self, n_pages: int, virtual_now: float) -> bool:
        fired = False
        for hook in self.hooks:  # every member keeps its cadence state
            if hook.should_checkpoint(n_pages, virtual_now):
                fired = True
        return fired

    def on_checkpoint(self, snapshot: CrawlSnapshot) -> None:
        for hook in self.hooks:
            hook.on_checkpoint(snapshot)

    def on_dead_letter(self, user_id, reason, virtual_now) -> None:
        for hook in self.hooks:
            hook.on_dead_letter(user_id, reason, virtual_now)

    def on_redrive(self, user_id, virtual_now) -> None:
        for hook in self.hooks:
            hook.on_redrive(user_id, virtual_now)

    def on_abort(self, error: BaseException) -> None:
        for hook in self.hooks:
            hook.on_abort(error)

    def on_finish(self, dataset: CrawlDataset) -> None:
        for hook in self.hooks:
            hook.on_finish(dataset)


class BidirectionalBFSCrawler:
    """BFS crawl of the simulated Google+ over its HTTP front end."""

    def __init__(self, frontend: HttpFrontend, config: CrawlConfig | None = None):
        self.config = config if config is not None else CrawlConfig()
        self.frontend = frontend
        self.pool = MachinePool(
            frontend,
            n_machines=self.config.n_machines,
            request_latency=self.config.request_latency,
            policy=self.config.resilience_policy(),
        )
        #: Extension state riding the checkpoints: providers contribute
        #: a JSON-ready dict per snapshot, restorers get it back on
        #: resume (after the crawl's own control state is restored).
        #: Keyed by extension name; :mod:`repro.serve` registers "serve".
        self.extension_providers: dict = {}
        self.extension_restorers: dict = {}

    def crawl(self, seeds: list[int], hooks: CrawlHooks | None = None) -> CrawlDataset:
        """Run the campaign from the given seed users.

        With ``hooks``, the crawl becomes resumable: state restored from
        ``hooks.resume_state()`` replaces the seeds, and every page /
        checkpoint event is forwarded to the hooks object.
        """
        tracer = trace.get_tracer()
        tracer.bind_clock(self.frontend.clock)
        registry = get_registry()
        frontier_gauge = registry.gauge(
            "crawl.frontier_size", "Users queued for fetching"
        )
        pages_counter = registry.counter("crawl.pages", "Profile pages crawled")
        throughput_gauge = registry.gauge(
            "crawl.pages_per_virtual_second", "Crawl throughput on the virtual clock"
        )
        dead_counter = registry.counter(
            "crawl.dead_letters",
            "Pages dead-lettered after exhausting retries, by failure kind",
            labels=("reason",),
        )
        redrive_counter = registry.counter(
            "crawl.redriven", "Dead-lettered pages recovered by redrive"
        )
        parse_error_counter = registry.counter(
            "crawl.parse_errors", "Fetched pages whose payload failed to parse"
        )
        with tracer.span(
            "crawl.bfs", machines=self.config.n_machines, seeds=len(seeds)
        ):
            if hooks is not None:
                hooks.bind_clock(self.frontend.clock)
            resume = hooks.resume_state() if hooks is not None else None
            frontier = BFSFrontier()
            dead_letters = DeadLetterQueue()
            if resume is not None:
                snapshot = resume.snapshot
                frontier.restore_state(snapshot.frontier)
                self.pool.restore_state(snapshot.pool)
                self.frontend.restore_state(snapshot.frontend)
                dead_letters.restore_state(snapshot.dead_letter)
                for name, restorer in self.extension_restorers.items():
                    extension_state = snapshot.extensions.get(name)
                    if extension_state is not None:
                        restorer(extension_state)
                started = snapshot.started
                profiles = dict(resume.profiles)
                restored_sources = np.asarray(resume.sources, dtype=np.int64)
                restored_targets = np.asarray(resume.targets, dtype=np.int64)
                sources = array("q", restored_sources.tobytes())
                targets = array("q", restored_targets.tobytes())
                # Only an edge with an uncrawled endpoint can be reported
                # again (see ``fresh_keys``); the rest stay out of the set.
                crawled = np.fromiter(profiles, dtype=np.int64, count=len(profiles))
                both_crawled = np.isin(
                    np.concatenate([restored_sources, restored_targets]), crawled
                ).reshape(2, -1).all(axis=0)
                edge_keys = set(
                    (
                        (restored_sources[~both_crawled].astype(np.uint64)
                         << np.uint64(_PACK_BITS))
                        | restored_targets[~both_crawled].astype(np.uint64)
                    ).tolist()
                )
                hooks.on_resume(resume)
            else:
                started = self.frontend.clock.now()
                frontier.add_all(seeds)
                profiles = {}
                sources = array("q")
                targets = array("q")
                edge_keys = set()

            #: Edge columns the page being processed contributed.
            page_sources: list[int] = []
            page_targets: list[int] = []

            def fresh_keys(self_key: int, keys: list[int]) -> list[int]:
                """The never-seen keys among one list's packed edge keys,
                in first-occurrence order (self-loop dropped).

                Key ``u * _PACK + v`` has two reporters, u's out-list and
                v's in-list, and each page is ingested once: a fresh key
                enters ``edge_keys`` and its second report evicts it, so
                the set holds only edges still awaiting their other
                endpoint's page.
                """
                ordered = dict.fromkeys(keys)
                ordered.pop(self_key, None)
                fresh = [key for key in ordered if key not in edge_keys]
                edge_keys.symmetric_difference_update(ordered)
                return fresh

            def ingest(user_id: int, profile: ParsedProfile) -> None:
                """Record one successfully parsed page and fan out its edges.

                Ordering guarantee: ``on_page`` fires *before* the page's
                profile and edges are committed to the in-memory dataset,
                so a durability hook decides the page's fate ahead of any
                observer reading the arrays.  The commit itself runs even
                if the hook raises (a store's injected crash fires *after*
                journaling, so the in-memory cut must keep matching the
                journal for the abort checkpoint to be consistent).
                """
                if user_id in profiles:
                    raise RuntimeError(
                        f"page {user_id} ingested twice; fresh_keys assumes "
                        f"one ingest per page"
                    )
                pages_counter.inc()
                page_sources.clear()
                page_targets.clear()
                self_key = user_id * _PACK + user_id
                if self.config.follow_out_lists and profile.out_list is not None:
                    out_ids = profile.out_list.tolist()
                    base = user_id * _PACK
                    fresh = fresh_keys(self_key, [base + v for v in out_ids])
                    page_sources.extend(repeat(user_id, len(fresh)))
                    page_targets.extend([key - base for key in fresh])
                    frontier.add_all(out_ids)
                if self.config.follow_in_lists and profile.in_list is not None:
                    in_ids = profile.in_list.tolist()
                    fresh = fresh_keys(self_key, [u * _PACK + user_id for u in in_ids])
                    page_sources.extend([key >> _PACK_BITS for key in fresh])
                    page_targets.extend(repeat(user_id, len(fresh)))
                    frontier.add_all(in_ids)
                try:
                    if hooks is not None:
                        hooks.on_page(
                            user_id, profile, list(zip(page_sources, page_targets))
                        )
                finally:
                    profiles[user_id] = profile
                    sources.fromlist(page_sources)
                    targets.fromlist(page_targets)
                if hooks is not None:
                    if hooks.should_checkpoint(len(profiles), self.frontend.clock.now()):
                        # Refresh fleet-health gauges so a checkpoint
                        # observer (the live telemetry layer) reads
                        # breaker/budget state as of this cut, not as of
                        # the end of the previous crawl.
                        publish_fetch_stats(self.pool.combined_stats(), registry)
                        publish_pool_health(self.pool, registry)
                        hooks.on_checkpoint(
                            self._snapshot(
                                frontier, dead_letters, started,
                                len(profiles), len(sources),
                            )
                        )

            parse_attempts = self.config.parse_retries + 1

            def attempt_page(user_id: int, redrive: bool) -> str:
                """Fetch, parse, and ingest one page.

                Returns ``"ok"``, ``"missing"`` (404), or ``"dead"``.  A
                first-time dead letter is queued and journaled here; a
                redrive failure is left for the caller to requeue.
                """
                reason = "fetch"
                for _ in range(parse_attempts):
                    try:
                        page = self.pool.fetch_profile(user_id)
                    except FetchError:
                        reason = "fetch"
                        break
                    if page is None:
                        return "missing"
                    try:
                        profile = parse_profile_page(page)
                    except PageParseError:
                        dead_letters.parse_errors += 1
                        parse_error_counter.inc()
                        reason = "parse"
                        continue
                    ingest(user_id, profile)
                    return "ok"
                if not redrive:
                    dead_letters.add(user_id, reason)
                    dead_counter.inc(reason=reason)
                    if hooks is not None:
                        hooks.on_dead_letter(
                            user_id, reason, self.frontend.clock.now()
                        )
                return "dead"

            max_pages = self.config.max_pages

            def page_cap_reached() -> bool:
                return max_pages is not None and len(profiles) >= max_pages

            finished = False
            try:
                capped = False
                while not capped:
                    # -- BFS drain ------------------------------------------
                    while frontier:
                        if page_cap_reached():
                            capped = True
                            break
                        user_id = frontier.pop()
                        attempt_page(user_id, redrive=False)
                        frontier_gauge.set(len(frontier))
                    if capped:
                        break
                    # -- redrive phase --------------------------------------
                    # Pages that dead-lettered while the server was hostile
                    # get fresh rounds of attempts now that the frontier is
                    # drained — often the ban/outage window has passed.
                    # Round boundaries live in the DeadLetterQueue so a
                    # checkpoint/resume mid-round replays identically.
                    while (
                        len(dead_letters) > 0
                        and dead_letters.rounds_done < self.config.max_redrive_rounds
                    ):
                        if not dead_letters.pending:
                            dead_letters.pending = dead_letters.requeued
                            dead_letters.requeued = []
                        while dead_letters.pending:
                            if page_cap_reached():
                                capped = True
                                break
                            user_id, reason = dead_letters.pending.pop(0)
                            status = attempt_page(user_id, redrive=True)
                            if status == "dead":
                                dead_letters.requeued.append((user_id, reason))
                            elif status == "ok":
                                dead_letters.redriven += 1
                                redrive_counter.inc()
                                if hooks is not None:
                                    hooks.on_redrive(
                                        user_id, self.frontend.clock.now()
                                    )
                        if capped:
                            break
                        dead_letters.rounds_done += 1
                    if capped:
                        break
                    # A redriven page may have discovered new users: go
                    # back to BFS, and grant any still-dead pages a fresh
                    # set of rounds once that work is done.  Both facts
                    # are read from persisted state (frontier, queue), so
                    # a resumed crawl takes the same branch.
                    if len(frontier) > 0:
                        dead_letters.rounds_done = 0
                        continue
                    break
                if not capped:
                    # Rounds are over: whatever is still queued (a
                    # never-started round under max_redrive_rounds=0
                    # included) is permanently failed.
                    dead_letters.failed.extend(dead_letters.pending)
                    dead_letters.failed.extend(dead_letters.requeued)
                    dead_letters.pending = []
                    dead_letters.requeued = []

                fetch_stats = self.pool.combined_stats()
                virtual_duration = self.frontend.clock.now() - started
                if virtual_duration > 0:
                    throughput_gauge.set(fetch_stats.pages_fetched / virtual_duration)
                publish_fetch_stats(fetch_stats, registry)
                publish_pool_health(self.pool, registry)
                dataset = self._build_dataset(
                    frontier, dead_letters, started, profiles, sources, targets
                )
                if hooks is not None:
                    hooks.on_checkpoint(
                        self._snapshot(
                            frontier, dead_letters, started, len(profiles), len(sources)
                        )
                    )
                    finished = True
                    hooks.on_finish(dataset)
            except Exception as error:
                # Lost-work-on-abort guard: persist a best-effort final
                # checkpoint so the campaign resumes from the abort point
                # rather than the last periodic checkpoint, then give
                # observers their abort callbacks.  ``on_finish`` still
                # fires exactly once — here, with the partial dataset.
                if hooks is not None and not finished:
                    try:
                        publish_fetch_stats(self.pool.combined_stats(), registry)
                        publish_pool_health(self.pool, registry)
                    except Exception:
                        pass
                    try:
                        hooks.on_checkpoint(
                            self._snapshot(
                                frontier, dead_letters, started,
                                len(profiles), len(sources),
                            )
                        )
                    except Exception:
                        pass
                    try:
                        hooks.on_abort(error)
                    except Exception:
                        pass
                    finished = True
                    try:
                        hooks.on_finish(
                            self._build_dataset(
                                frontier, dead_letters, started,
                                profiles, sources, targets,
                            )
                        )
                    except Exception:
                        pass
                raise
        return dataset

    def _build_dataset(
        self,
        frontier: BFSFrontier,
        dead_letters: DeadLetterQueue,
        started: float,
        profiles: dict[int, ParsedProfile],
        sources: array,
        targets: array,
    ) -> CrawlDataset:
        """Materialise the dataset for the pages crawled so far."""
        fetch_stats = self.pool.combined_stats()
        stats = CrawlStats(
            pages_fetched=fetch_stats.pages_fetched,
            not_found=fetch_stats.not_found,
            throttled=fetch_stats.throttled,
            server_errors=fetch_stats.server_errors,
            virtual_duration=self.frontend.clock.now() - started,
            n_machines=self.config.n_machines,
            discovered=frontier.n_discovered,
            banned=fetch_stats.banned,
            timeouts=fetch_stats.timeouts,
            slow_responses=fetch_stats.slow_responses,
            parse_errors=dead_letters.parse_errors,
            dead_lettered=len(dead_letters.failed) + len(dead_letters),
            redriven=dead_letters.redriven,
        )
        return CrawlDataset(
            profiles=profiles,
            sources=np.frombuffer(sources, dtype=np.int64).copy(),
            targets=np.frombuffer(targets, dtype=np.int64).copy(),
            stats=stats,
        )

    def _snapshot(
        self,
        frontier: BFSFrontier,
        dead_letters: DeadLetterQueue,
        started: float,
        n_pages: int,
        n_edges: int,
    ) -> CrawlSnapshot:
        return CrawlSnapshot(
            started=started,
            virtual_now=self.frontend.clock.now(),
            n_pages=n_pages,
            n_edges=n_edges,
            frontier=frontier.export_state(),
            pool=self.pool.export_state(),
            frontend=self.frontend.export_state(),
            config={
                "n_machines": self.config.n_machines,
                "request_latency": self.config.request_latency,
                "follow_in_lists": self.config.follow_in_lists,
                "follow_out_lists": self.config.follow_out_lists,
            },
            dead_letter=dead_letters.export_state(),
            extensions={
                name: provider()
                for name, provider in sorted(self.extension_providers.items())
            },
        )
