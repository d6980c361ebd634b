"""The four end-to-end workloads and their correctness checks.

Every workload is one single-threaded process in a closed loop.  The
crawler and the load generator run on virtual time, so wall time
measures only CPU work.  Each workload function

1. sets up ``SETUP_REPS`` times (``setup_s`` is the median),
2. repeats its *job* until ``seconds`` of wall time have passed, and at
   least twice so outputs can be compared across repetitions,
3. checks its outputs after the timed section has stopped.

All four use the fast engine and the columnar store, the production
path.  A traced run alternates traced and untraced jobs, traced first
so peak-RSS rises are seen while the heap still grows: traced jobs give
the per-layer numbers, untraced ones the tracing overhead.
"""

from __future__ import annotations

import hashlib
from array import array
import json
import os
import resource
import shutil
import time
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from layers import (
    COMPUTED_METRICS,
    LayerTracer,
    MODULE_TARGETS,
    SERVICE_METHODS,
    span_metrics,
)
from summary import percentile, quartiles
from repro.core.pipeline import MeasurementStudy, StudyConfig
from repro.crawler.bfs import BidirectionalBFSCrawler, CrawlHooks, HookChain
from repro.experiments import run_experiments
from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.platform.http import SimulatedClock
from repro.serve import EventClock, build_traffic, page_to_bytes
from repro.store.atomio import StoreIO
from repro.store.campaign import (
    CampaignConfig,
    CampaignStore,
    CrawlCampaign,
    SimulatedCrash,
    dataset_diff,
)
from repro.synth import WorldConfig, build_world

#: Scratch space for campaign directories, inside the checkout.
WORK_ROOT = Path(__file__).resolve().parents[2] / ".e2e_work"
#: World size of every workload: the 20k rung of the scale ladder, the
#: largest at which the study job still repeats within one run.
N_USERS = 20_000
SETUP_REPS = 3
#: Next world seed to try when a seed's crawl seed user hides both
#: circle lists (about 2% of seeds; the crawl would stop after 1 page).
SEED_STRIDE = 1_000_003
#: The campaign crashes halfway and checkpoints twenty times.
CRASH_FRACTION = 0.5
CHECKPOINTS = 20
SERVE_CLIENTS = 1_500
SERVE_THINK_MEAN = 0.05
SERVE_WARMUP = 20_000
#: Requests per serving job.
SERVE_BATCH = 10_000
#: (owner, viewer) pairs whose cached page is compared with a fresh render.
SERVE_CHECK_PAIRS = 300


@dataclass
class Outcome:
    """One run of one workload."""

    #: End-to-end metrics (untraced run) or per-layer metrics (traced).
    metrics: dict[str, float]
    #: metric -> [q1, median, q3, samples] behind each end-to-end
    #: metric; q1 and q3 are None where the value is not a median.
    spread: dict[str, list]
    attempted: int
    failed: int
    problems: list[str]
    detail: dict = field(default_factory=dict)


def world_config(n_users: int, seed: int) -> WorldConfig:
    return WorldConfig(n_users=n_users, seed=seed, engine="fast", store="columnar")


def crawl_seed_visible(world) -> bool:
    """Whether the crawl's seed user shows its circle lists."""
    return bool(world.profiles[world.seed_user_id()].lists_public)


#: Program spans read after each set-up, by per-layer metric name.
_SYNTH_SPANS = {
    "synth.build_world": "synth.build_s",
    "synth.graphgen": "synth.graphgen_s",
    "synth.profiles": "synth.profiles_s",
    "synth.service": "synth.service_s",
}


def setup(n_users: int, seed: int, make):
    """Run ``make(world_config) -> (state, world)`` ``SETUP_REPS`` times.

    Returns the last state, the set-up seconds of each repetition, the
    world seed used, and the synth spans' mean wall seconds.  A seed
    whose crawl seed user hides its lists is replaced, untimed, by the
    next one in ``SEED_STRIDE`` steps.
    """
    times: list[float] = []
    synth = dict.fromkeys(_SYNTH_SPANS.values(), 0.0)
    while len(times) < SETUP_REPS:
        state = world = None  # free the previous world before building the next
        trace.reset()
        started = perf_counter()
        state, world = make(world_config(n_users, seed))
        elapsed = perf_counter() - started
        if not crawl_seed_visible(world):
            seed += SEED_STRIDE
            continue
        times.append(elapsed)
        for span in trace.summary():
            if span.name in _SYNTH_SPANS:
                synth[_SYNTH_SPANS[span.name]] += span.wall_seconds / SETUP_REPS
    return state, times, seed, synth


def crawl_coverage_problems(dataset, cap: int, world_seed: int) -> list[str]:
    """The study crawl must stop exactly at its page cap."""
    if dataset.n_profiles == cap:
        return []
    return [
        f"world seed {world_seed}: crawl fetched {dataset.n_profiles} of its "
        f"{cap}-page cap (does the seed user hide its circle lists?)"
    ]


class PageClock(CrawlHooks):
    """The crawl client's stopwatch: stamps every ingested page."""

    def __init__(self) -> None:
        self.stamps: list[float] = []

    def on_page(self, user_id, profile, new_edges) -> None:
        self.stamps.append(perf_counter())


def _intervals(start: float | None, stamps: list[float]) -> np.ndarray:
    points = ([start] if start is not None else []) + stamps
    return np.diff(np.asarray(points))


def _edge_digest(dataset) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.sources, dtype=np.int64).tobytes())
    digest.update(np.ascontiguousarray(dataset.targets, dtype=np.int64).tobytes())
    return digest.hexdigest()


def _crawl_counts(dataset) -> dict[str, float]:
    stats = dataset.stats
    entries = sum(
        len(p.in_list or ()) + len(p.out_list or ()) for p in dataset.profiles.values()
    )
    return {
        "crawler.pages": dataset.n_profiles,
        "crawler.list_entries": entries,
        "crawler.new_edges": dataset.n_edges,
        "crawler.dedup_yield": dataset.n_edges / entries if entries else 0.0,
        "crawler.retries": stats.throttled + stats.server_errors + stats.timeouts
        + stats.banned,
        "crawler.dead_letters": stats.dead_lettered,
    }


def _crawl_failures(dataset) -> tuple[int, int]:
    """(attempted, failed) pages: dead-lettered plus parse-failed fail."""
    failed = dataset.stats.dead_lettered + dataset.stats.parse_errors
    return dataset.n_profiles + failed, failed


def _bfs_sources() -> float:
    counter = get_registry().get("graph.bfs_sources")
    return sum(sample["value"] for sample in counter.samples()) if counter else 0.0


def _wrap_service(tracer: LayerTracer, service) -> None:
    for method in SERVICE_METHODS:
        tracer.wrap(service, method, f"service.{method}")


@contextmanager
def _traced(tracer: LayerTracer | None):
    """Wrap the module targets and open the job's root span."""
    if tracer is None:
        yield
        return
    with tracer.wrapped(MODULE_TARGETS), tracer.span("job"):
        yield


def _span(tracer: LayerTracer | None, name: str):
    return tracer.span(name) if tracer is not None else nullcontext()


@dataclass
class Timed:
    """The timed section of one run."""

    records: list[dict]
    #: The tracer shared by the traced jobs; None in an untraced run.
    tracer: LayerTracer | None
    cpu_s: float
    wall_s: float
    #: This process's ``ru_maxrss`` when the timed section ended, before
    #: the checks allocate anything.
    peak_rss_mb: float


def _repeat(job, seconds: float, traced: bool) -> Timed:
    """Run ``job(tracer)`` for ``seconds``, and at least twice."""
    tracer = LayerTracer() if traced else None
    records = []
    wall0, cpu0 = perf_counter(), time.process_time()
    while len(records) < 2 or perf_counter() - wall0 < seconds:
        job_tracer = tracer if traced and len(records) % 2 == 0 else None
        record = job(job_tracer)
        record["traced"] = job_tracer is not None
        records.append(record)
    return Timed(
        records,
        tracer,
        time.process_time() - cpu0,
        perf_counter() - wall0,
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    )


def _finish(timed: Timed, setup_times, synth, **fields) -> Outcome:
    """End-to-end metrics (untraced run) or per-layer ones (traced run).

    Each job record carries ``job_s``, its ``units`` of work done in
    ``busy_s``, the per-unit ``latencies`` in seconds, and ``layers``
    numbers.  Per-layer values are per traced job; the tail latency
    comes from the untraced jobs of the traced run.
    """
    records, tracer = timed.records, timed.tracer
    detail = fields.pop("detail")
    detail["job_s"] = [r["job_s"] for r in records]
    untraced = [r for r in records if not r["traced"]]
    latencies_us = 1e6 * np.concatenate([r["latencies"] for r in untraced])
    if tracer is None:
        spread = {
            "setup_s": [*quartiles(setup_times), len(setup_times)],
            "peak_rss_mb": [None, timed.peak_rss_mb, None, 1],
            "job_s": [*quartiles([r["job_s"] for r in records]), len(records)],
            "rate_per_s": [
                *quartiles([r["units"] / r["busy_s"] for r in records]),
                len(records),
            ],
        }
        p25, p75 = np.percentile(latencies_us, [25, 75])
        spread["p50_us"] = [p25, percentile(latencies_us, 50), p75, len(latencies_us)]
        metrics = {name: row[1] for name, row in spread.items()}
        return Outcome(metrics, spread, detail=detail, **fields)
    traced = [r for r in records if r["traced"]]
    metrics = dict.fromkeys(COMPUTED_METRICS, 0.0)
    metrics.update(synth)
    for name in traced[0]["layers"]:
        metrics[name] = sum(r["layers"][name] for r in traced) / len(traced)
    metrics.update(span_metrics(tracer, len(traced)))
    metrics["latency.p99_us"] = percentile(latencies_us, 99)
    metrics["analysis.rss_step_mb"] = tracer.rss_step[0] / 1024.0
    metrics["host.cpu_s"] = timed.cpu_s
    metrics["host.cpu_wall_ratio"] = timed.cpu_s / timed.wall_s
    metrics["trace.overhead_frac"] = (
        quartiles([r["job_s"] for r in traced])[1]
        / quartiles([r["job_s"] for r in untraced])[1]
        - 1.0
    )
    detail["spans"] = tracer.table()
    detail["missing"] = tracer.missing
    detail["rss_step_span"] = tracer.rss_step[1]
    return Outcome(metrics, {}, detail=detail, **fields)


# -- study ---------------------------------------------------------------------


def study(seed: int, seconds: float, traced: bool = False, n_users: int = N_USERS):
    """World -> in-memory crawl at the paper's crawl fraction -> CSR ->
    every analysis -> every rendered artifact."""

    def make(config):
        runner = MeasurementStudy(StudyConfig(world=config, seed=config.seed))
        return runner, runner.world

    runner, setup_times, world_seed, synth = setup(n_users, seed, make)
    cap = int(n_users * runner.config.crawl_fraction)
    # Rendering ext_diffusion publishes posts into the world, so every
    # job after the first gets a freshly built one (outside the timing).
    fresh = [runner]

    def job(tracer):
        runner = fresh.pop() if fresh else make(world_config(n_users, world_seed))[0]
        world = runner.world
        clock = PageClock()
        sources0 = _bfs_sources()
        with _traced(tracer):
            if tracer is not None:
                _wrap_service(tracer, world.service)
            started = perf_counter()
            dataset = runner.crawl(hooks=clock)
            crawled = perf_counter()
            if tracer is not None:
                tracer.wrap(dataset, "to_csr", "graph.freeze")
            results = runner.run(dataset=dataset)
            with _span(tracer, "experiments.render"):
                artifacts = run_experiments(results)
            finished = perf_counter()
        return {
            "job_s": finished - started,
            "busy_s": crawled - started,
            "units": dataset.n_profiles,
            "latencies": _intervals(started, clock.stamps),
            "edges": _edge_digest(dataset),
            "artifacts": {k: hashlib.sha256(v.encode()).hexdigest() for k, v in artifacts.items()},
            "empty": sorted(k for k, v in artifacts.items() if not v.strip()),
            "coverage": crawl_coverage_problems(dataset, cap, world_seed),
            "failures": _crawl_failures(dataset),
            "layers": {
                **_crawl_counts(dataset),
                "graph.bfs_sources": _bfs_sources() - sources0,
            },
        }

    timed = _repeat(job, seconds, traced)
    records = timed.records
    problems = []
    for record in records:
        problems.extend(record["coverage"])
    if len({r["edges"] for r in records}) != 1:
        problems.append("crawl edge arrays differ across repetitions")
    if len({json.dumps(r["artifacts"], sort_keys=True) for r in records}) != 1:
        problems.append("rendered artifacts differ across repetitions")
    empty = sorted({name for r in records for name in r["empty"]})
    if empty:
        problems.append(f"empty artifacts: {empty}")
    return _finish(
        timed,
        setup_times,
        synth,
        attempted=sum(r["failures"][0] for r in records),
        failed=sum(r["failures"][1] for r in records),
        problems=problems,
        detail={"world_seed": world_seed, "n_users": n_users, "page_cap": cap},
    )


# -- campaign ------------------------------------------------------------------


def _store_bytes(directory: Path) -> int:
    paths = [directory / "journal.wal"]
    for sub in ("segments", "checkpoints"):
        paths.extend(p for p in (directory / sub).iterdir() if p.is_file())
    return sum(p.stat().st_size for p in paths)


def _archive_digest(archive: Path) -> str:
    digest = hashlib.sha256()
    with np.load(archive / "edges.npz") as edges:
        for key in ("sources", "targets"):
            digest.update(np.ascontiguousarray(edges[key]).tobytes())
    for name in ("profiles.jsonl", "stats.json"):
        digest.update((archive / name).read_bytes())
    return digest.hexdigest()


def _wrap_store(tracer: LayerTracer, store: CampaignStore) -> None:
    tracer.wrap(store, "on_page", "store.on_page")
    tracer.wrap(store, "on_checkpoint", "store.on_checkpoint")
    tracer.wrap(store.journal, "append", "journal.append")
    tracer.wrap(store.journal, "flush", "journal.flush")
    tracer.wrap(store.segments, "extend", "segments.extend")
    tracer.wrap(store.segments, "seal", "segments.seal")


def _store_io(tracer: LayerTracer | None) -> StoreIO:
    io = StoreIO()
    if tracer is not None:
        for method in ("fsync", "fsync_dir", "published"):
            tracer.wrap(io, method, f"io.{method}")
    return io


def campaign(seed: int, seconds: float, traced: bool = False, n_users: int = N_USERS):
    """A durable full crawl that crashes halfway, resumes in a fresh
    ``CampaignStore`` on the same world, and compacts its archive."""

    def make(config):
        world = build_world(config)
        return world, world

    world, setup_times, world_seed, synth = setup(n_users, seed, make)
    config = CampaignConfig(
        n_users=n_users,
        seed=world_seed,
        engine="fast",
        store="columnar",
        checkpoint_every_pages=n_users // CHECKPOINTS,
    )
    crash_after = int(n_users * CRASH_FRACTION)
    # Inside the checkout, one directory per process; each job removes
    # its campaign before the next one starts.
    directory = WORK_ROOT / f"campaign-{os.getpid()}"
    shutil.rmtree(directory, ignore_errors=True)
    last: dict = {}

    def job(tracer):
        world.clock = SimulatedClock()
        first, second = PageClock(), PageClock()
        problems = []
        with _traced(tracer):
            if tracer is not None:
                _wrap_service(tracer, world.service)
            started = perf_counter()
            store = CampaignStore(
                directory, config, crash_after_pages=crash_after, io=_store_io(tracer)
            )
            if tracer is not None:
                _wrap_store(tracer, store)
            crawler = BidirectionalBFSCrawler(world.frontend(), config.crawl_config())
            try:
                crawler.crawl([world.seed_user_id()], hooks=HookChain(store, first))
                problems.append("the injected crash did not fire")
            except SimulatedCrash:
                pass
            crashed = perf_counter()
            with _span(tracer, "store.recover"):
                store = CampaignStore(directory, config, io=_store_io(tracer))
            recovered = perf_counter()
            if tracer is not None:
                _wrap_store(tracer, store)
            crawler = BidirectionalBFSCrawler(world.frontend(), config.crawl_config())
            dataset = crawler.crawl([world.seed_user_id()], hooks=HookChain(store, second))
            resumed = perf_counter()
            with _span(tracer, "store.compact"):
                archive = CrawlCampaign(directory, config).compact()
            finished = perf_counter()
        store_bytes = _store_bytes(directory)
        digest = _archive_digest(archive)
        shutil.rmtree(directory)
        last["dataset"] = dataset
        resume_s = second.stamps[0] - crashed if second.stamps else 0.0
        layers = _crawl_counts(dataset)
        layers["store.resume_s"] = resume_s
        layers["store.restore_s"] = resume_s - (recovered - crashed)
        layers["store.bytes_per_edge"] = store_bytes / max(1, dataset.n_edges)
        return {
            "job_s": finished - started,
            "busy_s": (crashed - started) + (resumed - recovered),
            "units": len(first.stamps) + len(second.stamps),
            "latencies": np.concatenate(
                [_intervals(started, first.stamps), _intervals(None, second.stamps)]
            ),
            "archive": digest,
            "problems": problems,
            "coverage": dataset.n_profiles,
            "failures": _crawl_failures(dataset),
            "layers": layers,
        }

    try:
        timed = _repeat(job, seconds, traced)
    finally:
        shutil.rmtree(directory, ignore_errors=True)
    records = timed.records

    problems = [p for r in records for p in r["problems"]]
    short = [r["coverage"] for r in records if r["coverage"] < 0.99 * n_users]
    if short:
        problems.append(f"campaign covered only {min(short)} of {n_users} users")
    if len({r["archive"] for r in records}) != 1:
        problems.append("archive digests differ across repetitions")
    world.clock = SimulatedClock()
    reference = BidirectionalBFSCrawler(world.frontend(), config.crawl_config()).crawl(
        [world.seed_user_id()]
    )
    diff = dataset_diff(last["dataset"], reference)
    if diff:
        problems.append(f"resumed crawl differs from an uninterrupted one: {diff}")
    return _finish(
        timed,
        setup_times,
        synth,
        attempted=sum(r["failures"][0] for r in records),
        failed=sum(r["failures"][1] for r in records),
        problems=problems,
        detail={
            "world_seed": world_seed,
            "n_users": n_users,
            "crash_after_pages": crash_after,
            "resume_s": [r["layers"]["store.resume_s"] for r in records],
        },
    )


# -- serving -------------------------------------------------------------------


def _serve(mix: str):
    def serve(seed: int, seconds: float, traced: bool = False, n_users: int = N_USERS):
        def make(config):
            world = build_world(config)
            clock = EventClock(world.clock.now())
            world.clock = clock
            traffic = build_traffic(
                world.service,
                clock,
                {
                    "n_clients": SERVE_CLIENTS,
                    "seed": config.seed,
                    "mix": mix,
                    "think_mean": SERVE_THINK_MEAN,
                },
            )
            traffic.run_requests(SERVE_WARMUP)
            warm_digests.append((config.seed, traffic.trace_digest))
            return (world, traffic), world

        warm_digests: list[tuple[int, str]] = []
        (world, traffic), setup_times, world_seed, synth = setup(n_users, seed, make)
        warm_digests = [d for s, d in warm_digests if s == world_seed]
        stack, cache = traffic.stack, traffic.cache
        latencies = array("d")
        serve_call = stack.serve

        def stopwatch(request):
            started = perf_counter()
            try:
                return serve_call(request)
            finally:
                latencies.append(perf_counter() - started)

        stack.serve = stopwatch
        statuses0 = dict(traffic.status_counts)

        def job(tracer):
            before = cache.stats()
            requests0, latencies0 = traffic.n_requests, len(latencies)
            stack_s = 0.0
            with _traced(tracer):
                if tracer is not None:
                    _wrap_service(tracer, world.service)
                    tracer.wrap(stack, "serve", "serve.stack")
                    tracer.wrap(cache, "lookup", "serve.lookup")
                    stack_s = -tracer.total(("serve.stack",), "wall")
                started = perf_counter()
                traffic.run_requests(SERVE_BATCH)
                finished = perf_counter()
                if tracer is not None:
                    stack_s += tracer.total(("serve.stack",), "wall")
            after = cache.stats()
            hits, misses = after["hits"] - before["hits"], after["misses"] - before["misses"]
            return {
                "job_s": finished - started,
                "busy_s": finished - started,
                "units": traffic.n_requests - requests0,
                "latencies": np.frombuffer(latencies[latencies0:]),
                "layers": {
                    "serve.loadgen_s": finished - started - stack_s,
                    "serve.hit_rate": hits / (hits + misses),
                    "serve.evictions": after["evictions"] - before["evictions"],
                    "serve.invalidations": after["invalidations"] - before["invalidations"],
                },
            }

        timed = _repeat(job, seconds, traced)
        stack.serve = serve_call

        problems = []
        if len(set(warm_digests)) != 1:
            problems.append(f"warm-up trace digests differ across set-ups: {warm_digests}")
        statuses = {
            status: count - statuses0.get(status, 0)
            for status, count in traffic.status_counts.items()
        }
        problems.extend(_stale_pages(world.service, cache, traffic, world_seed))
        attempted = sum(statuses.values())
        return _finish(
            timed,
            setup_times,
            synth,
            attempted=attempted,
            # A 404 is the right answer to a circle edit naming the
            # client itself; throttles and server errors are failures.
            failed=attempted - statuses.get("200", 0) - statuses.get("404", 0),
            problems=problems,
            detail={
                "world_seed": world_seed,
                "n_users": n_users,
                "mix": mix,
                "statuses": statuses,
                "warmup_digest": warm_digests[-1],
                "trace_digest": traffic.trace_digest,
            },
        )

    return serve


def _stale_pages(service, cache, traffic, seed: int) -> list[str]:
    """Cached pages must be byte-identical to a fresh uncached render."""
    rng = np.random.default_rng(seed)
    owners = sorted({key[0] for key in cache.keys()})
    viewers = traffic.client_user_ids
    stale = 0
    for _ in range(SERVE_CHECK_PAIRS):
        owner = owners[int(rng.integers(len(owners)))]
        viewer = viewers[int(rng.integers(len(viewers)))]
        cached, _ = cache.lookup(owner, viewer)
        if page_to_bytes(cached) != page_to_bytes(service.profile_page(owner, viewer)):
            stale += 1
    return [f"{stale} of {SERVE_CHECK_PAIRS} cached pages differ from a fresh render"] if stale else []


#: Workload name -> function(seed, seconds, traced, n_users).
WORKLOADS = {
    "study_20k": study,
    "campaign_20k": campaign,
    "serve_read_20k": _serve("read_heavy"),
    "serve_mixed_20k": _serve("mixed"),
}
