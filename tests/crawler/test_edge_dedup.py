"""The crawler's edge dedup against a full-set oracle.

The crawler keeps a packed edge key only until its second report: key
``u -> v`` has two reporters (u's out-list and v's in-list) and each page
is ingested once.  The oracle below keeps every key it has ever seen, as
the crawler once did, and must yield the same edge arrays on worlds with
a lowered display cap, hidden lists, a page cap, each list direction and
a resume cut at a random page.
"""

from __future__ import annotations

import gc
import json
import tracemalloc
from dataclasses import replace
from typing import NamedTuple

import numpy as np
import pytest

from repro.crawler.bfs import (
    BidirectionalBFSCrawler,
    CrawlConfig,
    CrawlHooks,
    CrawlSnapshot,
    ResumeState,
)
from repro.synth import WorldConfig, build_world
from repro.synth.config import ProfileGenConfig


def full_set_edges(pages, follow_in: bool, follow_out: bool):
    """Edge arrays of a crawl that never forgets a seen edge."""
    seen: set[tuple[int, int]] = set()
    sources: list[int] = []
    targets: list[int] = []

    def report(u: int, v: int) -> None:
        if u != v and (u, v) not in seen:
            seen.add((u, v))
            sources.append(u)
            targets.append(v)

    for user_id, profile in pages:
        if follow_out and profile.out_list is not None:
            for v in profile.out_list:
                report(user_id, v)
        if follow_in and profile.in_list is not None:
            for u in profile.in_list:
                report(u, user_id)
    return np.array(sources, dtype=np.int64), np.array(targets, dtype=np.int64)


class Recorder(CrawlHooks):
    """Records pages in ingest order; optionally cuts a resume state."""

    def __init__(self, cut_at: int | None = None, resume: ResumeState | None = None):
        self.pages: list = []
        self.edges: list[tuple[int, int]] = []
        self.cut_at = cut_at
        self.cut: ResumeState | None = None
        self._resume = resume

    def resume_state(self):
        return self._resume

    def on_page(self, user_id, profile, new_edges) -> None:
        self.pages.append((user_id, profile))
        self.edges.extend(new_edges)

    def should_checkpoint(self, n_pages, virtual_now) -> bool:
        return n_pages == self.cut_at

    def on_checkpoint(self, snapshot) -> None:
        if self.cut is None and snapshot.n_pages == self.cut_at:
            # Round-trip through JSON, as a durable store does.
            restored = CrawlSnapshot.from_json_dict(
                json.loads(json.dumps(snapshot.to_json_dict()))
            )
            self.cut = ResumeState(
                snapshot=restored,
                profiles=dict(self.pages),
                sources=np.array([u for u, _ in self.edges], dtype=np.int64),
                targets=np.array([v for _, v in self.edges], dtype=np.int64),
            )


class Scenario(NamedTuple):
    world: WorldConfig
    crawl: CrawlConfig
    seeds: list[int]
    rng: np.random.Generator


def scenario(seed: int) -> Scenario:
    """A small world, crawl config and crawl seeds drawn at random from
    ``seed`` (several crawl seeds, as lists may be hidden)."""
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(250, 450))
    world_config = WorldConfig(
        n_users=n_users,
        seed=seed,
        engine="fast",
        circle_display_limit=int(rng.integers(3, 30)),
        profiles=ProfileGenConfig(private_lists_prob=float(rng.uniform(0.05, 0.4))),
    )
    follow_in, follow_out = [(True, True), (True, False), (False, True)][seed % 3]
    max_pages = None if rng.random() < 0.5 else int(rng.integers(20, 200))
    crawl_config = CrawlConfig(
        n_machines=2,
        request_latency=0.0,
        max_pages=max_pages,
        follow_in_lists=follow_in,
        follow_out_lists=follow_out,
    )
    seeds = rng.choice(n_users, size=4, replace=False).tolist()
    return Scenario(world_config, crawl_config, seeds, rng)


def run(drawn: Scenario, hooks):
    world = build_world(drawn.world)
    crawler = BidirectionalBFSCrawler(
        world.frontend(rate_per_ip=1e9, burst=1e9), drawn.crawl
    )
    return crawler.crawl(drawn.seeds, hooks=hooks)


@pytest.mark.parametrize("seed", range(9))
def test_edges_match_the_full_set_oracle(seed):
    drawn = scenario(seed)
    recorder = Recorder()
    dataset = run(drawn, recorder)
    sources, targets = full_set_edges(
        recorder.pages, drawn.crawl.follow_in_lists, drawn.crawl.follow_out_lists
    )
    assert len(sources) > 0
    assert np.array_equal(dataset.sources, sources)
    assert np.array_equal(dataset.targets, targets)

    # Resume from a state cut at a random page: same pages, same edges.
    cut_at = int(drawn.rng.integers(1, dataset.n_profiles))
    first = Recorder(cut_at=cut_at)
    run(drawn, first)
    assert first.cut is not None
    resumed = run(drawn, Recorder(resume=first.cut))
    assert list(resumed.profiles) == list(dataset.profiles)
    assert np.array_equal(resumed.sources, sources)
    assert np.array_equal(resumed.targets, targets)


def test_resume_from_lists_of_ints():
    """A resume state may carry plain int lists for its edge columns."""
    drawn = scenario(0)
    drawn = drawn._replace(crawl=replace(drawn.crawl, max_pages=None))
    dataset = run(drawn, None)
    first = Recorder(cut_at=dataset.n_profiles // 2)
    run(drawn, first)
    cut = first.cut
    cut.sources, cut.targets = cut.sources.tolist(), cut.targets.tolist()
    resumed = run(drawn, Recorder(resume=cut))
    assert np.array_equal(resumed.sources, dataset.sources)
    assert np.array_equal(resumed.targets, dataset.targets)


def test_a_page_is_ingested_once():
    """Re-ingesting a page would report its keys a third time: refused."""
    drawn = scenario(0)
    first = Recorder(cut_at=5)
    run(drawn, first)
    cut = first.cut
    queued = cut.snapshot.frontier["queue"][0]
    # A corrupt resume state whose queue names an already crawled page.
    cut.profiles[queued] = next(iter(cut.profiles.values()))
    with pytest.raises(RuntimeError, match="ingested twice"):
        run(drawn, Recorder(resume=cut))


def test_retained_lists_cost_at_most_8_bytes_per_entry():
    """The study-shaped crawl (20k users, 15,600 pages) keeps its shown
    list entries in at most 8 bytes each, array headers included."""
    world = build_world(WorldConfig(n_users=20_000, seed=5, engine="fast"))
    crawler = BidirectionalBFSCrawler(
        world.frontend(rate_per_ip=1e9, burst=1e9),
        CrawlConfig(n_machines=2, request_latency=0.0, max_pages=15_600),
    )
    tracemalloc.start()
    try:
        dataset = crawler.crawl([world.seed_user_id()])
        profiles = list(dataset.profiles.values())
        entries = sum(
            len(p.in_list or ()) + len(p.out_list or ()) for p in profiles
        )
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
        for profile in profiles:  # drop the lists, keep everything else
            object.__setattr__(profile, "in_list", None)
            object.__setattr__(profile, "out_list", None)
        gc.collect()
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert entries > 10 * len(profiles)
    assert freed / entries <= 8.0
