"""Tests for the bidirectional BFS crawler against the simulated service."""

from array import array

import numpy as np
import pytest

from repro.crawler.bfs import BidirectionalBFSCrawler, CrawlConfig, CrawlHooks
from repro.crawler.parse import ParsedProfile
from repro.platform.pages import CircleListView
from repro.synth import build_world, WorldConfig


class TestFullCrawl:
    def test_recovers_nearly_all_edges(self, small_world, small_crawl):
        # A full bidirectional crawl misses only edges adjacent to users
        # who hide both their lists and whose partners hide theirs too.
        recall = small_crawl.n_edges / small_world.graph.n_edges
        assert recall > 0.97

    def test_all_edges_are_true_edges(self, small_world, small_crawl):
        truth = set(
            zip(
                small_world.graph.sources.tolist(),
                small_world.graph.targets.tolist(),
            )
        )
        crawled = set(
            zip(small_crawl.sources.tolist(), small_crawl.targets.tolist())
        )
        assert crawled <= truth

    def test_reaches_every_user(self, small_world, small_crawl):
        assert small_crawl.n_profiles == small_world.n_users

    def test_stats_populated(self, small_crawl):
        assert small_crawl.stats.pages_fetched == small_crawl.n_profiles
        assert small_crawl.stats.virtual_duration > 0
        assert small_crawl.stats.n_machines == 4

    def test_deterministic(self, small_world):
        def crawl():
            crawler = BidirectionalBFSCrawler(
                small_world.frontend(), CrawlConfig(n_machines=4)
            )
            return crawler.crawl([small_world.seed_user_id()])

        a, b = crawl(), crawl()
        assert np.array_equal(a.sources, b.sources)
        assert list(a.profiles) == list(b.profiles)


class TestPartialCrawl:
    def test_max_pages_stops_crawl(self, small_world):
        crawler = BidirectionalBFSCrawler(
            small_world.frontend(), CrawlConfig(n_machines=2, max_pages=200)
        )
        dataset = crawler.crawl([small_world.seed_user_id()])
        assert dataset.n_profiles == 200
        # The graph still contains uncrawled endpoints seen in lists.
        assert len(dataset.node_ids()) > 200

    def test_bfs_order_prefers_seed_neighborhood(self, small_world):
        crawler = BidirectionalBFSCrawler(
            small_world.frontend(), CrawlConfig(n_machines=2, max_pages=50)
        )
        seed = small_world.seed_user_id()
        dataset = crawler.crawl([seed])
        assert seed in dataset.profiles


class TestListDirections:
    @pytest.fixture(scope="class")
    def world(self):
        return build_world(WorldConfig(n_users=600, seed=41))

    def test_out_only_misses_edges(self, world):
        both = BidirectionalBFSCrawler(
            world.frontend(), CrawlConfig(n_machines=2)
        ).crawl([world.seed_user_id()])
        out_only = BidirectionalBFSCrawler(
            world.frontend(), CrawlConfig(n_machines=2, follow_in_lists=False)
        ).crawl([world.seed_user_id()])
        assert out_only.n_edges <= both.n_edges

    def test_at_least_one_direction_required(self):
        with pytest.raises(ValueError):
            CrawlConfig(follow_in_lists=False, follow_out_lists=False)

    def test_display_cap_recovery(self):
        """With a tiny display cap, bidirectional crawling still recovers
        most truncated in-edges from the other side's out-lists."""
        world = build_world(
            WorldConfig(n_users=800, seed=19, circle_display_limit=50)
        )
        dataset = BidirectionalBFSCrawler(
            world.frontend(), CrawlConfig(n_machines=2)
        ).crawl([world.seed_user_id()])
        recall = dataset.n_edges / world.graph.n_edges
        assert recall > 0.95


class PageLog(CrawlHooks):
    def __init__(self) -> None:
        self.pages: list[tuple[int, ParsedProfile, list]] = []

    def on_page(self, user_id, profile, new_edges) -> None:
        self.pages.append((user_id, profile, new_edges))


def per_entry_edges(pages, follow_in=True, follow_out=True):
    """The per-entry dedup loop the crawler batches: one set probe per
    list entry, self-loops skipped.  Yields each page's new edges."""
    seen = set()
    for user_id, profile, _ in pages:
        edges = []
        candidates = []
        if follow_out and profile.out_list is not None:
            candidates += [(user_id, v) for v in profile.out_list]
        if follow_in and profile.in_list is not None:
            candidates += [(u, user_id) for u in profile.in_list]
        for u, v in candidates:
            if u != v and (u, v) not in seen:
                seen.add((u, v))
                edges.append((u, v))
        yield edges


class TestBatchedEdgeDedup:
    """Per-list batched dedup yields exactly the per-entry loop's edges,
    page by page, even for lists holding repeats and the owner itself."""

    @pytest.fixture(scope="class")
    def noisy_world(self):
        world = build_world(WorldConfig(n_users=800, seed=29, engine="fast"))
        service = world.service
        honest = service.circle_lists

        def noisy(user_id):
            # Repeat an entry and list the owner in both of its lists.
            lists = []
            for view in honest(user_id):
                ids = view.user_ids + view.user_ids[:1] + array("I", [user_id])
                lists.append(CircleListView(ids, view.declared_count + 2))
            return tuple(lists)

        service.circle_lists = noisy
        return world

    @pytest.mark.parametrize(
        "follow", [(True, True), (True, False), (False, True)], ids=str
    )
    def test_new_edges_match_the_per_entry_loop(self, noisy_world, follow):
        follow_in, follow_out = follow
        log = PageLog()
        dataset = BidirectionalBFSCrawler(
            noisy_world.frontend(),
            CrawlConfig(
                n_machines=2, follow_in_lists=follow_in, follow_out_lists=follow_out
            ),
        ).crawl([noisy_world.seed_user_id()], hooks=log)
        assert any(uid in (p.out_list or ()) for uid, p, _ in log.pages)
        expected = list(per_entry_edges(log.pages, follow_in, follow_out))
        assert [edges for _, _, edges in log.pages] == expected
        flat = [edge for edges in expected for edge in edges]
        assert dataset.sources.tolist() == [u for u, _ in flat]
        assert dataset.targets.tolist() == [v for _, v in flat]
        assert all(
            type(u) is int and type(v) is int
            for _, _, edges in log.pages
            for u, v in edges
        )
