"""Section 2.2 bench: the crawl itself and the lost-edge accounting.

Times a full bidirectional BFS campaign on a fresh world with an
aggressive circle-list display cap, so the truncation/recovery machinery
fires at bench scale the way the 10,000 cap fired at 35M-node scale.
"""

from repro.crawler.bfs import BidirectionalBFSCrawler, CrawlConfig
from repro.crawler.lost_edges import estimate_lost_edges, naive_truncation_loss
from repro.synth import build_world, WorldConfig

CAP = 150
#: The world this module runs, stamped into its bench report.
USERS = 4_000
SEED = 31


def test_crawl_and_lost_edges(benchmark, bench_results, artifact_sink):
    world = build_world(
        WorldConfig(n_users=USERS, seed=SEED, circle_display_limit=CAP)
    )

    def run():
        crawler = BidirectionalBFSCrawler(
            world.frontend(), CrawlConfig(n_machines=11)
        )
        return crawler.crawl([world.seed_user_id()])

    dataset = benchmark.pedantic(run, rounds=2, iterations=1)
    print()
    print(artifact_sink("methodology", bench_results))
    naive = naive_truncation_loss(dataset, display_limit=CAP)
    recovered = estimate_lost_edges(dataset, display_limit=CAP)
    # The cap bites...
    assert naive.capped_users > 0
    assert naive.lost_fraction > 0.01
    # ...and bidirectional crawling recovers almost everything (paper: the
    # final loss is 1.6% of edges at their scale).
    assert recovered.lost_fraction < naive.lost_fraction / 2
    assert recovered.lost_fraction < 0.05
    # Crawl accounting mirrors Section 2.2's fleet.
    assert dataset.stats.n_machines == 11
    assert dataset.n_profiles == world.n_users
