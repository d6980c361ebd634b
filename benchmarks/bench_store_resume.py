"""Store overhead bench: durable campaign vs in-memory crawl.

The durable store journals every page, shards every edge, and writes
periodic checkpoints — all of it on the wall clock only.  Checkpoints
cost zero *virtual* time (no simulated requests are spent persisting),
so the headline assertion is that a campaign's virtual throughput is
within 10% of the in-memory crawl — and in fact the virtual timeline is
bit-identical, which ``dataset_diff`` checks outright.  The wall-clock
overhead of durability is measured and printed for the run report.
"""

from __future__ import annotations

import shutil
import tempfile
import time
from pathlib import Path

from repro.crawler import BidirectionalBFSCrawler
from repro.obs.metrics import Registry
from repro.store import CampaignConfig, CrawlCampaign, dataset_diff
from repro.synth import build_world, WorldConfig

#: Same world scale/seed as the crawl-methodology bench (known-good).
CONFIG = CampaignConfig(
    n_users=4_000,
    seed=31,
    n_machines=11,
    checkpoint_every_pages=500,
)
#: The world this module runs, stamped into its bench report.
USERS = CONFIG.n_users
SEED = CONFIG.seed


def plain_crawl():
    """The undurable baseline: world build + in-memory crawl."""
    world = build_world(
        WorldConfig(
            n_users=CONFIG.n_users,
            seed=CONFIG.seed,
            circle_display_limit=CONFIG.circle_display_limit,
        )
    )
    frontend = world.frontend(
        rate_per_ip=CONFIG.rate_per_ip, burst=CONFIG.burst, error_rate=CONFIG.error_rate
    )
    crawler = BidirectionalBFSCrawler(frontend, CONFIG.crawl_config())
    return crawler.crawl([world.seed_user_id()])


def test_campaign_virtual_throughput_penalty(benchmark):
    start = time.perf_counter()
    reference = plain_crawl()
    plain_wall = time.perf_counter() - start

    scratch: list[Path] = []
    campaign_walls: list[float] = []

    def run():
        directory = Path(tempfile.mkdtemp(prefix="bench-store-"))
        scratch.append(directory)
        tick = time.perf_counter()
        dataset = CrawlCampaign(directory / "camp", CONFIG).run(registry=Registry())
        campaign_walls.append(time.perf_counter() - tick)
        return dataset

    try:
        dataset = benchmark.pedantic(run, rounds=2, iterations=1)

        # Durability must not bend the simulated timeline at all: the
        # campaign dataset (stats and virtual duration included) is
        # bit-identical to the in-memory crawl's.
        assert dataset_diff(dataset, reference) == []
        assert dataset.stats.virtual_duration == reference.stats.virtual_duration

        # The <10% virtual-throughput budget from the issue, stated
        # explicitly even though the equality above makes it trivial.
        plain_throughput = len(reference.profiles) / reference.stats.virtual_duration
        campaign_throughput = len(dataset.profiles) / dataset.stats.virtual_duration
        penalty = 1.0 - campaign_throughput / plain_throughput
        assert penalty < 0.10

        campaign_wall = min(campaign_walls)
        print()
        print(
            f"store-resume: plain={plain_wall:.3f}s wall, "
            f"campaign={campaign_wall:.3f}s wall "
            f"({campaign_wall / plain_wall:.2f}x, includes journal+segments+"
            f"checkpoints+archive), virtual penalty={penalty:.4%}"
        )
    finally:
        for directory in scratch:
            shutil.rmtree(directory, ignore_errors=True)
