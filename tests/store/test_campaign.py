"""End-to-end campaign guarantees: kill anywhere, resume bit-identically.

The headline contract of :mod:`repro.store`: a crawl killed at *any*
point — mid-interval, exactly at a checkpoint boundary, before the first
checkpoint, or repeatedly — resumes to a dataset bit-identical to an
uninterrupted run: same edge arrays, same profiles, same CrawlStats.
"""

from __future__ import annotations

import json
import time
from types import SimpleNamespace

import pytest

from repro.crawler import BidirectionalBFSCrawler, CrawlDataset
from repro.crawler.parse import ParsedProfile
from repro.obs.metrics import Registry
from repro.store import (
    CampaignConfig,
    CampaignError,
    CrawlCampaign,
    SimulatedCrash,
    dataset_diff,
)
from repro.store import campaign as campaign_module
from repro.store.campaign import (
    ARCHIVE_DIR,
    HEARTBEAT_EVERY_SECONDS,
    HEARTBEAT_NAME,
    JOURNAL_NAME,
    KIND_STATS,
    CampaignStore,
)
from repro.store.journal import JournalWriter
from repro.synth import build_world, WorldConfig

#: Small but non-trivial: ~500 pages, a dozen checkpoints, several shards.
CONFIG = CampaignConfig(
    n_users=500,
    seed=17,
    n_machines=4,
    checkpoint_every_pages=40,
    shard_edges=512,
)

#: Same size but with failures and heavy throttling in play, so resuming
#: also has to restore the flakiness RNG and rate-limiter buckets exactly.
FLAKY_CONFIG = CampaignConfig(
    n_users=500,
    seed=23,
    n_machines=4,
    error_rate=0.08,
    rate_per_ip=2.0,
    burst=4.0,
    checkpoint_every_pages=40,
    shard_edges=512,
)


def reference_crawl(config: CampaignConfig) -> CrawlDataset:
    """The uninterrupted in-memory crawl a campaign must reproduce."""
    world = build_world(
        WorldConfig(
            n_users=config.n_users,
            seed=config.seed,
            circle_display_limit=config.circle_display_limit,
        )
    )
    frontend = world.frontend(
        rate_per_ip=config.rate_per_ip, burst=config.burst, error_rate=config.error_rate
    )
    crawler = BidirectionalBFSCrawler(frontend, config.crawl_config())
    return crawler.crawl([world.seed_user_id()])


@pytest.fixture(scope="module")
def reference() -> CrawlDataset:
    return reference_crawl(CONFIG)


@pytest.fixture(scope="module")
def flaky_reference() -> CrawlDataset:
    return reference_crawl(FLAKY_CONFIG)


class TestUninterrupted:
    def test_campaign_matches_plain_crawl(self, tmp_path, reference):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        dataset = campaign.run(registry=Registry())
        assert dataset_diff(dataset, reference) == []
        assert campaign.status == "complete"

    def test_archive_loads_unchanged(self, tmp_path, reference):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        campaign.run(registry=Registry())
        loaded = CrawlDataset.load(tmp_path / "camp" / ARCHIVE_DIR)
        assert dataset_diff(loaded, reference) == []

    def test_inspect_accounts_for_everything(self, tmp_path, reference):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        campaign.run(registry=Registry())
        report = campaign.inspect()
        assert report["status"] == "complete"
        assert report["journal"]["records"]["page"] == len(reference.profiles)
        assert report["segments"]["edges"] == len(reference.sources)
        assert report["archive"] is True
        assert report["checkpoints"]  # retention keeps the newest few


class TestCrashAndResume:
    def resume_after_crash(self, directory, config, reference, **crash) -> None:
        campaign = CrawlCampaign(directory, config)
        with pytest.raises(SimulatedCrash):
            campaign.run(registry=Registry(), **crash)
        assert campaign.status == "running"
        resumed = CrawlCampaign(directory)
        dataset = resumed.run(registry=Registry())
        assert dataset_diff(dataset, reference) == []
        assert resumed.status == "complete"
        loaded = CrawlDataset.load(directory / ARCHIVE_DIR)
        assert dataset_diff(loaded, reference) == []

    def test_crash_mid_interval(self, tmp_path, reference):
        # Dies 10 pages into the third checkpoint interval.
        self.resume_after_crash(
            tmp_path / "camp", CONFIG, reference, crash_after_pages=90
        )

    def test_crash_at_checkpoint_boundary(self, tmp_path, reference):
        # Dies immediately after the second checkpoint is durable.
        self.resume_after_crash(
            tmp_path / "camp", CONFIG, reference, crash_after_checkpoints=2
        )

    def test_crash_before_first_checkpoint(self, tmp_path, reference):
        # Nothing durable yet: resume restarts from scratch, same result.
        self.resume_after_crash(
            tmp_path / "camp", CONFIG, reference, crash_after_pages=10
        )

    def test_crash_twice_then_finish(self, tmp_path, reference):
        directory = tmp_path / "camp"
        campaign = CrawlCampaign(directory, CONFIG)
        with pytest.raises(SimulatedCrash):
            campaign.run(registry=Registry(), crash_after_pages=60)
        with pytest.raises(SimulatedCrash):
            CrawlCampaign(directory).run(registry=Registry(), crash_after_pages=50)
        dataset = CrawlCampaign(directory).run(registry=Registry())
        assert dataset_diff(dataset, reference) == []

    def test_crash_and_resume_with_failures_and_throttling(
        self, tmp_path, flaky_reference
    ):
        # The hard case: resuming must put the failure RNG, the token
        # buckets, and the virtual clock back exactly, or retries and
        # backoffs diverge and so does every downstream page.
        self.resume_after_crash(
            tmp_path / "camp", FLAKY_CONFIG, flaky_reference, crash_after_pages=110
        )

    def test_recovery_metrics(self, tmp_path, reference):
        directory = tmp_path / "camp"
        campaign = CrawlCampaign(directory, CONFIG)
        with pytest.raises(SimulatedCrash):
            campaign.run(registry=Registry(), crash_after_pages=90)
        registry = Registry()
        CrawlCampaign(directory).run(registry=registry)
        assert registry.counter("store.recoveries", "").value() == 1
        # The best-effort abort checkpoint lands at the crash point
        # (page 90), not the last periodic checkpoint (page 80).
        assert registry.counter("store.replayed_pages", "").value() == 90
        assert registry.counter("store.checkpoints", "").value() > 0

    def test_records_past_the_checkpoint_are_counted_and_dropped(self, tmp_path):
        directory = tmp_path / "camp"
        with pytest.raises(SimulatedCrash):
            CrawlCampaign(directory, CONFIG).run(
                registry=Registry(), crash_after_pages=90
            )
        journal_path = directory / JOURNAL_NAME
        durable = journal_path.stat().st_size
        with JournalWriter(journal_path, registry=Registry()) as journal:
            for _ in range(5):  # written after the last checkpoint
                journal.append(KIND_STATS, b"{}")
        registry = Registry()
        store = CampaignStore(directory, CONFIG, registry=registry)
        store.journal.close()
        assert registry.counter("store.rolled_back_records", "").value() == 5
        assert registry.counter("store.replayed_pages", "").value() == 90
        assert journal_path.stat().st_size == durable


class TestHeartbeat:
    def test_written_at_open_then_at_most_once_per_wall_second(
        self, tmp_path, monkeypatch
    ):
        now = [1_000.0]
        fake_time = SimpleNamespace(
            monotonic=lambda: now[0], time=time.time, perf_counter=time.perf_counter
        )
        monkeypatch.setattr(campaign_module, "time", fake_time)
        store = CampaignStore(tmp_path / "camp", CONFIG, registry=Registry())
        beat = tmp_path / "camp" / HEARTBEAT_NAME

        def beat_pages() -> int:
            return json.loads(beat.read_text(encoding="utf-8"))["pages"]

        assert beat_pages() == 0
        profile = ParsedProfile(user_id=1, name="Ada")
        for _ in range(50):
            store.on_page(1, profile, [(1, 2)])
        assert beat_pages() == 0  # still inside the same wall second
        now[0] += HEARTBEAT_EVERY_SECONDS
        store.on_page(1, profile, [(1, 2)])
        assert beat_pages() == 51
        store.journal.close()


class TestCampaignDirectory:
    def test_conflicting_config_rejected(self, tmp_path):
        CrawlCampaign(tmp_path / "camp", CONFIG)
        with pytest.raises(CampaignError, match="different config"):
            CrawlCampaign(tmp_path / "camp", FLAKY_CONFIG)

    def test_reopen_without_config_loads_stored(self, tmp_path):
        CrawlCampaign(tmp_path / "camp", CONFIG)
        reopened = CrawlCampaign(tmp_path / "camp")
        assert reopened.config == CONFIG

    def test_compact_requires_a_checkpoint(self, tmp_path):
        campaign = CrawlCampaign(tmp_path / "camp", CONFIG)
        with pytest.raises(CampaignError, match="no checkpoint"):
            campaign.compact()

    def test_config_round_trips_through_json(self):
        data = CONFIG.to_json_dict()
        assert CampaignConfig.from_json_dict(data) == CONFIG


class TestDatasetDiff:
    def test_identical_datasets_diff_empty(self, reference):
        assert dataset_diff(reference, reference) == []

    def test_differences_are_reported(self, reference, flaky_reference):
        problems = dataset_diff(reference, flaky_reference)
        assert problems  # different worlds cannot match
        assert any("differ" in p for p in problems)
