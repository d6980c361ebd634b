"""sha256 pins of a crash-and-resume campaign directory.

One 1,500-user campaign (seed 11, fast engine) checkpoints every 60
pages into 512-edge shards, crashes mid-crawl after 700 pages,
resumes in a fresh :class:`CrawlCampaign` and compacts.  The pins cover every byte the store leaves on disk — the
manifest, the journal, every sealed segment, the retained checkpoints
and the archive — except ``heartbeat.json``, whose content is
wall-clock liveness.  A second pin covers the resumed dataset's edge
arrays and profiles.  Any change to the write path that moves a single
byte, or a single crawled value, breaks one of them.
"""

import hashlib
import json

import numpy as np
import pytest

from repro.crawler.dataset import profile_to_json
from repro.obs.metrics import Registry
from repro.store import CampaignConfig, CrawlCampaign, SimulatedCrash
from repro.store.campaign import HEARTBEAT_NAME

CONFIG = CampaignConfig(
    n_users=1_500,
    seed=11,
    n_machines=4,
    checkpoint_every_pages=60,
    shard_edges=512,
    engine="fast",
    store="columnar",
)
CRASH_AFTER_PAGES = 700

PINS = {
    "directory": "ef1238d478561b10f09372360e5c70c4c5f06565206ce5bf9a33d9a4f37ffa14",
    "dataset": "030993772cf043deaf0aaae11219f850241722074826f86cbe35b72b01a318af",
}


def directory_digest(directory) -> str:
    """sha256 over (relative path, bytes) of every file but the heartbeat."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        if path.name == HEARTBEAT_NAME:
            continue
        digest.update(path.relative_to(directory).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def dataset_digest(dataset) -> str:
    digest = hashlib.sha256()
    for column in (dataset.sources, dataset.targets):
        digest.update(np.ascontiguousarray(column, dtype="<i8").tobytes())
    for uid in sorted(dataset.profiles):
        record = profile_to_json(dataset.profiles[uid])
        digest.update(json.dumps(record, separators=(",", ":")).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@pytest.fixture(scope="module")
def resumed(tmp_path_factory):
    directory = tmp_path_factory.mktemp("pins") / "camp"
    with pytest.raises(SimulatedCrash):
        CrawlCampaign(directory, CONFIG).run(
            registry=Registry(), crash_after_pages=CRASH_AFTER_PAGES
        )
    dataset = CrawlCampaign(directory).run(registry=Registry())
    return directory, dataset


def test_campaign_directory_bytes_are_pinned(resumed):
    directory, _ = resumed
    assert directory_digest(directory) == PINS["directory"]


def test_resumed_dataset_is_pinned(resumed):
    _, dataset = resumed
    assert (dataset.n_profiles, dataset.n_edges) == (1_500, 23_964)
    assert dataset_digest(dataset) == PINS["dataset"]
