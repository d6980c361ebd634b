"""sha256 pins of the state a built world serves.

Each pin hashes one observable of a 1,500-user world (seed 11) under
both generation engines: every user's name, list visibility and ordered
profile fields; every user's anonymous and self-view page bytes; every
user's followers and followees; and a 400-page crawl's edge arrays and
stats.  The ``store`` field of :class:`WorldConfig` is a label, so both
of its values must hash identically.
"""

import hashlib
import json

import pytest

from repro.crawler.bfs import BidirectionalBFSCrawler, CrawlConfig
from repro.serve.cache import _jsonify, page_to_bytes
from repro.synth import build_world, WorldConfig

PINS = {
    "reference": {
        "profiles": "9958f46073beadbd3bbf8b98042be08686bf34155e4fd4d15c9ba17528358a48",
        "pages": "58615f3b6e30325123c38ee4673df017fe002306ebd1d88f4e928668b8221347",
        "links": "e1a08d56bf86663790fa19117586bc54d852d9658d25771e84e7e9b9099daeb8",
        "crawl": "696d5fd83aca6c8f3c2c36da3225cf6e0f5ff9580da8735a2eae1b3242fe9830",
    },
    "fast": {
        "profiles": "bc57a43a6c1962e60a9132fa4036ff4816d894ca09683051b6305ef63aa1a2df",
        "pages": "6d6c1dcd5f19e25e548aa4a58fedde40c1ea87ca34ccb0b803ef0f09ed035f6b",
        "links": "55d7d9a13ae2fc3f332865222a47254c8a007f35ae35a2d1f96e0779ca982aca",
        "crawl": "790a864313d232400b264384b6de5e619d6895f64b5753d9e928224d288221e6",
    },
}


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, separators=(",", ":")).encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def _profile_records(service):
    for uid in sorted(service.user_ids()):
        profile = service.profile(uid)
        fields = [
            [
                key,
                _jsonify(entry.value),
                entry.privacy.visibility.value,
                sorted(entry.privacy.custom_circles),
            ]
            for key, entry in profile.fields.items()
        ]
        yield [uid, profile.name, bool(profile.lists_public), fields]


def _page_records(service):
    for uid in sorted(service.user_ids()):
        for viewer in (None, uid):
            yield page_to_bytes(service.profile_page(uid, viewer)).decode("utf-8")


def _link_records(service):
    for uid in sorted(service.user_ids()):
        yield [uid, service.followers(uid), service.followees(uid)]


def _crawl_records(world):
    crawler = BidirectionalBFSCrawler(
        world.frontend(rate_per_ip=1e9, burst=1e9),
        CrawlConfig(n_machines=3, max_pages=400, request_latency=0.0),
    )
    dataset = crawler.crawl([world.seed_user_id()])
    yield dataset.sources.tolist()
    yield dataset.targets.tolist()
    yield sorted(vars(dataset.stats).items())


@pytest.fixture(scope="module", params=["dict", "columnar"])
def store(request):
    return request.param


@pytest.fixture(scope="module", params=["reference", "fast"])
def world(request, store):
    config = WorldConfig(n_users=1_500, seed=11, engine=request.param, store=store)
    return build_world(config)


class TestStorePins:
    def test_profiles(self, world):
        digest = _digest(_profile_records(world.service))
        assert digest == PINS[world.config.engine]["profiles"]

    def test_pages(self, world):
        digest = _digest(_page_records(world.service))
        assert digest == PINS[world.config.engine]["pages"]

    def test_followers_and_followees(self, world):
        digest = _digest(_link_records(world.service))
        assert digest == PINS[world.config.engine]["links"]

    def test_crawl(self, world):
        digest = _digest(_crawl_records(world))
        assert digest == PINS[world.config.engine]["crawl"]
