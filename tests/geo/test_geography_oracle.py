"""The located-edge table versions of Figures 9a, 9b and 10 equal the
per-edge loops in ``tests/reference_geography.py``, bit for bit."""

import numpy as np
import pytest

from repro.crawler.dataset import CrawlDataset
from repro.crawler.parse import ParsedProfile
from repro.geo.country_links import build_country_link_graph
from repro.geo.index import build_geo_index, locate_edges
from repro.geo.pathmiles import average_path_mile_by_country, compute_path_miles
from repro.platform.models import Place
from repro.synth.countries import TOP10_CODES
from tests.reference_geography import (
    located_edges,
    reference_country_links,
    reference_country_path_miles,
    reference_path_miles,
)

COUNTRY_LISTS = [
    list(TOP10_CODES),
    # A repeated code and one no located user has.
    ["US", "GB", "US", "ZZ", "IN"],
    [],
]


def _hand_built(places: dict[int, Place], edges) -> CrawlDataset:
    profiles = {
        uid: ParsedProfile(
            user_id=uid,
            name=str(uid),
            fields={"places_lived": [places[uid]]} if uid in places else {},
        )
        for uid in range(6)
    }
    sources = np.array([a for a, _ in edges], dtype=np.int64)
    targets = np.array([b for _, b in edges], dtype=np.int64)
    return CrawlDataset(profiles=profiles, sources=sources, targets=targets)


LONDON = Place("London", 51.51, -0.13, "GB")
# Edges reach uncrawled ids (40, 900) and unlocated crawled users (0-5).
EDGES = [(0, 1), (1, 0), (2, 900), (40, 3), (3, 4), (4, 3), (5, 0)]


@pytest.fixture(scope="module")
def cases(small_crawl):
    return {
        "crawl": small_crawl,
        "none_located": _hand_built({}, EDGES),
        "one_located": _hand_built({3: LONDON}, EDGES),
    }


def assert_samples_equal(got, expected):
    for name in ("friends", "reciprocal", "random_pairs"):
        np.testing.assert_array_equal(getattr(got, name), getattr(expected, name))


@pytest.mark.parametrize("case", ["crawl", "none_located", "one_located"])
class TestAgainstPerEdgeLoops:
    def test_located_edge_table(self, cases, case):
        dataset = cases[case]
        index = build_geo_index(dataset)
        table = locate_edges(dataset, index)
        pos_a, pos_b = located_edges(dataset, index)
        np.testing.assert_array_equal(table.pos_a, pos_a)
        np.testing.assert_array_equal(table.pos_b, pos_b)
        assert table.pos_a.dtype == table.pos_b.dtype == np.int64

    @pytest.mark.parametrize("max_pairs", [3, 250, 1_000_000])
    def test_path_miles(self, cases, case, max_pairs):
        dataset = cases[case]
        index = build_geo_index(dataset)
        got = compute_path_miles(
            dataset, index, np.random.default_rng(5), max_pairs=max_pairs
        )
        expected = reference_path_miles(
            dataset, index, np.random.default_rng(5), max_pairs=max_pairs
        )
        assert_samples_equal(got, expected)

    @pytest.mark.parametrize("countries", COUNTRY_LISTS)
    def test_country_path_miles(self, cases, case, countries):
        dataset = cases[case]
        index = build_geo_index(dataset)
        got = average_path_mile_by_country(dataset, index, countries)
        expected = reference_country_path_miles(dataset, index, countries)
        assert list(got) == list(expected)
        for code in expected:
            np.testing.assert_array_equal(got[code], expected[code])

    @pytest.mark.parametrize("countries", COUNTRY_LISTS)
    def test_country_links(self, cases, case, countries):
        dataset = cases[case]
        index = build_geo_index(dataset)
        got = build_country_link_graph(dataset, index, countries)
        expected = reference_country_links(dataset, index, countries)
        assert got.countries == expected.countries
        np.testing.assert_array_equal(got.weights, expected.weights)
        np.testing.assert_array_equal(got.node_share, expected.node_share)


def test_shared_table_gives_the_same_results(small_crawl):
    index = build_geo_index(small_crawl)
    table = locate_edges(small_crawl, index)
    codes = list(TOP10_CODES)
    assert_samples_equal(
        compute_path_miles(small_crawl, index, np.random.default_rng(1), 500, edges=table),
        compute_path_miles(small_crawl, index, np.random.default_rng(1), 500),
    )
    assert average_path_mile_by_country(
        small_crawl, index, codes, edges=table
    ) == average_path_mile_by_country(small_crawl, index, codes)
    np.testing.assert_array_equal(
        build_country_link_graph(small_crawl, index, codes, edges=table).weights,
        build_country_link_graph(small_crawl, index, codes).weights,
    )


def test_small_crawl_has_unlocated_endpoints_and_reciprocal_pairs(small_crawl):
    index = build_geo_index(small_crawl)
    table = locate_edges(small_crawl, index)
    assert 0 < len(table.pos_a) < small_crawl.n_edges
    samples = compute_path_miles(small_crawl, index, np.random.default_rng(0))
    assert len(samples.reciprocal) > 0 and len(samples.random_pairs) > 0
