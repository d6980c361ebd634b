"""Path-mile analysis (Section 4.4, Figure 9).

Three pair populations are compared:

1. socially connected pairs ("friends" — any directed edge),
2. reciprocally connected pairs,
3. random unlinked pairs,

all restricted to users sharing geo-location. The paper's headline: 58%
of friend pairs lie within a thousand miles, 15% within ten miles, and
reciprocal pairs live closest of all.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.dataset import CrawlDataset

from .distance import pairwise_miles
from .index import country_slots, GeoIndex, LocatedEdges, locate_edges


@dataclass(frozen=True)
class PathMileSamples:
    """Distance samples (miles) for the three pair populations."""

    friends: np.ndarray
    reciprocal: np.ndarray
    random_pairs: np.ndarray

    def fraction_within(self, miles: float, population: str = "friends") -> float:
        sample = getattr(self, population)
        if len(sample) == 0:
            return float("nan")
        return float((sample <= miles).mean())


def _linked(keys: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Which packed pair keys occur in the sorted array ``keys``."""
    if len(keys) == 0:
        return np.zeros(len(queries), dtype=bool)
    slot = np.minimum(np.searchsorted(keys, queries), len(keys) - 1)
    return keys[slot] == queries


def compute_path_miles(
    dataset: CrawlDataset,
    index: GeoIndex,
    rng: np.random.Generator,
    max_pairs: int = 200_000,
    edges: LocatedEdges | None = None,
) -> PathMileSamples:
    """Compute the Figure 9a samples from a crawl dataset.

    ``max_pairs`` caps each population (the paper used 60M / 13M / 20M
    pairs; proportionally smaller caps keep laptop runs fast without
    changing the distributions).  ``edges`` passes in the located-edge
    table when the caller already built it.
    """
    if edges is None:
        edges = locate_edges(dataset, index)
    pos_a, pos_b = edges.pos_a, edges.pos_b
    n = index.n_located

    # Located links as sorted keys a*n+b.  Reciprocal pairs: the reverse
    # key is present too.
    keys = np.unique(pos_a * n + pos_b)
    reciprocal_mask = _linked(keys, pos_b * n + pos_a)

    def subsample(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        if len(a) > max_pairs:
            chosen = rng.choice(len(a), size=max_pairs, replace=False)
            return a[chosen], b[chosen]
        return a, b

    fa, fb = subsample(pos_a, pos_b)
    ra, rb = subsample(pos_a[reciprocal_mask], pos_b[reciprocal_mask])

    # Random unlinked pairs among located users.
    random_a = np.empty(0, dtype=np.int64)
    random_b = np.empty(0, dtype=np.int64)
    if n >= 2:
        want = min(max_pairs, 4 * max_pairs)
        a = rng.integers(0, n, size=want)
        b = rng.integers(0, n, size=want)
        valid = a != b
        linked = _linked(keys, a * n + b) | _linked(keys, b * n + a)
        keep = valid & ~linked
        random_a, random_b = a[keep][:max_pairs], b[keep][:max_pairs]

    lats, lons = index.latitudes, index.longitudes
    return PathMileSamples(
        friends=pairwise_miles(lats, lons, fa, fb),
        reciprocal=pairwise_miles(lats, lons, ra, rb),
        random_pairs=pairwise_miles(lats, lons, random_a, random_b),
    )


def average_path_mile_by_country(
    dataset: CrawlDataset,
    index: GeoIndex,
    countries: list[str],
    edges: LocatedEdges | None = None,
) -> dict[str, tuple[float, float]]:
    """Figure 9b: mean and standard deviation of friend-pair distances,
    grouped by the *source* user's country."""
    if edges is None:
        edges = locate_edges(dataset, index)
    distances = pairwise_miles(
        index.latitudes, index.longitudes, edges.pos_a, edges.pos_b
    )
    slots = country_slots(index, countries)[edges.pos_a]
    slot_of = {code: i for i, code in enumerate(countries)}
    result: dict[str, tuple[float, float]] = {}
    for code in countries:
        # Crawl order within each country, so mean/std sum the same
        # elements in the same order as a per-edge walk would.
        values = distances[slots == slot_of[code]]
        if len(values) == 0:
            result[code] = (float("nan"), float("nan"))
        else:
            result[code] = (float(values.mean()), float(values.std()))
    return result
