"""Distance effects on friendship (Section 4.4, Figure 9).

Thin analysis wrapper over :mod:`repro.geo.pathmiles` producing the two
Figure 9 artifacts with the paper's headline statistics attached.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.dataset import CrawlDataset
from repro.geo.index import GeoIndex, LocatedEdges
from repro.geo.pathmiles import (
    average_path_mile_by_country,
    compute_path_miles,
    PathMileSamples,
)


@dataclass(frozen=True)
class PathMileAnalysis:
    """Figure 9a samples plus headline fractions."""

    samples: PathMileSamples

    def friends_within_1000mi(self) -> float:
        """The paper reports ~58%."""
        return self.samples.fraction_within(1000.0, "friends")

    def friends_within_10mi(self) -> float:
        """The paper reports ~15%."""
        return self.samples.fraction_within(10.0, "friends")

    def ordering_holds(self, at_miles: float = 1000.0) -> bool:
        """Reciprocal pairs closest, then friends, then random pairs."""
        recip = self.samples.fraction_within(at_miles, "reciprocal")
        friend = self.samples.fraction_within(at_miles, "friends")
        rand = self.samples.fraction_within(at_miles, "random_pairs")
        return recip >= friend >= rand

    def median_miles(self, population: str) -> float:
        sample = getattr(self.samples, population)
        return float(np.median(sample)) if len(sample) else float("nan")


def analyze_path_miles(
    dataset: CrawlDataset,
    geo: GeoIndex,
    rng: np.random.Generator,
    max_pairs: int = 200_000,
    edges: LocatedEdges | None = None,
) -> PathMileAnalysis:
    """Figure 9a (``edges``: a prebuilt located-edge table)."""
    return PathMileAnalysis(
        samples=compute_path_miles(
            dataset, geo, rng, max_pairs=max_pairs, edges=edges
        )
    )


@dataclass(frozen=True)
class CountryPathMiles:
    """Figure 9b: per-country average friend distance with deviation."""

    stats: dict[str, tuple[float, float]]

    def average(self, code: str) -> float:
        return self.stats[code][0]

    def deviation(self, code: str) -> float:
        return self.stats[code][1]


def analyze_country_path_miles(
    dataset: CrawlDataset,
    geo: GeoIndex,
    countries: list[str],
    edges: LocatedEdges | None = None,
) -> CountryPathMiles:
    """Figure 9b (``edges``: a prebuilt located-edge table)."""
    return CountryPathMiles(
        stats=average_path_mile_by_country(dataset, geo, countries, edges=edges)
    )
