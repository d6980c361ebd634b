"""The country-to-country link graph (Section 4.5, Figure 10).

Nodes are the top ten countries; the weight of the directed edge
``A -> B`` is the proportion of A's outgoing social links that point at
users in B (restricted to links between top-10-located users, which is
what the figure draws). The self-loop weight is the paper's "inward
looking" measure: 0.79 for the US versus 0.30 for the UK.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.dataset import CrawlDataset

from .index import country_slots, GeoIndex, LocatedEdges, locate_edges


@dataclass(frozen=True)
class CountryLinkGraph:
    """Row-normalised country mixing matrix over the selected countries."""

    countries: tuple[str, ...]
    weights: np.ndarray  # weights[i, j] = share of i's links going to j
    node_share: np.ndarray  # share of located users per country

    def weight(self, source: str, target: str) -> float:
        i = self.countries.index(source)
        j = self.countries.index(target)
        return float(self.weights[i, j])

    def self_loop(self, country: str) -> float:
        i = self.countries.index(country)
        return float(self.weights[i, i])

    def edges_over(self, threshold: float = 0.01) -> list[tuple[str, str, float]]:
        """Drawable edges: weight >= threshold, as in the figure."""
        result = []
        for i, src in enumerate(self.countries):
            for j, dst in enumerate(self.countries):
                w = float(self.weights[i, j])
                if w >= threshold:
                    result.append((src, dst, w))
        return result


def build_country_link_graph(
    dataset: CrawlDataset,
    index: GeoIndex,
    countries: list[str],
    edges: LocatedEdges | None = None,
) -> CountryLinkGraph:
    """Aggregate the located edges of a crawl into the Figure 10 matrix
    (``edges`` passes in the located-edge table when already built)."""
    if edges is None:
        edges = locate_edges(dataset, index)
    k = len(countries)
    slots = country_slots(index, countries)
    i, j = slots[edges.pos_a], slots[edges.pos_b]
    both = (i >= 0) & (j >= 0)
    counts = np.bincount(i[both] * k + j[both], minlength=k * k).reshape(k, k)
    row_sums = counts.sum(axis=1, keepdims=True)
    weights = np.divide(
        counts, np.maximum(row_sums, 1), dtype=float, casting="unsafe"
    )
    user_counts = np.bincount(slots[slots >= 0], minlength=k)
    total_users = max(1, int(user_counts.sum()))
    return CountryLinkGraph(
        countries=tuple(countries),
        weights=weights,
        node_share=user_counts / total_users,
    )
