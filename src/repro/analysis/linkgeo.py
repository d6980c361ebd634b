"""Social links across geography (Section 4.5, Figure 10).

Wraps the country-link graph with the paper's qualitative reads: which
countries are inward looking (high self-loop weight), which are outward
looking, and the US's role as the dominant sink of cross-border links.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.crawler.dataset import CrawlDataset
from repro.geo.country_links import build_country_link_graph, CountryLinkGraph
from repro.geo.index import GeoIndex, LocatedEdges


@dataclass(frozen=True)
class LinkGeographyAnalysis:
    """Figure 10 plus derived observations."""

    graph: CountryLinkGraph

    def inward_looking(self, threshold: float = 0.5) -> list[str]:
        """Countries keeping more than ``threshold`` of links domestic."""
        return [
            code
            for code in self.graph.countries
            if self.graph.self_loop(code) > threshold
        ]

    def outward_looking(self, threshold: float = 0.4) -> list[str]:
        return [
            code
            for code in self.graph.countries
            if self.graph.self_loop(code) < threshold
        ]

    def us_is_dominant_sink(self) -> bool:
        """True when the US receives the largest cross-border flux from
        a majority of the other countries."""
        countries = self.graph.countries
        if "US" not in countries:
            return False
        wins = 0
        others = [c for c in countries if c != "US"]
        for source in others:
            flux = {
                target: self.graph.weight(source, target)
                for target in countries
                if target != source
            }
            if flux and max(flux, key=flux.get) == "US":
                wins += 1
        return wins > len(others) / 2


def analyze_link_geography(
    dataset: CrawlDataset,
    geo: GeoIndex,
    countries: list[str],
    edges: LocatedEdges | None = None,
) -> LinkGeographyAnalysis:
    """Figure 10 (``edges``: a prebuilt located-edge table)."""
    return LinkGeographyAnalysis(
        graph=build_country_link_graph(dataset, geo, countries, edges=edges)
    )
