"""Geo index: located users of a crawl dataset.

Roughly 27% of crawled users share "places lived"; the geo analyses of
Section 4 operate on that subset. The index resolves each located user's
last place to a country, stores coordinates as flat arrays, and maps user
ids to array positions so edge endpoints can be joined efficiently:
:func:`locate_edges` turns a crawl's edge arrays into the table of
located edges (both endpoints as positions) with one array lookup, and
Figures 9a, 9b and 10 share that table.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.crawler.dataset import CrawlDataset

from .resolve import CountryResolver


@dataclass
class GeoIndex:
    """Located users: ids, coordinates, resolved countries."""

    user_ids: np.ndarray
    latitudes: np.ndarray
    longitudes: np.ndarray
    countries: list[str]
    position_of: dict[int, int]

    @property
    def n_located(self) -> int:
        return len(self.user_ids)

    def country_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for code in self.countries:
            counts[code] = counts.get(code, 0) + 1
        return counts


def build_geo_index(
    dataset: CrawlDataset, resolver: CountryResolver | None = None
) -> GeoIndex:
    """Extract and resolve all located users from a crawl dataset."""
    resolver = resolver if resolver is not None else CountryResolver()
    ids: list[int] = []
    lats: list[float] = []
    lons: list[float] = []
    for profile in dataset.profiles.values():
        place = profile.current_place()
        if place is None:
            continue
        ids.append(profile.user_id)
        lats.append(place.latitude)
        lons.append(place.longitude)
    lat_arr = np.array(lats, dtype=float)
    lon_arr = np.array(lons, dtype=float)
    resolved = resolver.resolve_many(lat_arr, lon_arr) if ids else []
    keep = [i for i, code in enumerate(resolved) if code is not None]
    user_ids = np.array([ids[i] for i in keep], dtype=np.int64)
    return GeoIndex(
        user_ids=user_ids,
        latitudes=lat_arr[keep],
        longitudes=lon_arr[keep],
        countries=[resolved[i] for i in keep],
        position_of={int(uid): pos for pos, uid in enumerate(user_ids)},
    )


@dataclass(frozen=True)
class LocatedEdges:
    """The crawl edges whose two endpoints are located, in crawl order,
    as geo-index positions (``pos_a[i] -> pos_b[i]``)."""

    pos_a: np.ndarray
    pos_b: np.ndarray


def locate_edges(dataset: CrawlDataset, index: GeoIndex) -> LocatedEdges:
    """Map every edge endpoint to its geo position and keep the edges
    located at both ends."""
    sources = np.asarray(dataset.sources, dtype=np.int64)
    targets = np.asarray(dataset.targets, dtype=np.int64)
    top = max(
        int(sources.max()) if len(sources) else -1,
        int(targets.max()) if len(targets) else -1,
        int(index.user_ids.max()) if index.n_located else -1,
    )
    position = np.full(top + 1, -1, dtype=np.int64)
    position[index.user_ids] = np.arange(index.n_located, dtype=np.int64)
    pos_a, pos_b = position[sources], position[targets]
    both = (pos_a >= 0) & (pos_b >= 0)
    return LocatedEdges(pos_a=pos_a[both], pos_b=pos_b[both])


def country_slots(index: GeoIndex, countries: list[str]) -> np.ndarray:
    """Per located position, the slot of its country in ``countries``
    (the last one, if a code repeats), or -1 for any other country."""
    slot = {code: i for i, code in enumerate(countries)}
    return np.fromiter(
        (slot.get(code, -1) for code in index.countries),
        dtype=np.int64,
        count=index.n_located,
    )
