"""Oracles: the per-edge geography loops behind Figures 9a, 9b and 10.

These walk the crawl's edges one at a time through the geo index's
``position_of`` dict and a Python ``set`` of located pairs, as the
analyses did before they shared one located-edge table.  They draw from
the random generator exactly as :mod:`repro.geo.pathmiles` does, so the
array versions must return equal (bit-identical) results.
"""

from __future__ import annotations

import numpy as np

from repro.geo.country_links import CountryLinkGraph
from repro.geo.distance import pairwise_miles
from repro.geo.pathmiles import PathMileSamples


def located_edges(dataset, index) -> tuple[np.ndarray, np.ndarray]:
    position = index.position_of
    pos_a: list[int] = []
    pos_b: list[int] = []
    for u, v in zip(dataset.sources, dataset.targets):
        a = position.get(int(u))
        b = position.get(int(v))
        if a is not None and b is not None:
            pos_a.append(a)
            pos_b.append(b)
    return np.array(pos_a, dtype=np.int64), np.array(pos_b, dtype=np.int64)


def reference_path_miles(dataset, index, rng, max_pairs=200_000) -> PathMileSamples:
    pos_a, pos_b = located_edges(dataset, index)
    forward = set(zip(pos_a.tolist(), pos_b.tolist()))
    reciprocal_mask = np.fromiter(
        ((b, a) in forward for a, b in zip(pos_a, pos_b)),
        dtype=bool,
        count=len(pos_a),
    )

    def subsample(a, b):
        if len(a) > max_pairs:
            chosen = rng.choice(len(a), size=max_pairs, replace=False)
            return a[chosen], b[chosen]
        return a, b

    fa, fb = subsample(pos_a, pos_b)
    ra, rb = subsample(pos_a[reciprocal_mask], pos_b[reciprocal_mask])
    n = index.n_located
    random_a = np.empty(0, dtype=np.int64)
    random_b = np.empty(0, dtype=np.int64)
    if n >= 2:
        want = min(max_pairs, 4 * max_pairs)
        a = rng.integers(0, n, size=want)
        b = rng.integers(0, n, size=want)
        valid = a != b
        linked = np.fromiter(
            ((x, y) in forward or (y, x) in forward for x, y in zip(a, b)),
            dtype=bool,
            count=want,
        )
        keep = valid & ~linked
        random_a, random_b = a[keep][:max_pairs], b[keep][:max_pairs]
    lats, lons = index.latitudes, index.longitudes
    return PathMileSamples(
        friends=pairwise_miles(lats, lons, fa, fb),
        reciprocal=pairwise_miles(lats, lons, ra, rb),
        random_pairs=pairwise_miles(lats, lons, random_a, random_b),
    )


def reference_country_path_miles(dataset, index, countries):
    pos_a, pos_b = located_edges(dataset, index)
    by_country: dict[str, list[float]] = {code: [] for code in countries}
    distances = pairwise_miles(index.latitudes, index.longitudes, pos_a, pos_b)
    for a, miles in zip(pos_a, distances):
        code = index.countries[int(a)]
        if code in by_country:
            by_country[code].append(float(miles))
    result = {}
    for code in countries:
        values = np.array(by_country[code])
        if len(values) == 0:
            result[code] = (float("nan"), float("nan"))
        else:
            result[code] = (float(values.mean()), float(values.std()))
    return result


def reference_country_links(dataset, index, countries) -> CountryLinkGraph:
    code_index = {code: i for i, code in enumerate(countries)}
    k = len(countries)
    counts = np.zeros((k, k), dtype=np.int64)
    position = index.position_of
    for u, v in zip(dataset.sources, dataset.targets):
        a = position.get(int(u))
        b = position.get(int(v))
        if a is None or b is None:
            continue
        i = code_index.get(index.countries[a])
        j = code_index.get(index.countries[b])
        if i is None or j is None:
            continue
        counts[i, j] += 1
    user_counts = np.zeros(k, dtype=np.int64)
    for code in index.countries:
        i = code_index.get(code)
        if i is not None:
            user_counts[i] += 1
    row_sums = counts.sum(axis=1, keepdims=True)
    weights = np.divide(
        counts, np.maximum(row_sums, 1), dtype=float, casting="unsafe"
    )
    return CountryLinkGraph(
        countries=tuple(countries),
        weights=weights,
        node_share=user_counts / max(1, int(user_counts.sum())),
    )
