"""Synthetic social-graph generator.

A degree-driven growth process combining the mechanisms the paper's
measurements point at:

* **preferential attachment** with celebrity seeding — power-law in-degree
  (Figure 3) and the Table 1 / Table 5 top lists;
* **country mixing rows** (domesticity / US-flux / global remainder) —
  the Figure 10 link landscape;
* **city homophily** for domestic links — the short-range mass of the
  path-mile CDF (Figure 9a);
* **triadic closure** — clustering coefficients well above random
  (Figure 4b);
* **per-user follow-back propensity**, damped by popularity and boosted
  by proximity — the bimodal RR distribution (Figure 4a), the ~32% global
  reciprocity (Table 4), and the reciprocal-pairs-live-closest ordering
  (Figure 9a);
* the **5000-contact cap** with whitelisted celebrities — the out-degree
  knee (Figure 3).

Edges are generated in interleaved rounds (one stub per user per round)
so attachment weights grow concurrently, as in the real service.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.geo.distance import haversine_miles
from repro.obs import trace

from .cities import build_gazetteer
from .config import GraphGenConfig
from .profiles import Population


@dataclass(frozen=True)
class GeneratedGraph:
    """Edge arrays of the generated social graph (user ids, 0..n-1)."""

    sources: np.ndarray
    targets: np.ndarray
    n_users: int

    @property
    def n_edges(self) -> int:
        return len(self.sources)


class _TokenPools:
    """Per-country and per-(country, city) preferential-attachment pools."""

    def __init__(self, population: Population, config: GraphGenConfig):
        self.by_country: dict[str, list[int]] = {}
        self.by_city: dict[tuple[str, int], list[int]] = {}
        for user_id in range(population.n):
            code = population.country_codes[user_id]
            city = int(population.city_indices[user_id])
            tokens = config.base_attachment_tokens + int(
                round(population.celebrity_weight[user_id])
            )
            self.by_country.setdefault(code, []).extend([user_id] * tokens)
            self.by_city.setdefault((code, city), []).extend([user_id] * tokens)

    def record_follow(self, population: Population, user_id: int) -> None:
        """Grow a user's attachment weight after receiving an edge."""
        code = population.country_codes[user_id]
        city = int(population.city_indices[user_id])
        self.by_country[code].append(user_id)
        self.by_city[(code, city)].append(user_id)


class _GravityKernel:
    """Per-country city-to-city target-choice distributions.

    For a source living in city ``i``, the probability of targeting city
    ``j`` of the same country is proportional to
    ``population_j / (1 + d_ij / scale)^gamma`` (diagonal boosted by
    ``same_city_boost``). Rows are precomputed as cumulative
    distributions; picking a city is a binary search.
    """

    def __init__(self, config: GraphGenConfig):
        self._cum: dict[str, np.ndarray] = {}
        for code, cities in build_gazetteer().items():
            lats = np.array([c.latitude for c in cities])
            lons = np.array([c.longitude for c in cities])
            weights = np.array([c.weight for c in cities])
            distances = haversine_miles(
                lats[:, None], lons[:, None], lats[None, :], lons[None, :]
            )
            kernel = weights[None, :] / np.power(
                1.0 + distances / config.gravity_scale_miles, config.gravity_gamma
            )
            kernel[np.diag_indices(len(cities))] *= config.same_city_boost
            cumulative = np.cumsum(kernel, axis=1)
            cumulative /= cumulative[:, -1:]
            self._cum[code] = cumulative

    def pick_city(self, code: str, source_city: int, roll: float) -> int:
        return int(np.searchsorted(self._cum[code][source_city], roll))


def _sample_out_degrees(
    population: Population, config: GraphGenConfig, rng: np.random.Generator
) -> np.ndarray:
    """Pareto out-degree targets, capped for non-whitelisted users."""
    u = rng.random(population.n)
    raw = config.out_scale * np.power(u, -1.0 / config.out_alpha)
    degrees = np.maximum(1, np.floor(raw).astype(np.int64))
    capped = np.minimum(degrees, config.out_degree_cap)
    if population.celebrity_spec:
        # Whitelisted accounts may exceed the cap (Section 3.3.1), though
        # their sampled wish rarely does; keep the uncapped draw.
        whitelisted = np.fromiter(
            population.celebrity_spec,
            dtype=np.int64,
            count=len(population.celebrity_spec),
        )
        capped[whitelisted] = np.minimum(
            degrees[whitelisted], 2 * config.out_degree_cap
        )
    # Nobody can follow more users than exist.
    return np.minimum(capped, population.n - 1)


def _country_mixing(population: Population) -> dict[str, tuple[float, float]]:
    """Per-country (domesticity, us_flux) rows."""
    return {
        code: (country.domesticity, country.us_flux if code != "US" else 0.0)
        for code, country in population.countries.items()
    }


def generate_graph(
    population: Population,
    config: GraphGenConfig,
    rng: np.random.Generator,
) -> GeneratedGraph:
    """Run the growth process and return the directed edge list."""
    n = population.n
    with trace.span("graphgen.setup", users=n):
        out_wish = _sample_out_degrees(population, config, rng)
        pools = _TokenPools(population, config)
        mixing = _country_mixing(population)
        gravity = _GravityKernel(config) if config.geo_homophily else None
    country_codes = population.country_codes
    city_indices = population.city_indices
    followback = population.followback
    celebrity = population.celebrity_weight > 0

    # Global share distribution for the non-domestic, non-US remainder.
    all_codes = list(population.countries)
    shares = np.array([population.countries[c].gplus_share for c in all_codes])
    shares = shares / shares.sum()
    share_cum = np.cumsum(shares)

    out_sets: list[set[int]] = [set() for _ in range(n)]
    out_lists: list[list[int]] = [[] for _ in range(n)]
    in_degree = np.zeros(n, dtype=np.int64)
    sources: list[int] = []
    targets: list[int] = []

    def add_edge(u: int, v: int) -> bool:
        if u == v or v in out_sets[u]:
            return False
        out_sets[u].add(v)
        out_lists[u].append(v)
        sources.append(u)
        targets.append(v)
        in_degree[v] += 1
        pools.record_follow(population, v)
        return True

    def maybe_followback(u: int, v: int, roll: float) -> None:
        """v considers following u back after receiving the edge u -> v."""
        p = followback[v] / (1.0 + in_degree[v] / config.followback_popularity_scale)
        p *= config.followback_wish_gain / (
            1.0 + out_wish[v] / config.followback_wish_scale
        )
        if country_codes[u] == country_codes[v]:
            if city_indices[u] == city_indices[v]:
                p *= 1.3
            else:
                p *= 1.15
        else:
            p *= 0.7
        if roll >= min(0.98, p):
            return
        at_cap = (
            len(out_sets[v]) >= config.out_degree_cap and not celebrity[v]
        )
        if not at_cap:
            add_edge(v, u)

    def pick_from_pool(pool: list[int], u: int, roll: float) -> int | None:
        for attempt in range(4):
            candidate = pool[int(roll * len(pool)) % len(pool)]
            if candidate != u and candidate not in out_sets[u]:
                return candidate
            roll = rng.random()
        return None

    max_rounds = int(out_wish.max())
    active = np.argsort(-out_wish)  # stable processing order, heaviest first
    with trace.span("graphgen.growth_rounds", rounds=max_rounds):
        _run_growth_rounds(
            max_rounds,
            active,
            out_wish,
            config,
            rng,
            mixing,
            gravity,
            pools,
            country_codes,
            city_indices,
            all_codes,
            share_cum,
            out_lists,
            out_sets,
            add_edge,
            maybe_followback,
            pick_from_pool,
        )

    return GeneratedGraph(
        sources=np.array(sources, dtype=np.int64),
        targets=np.array(targets, dtype=np.int64),
        n_users=n,
    )


def _run_growth_rounds(
    max_rounds,
    active,
    out_wish,
    config,
    rng,
    mixing,
    gravity,
    pools,
    country_codes,
    city_indices,
    all_codes,
    share_cum,
    out_lists,
    out_sets,
    add_edge,
    maybe_followback,
    pick_from_pool,
) -> int:
    """Interleaved edge-growth rounds (split out for span accounting)."""
    edges_added = 0
    for round_index in range(max_rounds):
        round_users = active[out_wish[active] > round_index]
        if len(round_users) == 0:
            break
        k = len(round_users)
        triadic_rolls = rng.random(k)
        country_rolls = rng.random(k)
        city_rolls = rng.random(k)
        pick_rolls = rng.random(k)
        follow_rolls = rng.random(k)
        for slot in range(k):
            u = int(round_users[slot])
            target: int | None = None
            # Triadic closure: follow a followee of a followee.
            if triadic_rolls[slot] < config.triadic_prob and out_lists[u]:
                v = out_lists[u][int(pick_rolls[slot] * len(out_lists[u]))]
                if out_lists[v]:
                    w = out_lists[v][
                        int(city_rolls[slot] * len(out_lists[v]))
                    ]
                    if w != u and w not in out_sets[u]:
                        target = w
            if target is None:
                code = country_codes[u]
                domesticity, us_flux = mixing[code]
                roll = country_rolls[slot]
                if roll < domesticity:
                    target_code = code
                elif roll < domesticity + us_flux:
                    target_code = "US"
                else:
                    target_code = all_codes[
                        int(np.searchsorted(share_cum, rng.random()))
                    ]
                if target_code == code and gravity is not None:
                    city = gravity.pick_city(code, int(city_indices[u]), city_rolls[slot])
                    pool = pools.by_city.get((code, city)) or pools.by_country[code]
                elif (
                    target_code == code
                    and city_rolls[slot] < config.same_city_prob
                ):
                    pool = pools.by_city.get(
                        (code, int(city_indices[u])),
                        pools.by_country[code],
                    )
                else:
                    # Small worlds leave some countries without residents;
                    # a stub drawn to one falls back to its own country.
                    pool = pools.by_country.get(target_code) or pools.by_country[code]
                target = pick_from_pool(pool, u, pick_rolls[slot])
            if target is None:
                continue
            if add_edge(u, target):
                edges_added += 1
                maybe_followback(u, target, follow_rolls[slot])
    return edges_added
