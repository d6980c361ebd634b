"""Vectorized world-generation engine: round-batched graph growth.

:func:`generate_graph_fast` produces the same *calibrated* graph family
as :func:`repro.synth.graphgen.generate_graph` — preferential attachment
with celebrity seeding, country mixing rows, gravity city homophily,
triadic closure, damped follow-back, and the 5000-contact cap — at a
fraction of the cost. Where the reference engine pays one Python call
per edge (`add_edge` / `maybe_followback` / `pick_from_pool`) and keeps
token-duplication lists that materialise one Python int per attachment
unit, the fast engine:

* keeps **incremental weight arrays** (:class:`IncrementalPools`): one
  float per (user, pool layer), bumped in O(1) per received edge, with
  per-pool cumulative tables rebuilt lazily — only when a pool is both
  stale and actually sampled;
* draws each growth round's decisions as **whole-round array ops** —
  country mixing rows, gravity city picks (row-wise ``searchsorted``
  over the stacked cumulative kernels), pool candidate picks, triadic
  hops (gathers from a preallocated **wish buffer** CSR of accepted
  forward edges), duplicate detection (bulk hash-set probes of integer
  edge keys), and follow-back acceptances — there is no per-edge Python
  loop anywhere in the growth process.

The two engines are *statistically* equivalent, not bitwise: the fast
engine has its own RNG draw discipline (documented in ``docs/synth.md``
together with the tolerance table of the calibration acceptance suite).
The deliberate behavioural deviations, all documented there:

* each decision gets its **own roll** — the reference engine reuses
  ``city_rolls[slot]`` for both the triadic second hop and the gravity
  city pick (kept there because changing it would invalidate goldens);
* rounds are **batched**: attachment weights, in-degrees and follow-back
  probabilities update at round granularity instead of per edge;
* triadic closure samples both hops from **forward (wish) edges only**;
  follow-back edges still shape in-degree, attachment weight and the
  contact cap, but are invisible to the two-hop walk;
* the returned edge arrays are **grouped by source** (stable within a
  user), not interleaved in acceptance order.

Determinism: every draw comes from the caller's ``np.random.Generator``
in a fixed order, and no salted ``hash()`` or wall-clock input is used,
so equal seeds give bit-identical edge arrays across runs *and* across
processes (asserted by tests).
"""

from __future__ import annotations

import numpy as np

from repro.obs import trace
from repro.obs.metrics import get_registry
from repro.platform.gcpause import gc_paused

from .cities import build_gazetteer
from .config import GraphGenConfig
from .graphgen import GeneratedGraph, _GravityKernel, _sample_out_degrees
from .profiles import Population


#: Rounds with at least this many active users run singly (exactly one
#: stub per user per round, as the reference engine does), keeping
#: attachment-weight updates at per-round granularity where most of the
#: graph's mass attaches.
_STUB_BATCH = 8192

#: Target stubs per *coalesced* batch for rounds smaller than
#: ``_STUB_BATCH``: the long celebrity tail (up to ``2 * out_degree_cap``
#: rounds of a handful of users) collapses into a few dozen batches.
_TAIL_BATCH = 32768


class IncrementalPools:
    """Grouped incremental cumulative-weight sampler.

    Members (identified by their index in the constructor arrays) are
    partitioned into groups; each group's weights occupy one contiguous
    slice of a single array. This gives the three operations the growth
    loop needs:

    * :meth:`add_weights` — O(1) amortised per bump (``np.add.at`` on the
      flat array), marking only the touched groups stale;
    * :meth:`pick` — weight-proportional sampling of many members of one
      group at once, via ``searchsorted`` on the group's cumulative table;
    * lazy rebuilds — a group's cumulative table is recomputed only when
      it is both stale and sampled (``rebuilds`` counts them).

    Weights must stay non-negative; mutators raise on updates that would
    take any weight below zero.
    """

    def __init__(self, group_ids: np.ndarray, weights: np.ndarray):
        group_ids = np.asarray(group_ids, dtype=np.int64)
        weights = np.asarray(weights, dtype=np.float64)
        if group_ids.shape != weights.shape or group_ids.ndim != 1:
            raise ValueError("group_ids and weights must be equal-length 1-D arrays")
        if len(group_ids) and group_ids.min() < 0:
            raise ValueError("group ids must be non-negative")
        if (weights < 0).any():
            raise ValueError("weights must be non-negative")
        self.n_groups = int(group_ids.max()) + 1 if len(group_ids) else 0
        #: member index per slot, grouped: ``order[starts[g]:stops[g]]``
        #: lists group ``g``'s members.
        self.order = np.argsort(group_ids, kind="stable")
        counts = np.bincount(group_ids, minlength=self.n_groups)
        self.stops = np.cumsum(counts)
        self.starts = self.stops - counts
        self.group_of = group_ids
        self.slot_of = np.empty(len(group_ids), dtype=np.int64)
        self.slot_of[self.order] = np.arange(len(group_ids))
        self._weights = weights[self.order].copy()
        self._cums: list[np.ndarray | None] = [None] * self.n_groups
        #: number of lazy cumulative-table rebuilds performed so far.
        self.rebuilds = 0

    def group_size(self, group: int) -> int:
        return int(self.stops[group] - self.starts[group])

    def group_weights(self, group: int) -> np.ndarray:
        """Copy of one group's weights, in member order (for inspection)."""
        return self._weights[self.starts[group]:self.stops[group]].copy()

    def weight_of(self, member: int) -> float:
        return float(self._weights[self.slot_of[member]])

    def add_weight(self, member: int, amount: float = 1.0) -> None:
        """Bump one member's weight; O(1), invalidates only its group."""
        slot = self.slot_of[member]
        if self._weights[slot] + amount < 0:
            raise ValueError("weight update would go negative")
        self._weights[slot] += amount
        self._cums[self.group_of[member]] = None

    def add_weights(self, members: np.ndarray, amount: float = 1.0) -> None:
        """Bump many members at once (repeats accumulate)."""
        if len(members) == 0:
            return
        slots = self.slot_of[members]
        np.add.at(self._weights, slots, amount)
        if (self._weights[slots] < 0).any():
            np.add.at(self._weights, slots, -amount)
            raise ValueError("weight update would go negative")
        for group in np.unique(self.group_of[members]).tolist():
            self._cums[group] = None

    def cumulative(self, group: int) -> np.ndarray:
        """The group's cumulative weight table, rebuilt lazily.

        A table with positive total is normalized to end at exactly 1.0,
        so picks compare raw rolls in [0, 1) against it: a roll can never
        land past the last positive-weight member, and subnormal totals
        (where ``roll * total`` would round away the proportions) sample
        as accurately as any other.
        """
        cum = self._cums[group]
        if cum is None:
            cum = self._weights[self.starts[group]:self.stops[group]].cumsum()
            if len(cum) and cum[-1] > 0:
                cum /= cum[-1]
            self._cums[group] = cum
            self.rebuilds += 1
        return cum

    def pick(self, group: int, rolls: np.ndarray) -> np.ndarray:
        """Weight-proportional member picks for uniform rolls in [0, 1)."""
        cum = self.cumulative(group)
        if len(cum) == 0 or cum[-1] <= 0:
            raise ValueError(f"group {group} has no samplable weight")
        return self.order[self.starts[group] + cum.searchsorted(rolls, side="right")]

    def pick_scalar(self, group: int, roll: float) -> int:
        """Single weight-proportional pick (the collision-retry fallback)."""
        return int(self.pick(group, np.array([roll]))[0])


class _KeySet:
    """Vectorized open-addressing hash set of non-negative int64 keys.

    Purpose-built for the duplicate-edge filter: ``contains`` probes and
    ``add`` inserts whole arrays with a handful of numpy ops per probe
    round (Fibonacci hashing + linear probing), instead of one Python
    hash-set operation per key. Empty slots hold -1; the table doubles
    when load reaches 1/2. ``add`` requires keys unique within the call
    (the growth loop always inserts freshly deduplicated batches).
    """

    _MULT = np.uint64(0x9E3779B97F4A7C15)

    def __init__(self, expected: int = 1024):
        bits = max(10, int(np.ceil(np.log2(max(2 * expected, 2)))))
        self._bits = bits
        self._table = np.full(1 << bits, -1, dtype=np.int64)
        self._count = 0

    def _home(self, keys: np.ndarray) -> np.ndarray:
        h = keys.astype(np.uint64) * self._MULT
        return (h >> np.uint64(64 - self._bits)).astype(np.int64)

    def contains(self, keys: np.ndarray) -> np.ndarray:
        """Boolean membership mask for an array of keys."""
        table = self._table
        mask = len(table) - 1
        slot = self._home(keys)
        out = np.zeros(len(keys), dtype=bool)
        live = np.arange(len(keys))
        while len(live):
            found = table[slot]
            hit = found == keys[live]
            out[live[hit]] = True
            probing = ~hit & (found != -1)
            live = live[probing]
            slot = (slot[probing] + 1) & mask
        return out

    def add(self, keys: np.ndarray) -> None:
        """Insert keys (unique within the call; duplicates of stored
        keys are ignored)."""
        if self._count + len(keys) > len(self._table) // 2:
            self._grow(self._count + len(keys))
        table = self._table
        mask = len(table) - 1
        slot = self._home(keys)
        live = np.arange(len(keys))
        while len(live):
            found = table[slot]
            free = found == -1
            # Claim empty slots; colliding writers are detected below
            # (the last write wins) and retry at the next slot.
            cand_slots = slot[free]
            cand_live = live[free]
            table[cand_slots] = keys[cand_live]
            won = table[slot] == keys[live]
            self._count += int(np.count_nonzero(free & won))
            settled = won | (found == keys[live])
            live = live[~settled]
            slot = (slot[~settled] + 1) & mask
        return None

    def _grow(self, need: int) -> None:
        stored = self._table[self._table != -1]
        while (1 << self._bits) // 2 < need:
            self._bits += 1
        self._table = np.full(1 << self._bits, -1, dtype=np.int64)
        self._count = 0
        if len(stored):
            self.add(stored)


def _metrics():
    registry = get_registry()
    return {
        "rounds": registry.counter(
            "synth.gen_rounds", "growth rounds executed by the fast engine"
        ),
        "batches": registry.counter(
            "synth.gen_round_batches",
            "coalesced round batches executed by the fast engine",
        ),
        "stubs": registry.counter(
            "synth.gen_stubs", "edge stubs attempted by the fast engine"
        ),
        "edges": registry.counter(
            "synth.gen_edges", "edges added by the fast engine", labels=("kind",)
        ),
        "retries": registry.counter(
            "synth.gen_retry_picks",
            "scalar fallback re-picks after collision/self-loop/duplicate",
        ),
        "rebuilds": registry.counter(
            "synth.pool_rebuilds",
            "lazy cumulative-table rebuilds, by pool layer",
            labels=("layer",),
        ),
        "edges_per_round": registry.gauge(
            "synth.gen_edges_per_round", "mean edges per round of the last fast run"
        ),
        "retry_fraction": registry.gauge(
            "synth.gen_retry_fraction",
            "scalar-fallback re-picks per stub of the last fast run",
        ),
    }


def generate_graph_fast(
    population: Population,
    config: GraphGenConfig,
    rng: np.random.Generator,
) -> GeneratedGraph:
    """Run the vectorized growth process and return the directed edge list.

    Drop-in alternative to :func:`repro.synth.graphgen.generate_graph`
    for the same ``(population, config)``; selected by
    ``WorldConfig(engine="fast")``.
    """
    with gc_paused():
        return _generate_graph_fast(population, config, rng)


def _generate_graph_fast(
    population: Population,
    config: GraphGenConfig,
    rng: np.random.Generator,
) -> GeneratedGraph:
    n = population.n
    metrics = _metrics()
    with trace.span("fastgen.setup", users=n):
        out_wish = _sample_out_degrees(population, config, rng)

        codes = list(population.countries)
        code_index = {code: i for i, code in enumerate(codes)}
        n_countries = len(codes)
        country_idx = np.fromiter(
            (code_index[c] for c in population.country_codes), np.int64, count=n
        )
        city_idx = population.city_indices.astype(np.int64)

        domesticity = np.array(
            [population.countries[c].domesticity for c in codes]
        )
        us_flux = np.array(
            [population.countries[c].us_flux if c != "US" else 0.0 for c in codes]
        )
        shares = np.array([population.countries[c].gplus_share for c in codes])
        share_cum = np.cumsum(shares / shares.sum())
        us_i = code_index.get("US", 0)
        #: Small worlds leave some countries without residents; a stub
        #: drawn to one of those falls back to its own country's pool.
        populated = np.bincount(country_idx, minlength=n_countries) > 0

        # Pool layers. City pools are keyed ci * stride + city so both
        # layers live in one IncrementalPools each; empty city groups
        # (gravity may target a city with no residents) fall back to the
        # country pool, as in the reference engine.
        init_weights = config.base_attachment_tokens + np.round(
            population.celebrity_weight
        )
        country_pools = IncrementalPools(country_idx, init_weights)
        stride = int(city_idx.max()) + 1 if n else 1
        city_gid = country_idx * stride + city_idx
        city_pools = IncrementalPools(city_gid, init_weights)
        city_sizes = np.zeros(city_pools.n_groups, dtype=np.int64)
        np.add.at(city_sizes, city_gid, 1)

        grav_cum: dict[int, np.ndarray] | None = None
        if config.geo_homophily:
            kernel = _GravityKernel(config)
            gazetteer = build_gazetteer()
            grav_cum = {
                code_index[code]: kernel._cum[code]
                for code in gazetteer
                if code in code_index
            }

        followback = population.followback
        celebrity = population.celebrity_weight > 0
        cap = config.out_degree_cap

    # Global duplicate-edge filter: one int key u * n + v per edge in a
    # vectorized open-addressing hash set (:class:`_KeySet`), replacing
    # the reference's per-user member sets. Membership and insertion are
    # whole-array probes — a handful of numpy ops per batch instead of
    # one Python hash operation per key. Inserted keys = accepted edges:
    # forward (≤ the wish total) plus follow-backs (~half of forward at
    # the calibrated reciprocity), so 1.5× the wish total covers the
    # insert load with margin; _KeySet doubles that for the table.
    seen = _KeySet(expected=int(out_wish.sum() * 1.5) + 1024)
    seen_mask = seen.contains

    # Wish-buffer CSR: per-user slices of one flat array hold each user's
    # accepted *forward* (wish) edges, preallocated from out_wish, filled
    # as rounds accept edges. Triadic closure samples both hops from this
    # buffer with pure array gathers. Follow-back edges are not written
    # here (their count is not known up front), so they are invisible to
    # triadic hop sampling — a documented deviation from the reference
    # engine, revalidated by the calibration acceptance suite.
    # User ids fit int32 at any supported scale; the wish buffer and the
    # accepted-edge chunks are the O(edges) resident arrays, so halving
    # their width halves the growth loop's standing footprint (keys and
    # arithmetic stay int64 — only storage narrows).
    edge_dtype = np.int32 if n < 2**31 else np.int64
    off = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(out_wish, out=off[1:])
    buf = np.zeros(int(off[-1]), dtype=edge_dtype)
    fill = np.zeros(n, dtype=np.int64)

    out_len = np.zeros(n, dtype=np.int64)
    in_degree = np.zeros(n, dtype=np.int64)
    chunk_src: list[np.ndarray] = []
    chunk_dst: list[np.ndarray] = []

    active = np.argsort(-out_wish)  # stable processing order, heaviest first
    wish_desc = out_wish[active]
    max_rounds = int(out_wish.max()) if n else 0
    rounds_run = 0
    batches_run = 0
    stubs = 0
    retries = 0
    edges_forward = 0
    edges_followback = 0

    with trace.span("fastgen.growth_rounds", rounds=max_rounds):
        round_index = 0
        while round_index < max_rounds:
            # active is sorted by descending wish, so this round's users
            # are the prefix still wishing for more than round_index edges.
            k = int(np.searchsorted(-wish_desc, -round_index, side="left"))
            if k == 0:
                break
            # Late rounds shrink to a handful of heavy users (celebrities
            # whitelisted past the cap); running them one round at a time
            # would pay the fixed per-round cost thousands of times for a
            # trickle of stubs. Rounds with at least _STUB_BATCH active
            # users always run singly (weight updates stay per-round where
            # the bulk of the mass attaches); smaller rounds are coalesced
            # until the batch carries ~_TAIL_BATCH stubs, so the celebrity
            # tail costs a few dozen batches instead of thousands.
            if k >= _STUB_BATCH:
                span_rounds = 1
            else:
                span_rounds = min(max(1, _TAIL_BATCH // k), max_rounds - round_index)
            if span_rounds == 1:
                users = active[:k]
            else:
                per_user = np.minimum(wish_desc[:k] - round_index, span_rounds)
                users = np.repeat(active[:k], per_user)
            round_index += span_rounds
            rounds_run += span_rounds
            batches_run += 1
            k = len(users)
            stubs += k
            # Fixed per-round draw order; every decision owns its roll
            # (unlike the reference engine's city_rolls reuse).
            triadic_rolls = rng.random(k)
            country_rolls = rng.random(k)
            city_rolls = rng.random(k)
            pick_rolls = rng.random(k)
            global_rolls = rng.random(k)
            tri_v_rolls = rng.random(k)
            tri_w_rolls = rng.random(k)

            targets = np.full(k, -1, dtype=np.int64)
            # Pool key per slot for the collision-retry fallback:
            # [0, n_countries) = country pool, >= n_countries = city pool
            # shifted by n_countries, -1 = triadic pick (no pool).
            slot_pool = np.full(k, -1, dtype=np.int64)

            # -- triadic closure: follow a followee of a followee ----------
            # Both hops are array gathers from the wish buffer. An invalid
            # pick (no second hop, self-loop, or an edge that already
            # exists) falls through to the country/pool path, as in the
            # reference engine.
            tri_slots = np.flatnonzero(
                (triadic_rolls < config.triadic_prob) & (fill[users] > 0)
            )
            if len(tri_slots):
                tu = users[tri_slots]
                hop1 = (tri_v_rolls[tri_slots] * fill[tu]).astype(np.int64)
                v = buf[off[tu] + hop1]
                has_hop2 = fill[v] > 0
                sl2 = tri_slots[has_hop2]
                v2 = v[has_hop2]
                hop2 = (tri_w_rolls[sl2] * fill[v2]).astype(np.int64)
                w = buf[off[v2] + hop2]
                u2 = users[sl2]
                good = (w != u2) & ~seen_mask(u2 * n + w)
                targets[sl2[good]] = w[good]

            # -- country mixing + gravity city + pool picks (vectorized) ---
            need = np.flatnonzero(targets < 0)
            if len(need):
                nu = users[need]
                nci = country_idx[nu]
                roll = country_rolls[need]
                dom = domesticity[nci]
                target_ci = np.where(
                    roll < dom,
                    nci,
                    np.where(
                        roll < dom + us_flux[nci],
                        us_i,
                        np.searchsorted(share_cum, global_rolls[need]),
                    ),
                )
                same = target_ci == nci
                # Default: the target country's pool (own country when
                # the target has no residents).
                pool_key = np.where(populated[target_ci], target_ci, nci)
                if grav_cum is not None:
                    dsel = np.flatnonzero(same)
                    if len(dsel):
                        d_ci = nci[dsel]
                        for ci in np.unique(d_ci).tolist():
                            csel = dsel[d_ci == ci]
                            rows = grav_cum[ci][city_idx[nu[csel]]]
                            rolls2 = city_rolls[need[csel]]
                            picked_city = (rows < rolls2[:, None]).sum(axis=1)
                            # Gravity may target a city with no residents
                            # (possibly past the last resident group id);
                            # those stubs keep the country pool.
                            gid = ci * stride + picked_city
                            in_range = np.minimum(gid, len(city_sizes) - 1)
                            resident = (gid < len(city_sizes)) & (
                                city_sizes[in_range] > 0
                            )
                            pool_key[csel[resident]] = n_countries + gid[resident]
                else:
                    # Ablation baseline: flat same-city probability. The
                    # user's own city group always has residents.
                    own_city = same & (city_rolls[need] < config.same_city_prob)
                    gid = nci * stride + city_idx[nu]
                    pool_key[own_city] = n_countries + gid[own_city]

                # Group stubs by pool and sample each pool's batch at once.
                # (int32 keys: the stable radix sort runs half the passes.)
                order = np.argsort(pool_key.astype(np.int32), kind="stable")
                sorted_keys = pool_key[order]
                boundaries = np.flatnonzero(np.diff(sorted_keys)) + 1
                cand = np.empty(len(need), dtype=np.int64)
                for part in np.split(np.arange(len(need))[order], boundaries):
                    key = int(pool_key[part[0]])
                    rolls3 = pick_rolls[need[part]]
                    if key < n_countries:
                        cand[part] = country_pools.pick(key, rolls3)
                    else:
                        cand[part] = city_pools.pick(key - n_countries, rolls3)
                targets[need] = cand
                slot_pool[need] = pool_key

            # -- accept forward stubs: vectorized edge keys checked against
            # -- the sorted-chunk duplicate filter (in-batch duplicates via
            # -- np.unique first-occurrence), with up to 3 vectorized
            # -- re-pick passes for collisions (matching the reference's
            # -- 4-attempt pick_from_pool loop). Self-loops encode as a
            # -- negative key so the accept pass makes a single check. ----
            keys = np.where(
                (targets < 0) | (targets == users), -1, users * n + targets
            )
            acc_parts: list[np.ndarray] = []
            pending = np.flatnonzero(targets >= 0)
            for attempt in range(4):
                pk = keys[pending]
                valid = pk >= 0
                if attempt == 0:
                    # Triadic picks were already screened against `seen`
                    # at pick time and nothing was inserted since, so the
                    # first attempt only needs to probe pool picks.
                    dup = np.zeros(len(pk), dtype=bool)
                    pool_slots = np.flatnonzero(slot_pool[pending] >= 0)
                    if len(pool_slots):
                        dup[pool_slots] = seen_mask(pk[pool_slots])
                else:
                    dup = seen_mask(pk)
                lost = ~valid | dup
                _, first_idx = np.unique(pk, return_index=True)
                first = np.zeros(len(pk), dtype=bool)
                first[first_idx] = True
                ok = ~lost & first
                new_keys = pk[ok]
                if len(new_keys):
                    acc_parts.append(new_keys)
                    seen.add(new_keys)
                # Triadic picks (pool -1) are not retried: a collision
                # there means the edge already exists.
                fail = ~ok & (slot_pool[pending] >= 0)
                if attempt == 3 or not fail.any():
                    break
                pending = pending[fail]
                retries += len(pending)
                fkeys = slot_pool[pending]
                rolls = rng.random(len(pending))
                order2 = np.argsort(fkeys.astype(np.int32), kind="stable")
                bounds = np.flatnonzero(np.diff(fkeys[order2])) + 1
                repick = np.empty(len(pending), dtype=np.int64)
                for part in np.split(order2, bounds):
                    key = int(fkeys[part[0]])
                    if key < n_countries:
                        repick[part] = country_pools.pick(key, rolls[part])
                    else:
                        repick[part] = city_pools.pick(
                            key - n_countries, rolls[part]
                        )
                fusers = users[pending]
                keys[pending] = np.where(
                    repick == fusers, -1, fusers * n + repick
                )

            if not acc_parts:
                continue
            acc_keys = np.concatenate(acc_parts)
            src_arr = acc_keys // n
            dst_arr = acc_keys - src_arr * n
            chunk_src.append(src_arr.astype(edge_dtype))
            chunk_dst.append(dst_arr.astype(edge_dtype))
            edges_forward += len(src_arr)
            np.add.at(in_degree, dst_arr, 1)
            np.add.at(out_len, src_arr, 1)
            country_pools.add_weights(dst_arr)
            city_pools.add_weights(dst_arr)
            # Scatter this batch's forward edges into the wish buffer:
            # group by source, then slot = offset + fill + rank-in-batch.
            worder = np.argsort(
                src_arr.astype(np.int32) if n < 2**31 else src_arr, kind="stable"
            )
            ws = src_arr[worder]
            grp_start = np.flatnonzero(np.r_[True, ws[1:] != ws[:-1]])
            counts = np.diff(np.append(grp_start, len(ws)))
            rank = np.arange(len(ws)) - np.repeat(grp_start, counts)
            buf[off[ws] + fill[ws] + rank] = dst_arr[worder]
            fill[ws[grp_start]] += counts

            # -- follow-back (vectorized probabilities, batch semantics) ---
            follow_rolls = rng.random(len(src_arr))
            p = followback[dst_arr] / (
                1.0 + in_degree[dst_arr] / config.followback_popularity_scale
            )
            p *= config.followback_wish_gain / (
                1.0 + out_wish[dst_arr] / config.followback_wish_scale
            )
            same_c = country_idx[src_arr] == country_idx[dst_arr]
            same_city = same_c & (city_idx[src_arr] == city_idx[dst_arr])
            p *= np.where(same_city, 1.3, np.where(same_c, 1.15, 0.7))
            accept = follow_rolls < np.minimum(0.98, p)
            # The 5000-contact cap applies unless whitelisted (celebrity);
            # out_len includes this batch's forward edges, so the check is
            # at batch rather than per-edge granularity.
            accept &= (out_len[dst_arr] < cap) | celebrity[dst_arr]

            fb_cand = (dst_arr * n + src_arr)[accept]
            if len(fb_cand):
                _, fb_first = np.unique(fb_cand, return_index=True)
                fb_mask = np.zeros(len(fb_cand), dtype=bool)
                fb_mask[fb_first] = True
                fb_mask &= ~seen_mask(fb_cand)
                fb_keys = fb_cand[fb_mask]
            else:
                fb_keys = fb_cand
            if len(fb_keys):
                seen.add(fb_keys)
                fsrc = fb_keys // n
                fdst = fb_keys - fsrc * n
                chunk_src.append(fsrc.astype(edge_dtype))
                chunk_dst.append(fdst.astype(edge_dtype))
                edges_followback += len(fsrc)
                np.add.at(in_degree, fdst, 1)
                np.add.at(out_len, fsrc, 1)
                country_pools.add_weights(fdst)
                city_pools.add_weights(fdst)

    metrics["rounds"].inc(rounds_run)
    metrics["batches"].inc(batches_run)
    metrics["stubs"].inc(stubs)
    metrics["edges"].inc(edges_forward, kind="forward")
    metrics["edges"].inc(edges_followback, kind="followback")
    metrics["retries"].inc(retries)
    metrics["rebuilds"].inc(country_pools.rebuilds, layer="country")
    metrics["rebuilds"].inc(city_pools.rebuilds, layer="city")
    total_edges = edges_forward + edges_followback
    if rounds_run:
        metrics["edges_per_round"].set(total_edges / rounds_run)
    if stubs:
        metrics["retry_fraction"].set(retries / stubs)

    # Release the growth-loop state before materialising the final
    # arrays: the hash table and wish buffer are the two biggest
    # allocations, and holding them across the concatenate would stack
    # the peak RSS instead of pipelining it.
    del seen, seen_mask, buf, fill

    if chunk_src:
        sources = np.concatenate(chunk_src)
        targets_arr = np.concatenate(chunk_dst)
        chunk_src.clear()
        chunk_dst.clear()
        # Emit edges grouped by source (stable, so a user's contacts stay
        # in acceptance order): deterministic, and downstream bulk ingest
        # sorts by owner anyway, so handing it nearly-sorted input makes
        # the service phase cheaper.
        order = np.argsort(sources, kind="stable")
        sources = sources[order].astype(np.int64)
        targets_arr = targets_arr[order].astype(np.int64)
    else:
        sources = np.empty(0, dtype=np.int64)
        targets_arr = np.empty(0, dtype=np.int64)
    return GeneratedGraph(sources=sources, targets=targets_arr, n_users=n)
