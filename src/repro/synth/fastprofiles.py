"""Vectorized profile generation — the ``engine="fast"`` counterpart of
:func:`repro.synth.profiles.build_profiles`.

The reference builder draws ~30 scalar uniforms per user (one or two per
field decision). This module draws them as whole-population matrices —
one ``(n, n_fields)`` public-share Bernoulli matrix, one hidden-field
matrix, one privacy-level matrix — and then assembles them straight
into a :class:`~repro.platform.columnar.ColumnarProfileStore`, with no
object per user.

Equivalence contract (same as :mod:`repro.synth.fastgen`): identical
marginal distributions per decision, *not* an identical RNG stream. Every
decision gets its own roll (the reference draws a second roll only when
the first fails, and reuses none), and rolls are consumed column-by-column
rather than user-by-user. Determinism holds: the same seed produces the
same profiles across runs and processes, because everything flows from the
caller's ``Generator`` in a fixed order and the phone prefix uses
``zlib.crc32`` (never salted ``hash()``).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass

import numpy as np

from repro.platform.columnar import ABSENT, ColumnarProfileStore, FieldColumn
from repro.platform.models import (
    ContactInfo,
    LookingFor,
    OCCUPATION_LABELS,
    Place,
)
from repro.platform.gcpause import gc_paused
from repro.platform.privacy import PUBLIC

from .cities import CitySampler
from .config import WorldConfig
from .demographics import FIELD_SHARE_PROBABILITY
from .profiles import _HIDDEN_LEVELS, Population

#: The decide()-style fields, in the reference builder's set order.
#: ``gender`` and the contact blocks are handled specially, as there.
_DECIDE_FIELDS: tuple[str, ...] = (
    "places_lived",
    "education",
    "employment",
    "phrase",
    "other_profiles",
    "occupation",
    "contributor_to",
    "introduction",
    "other_names",
    "relationship",
    "bragging_rights",
    "recommended_links",
    "looking_for",
)

#: Fields celebrities always publish (curated public presence).
_CELEBRITY_PUBLIC: tuple[str, ...] = (
    "occupation",
    "places_lived",
    "employment",
)


def _decision_matrices(
    population: Population,
    config: WorldConfig,
    openness: np.ndarray,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-(user, field) presence status and hidden privacy level.

    Status: 0 = absent, 1 = public, 2 = hidden (privacy from ``level``).
    """
    n = population.n
    k = len(_DECIDE_FIELDS)
    base = np.array([FIELD_SHARE_PROBABILITY[f] for f in _DECIDE_FIELDS])
    factor = np.repeat(openness[:, None], k, axis=1)
    factor[:, _DECIDE_FIELDS.index("places_lived")] = 1.0
    p_public = np.minimum(
        0.995, base[None, :] * factor * population.disclosure[:, None]
    )
    public = rng.random((n, k)) < p_public
    hidden = rng.random((n, k)) < config.profiles.hidden_field_prob
    status = np.where(public, 1, np.where(hidden, 2, 0)).astype(np.int8)
    level = rng.integers(0, len(_HIDDEN_LEVELS), size=(n, k), dtype=np.int8)

    # Tel-users always carry a relationship status: 40% public (Table 3),
    # the rest hidden at a uniform level.
    rel = _DECIDE_FIELDS.index("relationship")
    tel = np.flatnonzero(population.tel_users)
    if len(tel):
        tel_public = rng.random(len(tel)) < 0.40
        status[tel, rel] = np.where(tel_public, 1, 2)
        level[tel, rel] = rng.integers(
            0, len(_HIDDEN_LEVELS), size=len(tel), dtype=np.int8
        )
    # Celebrities run open, curated profiles: forced-public fields.
    celebs = np.fromiter(
        population.celebrity_spec, dtype=np.int64, count=len(population.celebrity_spec)
    )
    if len(celebs):
        for key in _CELEBRITY_PUBLIC:
            status[celebs, _DECIDE_FIELDS.index(key)] = 1
    return status, level


@dataclass
class _PlacesPlan:
    """Every RNG-derived ingredient of the places-lived lists, as arrays.

    ``owners`` (ascending) are the users whose field is present;
    ``offsets`` is the CSR cut of the previous-place rows per owner.
    The profile columns keep the plan itself and build the
    :class:`Place` lists only on access.
    """

    owners: np.ndarray
    offsets: np.ndarray
    prev_codes: list[str]
    prev_city: np.ndarray
    prev_lat: np.ndarray
    prev_lon: np.ndarray
    names_of: dict[str, list[str]]


def _places_plan(
    population: Population,
    config: WorldConfig,
    sampler: CitySampler,
    present: np.ndarray,
    rng: np.random.Generator,
) -> _PlacesPlan:
    """Draw previous places for every present owner, in one batch.

    The draw order (multi flag, extra count, foreign flag, foreign
    country, city, jittered coordinates) is part of the engine's RNG
    contract.
    """
    owners = np.flatnonzero(present)
    n_present = len(owners)
    multi = rng.random(n_present) < config.profiles.multi_place_prob
    extra = np.where(multi, rng.integers(1, 3, size=n_present), 0)
    total = int(extra.sum())

    codes = np.asarray(population.country_codes)
    gaz_codes = np.asarray(sampler.countries())
    prev_owner = np.repeat(owners, extra)
    foreign = rng.random(total) < config.profiles.foreign_previous_place_prob
    prev_codes = codes[prev_owner].copy()
    prev_codes[foreign] = gaz_codes[rng.integers(0, len(gaz_codes), size=int(foreign.sum()))]
    # One shared str per country code, not one per row.
    interned: dict[str, str] = {}
    prev_list = [interned.setdefault(c, c) for c in map(str, prev_codes)]
    prev_city = sampler.sample_city_indices(prev_list, rng)
    prev_lat, prev_lon = sampler.coordinates_for_many(prev_list, prev_city, rng)
    names_of = {
        code: [c.name for c in sampler.cities_of(code)] for code in sampler.countries()
    }
    offsets = np.zeros(n_present + 1, dtype=np.int64)
    np.cumsum(extra, out=offsets[1:])
    return _PlacesPlan(
        owners=owners,
        offsets=offsets,
        prev_codes=prev_list,
        prev_city=prev_city,
        prev_lat=prev_lat,
        prev_lon=prev_lon,
        names_of=names_of,
    )


def _places_formula(population: Population, plan: _PlacesPlan):
    """Per-user places-lived builder over the plan arrays.

    Constructs the list only when a profile is actually read — nothing
    is resident per user.
    """
    owners = plan.owners
    offsets = plan.offsets
    names_of = plan.names_of
    country_list = population.country_codes
    city_idx = population.city_indices
    lats = population.latitudes
    lons = population.longitudes

    def places_of(user_id: int) -> list[Place]:
        row = int(np.searchsorted(owners, user_id))
        places = [
            Place(
                names_of[plan.prev_codes[j]][int(plan.prev_city[j])],
                float(plan.prev_lat[j]),
                float(plan.prev_lon[j]),
                plan.prev_codes[j],
            )
            for j in range(int(offsets[row]), int(offsets[row + 1]))
        ]
        code = country_list[user_id]
        places.append(
            Place(
                names_of[code][int(city_idx[user_id])],
                float(lats[user_id]),
                float(lons[user_id]),
                code,
            )
        )
        return places

    return places_of


@dataclass
class _ProfileDraws:
    """Every random draw behind a profile batch, in the order drawn.

    The column assembler consumes this one plan in a fixed order, so a
    seed always produces the same profiles.
    """

    lists_public: np.ndarray
    gender_public: np.ndarray
    gender_level: np.ndarray
    status: np.ndarray
    level: np.ndarray
    places: _PlacesPlan
    looking_idx: np.ndarray
    tel_roll: np.ndarray
    sliver: np.ndarray
    sliver_level: np.ndarray


def _draw_profile_plan(
    population: Population,
    config: WorldConfig,
    sampler: CitySampler,
    rng: np.random.Generator,
) -> _ProfileDraws:
    """All profile-stage RNG consumption, in the pinned order."""
    n = population.n
    openness = np.array(
        [population.countries[c].openness for c in population.country_codes]
    )
    lists_public = rng.random(n) >= config.profiles.private_lists_prob
    # Gender availability barely varies by culture; soft openness exponent,
    # exactly as the reference.
    gender_p = np.minimum(
        0.999, FIELD_SHARE_PROBABILITY["gender"] * openness**0.05
    )
    # Note: the reference routes gender around decide(), so the celebrity
    # forced-public rule never applies to it; mirror that exactly.
    gender_public = rng.random(n) < gender_p
    gender_level = rng.integers(0, len(_HIDDEN_LEVELS), size=n)
    status, level = _decision_matrices(population, config, openness, rng)
    places_col = _DECIDE_FIELDS.index("places_lived")
    places = _places_plan(
        population, config, sampler, status[:, places_col] > 0, rng
    )
    looking_idx = rng.integers(0, len(LookingFor), size=n)
    tel_roll = rng.random(n)
    sliver = rng.random(n) < 0.01
    sliver_level = rng.integers(0, len(_HIDDEN_LEVELS), size=n)
    return _ProfileDraws(
        lists_public=lists_public,
        gender_public=gender_public,
        gender_level=gender_level,
        status=status,
        level=level,
        places=places,
        looking_idx=looking_idx,
        tel_roll=tel_roll,
        sliver=sliver,
        sliver_level=sliver_level,
    )


#: Field-dict insertion order of fast profiles: gender opens every
#: dict, the decide() columns follow in reference order, contacts close.
_FAST_KEY_SEQUENCE: tuple[str, ...] = (
    "gender",
    *_DECIDE_FIELDS,
    "work_contact",
    "home_contact",
)


def build_profile_columns_fast(
    population: Population, config: WorldConfig, rng: np.random.Generator
) -> ColumnarProfileStore:
    """Profiles as a :class:`ColumnarProfileStore` — no object per user.

    Field values that repeat across the population live in small
    interned tables (gender, occupation, relationship, looking-for);
    per-user values (places, URLs, contact blocks) are derived from the
    user id and the draw plan on access, so the resident cost per field is two bytes of privacy code plus at
    most four bytes of value code per user.
    """
    with gc_paused():
        return _build_profile_columns_fast(population, config, rng)


def _build_profile_columns_fast(
    population: Population, config: WorldConfig, rng: np.random.Generator
) -> ColumnarProfileStore:
    n = population.n
    sampler = CitySampler()
    d = _draw_profile_plan(population, config, sampler, rng)
    levels_all = list((PUBLIC, *_HIDDEN_LEVELS))
    absent = int(ABSENT)
    columns: dict[str, FieldColumn] = {}

    # Gender is present on every profile; privacy code 0 = public,
    # 1 + j = the j-th hidden level — the same coding every column uses.
    gcode = np.where(d.gender_public, 0, d.gender_level + 1).astype(np.uint16)
    gender_vals = list(dict.fromkeys(population.genders))
    gender_index = {v: j for j, v in enumerate(gender_vals)}
    gvcode = np.fromiter(
        map(gender_index.__getitem__, population.genders), np.uint32, count=n
    )
    columns["gender"] = FieldColumn(
        pcode=gcode, privacies=levels_all, values=gender_vals, vcode=gvcode
    )

    def _const(value):
        return lambda user_id: value

    def _listing(template: str, period: int):
        return lambda user_id: [template.format(user_id % period)]

    occ_vals = list(dict.fromkeys(population.occupations))
    occ_index = {v: j for j, v in enumerate(occ_vals)}
    rel_vals = list(dict.fromkeys(population.relationships))
    rel_index = {v: j for j, v in enumerate(rel_vals)}
    formulas = {
        "places_lived": _places_formula(population, d.places),
        "education": lambda user_id: f"Studied at University {user_id % 409}",
        "employment": lambda user_id: f"Works at Company {user_id % 997}",
        "phrase": _const("Carpe diem"),
        "other_profiles": lambda user_id: [f"https://social.example/{user_id}"],
        "contributor_to": _listing("https://blog.example/{}", 211),
        "introduction": _const("Hi, I joined Google+!"),
        "other_names": lambda user_id: f"U{user_id:06d}",
        "bragging_rights": _const("Survived the invite queue"),
        "recommended_links": _listing("https://links.example/{}", 53),
    }
    tables = {
        "occupation": (
            [OCCUPATION_LABELS[v] for v in occ_vals],
            np.fromiter(
                map(occ_index.__getitem__, population.occupations),
                np.uint32,
                count=n,
            ),
        ),
        "relationship": (
            rel_vals,
            np.fromiter(
                map(rel_index.__getitem__, population.relationships),
                np.uint32,
                count=n,
            ),
        ),
        "looking_for": (list(LookingFor), d.looking_idx.astype(np.uint32)),
    }
    for col, key in enumerate(_DECIDE_FIELDS):
        scol = d.status[:, col]
        code = np.where(scol == 1, 0, d.level[:, col].astype(np.int32) + 1)
        pcode = np.where(scol > 0, code, absent).astype(np.uint16)
        if key in tables:
            values, vcode = tables[key]
            columns[key] = FieldColumn(
                pcode=pcode, privacies=levels_all, values=values, vcode=vcode
            )
        else:
            columns[key] = FieldColumn(
                pcode=pcode, privacies=levels_all, formula=formulas[key]
            )

    # Contact blocks: tel-users public, the email-only sliver hidden.
    both_frac = config.profiles.tel_both_fraction
    work_frac = both_frac + config.profiles.tel_work_only_fraction
    tel = population.tel_users
    work_pcode = np.full(n, absent, dtype=np.uint16)
    home_pcode = np.full(n, absent, dtype=np.uint16)
    work_pcode[tel & (d.tel_roll < work_frac)] = 0
    home_pcode[tel & ((d.tel_roll < both_frac) | (d.tel_roll >= work_frac))] = 0
    sliver_only = d.sliver & ~tel
    work_pcode[sliver_only] = (d.sliver_level[sliver_only] + 1).astype(np.uint16)

    prefix_of = {
        code: (zlib.crc32(code.encode("ascii")) % 90) + 10
        for code in set(population.country_codes)
    }
    prefix = np.fromiter(
        map(prefix_of.__getitem__, population.country_codes), np.int16, count=n
    )
    tel_flags = tel

    def _tel_contact(user_id: int) -> ContactInfo:
        return ContactInfo(
            phone=f"+{prefix[user_id]} 555 {user_id % 10_000:04d}",
            email=f"user{user_id}@example.com",
        )

    def _work_value(user_id: int) -> ContactInfo:
        if tel_flags[user_id]:
            return _tel_contact(user_id)
        return ContactInfo(email=f"user{user_id}@example.com")

    columns["work_contact"] = FieldColumn(
        pcode=work_pcode, privacies=levels_all, formula=_work_value
    )
    columns["home_contact"] = FieldColumn(
        pcode=home_pcode, privacies=levels_all, formula=_tel_contact
    )

    return ColumnarProfileStore(
        n=n,
        columns=columns,
        lists_public=d.lists_public,
        name_overrides={
            user_id: spec.name
            for user_id, spec in population.celebrity_spec.items()
        },
        key_sequence=_FAST_KEY_SEQUENCE,
    )
