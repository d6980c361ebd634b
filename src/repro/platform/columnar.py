"""Struct-of-arrays backing store for million-user worlds.

The dict-backed :class:`~repro.platform.service.GooglePlusService` spends
a few kilobytes of Python objects per account — a ``UserProfile``, one
``FieldValue`` per field, a ``CircleStore`` with two dicts, a follower
dict, a notification list.  At 100k users that is ~1 GB of RSS; at the
paper's multi-million-user scale it does not fit on a laptop at all.

This module stores the same world columnar:

* **Profiles** become one :class:`FieldColumn` per profile field — a
  ``uint16`` privacy-code array over all users (``0xFFFF`` = field
  absent) plus either a ``uint32`` code array into an interned value
  table or a *formula* deriving the value from the user id.  Shared
  values (occupation labels, relationship enums, pooled employers) are
  interned once; per-user values (phone numbers, profile URLs, places)
  are synthesised on access and never held resident.
* **Circles** become CSR arrays: ``out_indptr``/``out_targets`` with a
  ``uint8`` circle-label code per membership, plus a follower-side CSR —
  exactly the layout :mod:`repro.graph.csr` analyses, so a crawl over
  the columnar world reads arrays end to end.
* **Mutations** escape hatch through copy-on-write promotion: the first
  scalar write to an account's profile, circles, followers or
  notifications materialises that one component as the ordinary dict
  structure and all views transparently delegate to it from then on.
  Bulk reads never promote, so a crawl leaves the world columnar.

:class:`ColumnarGooglePlusService` subclasses the reference service and
keeps its entire scalar API: every method observable through
``GooglePlusService`` behaves identically (the hypothesis suite in
``tests/platform/test_columnar_stateful.py`` proves state-identity over
randomized op sequences, and the e2e test proves crawled edge arrays
bit-identical).  The dict-backed store stays the default engine, exactly
as ``fastgen`` left the reference generator the default.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .circles import CircleStore, DEFAULT_CIRCLE, OUT_CIRCLE_LIMIT
from .errors import CircleLimitError, UnknownUserError
from .circles import CIRCLE_DISPLAY_LIMIT
from .models import FieldValue, UserProfile
from .fields import FIELDS_BY_KEY, FIELD_SPECS
from .pages import CircleListView, truncate_list
from .privacy import FieldPrivacy, PUBLIC
from .service import GooglePlusService, Notification, _Account

__all__ = [
    "ABSENT",
    "ColumnarCircles",
    "ColumnarGooglePlusService",
    "ColumnarProfile",
    "ColumnarProfileStore",
    "FieldColumn",
    "ProfilesView",
]

#: Sentinel privacy code marking "field absent on this profile".
ABSENT = np.uint16(0xFFFF)

#: Field keys in registry order; ``key_code`` arrays index this tuple.
FIELD_KEYS: tuple[str, ...] = tuple(spec.key for spec in FIELD_SPECS)
_KEY_INDEX: dict[str, int] = {key: i for i, key in enumerate(FIELD_KEYS)}

#: Bound on the per-world cache of per-owner membership sets used by
#: ``contains``; one entry costs O(out-degree), so the cache is kept
#: far below the world size.
_MEMBER_SET_CACHE = 16_384


# ---------------------------------------------------------------------------
# profile columns
# ---------------------------------------------------------------------------


@dataclass
class FieldColumn:
    """One profile field over all base users.

    ``pcode[uid]`` indexes :attr:`privacies` (``ABSENT`` = the user does
    not carry the field).  The value is either ``values[vcode[uid]]``
    (interned table) or ``formula(uid)`` (synthesised per access; used
    for per-user values like phone numbers that would defeat interning).
    """

    pcode: np.ndarray
    privacies: list[FieldPrivacy]
    values: list[Any] | None = None
    vcode: np.ndarray | None = None
    formula: Callable[[int], Any] | None = None

    def __post_init__(self) -> None:
        if (self.values is None) == (self.formula is None):
            raise ValueError("exactly one of values/formula must be set")
        if self.values is not None and self.vcode is None:
            raise ValueError("table columns need a vcode array")

    def present(self, uid: int) -> bool:
        return self.pcode[uid] != ABSENT

    def privacy(self, uid: int) -> FieldPrivacy:
        return self.privacies[self.pcode[uid]]

    def value(self, uid: int) -> Any:
        if self.formula is not None:
            return self.formula(uid)
        return self.values[self.vcode[uid]]

    def entry(self, uid: int) -> FieldValue:
        """A fresh :class:`FieldValue` for the user (compares by value)."""
        return FieldValue(self.value(uid), self.privacies[self.pcode[uid]])


class ColumnarProfileStore:
    """All base-user profiles as columns.

    ``key_order`` is an optional CSR (``indptr``, ``key_codes``) pinning
    each user's field-dict iteration order; when ``None`` the canonical
    synth order (registry order of the present fields) is used, which
    costs no storage at all.
    """

    def __init__(
        self,
        n: int,
        columns: dict[str, FieldColumn],
        lists_public: np.ndarray,
        name_overrides: dict[int, str] | None = None,
        names: list[str] | None = None,
        key_order: tuple[np.ndarray, np.ndarray] | None = None,
        key_sequence: tuple[str, ...] | None = None,
    ):
        for key in columns:
            if key not in FIELDS_BY_KEY or key == "name":
                raise ValueError(f"unknown profile field: {key!r}")
        self.n = n
        self.columns = columns
        self.lists_public = lists_public
        self.name_overrides = name_overrides or {}
        self.names = names
        self.key_order = key_order
        #: Global field insertion order: every user's field dict iterates
        #: this sequence filtered by presence, which costs no per-user
        #: storage.  Defaults to registry order; the fast profile builder
        #: passes its own assembly order (gender first, contacts last).
        self.key_sequence = (
            key_sequence if key_sequence is not None else FIELD_KEYS
        )
        self._ordered = [
            (key, columns[key]) for key in self.key_sequence if key in columns
        ]

    def name_of(self, uid: int) -> str:
        if self.names is not None:
            return self.names[uid]
        override = self.name_overrides.get(uid)
        return override if override is not None else f"User {uid:06d}"

    def field_keys(self, uid: int) -> list[str]:
        """The user's field-dict keys, in insertion order."""
        if self.key_order is not None:
            indptr, codes = self.key_order
            return [
                FIELD_KEYS[c] for c in codes[indptr[uid] : indptr[uid + 1]].tolist()
            ]
        return [key for key, col in self._ordered if col.present(uid)]

    def iter_entries(self, uid: int) -> Iterator[tuple[str, FieldValue]]:
        for key in self.field_keys(uid):
            yield key, self.columns[key].entry(uid)

    def materialize_fields(self, uid: int) -> dict[str, FieldValue]:
        return {key: entry for key, entry in self.iter_entries(uid)}

    def materialize_profile(self, uid: int) -> UserProfile:
        return UserProfile(
            user_id=uid,
            name=self.name_of(uid),
            fields=self.materialize_fields(uid),
            lists_public=bool(self.lists_public[uid]),
        )

    @classmethod
    def from_profiles(cls, profiles: Mapping[int, UserProfile]) -> "ColumnarProfileStore":
        """Generic interning ingest of an id-contiguous profile dict.

        Value and privacy objects are interned by identity — the fast
        profile builder shares ``FieldValue`` instances across users, so
        identity interning compresses exactly where the data repeats.
        Used by the equivalence tests and by callers that already built
        object profiles; the memory-diet path builds columns directly
        (:func:`repro.synth.fastprofiles.build_profile_columns_fast`).
        """
        n = len(profiles)
        if sorted(profiles) != list(range(n)):
            raise ValueError("profiles must be keyed by the compact range 0..n-1")
        lists_public = np.zeros(n, dtype=bool)
        names: list[str] = [""] * n
        per_key_priv: dict[str, tuple[list[FieldPrivacy], dict[int, int]]] = {}
        per_key_vals: dict[str, tuple[list[Any], dict[int, int]]] = {}
        pcodes: dict[str, np.ndarray] = {}
        vcodes: dict[str, np.ndarray] = {}
        indptr = np.zeros(n + 1, dtype=np.int64)
        key_codes: list[int] = []
        canonical = True
        for uid in range(n):
            profile = profiles[uid]
            if profile.user_id != uid:
                raise ValueError(f"profile under key {uid} has user_id {profile.user_id}")
            lists_public[uid] = profile.lists_public
            names[uid] = profile.name
            keys = list(profile.fields)
            indptr[uid + 1] = indptr[uid] + len(keys)
            key_codes.extend(_KEY_INDEX[k] for k in keys)
            if keys != [k for k in FIELD_KEYS if k in profile.fields]:
                canonical = False
            for key, entry in profile.fields.items():
                if key not in pcodes:
                    pcodes[key] = np.full(n, ABSENT, dtype=np.uint16)
                    vcodes[key] = np.zeros(n, dtype=np.uint32)
                    per_key_priv[key] = ([], {})
                    per_key_vals[key] = ([], {})
                privs, priv_ids = per_key_priv[key]
                vals, val_ids = per_key_vals[key]
                pi = priv_ids.get(id(entry.privacy))
                if pi is None:
                    pi = priv_ids[id(entry.privacy)] = len(privs)
                    privs.append(entry.privacy)
                vi = val_ids.get(id(entry.value))
                if vi is None:
                    vi = val_ids[id(entry.value)] = len(vals)
                    vals.append(entry.value)
                pcodes[key][uid] = pi
                vcodes[key][uid] = vi
        columns = {
            key: FieldColumn(
                pcode=pcodes[key],
                privacies=per_key_priv[key][0],
                values=per_key_vals[key][0],
                vcode=vcodes[key],
            )
            for key in pcodes
        }
        key_order = None
        if not canonical:
            key_order = (indptr, np.asarray(key_codes, dtype=np.uint8))
        return cls(
            n=n,
            columns=columns,
            lists_public=lists_public,
            names=names,
            key_order=key_order,
        )


# ---------------------------------------------------------------------------
# circle / follower CSR
# ---------------------------------------------------------------------------


def _csr_by(keys: np.ndarray, n: int) -> np.ndarray:
    """indptr over rows ``0..n-1`` from the sorted row-id array ``keys``."""
    counts = np.bincount(keys, minlength=n)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclass
class ColumnarCircles:
    """Circle memberships and follower lists for all base users, CSR form.

    ``out_targets[out_indptr[u]:out_indptr[u+1]]`` are ``u``'s circle
    memberships in insertion order, each labelled by ``out_labels``
    (codes into :attr:`labels`).  ``flat_*`` is the contact list with
    duplicate targets removed (first occurrence wins) — when the ingest
    batch has no duplicate ``(u, v)`` pairs the arrays are shared with
    the membership CSR and cost nothing.  ``in_*`` is the follower CSR
    over *links* (deduplicated), per target in original edge order.
    """

    labels: tuple[str, ...]
    out_indptr: np.ndarray
    out_targets: np.ndarray
    out_labels: np.ndarray
    flat_indptr: np.ndarray
    flat_targets: np.ndarray
    in_indptr: np.ndarray
    in_sources: np.ndarray

    @classmethod
    def build(
        cls,
        n: int,
        sources: np.ndarray,
        targets: np.ndarray,
        label_codes: np.ndarray,
        labels: tuple[str, ...],
        exempt: np.ndarray,
    ) -> "ColumnarCircles":
        """Build both CSR sides from an edge batch, validating the cap.

        Raises :class:`CircleLimitError` when a non-exempt owner exceeds
        :data:`OUT_CIRCLE_LIMIT` distinct contacts, exactly as the
        per-edge ingest would.
        """
        src = np.ascontiguousarray(sources, dtype=np.int64)
        dst = np.ascontiguousarray(targets, dtype=np.int64)
        lab = np.ascontiguousarray(label_codes, dtype=np.uint8)
        m = len(src)
        if dst.shape != src.shape or lab.shape != src.shape:
            raise ValueError("sources/targets/labels must have equal length")
        idt = np.int32 if n <= np.iinfo(np.int32).max else np.int64
        order = np.argsort(src, kind="stable")
        out_targets = dst[order].astype(idt)
        out_labels = lab[order]
        out_indptr = _csr_by(src[order], n)
        # The permutation is O(edges) int64 — drop it before the dedup
        # pass so the two never coexist (this is the ingest peak at 1M+
        # users).
        del order

        # Duplicate (u, v) pairs: only the first forms a link.  A plain
        # value sort answers the common no-duplicates case without the
        # index permutation np.unique(return_index=True) would build.
        packed = src * np.int64(n) + dst
        packed_sorted = np.sort(packed)
        has_dups = bool(np.any(packed_sorted[1:] == packed_sorted[:-1]))
        del packed_sorted
        if not has_dups:
            del packed
            link_src, link_dst = src, dst
            flat_indptr, flat_targets = out_indptr, out_targets
        else:
            _, first = np.unique(packed, return_index=True)
            del packed
            keep = np.zeros(m, dtype=bool)
            keep[first] = True
            link_src, link_dst = src[keep], dst[keep]
            lorder = np.argsort(link_src, kind="stable")
            flat_targets = link_dst[lorder].astype(idt)
            flat_indptr = _csr_by(link_src[lorder], n)

        degrees = np.diff(flat_indptr)
        over = np.flatnonzero((degrees > OUT_CIRCLE_LIMIT) & ~exempt)
        if len(over):
            raise CircleLimitError(int(over[0]), OUT_CIRCLE_LIMIT)

        torder = np.argsort(link_dst, kind="stable")
        in_sources = link_src[torder].astype(idt)
        in_indptr = _csr_by(link_dst[torder], n)
        return cls(
            labels=labels,
            out_indptr=out_indptr,
            out_targets=out_targets,
            out_labels=out_labels,
            flat_indptr=flat_indptr,
            flat_targets=flat_targets,
            in_indptr=in_indptr,
            in_sources=in_sources,
        )

    def out_slice(self, uid: int) -> np.ndarray:
        return self.flat_targets[self.flat_indptr[uid] : self.flat_indptr[uid + 1]]

    def in_slice(self, uid: int) -> np.ndarray:
        return self.in_sources[self.in_indptr[uid] : self.in_indptr[uid + 1]]

    def out_degree(self, uid: int) -> int:
        return int(self.flat_indptr[uid + 1] - self.flat_indptr[uid])

    def in_degree(self, uid: int) -> int:
        return int(self.in_indptr[uid + 1] - self.in_indptr[uid])

    def memberships(self, uid: int) -> tuple[np.ndarray, np.ndarray]:
        lo, hi = self.out_indptr[uid], self.out_indptr[uid + 1]
        return self.out_targets[lo:hi], self.out_labels[lo:hi]

    def circle_names(self, uid: int) -> list[str]:
        """The owner's circle names: the default circle created at
        registration, then this owner's labels in first-edge order."""
        names = [DEFAULT_CIRCLE]
        _, labs = self.memberships(uid)
        seen = {DEFAULT_CIRCLE}
        for code in labs.tolist():
            name = self.labels[code]
            if name not in seen:
                seen.add(name)
                names.append(name)
        return names

    def members_of(self, uid: int, circle: str) -> list[int]:
        targets, labs = self.memberships(uid)
        try:
            code = self.labels.index(circle)
        except ValueError:
            return []
        return targets[labs == np.uint8(code)].tolist()

    def materialize_store(self, uid: int, exempt: bool) -> CircleStore:
        """The owner's circles as an ordinary dict-backed CircleStore."""
        members_by_circle: dict[str, dict[int, None]] = {DEFAULT_CIRCLE: {}}
        targets, labs = self.memberships(uid)
        for target, code in zip(targets.tolist(), labs.tolist()):
            members_by_circle.setdefault(self.labels[code], {})[target] = None
        return CircleStore(
            owner_id=uid,
            exempt_from_limit=exempt,
            members_by_circle=members_by_circle,
            all_members=dict.fromkeys(self.out_slice(uid).tolist()),
        )

    @classmethod
    def empty(cls, n: int) -> "ColumnarCircles":
        zero = np.zeros(n + 1, dtype=np.int64)
        none32 = np.zeros(0, dtype=np.int32)
        return cls(
            labels=(),
            out_indptr=zero,
            out_targets=none32,
            out_labels=np.zeros(0, dtype=np.uint8),
            flat_indptr=zero,
            flat_targets=none32,
            in_indptr=zero.copy(),
            in_sources=none32,
        )


# ---------------------------------------------------------------------------
# views — UserProfile / CircleStore / followers / notifications lookalikes
# ---------------------------------------------------------------------------


class _FieldsView(Mapping):
    """Read-through mapping view of one user's profile fields.

    Mutating operations promote the profile to an ordinary dict-backed
    :class:`UserProfile` held in the service's overlay, and every view
    operation re-checks the overlay first, so stale handles are
    impossible.
    """

    __slots__ = ("_world", "_uid")

    def __init__(self, world: "_ColumnarWorld", uid: int):
        self._world = world
        self._uid = uid

    def _ovl(self) -> dict[str, FieldValue] | None:
        profile = self._world.profile_overlay.get(self._uid)
        return None if profile is None else profile.fields

    def __getitem__(self, key: str) -> FieldValue:
        ovl = self._ovl()
        if ovl is not None:
            return ovl[key]
        column = self._world.profiles.columns.get(key)
        if column is None or not column.present(self._uid):
            raise KeyError(key)
        return column.entry(self._uid)

    def get(self, key: str, default=None):
        ovl = self._ovl()
        if ovl is not None:
            return ovl.get(key, default)
        column = self._world.profiles.columns.get(key)
        if column is None or not column.present(self._uid):
            return default
        return column.entry(self._uid)

    def __contains__(self, key: object) -> bool:
        ovl = self._ovl()
        if ovl is not None:
            return key in ovl
        column = self._world.profiles.columns.get(key)
        return column is not None and column.present(self._uid)

    def __iter__(self) -> Iterator[str]:
        ovl = self._ovl()
        if ovl is not None:
            return iter(ovl)
        return iter(self._world.profiles.field_keys(self._uid))

    def __len__(self) -> int:
        ovl = self._ovl()
        if ovl is not None:
            return len(ovl)
        return len(self._world.profiles.field_keys(self._uid))

    def items(self):
        ovl = self._ovl()
        if ovl is not None:
            return ovl.items()
        return list(self._world.profiles.iter_entries(self._uid))

    def __setitem__(self, key: str, value: FieldValue) -> None:
        self._world.promote_profile(self._uid).fields[key] = value

    def __delitem__(self, key: str) -> None:
        del self._world.promote_profile(self._uid).fields[key]


class ColumnarProfile:
    """A :class:`UserProfile`-shaped view over the profile columns."""

    __slots__ = ("_world", "user_id")

    def __init__(self, world: "_ColumnarWorld", uid: int):
        self._world = world
        self.user_id = uid

    def _ovl(self) -> UserProfile | None:
        return self._world.profile_overlay.get(self.user_id)

    @property
    def name(self) -> str:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.name
        return self._world.profiles.name_of(self.user_id)

    @property
    def fields(self) -> Mapping:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.fields
        return _FieldsView(self._world, self.user_id)

    @property
    def lists_public(self) -> bool:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.lists_public
        return bool(self._world.profiles.lists_public[self.user_id])

    @lists_public.setter
    def lists_public(self, public: bool) -> None:
        ovl = self._ovl()
        if ovl is not None:
            ovl.lists_public = bool(public)
        else:
            self._world.profiles.lists_public[self.user_id] = bool(public)

    def set_field(self, key: str, value: Any, privacy: FieldPrivacy = PUBLIC) -> None:
        self._world.promote_profile(self.user_id).set_field(key, value, privacy)

    # The read helpers are duck-typed off UserProfile: they only touch
    # ``name`` / ``fields`` / ``get_public``, all of which this view
    # provides, so the reference implementations apply verbatim.
    get_public = UserProfile.get_public
    public_field_keys = UserProfile.public_field_keys
    count_public_fields = UserProfile.count_public_fields
    shares_phone_publicly = UserProfile.shares_phone_publicly
    current_place = UserProfile.current_place


class _CirclesView:
    """A :class:`CircleStore`-shaped view over the circle CSR.

    Read methods are columnar; any write — and any access to the raw
    ``members_by_circle`` / ``all_members`` dicts — promotes the owner's
    circles to an ordinary :class:`CircleStore` first.
    """

    __slots__ = ("_world", "owner_id")

    def __init__(self, world: "_ColumnarWorld", uid: int):
        self._world = world
        self.owner_id = uid

    def _ovl(self) -> CircleStore | None:
        return self._world.circle_overlay.get(self.owner_id)

    def _promote(self) -> CircleStore:
        return self._world.promote_circles(self.owner_id)

    @property
    def exempt_from_limit(self) -> bool:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.exempt_from_limit
        return bool(self._world.exempt[self.owner_id])

    @property
    def members_by_circle(self) -> dict[str, dict[int, None]]:
        return self._promote().members_by_circle

    @members_by_circle.setter
    def members_by_circle(self, value) -> None:
        self._promote().members_by_circle = value

    @property
    def all_members(self) -> dict[int, None]:
        return self._promote().all_members

    @all_members.setter
    def all_members(self, value) -> None:
        self._promote().all_members = value

    def create_circle(self, name: str) -> None:
        self._promote().create_circle(name)

    def add(self, target_id: int, circle: str = DEFAULT_CIRCLE) -> bool:
        return self._promote().add(target_id, circle)

    def extend(self, target_ids, circle: str = DEFAULT_CIRCLE) -> list[int]:
        return self._promote().extend(target_ids, circle)

    def remove(self, target_id: int, circle: str | None = None) -> bool:
        return self._promote().remove(target_id, circle)

    def circle_names(self) -> list[str]:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.circle_names()
        return self._world.circles.circle_names(self.owner_id)

    def contains(self, target_id: int) -> bool:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.contains(target_id)
        return self._world.member_set(self.owner_id).__contains__(target_id)

    def member_of(self, target_id: int, circle: str) -> bool:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.member_of(target_id, circle)
        circles = self._world.circles
        try:
            code = circles.labels.index(circle)
        except ValueError:
            return False
        targets, labs = circles.memberships(self.owner_id)
        hit = (targets == target_id) & (labs == np.uint8(code))
        return bool(hit.any()) if len(targets) else False

    def circles_of(self, target_id: int) -> list[str]:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.circles_of(target_id)
        circles = self._world.circles
        targets, labs = circles.memberships(self.owner_id)
        hits = {
            circles.labels[code]
            for target, code in zip(targets.tolist(), labs.tolist())
            if target == target_id
        }
        # Match dict iteration order: the default circle first (created
        # empty at registration), then labels in first-edge order.
        return [
            name for name in circles.circle_names(self.owner_id) if name in hits
        ]

    def out_degree(self) -> int:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.out_degree()
        return self._world.circles.out_degree(self.owner_id)

    def flattened(self) -> list[int]:
        ovl = self._ovl()
        if ovl is not None:
            return ovl.flattened()
        return self._world.circles.out_slice(self.owner_id).tolist()


class _FollowersView:
    """Dict-shaped view of one user's followers (insertion-ordered)."""

    __slots__ = ("_world", "_uid")

    def __init__(self, world: "_ColumnarWorld", uid: int):
        self._world = world
        self._uid = uid

    def _ovl(self) -> dict[int, None] | None:
        return self._world.follower_overlay.get(self._uid)

    def _promote(self) -> dict[int, None]:
        return self._world.promote_followers(self._uid)

    def __iter__(self) -> Iterator[int]:
        ovl = self._ovl()
        if ovl is not None:
            return iter(ovl)
        return iter(self._world.circles.in_slice(self._uid).tolist())

    def __len__(self) -> int:
        ovl = self._ovl()
        if ovl is not None:
            return len(ovl)
        return self._world.circles.in_degree(self._uid)

    def __contains__(self, uid: object) -> bool:
        ovl = self._ovl()
        if ovl is not None:
            return uid in ovl
        slice_ = self._world.circles.in_slice(self._uid)
        return bool(np.any(slice_ == uid)) if len(slice_) else False

    def __bool__(self) -> bool:
        return len(self) > 0

    def __setitem__(self, uid: int, value: None) -> None:
        self._promote()[uid] = value

    def pop(self, uid: int, *default):
        return self._promote().pop(uid, *default)

    def update(self, other) -> None:
        self._promote().update(other)

    def keys(self):
        return list(self)


class _NotificationsView:
    """List-shaped view of a user's notification feed.

    The base feed is derived from the follower CSR (one
    ``added_to_circle`` per incoming link, in link order); appends and
    clears promote to a real list.
    """

    __slots__ = ("_world", "_uid")

    def __init__(self, world: "_ColumnarWorld", uid: int):
        self._world = world
        self._uid = uid

    def _ovl(self) -> list[Notification] | None:
        return self._world.notification_overlay.get(self._uid)

    def _materialize(self) -> list[Notification]:
        return self._world.promote_notifications(self._uid)

    def __iter__(self) -> Iterator[Notification]:
        ovl = self._ovl()
        if ovl is not None:
            return iter(ovl)
        return (
            Notification(kind="added_to_circle", actor_id=actor)
            for actor in self._world.circles.in_slice(self._uid).tolist()
        )

    def __len__(self) -> int:
        ovl = self._ovl()
        if ovl is not None:
            return len(ovl)
        return self._world.circles.in_degree(self._uid)

    def append(self, note: Notification) -> None:
        self._materialize().append(note)

    def extend(self, notes) -> None:
        self._materialize().extend(notes)

    def clear(self) -> None:
        # Clearing needs no materialisation of the derived feed.
        self._world.notification_overlay[self._uid] = []


class _LazyAccount:
    """The ``_Account`` lookalike handed out for base (columnar) users."""

    __slots__ = ("_world", "user_id")

    def __init__(self, world: "_ColumnarWorld", uid: int):
        self._world = world
        self.user_id = uid

    @property
    def profile(self) -> ColumnarProfile:
        return ColumnarProfile(self._world, self.user_id)

    @property
    def circles(self) -> _CirclesView:
        return _CirclesView(self._world, self.user_id)

    @property
    def followers(self) -> _FollowersView:
        return _FollowersView(self._world, self.user_id)

    @followers.setter
    def followers(self, value: dict[int, None]) -> None:
        self._world.follower_overlay[self.user_id] = value

    @property
    def notifications(self) -> _NotificationsView:
        return _NotificationsView(self._world, self.user_id)

    @notifications.setter
    def notifications(self, value: list[Notification]) -> None:
        self._world.notification_overlay[self.user_id] = list(value)


class _ColumnarWorld:
    """The columnar state: profile columns, circle CSR, and the
    copy-on-write overlays that absorb scalar mutations."""

    def __init__(
        self,
        profiles: ColumnarProfileStore,
        circles: ColumnarCircles,
        exempt: np.ndarray,
    ):
        self.profiles = profiles
        self.circles = circles
        self.exempt = exempt
        self.n = profiles.n
        self.profile_overlay: dict[int, UserProfile] = {}
        self.circle_overlay: dict[int, CircleStore] = {}
        self.follower_overlay: dict[int, dict[int, None]] = {}
        self.notification_overlay: dict[int, list[Notification]] = {}
        self._member_sets: dict[int, frozenset] = {}

    # -- promotion ---------------------------------------------------------

    def promote_profile(self, uid: int) -> UserProfile:
        profile = self.profile_overlay.get(uid)
        if profile is None:
            profile = self.profiles.materialize_profile(uid)
            self.profile_overlay[uid] = profile
        return profile

    def promote_circles(self, uid: int) -> CircleStore:
        store = self.circle_overlay.get(uid)
        if store is None:
            store = self.circles.materialize_store(uid, bool(self.exempt[uid]))
            self.circle_overlay[uid] = store
            self._member_sets.pop(uid, None)
        return store

    def promote_followers(self, uid: int) -> dict[int, None]:
        followers = self.follower_overlay.get(uid)
        if followers is None:
            followers = dict.fromkeys(self.circles.in_slice(uid).tolist())
            self.follower_overlay[uid] = followers
        return followers

    def promote_notifications(self, uid: int) -> list[Notification]:
        notes = self.notification_overlay.get(uid)
        if notes is None:
            notes = [
                Notification(kind="added_to_circle", actor_id=actor)
                for actor in self.circles.in_slice(uid).tolist()
            ]
            self.notification_overlay[uid] = notes
        return notes

    def member_set(self, uid: int) -> frozenset:
        cached = self._member_sets.get(uid)
        if cached is None:
            if len(self._member_sets) >= _MEMBER_SET_CACHE:
                self._member_sets.clear()
            cached = frozenset(self.circles.out_slice(uid).tolist())
            self._member_sets[uid] = cached
        return cached


class ColumnarAccounts(Mapping):
    """The service's ``_accounts`` mapping over a columnar world.

    Base users resolve to transient :class:`_LazyAccount` views; users
    registered after the bulk ingest live in an ordinary dict overlay.
    """

    def __init__(self, world: _ColumnarWorld):
        self._world = world
        self._new: dict[int, _Account] = {}

    def __getitem__(self, uid: int) -> Any:
        if 0 <= uid < self._world.n:
            return _LazyAccount(self._world, uid)
        try:
            return self._new[uid]
        except KeyError:
            raise KeyError(uid) from None

    def __setitem__(self, uid: int, account: _Account) -> None:
        if 0 <= uid < self._world.n:
            raise ValueError(f"user {uid} is part of the columnar base world")
        self._new[uid] = account

    def __contains__(self, uid: object) -> bool:
        return (
            isinstance(uid, (int, np.integer))
            and (0 <= uid < self._world.n or uid in self._new)
        )

    def __iter__(self) -> Iterator[int]:
        yield from range(self._world.n)
        yield from self._new

    def __len__(self) -> int:
        return self._world.n + len(self._new)

    def keys(self):
        return iter(self)


class ProfilesView(Mapping):
    """Read-only ``{user_id: profile}`` mapping over a columnar service —
    what :attr:`repro.synth.world.SyntheticWorld.profiles` holds when the
    world is built on the columnar store (no object per user)."""

    def __init__(self, service: "ColumnarGooglePlusService"):
        self._service = service

    def __getitem__(self, uid: int):
        if uid not in self._service:
            raise KeyError(uid)
        return self._service.profile(uid)

    def __iter__(self):
        return self._service.user_ids()

    def __len__(self) -> int:
        return len(self._service)


# ---------------------------------------------------------------------------
# the service
# ---------------------------------------------------------------------------


class ColumnarGooglePlusService(GooglePlusService):
    """:class:`GooglePlusService` backed by struct-of-arrays storage.

    Construct empty, then :meth:`ingest_world` exactly once with the
    bulk-generated columns; scalar mutations afterwards promote the
    touched component per account.  All inherited methods work through
    the account views; the hot read paths (``followers``,
    ``followees``, ``circle_lists``) are overridden to read the CSR
    slices directly and, for the display-truncated page lists, to
    materialise only the displayed prefix.
    """

    def __init__(
        self,
        open_signup: bool = False,
        circle_display_limit: int = CIRCLE_DISPLAY_LIMIT,
    ):
        super().__init__(
            open_signup=open_signup, circle_display_limit=circle_display_limit
        )
        empty = _ColumnarWorld(
            ColumnarProfileStore(
                n=0,
                columns={},
                lists_public=np.zeros(0, dtype=bool),
            ),
            ColumnarCircles.empty(0),
            np.zeros(0, dtype=bool),
        )
        self._world = empty
        self._accounts = ColumnarAccounts(empty)

    @property
    def backend(self) -> str:
        return "columnar"

    # -- bulk ingest ---------------------------------------------------------

    def ingest_world(
        self,
        profiles: ColumnarProfileStore,
        sources: np.ndarray,
        targets: np.ndarray,
        circle_labels: tuple[str, ...],
        label_codes: np.ndarray,
        exempt_ids=(),
    ) -> int:
        """Adopt a bulk-generated world: profile columns plus the edge
        batch, equivalent to registering every profile and then calling
        ``add_to_circle`` per edge in order.  Returns the link count.
        """
        if len(self._accounts):
            raise ValueError("ingest_world must run on an empty service")
        n = profiles.n
        exempt = np.zeros(n, dtype=bool)
        ids = [int(u) for u in exempt_ids if 0 <= int(u) < n]
        if ids:
            exempt[ids] = True
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if len(src):
            lo = min(int(src.min()), int(dst.min()))
            hi = max(int(src.max()), int(dst.max()))
            if lo < 0 or hi >= n:
                raise UnknownUserError(lo if lo < 0 else hi)
            if bool((src == dst).any()):
                raise ValueError(
                    "users cannot add themselves to their own circles"
                )
        circles = ColumnarCircles.build(
            n, src, dst, label_codes, circle_labels, exempt
        )
        world = _ColumnarWorld(profiles, circles, exempt)
        self._world = world
        self._accounts = ColumnarAccounts(world)
        if len(src):
            self._notify("bulk_edges", -1)
        return int(len(circles.in_sources))

    def columns(self) -> _ColumnarWorld:
        """The backing columnar world (benchmarks, spill, inspection)."""
        return self._world

    # -- hot read paths ------------------------------------------------------

    def _base_reads(self, uid: int) -> bool:
        """Whether a base user's reads may go straight to the columns."""
        world = self._world
        return 0 <= uid < world.n

    def followers(self, user_id: int) -> list[int]:
        world = self._world
        if self._base_reads(user_id) and user_id not in world.follower_overlay:
            return world.circles.in_slice(user_id).tolist()
        return super().followers(user_id)

    def followees(self, user_id: int) -> list[int]:
        world = self._world
        if self._base_reads(user_id) and user_id not in world.circle_overlay:
            return world.circles.out_slice(user_id).tolist()
        return super().followees(user_id)

    def circle_lists(self, user_id: int) -> tuple[CircleListView, CircleListView]:
        world = self._world
        if not self._base_reads(user_id):
            return super().circle_lists(user_id)
        # Materialise only the displayed prefix of a CSR row; its degree
        # is the true count the paper's lost-edge estimate reads, without
        # building a million-entry list.
        csr, limit = world.circles, self.circle_display_limit
        if user_id in world.follower_overlay:
            in_list = truncate_list(self.followers(user_id), limit)
        else:
            in_ids = csr.in_slice(user_id)[:limit].tolist()
            in_list = CircleListView(tuple(in_ids), csr.in_degree(user_id))
        if user_id in world.circle_overlay:
            out_list = truncate_list(self.followees(user_id), limit)
        else:
            out_ids = csr.out_slice(user_id)[:limit].tolist()
            out_list = CircleListView(tuple(out_ids), csr.out_degree(user_id))
        return in_list, out_list
