"""Struct-of-arrays base state of the service.

A per-object store spends a few kilobytes of Python objects per account
— a ``UserProfile``, one ``FieldValue`` per field, a ``CircleStore``
with two dicts, a follower dict, a notification list.  At 100k users
that is ~1 GB of RSS; at the paper's multi-million-user scale it does
not fit on a laptop at all.  So the ingested world is held as columns:

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
  the world reads arrays end to end.

These arrays are never written after ingest.
:class:`~repro.platform.service.GooglePlusService` reads them directly
and absorbs every write in a per-user copy-on-write overlay (see
``docs/storage.md``).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from typing import Any, Callable, Iterator

import numpy as np

from .circles import CircleStore, DEFAULT_CIRCLE, OUT_CIRCLE_LIMIT
from .errors import CircleLimitError
from .models import FieldValue, UserProfile
from .fields import FIELDS_BY_KEY, FIELD_SPECS
from .privacy import ANON_CLASS, FieldPrivacy, visible_to

__all__ = [
    "ABSENT",
    "ColumnarCircles",
    "ColumnarProfileStore",
    "FieldColumn",
]

#: Sentinel privacy code marking "field absent on this profile".
ABSENT = np.uint16(0xFFFF)

#: Field keys in registry order; ``key_code`` arrays index this tuple.
FIELD_KEYS: tuple[str, ...] = tuple(spec.key for spec in FIELD_SPECS)
_KEY_INDEX: dict[str, int] = {key: i for i, key in enumerate(FIELD_KEYS)}


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
        #: Per-user ``uint32`` bitmask over ``_ordered``: bit ``i`` is set
        #: when the user carries field ``i`` and an anonymous viewer sees
        #: it.  None under a ``key_order``, whose per-user field order a
        #: mask cannot express.
        self.anon_mask = self._build_anon_mask() if key_order is None else None

    def _build_anon_mask(self) -> np.ndarray:
        """One :func:`visible_to` call per interned privacy, then one
        table lookup per column over all users."""
        if len(self._ordered) > 32:
            raise ValueError("the anonymous field mask holds at most 32 fields")
        mask = np.zeros(self.n, dtype=np.uint32)
        for bit, (_, column) in enumerate(self._ordered):
            n_codes = len(column.privacies)
            # The extra last slot answers ABSENT, clipped down onto it.
            visible = np.zeros(n_codes + 1, dtype=np.uint32)
            visible[:n_codes] = [
                visible_to(privacy, ANON_CLASS) for privacy in column.privacies
            ]
            mask |= visible[np.minimum(column.pcode, n_codes)] << np.uint32(bit)
        return mask

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

    def anon_fields(self, uid: int) -> dict[str, Any] | None:
        """The user's field values an anonymous viewer sees, in insertion
        order, read from :attr:`anon_mask`; None without a mask."""
        if self.anon_mask is None:
            return None
        bits = int(self.anon_mask[uid])
        return {
            key: column.value(uid)
            for i, (key, column) in enumerate(self._ordered)
            if bits >> i & 1
        }

    def materialize_profile(self, uid: int) -> UserProfile:
        return UserProfile(
            user_id=uid,
            name=self.name_of(uid),
            fields=dict(self.iter_entries(uid)),
            lists_public=bool(self.lists_public[uid]),
        )

    @classmethod
    def empty(cls) -> "ColumnarProfileStore":
        return cls(n=0, columns={}, lists_public=np.zeros(0, dtype=bool))

    @classmethod
    def from_profiles(cls, profiles: Mapping[int, UserProfile]) -> "ColumnarProfileStore":
        """Generic interning ingest of an id-contiguous profile dict.

        Value and privacy objects are interned by identity, so shared
        objects compress exactly where the data repeats.  The reference
        generation engine, which builds :class:`UserProfile` objects,
        ingests through this; the fast engine builds columns directly
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

    def __post_init__(self):
        #: Circle name -> its code in :attr:`labels`.
        self._codes = {name: code for code, name in enumerate(self.labels)}

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

    def has_member(self, uid: int, target: int, circle: str) -> bool:
        """Whether ``target`` is in ``uid``'s circle named ``circle``."""
        code = self._codes.get(circle)
        if code is None:
            return False
        targets, labs = self.memberships(uid)
        return bool(((targets == target) & (labs == np.uint8(code))).any())

    def members(self, uid: int, circles) -> np.ndarray:
        """Targets in any of ``uid``'s circles named in ``circles`` (a
        target in two of them appears twice; unknown names hold nobody)."""
        wanted = np.zeros(len(self.labels), dtype=bool)
        wanted[[self._codes[name] for name in circles if name in self._codes]] = True
        targets, labs = self.memberships(uid)
        return targets[wanted[labs]]

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
