"""Parsing of fetched profile pages into crawl records.

The authors scraped HTML profile pages; our simulated service serves
structured :class:`~repro.platform.pages.ProfilePage` documents, and this
module plays the role of the scraper's extraction layer: it turns a page
into a :class:`ParsedProfile` — the unit stored in the crawl dataset —
pulling out the public fields, the declared circle-list counts and the
(possibly truncated) neighbor lists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

from repro.platform.models import ContactInfo, Gender, Place, Relationship
from repro.platform.pages import ProfilePage


class PageParseError(Exception):
    """A fetched page document was malformed, truncated, or empty.

    The typed failure the extraction layer raises for every corrupt
    document shape the fault layer can inject (see
    :data:`repro.faults.CORRUPTION_MODES`) — never a bare ``KeyError`` /
    ``AttributeError`` / ``IndexError``.  The crawler treats it as a
    transient page-level failure: refetch, then dead-letter.
    """


@dataclass(frozen=True)
class ParsedProfile:
    """One crawled profile: public fields plus circle-list observations.

    ``in_list`` / ``out_list`` are the user ids shown on the page (capped
    at the display limit); ``declared_in`` / ``declared_out`` are the true
    counts the page reports. ``None`` lists mean the owner hid them.
    """

    user_id: int
    name: str
    fields: dict[str, Any] = field(default_factory=dict)
    in_list: tuple[int, ...] | None = None
    out_list: tuple[int, ...] | None = None
    declared_in: int = 0
    declared_out: int = 0

    def has_field(self, key: str) -> bool:
        return key == "name" or key in self.fields

    def count_fields(self, include_contacts: bool = False) -> int:
        """Number of public fields, Figure 2/8 convention by default."""
        contact_keys = ("work_contact", "home_contact")
        total = 1  # name
        for key in self.fields:
            if not include_contacts and key in contact_keys:
                continue
            total += 1
        return total

    def shares_phone(self) -> bool:
        """Tel-user test on crawled data (Section 3.2)."""
        for key in ("work_contact", "home_contact"):
            value = self.fields.get(key)
            if isinstance(value, ContactInfo) and value.has_phone():
                return True
        return False

    def gender(self) -> Gender | None:
        value = self.fields.get("gender")
        return value if isinstance(value, Gender) else None

    def relationship(self) -> Relationship | None:
        value = self.fields.get("relationship")
        return value if isinstance(value, Relationship) else None

    def current_place(self) -> Place | None:
        places = self.fields.get("places_lived")
        if places:
            return places[-1]
        return None

    def country(self) -> str | None:
        place = self.current_place()
        return place.country if place is not None else None


_EXACT_INT = frozenset({int})


def _parse_circle_list(page_user_id: int, which: str, view: Any) -> tuple[tuple[int, ...], int]:
    """Validate one circle-list view; raises :class:`PageParseError`."""
    user_ids = getattr(view, "user_ids", None)
    declared = getattr(view, "declared_count", None)
    if not isinstance(user_ids, (tuple, list)):
        raise PageParseError(
            f"page {page_user_id}: {which} circle list has no id sequence"
        )
    if not user_ids or (set(map(type, user_ids)) <= _EXACT_INT and min(user_ids) >= 0):
        # Fast path, all C-level: every entry is exactly an int (no bool,
        # no subclass, no numpy scalar) and none is negative.
        clean = user_ids
    else:
        clean = []
        for entry in user_ids:
            if not isinstance(entry, int) or isinstance(entry, bool) or entry < 0:
                raise PageParseError(
                    f"page {page_user_id}: {which} circle list holds a non-id "
                    f"entry {entry!r}"
                )
            clean.append(entry)
    if not isinstance(declared, int) or isinstance(declared, bool) or declared < len(clean):
        raise PageParseError(
            f"page {page_user_id}: {which} circle list declares an invalid "
            f"count {declared!r} for {len(clean)} shown ids"
        )
    return tuple(clean), declared


def parse_profile_page(page: ProfilePage) -> ParsedProfile:
    """Extract a crawl record from a served profile page.

    The document is validated structurally before anything is read out:
    a blank body, a half-delivered fragment, a page missing its
    mandatory name, or circle lists full of non-ids all raise
    :class:`PageParseError` (the shapes :func:`repro.faults.corrupt_payload`
    produces) instead of leaking ``KeyError``/``AttributeError``.
    """
    if page is None:
        raise PageParseError("empty page document")
    user_id = getattr(page, "user_id", None)
    if not isinstance(user_id, int) or isinstance(user_id, bool) or user_id < 0:
        raise PageParseError(f"page document has no usable user id: {user_id!r}")
    name = getattr(page, "name", None)
    if not isinstance(name, str):
        raise PageParseError(f"page {user_id}: missing mandatory name field")
    fields = getattr(page, "fields", None)
    if not isinstance(fields, dict):
        raise PageParseError(f"page {user_id}: field block missing or malformed")
    in_list = out_list = None
    declared_in = declared_out = 0
    page_in = getattr(page, "in_list", None)
    page_out = getattr(page, "out_list", None)
    if page_in is not None:
        in_list, declared_in = _parse_circle_list(user_id, "in", page_in)
    if page_out is not None:
        out_list, declared_out = _parse_circle_list(user_id, "out", page_out)
    return ParsedProfile(
        user_id=user_id,
        name=name,
        fields=dict(fields),
        in_list=in_list,
        out_list=out_list,
        declared_in=declared_in,
        declared_out=declared_out,
    )
