"""Parsing of fetched profile pages into crawl records.

The authors scraped HTML profile pages; our simulated service serves
structured :class:`~repro.platform.pages.ProfilePage` documents, and this
module plays the role of the scraper's extraction layer: it turns a page
into a :class:`ParsedProfile` — the unit stored in the crawl dataset —
pulling out the public fields, the declared circle-list counts and the
(possibly truncated) neighbor lists.
"""

from __future__ import annotations

from array import array
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


#: Bound on the user ids the crawler holds: its circle-list entries are
#: 4-byte unsigned, and it is the crawler's edge-key packing base
#: (``repro.crawler.bfs``). The parser rejects any id at or above it.
ID_LIMIT = 1 << 32


@dataclass(frozen=True)
class ParsedProfile:
    """One crawled profile: public fields plus circle-list observations.

    ``in_list`` / ``out_list`` are the user ids shown on the page (capped
    at the display limit) as ``array('I')``, 4 bytes per entry; any other
    sequence given is converted, so parsed, loaded and hand-made profiles
    compare equal. A served page's lists are ``array('I')`` already: the
    parser keeps an exact-size copy, never the page's own array, and
    needs no per-entry scan. ``declared_in`` / ``declared_out`` are the
    true counts the page reports. ``None`` lists mean the owner hid them.
    """

    user_id: int
    name: str
    fields: dict[str, Any] = field(default_factory=dict)
    in_list: array | None = None
    out_list: array | None = None
    declared_in: int = 0
    declared_out: int = 0

    def __post_init__(self) -> None:
        for name in ("in_list", "out_list"):
            ids = getattr(self, name)
            if ids is not None and not (type(ids) is array and ids.typecode == "I"):
                object.__setattr__(self, name, array("I", ids))

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


def _parse_circle_list(page_user_id: int, which: str, view: Any) -> tuple[array, int]:
    """Validate one circle-list view; raises :class:`PageParseError`.

    An ``array('I')`` (what the service renders) needs no entry check:
    its type already bounds every id to [0, ID_LIMIT), so it is copied
    with one exact-size memcpy. A tuple or list is checked entry by
    entry, at C level when every entry is exactly an ``int``.
    """
    user_ids = getattr(view, "user_ids", None)
    declared = getattr(view, "declared_count", None)
    clean = None
    if type(user_ids) is array and user_ids.typecode == "I":
        clean = array("I", user_ids)
    elif not isinstance(user_ids, (tuple, list)):
        raise PageParseError(
            f"page {page_user_id}: {which} circle list has no id sequence"
        )
    elif set(map(type, user_ids)) <= _EXACT_INT:
        # Fast path, all C-level: every entry is exactly an int (no bool,
        # no subclass, no numpy scalar); the conversion overflows on an
        # id outside [0, ID_LIMIT), which the loop below then names.
        try:
            clean = array("I", user_ids)
        except OverflowError:
            pass
    if clean is None:
        for entry in user_ids:
            if (
                not isinstance(entry, int)
                or isinstance(entry, bool)
                or not 0 <= entry < ID_LIMIT
            ):
                raise PageParseError(
                    f"page {page_user_id}: {which} circle list holds a non-id "
                    f"entry {entry!r}"
                )
        clean = array("I", user_ids)
    if not isinstance(declared, int) or isinstance(declared, bool) or declared < len(clean):
        raise PageParseError(
            f"page {page_user_id}: {which} circle list declares an invalid "
            f"count {declared!r} for {len(clean)} shown ids"
        )
    return clean, declared


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
    if (
        not isinstance(user_id, int)
        or isinstance(user_id, bool)
        or not 0 <= user_id < ID_LIMIT
    ):
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
