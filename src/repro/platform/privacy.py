"""Per-field visibility model of Google+ profiles.

Google+ let a user pick, for every profile field except the mandatory
name, one of five visibility levels (Section 3.1 of the paper):

1. ``PUBLIC`` — anyone on the Internet,
2. ``EXTENDED_CIRCLES`` — people in circles and the circles of those,
3. ``YOUR_CIRCLES`` — people in the owner's circles,
4. ``ONLY_YOU`` — the owner alone,
5. ``CUSTOM`` — an explicit set of circles.

The crawler in this reproduction is an anonymous HTTP client, so only
``PUBLIC`` fields are harvested — exactly the situation the authors faced.
The richer levels still matter: the platform enforces them whenever a
profile is viewed *as* another user, and tests exercise those paths.

Every viewer of a page falls into one *privacy class* of its owner:

* :data:`ANON_CLASS` — anonymous (the crawler);
* :data:`SELF_CLASS` — the owner;
* ``("m", in_circles, in_extended, custom)`` — a logged-in member:
  whether the owner has them in circles, whether they are in the
  owner's extended circles (computed only when the owner has
  EXTENDED_CIRCLES fields), and which of the owner's CUSTOM-referenced
  circles hold them.

:func:`visible_to` is the one table deciding which fields a class sees,
so a page is a function of its owner's state and the viewer's class.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Iterable


class Visibility(enum.Enum):
    """The five visibility levels of a Google+ profile field."""

    PUBLIC = "public"
    EXTENDED_CIRCLES = "extended circles"
    YOUR_CIRCLES = "your circles"
    ONLY_YOU = "only you"
    CUSTOM = "custom"


@dataclass(frozen=True)
class FieldPrivacy:
    """Visibility setting attached to one profile field.

    ``custom_circles`` is only meaningful when ``visibility`` is
    :attr:`Visibility.CUSTOM`; it names the owner's circles whose members
    may view the field.
    """

    visibility: Visibility = Visibility.PUBLIC
    custom_circles: frozenset[str] = field(default_factory=frozenset)

    def is_public(self) -> bool:
        """True when any anonymous visitor may view the field."""
        return self.visibility is Visibility.PUBLIC


PUBLIC = FieldPrivacy(Visibility.PUBLIC)
ONLY_YOU = FieldPrivacy(Visibility.ONLY_YOU)
YOUR_CIRCLES = FieldPrivacy(Visibility.YOUR_CIRCLES)
EXTENDED_CIRCLES = FieldPrivacy(Visibility.EXTENDED_CIRCLES)


def custom(*circles: str) -> FieldPrivacy:
    """Build a CUSTOM privacy setting restricted to the given circles."""
    return FieldPrivacy(Visibility.CUSTOM, frozenset(circles))


ANON_CLASS = ("anon",)
SELF_CLASS = ("self",)

#: The visibility table for member classes ``("m", in_circles,
#: in_extended, custom)``: one rule per level over the field's privacy
#: and the class key.
_MEMBER_SEES = {
    Visibility.PUBLIC: lambda privacy, key: True,
    Visibility.YOUR_CIRCLES: lambda privacy, key: key[1],
    Visibility.EXTENDED_CIRCLES: lambda privacy, key: key[2],
    Visibility.ONLY_YOU: lambda privacy, key: False,
    Visibility.CUSTOM: lambda privacy, key: not privacy.custom_circles.isdisjoint(key[3]),
}


def visible_to(privacy: FieldPrivacy, class_key: tuple) -> bool:
    """Whether a viewer of privacy class ``class_key`` sees the field."""
    if class_key == SELF_CLASS:
        return True
    if class_key == ANON_CLASS:
        return privacy.visibility is Visibility.PUBLIC
    return _MEMBER_SEES[privacy.visibility](privacy, class_key)


def member_needs(entries: Iterable) -> tuple[bool, tuple[str, ...]]:
    """What the member classes of an owner with these ``(key,
    FieldValue)`` profile entries must record: whether any field is
    EXTENDED_CIRCLES (else the extended bit is never read), and the
    sorted names of the circles CUSTOM fields reference."""
    has_extended = False
    custom_names: set[str] = set()
    for _, entry in entries:
        privacy = entry.privacy
        if privacy.visibility is Visibility.EXTENDED_CIRCLES:
            has_extended = True
        elif privacy.visibility is Visibility.CUSTOM:
            custom_names.update(privacy.custom_circles)
    return has_extended, tuple(sorted(custom_names))
