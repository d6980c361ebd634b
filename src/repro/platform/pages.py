"""Public profile-page documents — what the crawler actually sees.

A :class:`ProfilePage` is the structured equivalent of the HTML page the
authors scraped: the mandatory name, every field whose privacy admits the
viewer, and the two flattened circle lists ("Have user in circles" /
"In user's circles"), each truncated at the display limit but accompanied
by the *true* count, which Section 2.2 uses to estimate lost edges.

:func:`render_for_class` is the one renderer: a page's bytes depend only
on its owner's state and the viewer's privacy class.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Any

from .circles import CIRCLE_DISPLAY_LIMIT
from .privacy import SELF_CLASS


@dataclass(frozen=True)
class CircleListView:
    """One flattened, possibly truncated circle list on a profile page.

    Both renderers give ``user_ids`` as ``array('I')``, 4 bytes per
    shown id; page bytes list the same ids (:func:`repro.serve.page_to_bytes`).
    """

    user_ids: array
    declared_count: int

    def __post_init__(self) -> None:
        if self.declared_count < len(self.user_ids):
            raise ValueError("declared count cannot be below the shown list")

    @property
    def truncated(self) -> bool:
        return self.declared_count > len(self.user_ids)


@dataclass(frozen=True)
class ProfilePage:
    """The publicly served document for one user profile.

    ``fields`` holds only the values visible to the requesting viewer
    (an anonymous crawler sees PUBLIC fields only). The circle lists are
    ``None`` when the owner hides them.
    """

    user_id: int
    name: str
    fields: dict[str, Any] = field(default_factory=dict)
    in_list: CircleListView | None = None
    out_list: CircleListView | None = None

    def visible_field_keys(self) -> list[str]:
        """All field keys on the page, name included."""
        return ["name", *self.fields]


def truncate_list(user_ids: list[int], limit: int = CIRCLE_DISPLAY_LIMIT) -> CircleListView:
    """Apply the circle-list display cap, preserving the true count."""
    return CircleListView(array("I", user_ids[:limit]), len(user_ids))


def render_for_class(service, owner_id: int, class_key: tuple) -> ProfilePage:
    """Render the owner's page as a viewer of privacy class ``class_key``
    sees it (see :meth:`GooglePlusService.class_of`).

    Fields keep the profile's insertion order: the crawl store writes
    parsed profiles without sorting their keys.
    """
    fields = service.visible_fields(owner_id, class_key)
    in_list = out_list = None
    if class_key == SELF_CLASS or service.lists_public(owner_id):
        in_list, out_list = service.circle_lists(owner_id)
    return ProfilePage(
        user_id=owner_id,
        name=service.name(owner_id),
        fields=fields,
        in_list=in_list,
        out_list=out_list,
    )
