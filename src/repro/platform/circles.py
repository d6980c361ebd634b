"""Circles: the contact-management primitive of Google+.

A circle is a labelled group of contacts private to its owner. Adding a
user to any circle creates a directed social link (the paper's edge
``u -> v``) and needs no confirmation from the added user. The platform
distinguishes:

* **out-circles** — users the owner has added (followees),
* **in-circles** — users who added the owner (followers).

Circle *names and memberships* are private; the profile page only exposes
the flattened "In user's circles" / "Have user in circles" lists, each
truncated at :data:`CIRCLE_DISPLAY_LIMIT` entries (Section 2.2) while still
reporting the true count — which is what lets the crawler estimate lost
edges. Ordinary accounts may not add more than :data:`OUT_CIRCLE_LIMIT`
contacts in total; Google whitelisted some special users past the cap,
which the simulator models explicitly.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import CircleLimitError, UnknownCircleError

#: Maximum number of users shown in a public circle list (Section 2.2).
CIRCLE_DISPLAY_LIMIT = 10_000

#: Out-circle size cap for ordinary accounts (Section 3.3.1 conjecture).
OUT_CIRCLE_LIMIT = 5_000

#: Default circle created for every account.
DEFAULT_CIRCLE = "friends"


@dataclass
class CircleStore:
    """All circles owned by one user.

    ``members_by_circle`` maps circle name to an insertion-ordered member
    dict used as an ordered set; ``all_members`` caches the union so that
    the out-degree check and flattened list are O(1) amortised.
    """

    owner_id: int
    exempt_from_limit: bool = False
    members_by_circle: dict[str, dict[int, None]] = field(default_factory=dict)
    all_members: dict[int, None] = field(default_factory=dict)

    def create_circle(self, name: str) -> None:
        """Create an empty circle; creating an existing name is a no-op."""
        self.members_by_circle.setdefault(name, {})

    def circle_names(self) -> list[str]:
        return list(self.members_by_circle)

    def add(self, target_id: int, circle: str = DEFAULT_CIRCLE) -> bool:
        """Add ``target_id`` to a circle, creating the circle if needed.

        Returns True when a *new* social link was formed (the target was
        in no circle of this owner before), False when the target merely
        joined an additional circle. Raises :class:`CircleLimitError` when
        a non-exempt owner would exceed :data:`OUT_CIRCLE_LIMIT` distinct
        contacts.
        """
        if target_id == self.owner_id:
            raise ValueError("users cannot add themselves to their own circles")
        is_new_contact = target_id not in self.all_members
        if (
            is_new_contact
            and not self.exempt_from_limit
            and len(self.all_members) >= OUT_CIRCLE_LIMIT
        ):
            raise CircleLimitError(self.owner_id, OUT_CIRCLE_LIMIT)
        self.members_by_circle.setdefault(circle, {})[target_id] = None
        self.all_members[target_id] = None
        return is_new_contact

    def extend(self, target_ids, circle: str = DEFAULT_CIRCLE) -> list[int]:
        """Batch :meth:`add`: validate once, then insert in a tight loop.

        Unlike repeated ``add`` calls, all validation (self-adds, the
        out-circle cap) happens up front, so a failing batch mutates
        nothing — and a succeeding batch leaves the store in exactly the
        state the equivalent ``add`` sequence would. Returns the targets
        that became *new* contacts, in first-added order.
        """
        target_ids = [int(t) for t in target_ids]
        if not target_ids:
            # Zero add() calls create nothing — neither may an empty
            # batch, or a phantom empty circle appears in circle_names().
            return []
        owner_id = self.owner_id
        all_members = self.all_members
        if any(t == owner_id for t in target_ids):
            raise ValueError("users cannot add themselves to their own circles")
        if not self.exempt_from_limit:
            new_count = len({t for t in target_ids if t not in all_members})
            if len(all_members) + new_count > OUT_CIRCLE_LIMIT:
                raise CircleLimitError(owner_id, OUT_CIRCLE_LIMIT)
        members = self.members_by_circle.setdefault(circle, {})
        new_contacts: list[int] = []
        for t in target_ids:
            if t not in all_members:
                new_contacts.append(t)
            members[t] = None
            all_members[t] = None
        return new_contacts

    def remove(self, target_id: int, circle: str | None = None) -> bool:
        """Remove a contact from one circle, or from all circles.

        Returns True when an *existing* social link disappeared entirely
        (the target was in some circle and is now in none). Removing a
        target that was never a contact returns False — callers key
        follower-list cleanup off this, so a spurious True would claim a
        link died that never existed.
        """
        was_linked = target_id in self.all_members
        if circle is not None:
            if circle not in self.members_by_circle:
                raise UnknownCircleError(self.owner_id, circle)
            self.members_by_circle[circle].pop(target_id, None)
        else:
            for members in self.members_by_circle.values():
                members.pop(target_id, None)
        still_linked = any(
            target_id in members for members in self.members_by_circle.values()
        )
        if not still_linked:
            self.all_members.pop(target_id, None)
        return was_linked and not still_linked

    def contains(self, target_id: int) -> bool:
        """True when the target is in at least one circle of this owner."""
        return target_id in self.all_members

    def member_of(self, target_id: int, circle: str) -> bool:
        """True when the target is in the named circle (missing = False).

        The read primitive behind CUSTOM privacy checks: callers go
        through this instead of reaching into ``members_by_circle`` so
        alternative stores can answer without materializing dicts.
        """
        return target_id in self.members_by_circle.get(circle, ())

    def members(self, circles) -> list[int]:
        """Everyone in any of the named circles (a target in two of them
        appears twice; unknown names hold nobody)."""
        return [
            target
            for name in circles
            for target in self.members_by_circle.get(name, ())
        ]

    def circles_of(self, target_id: int) -> list[str]:
        """Names of the owner's circles containing the target."""
        return [
            name
            for name, members in self.members_by_circle.items()
            if target_id in members
        ]

    def out_degree(self) -> int:
        """Number of distinct contacts across all circles."""
        return len(self.all_members)

    def flattened(self) -> list[int]:
        """All distinct contacts, in first-added order."""
        return list(self.all_members)
