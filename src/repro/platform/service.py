"""The simulated Google+ service.

This is the substrate the paper measures: account signup (invitation-only
field trial, then open signup), circle management with the out-circle cap
and whitelist, follower tracking, per-field privacy enforcement, and the
public profile pages the crawler scrapes. A lightweight content layer
(posts with circle-scoped visibility, reshares and +1s) rounds out the
platform description of Section 2.1.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from itertools import chain
from typing import AbstractSet, Iterable, Iterator

import numpy as np

from .circles import CIRCLE_DISPLAY_LIMIT, CircleStore, DEFAULT_CIRCLE
from .columnar import ColumnarCircles, ColumnarProfileStore
from .errors import (
    AlreadyRegisteredError,
    SignupClosedError,
    UnknownUserError,
)
from .http import STATUS_NOT_FOUND, STATUS_OK, profile_path_user_id
from .models import FieldValue, UserProfile
from .pages import CircleListView, ProfilePage, render_for_class, truncate_list
from .privacy import ANON_CLASS, FieldPrivacy, SELF_CLASS, member_needs, visible_to

_NO_FOLLOWERS = np.zeros(0, dtype=np.int64)


def _row_list(head: np.ndarray, count: int) -> CircleListView:
    """A displayed circle list: the shown prefix of a row cast to
    uint32 as an ``array('I')``, plus the true count."""
    return CircleListView(array("I", head.astype(np.uint32).tobytes()), count)


class FollowerDelta:
    """A user's followers once a circle edit has targeted them: the base
    in-row, minus the base followers removed since, plus the followers
    appended since, in order.

    Only new links are added and only live links removed, so an add
    always appends (a re-added base follower moves to the end, as on a
    re-follow) and a remove either drops an appended follower or masks
    a base one.  The base row is a view of the CSR, never copied.
    """

    __slots__ = ("base", "removed", "added")

    def __init__(self, base: np.ndarray = _NO_FOLLOWERS):
        self.base = base
        #: removed base follower -> its position in the base row
        self.removed: dict[int, int] = {}
        self.added: dict[int, None] = {}

    def add(self, follower: int) -> None:
        self.added[follower] = None

    def remove(self, follower: int) -> None:
        if follower in self.added:
            del self.added[follower]
        else:
            self.removed[follower] = int(np.flatnonzero(self.base == follower)[0])

    def __len__(self) -> int:
        return len(self.base) - len(self.removed) + len(self.added)

    def head(self, limit: int) -> np.ndarray:
        """The first ``limit`` followers, in order."""
        base = self.base
        removed = self.removed
        if removed:
            # Each removal masks one base entry, so this prefix still
            # holds ``limit`` survivors whenever the row has them.
            base = base[: limit + len(removed)]
            positions = np.fromiter(removed.values(), dtype=np.int64, count=len(removed))
            keep = np.ones(len(base), dtype=bool)
            keep[positions[positions < len(base)]] = False
            base = base[keep]
        if len(base) >= limit or not self.added:
            return base[:limit]
        added = np.fromiter(self.added, dtype=np.int64, count=len(self.added))
        return np.concatenate((base, added))[:limit]

    def tolist(self) -> list[int]:
        return self.head(len(self)).tolist()


@dataclass(frozen=True)
class MutationEvent:
    """One state change a subscriber (e.g. a page cache) must react to.

    Kinds: ``circle_add`` / ``circle_remove`` (``user_id`` acts on
    ``target_id``), ``bulk_edges`` (the world ingest; ids unenumerated),
    ``profile`` (a field or lists_public change on ``user_id``),
    ``post`` (``user_id`` published) and ``plus_one`` (``target_id`` is
    the post id).
    """

    kind: str
    user_id: int
    target_id: int | None = None


@dataclass(frozen=True)
class Notification:
    """An in-app notification.

    Section 2.1: "A user can identify all the others who included the
    user in their circles (i.e., followers), because the user receives a
    notification when someone adds him to a circle."
    """

    kind: str
    actor_id: int
    subject_id: int | None = None


@dataclass
class Post:
    """A stream item: content shared to a set of the author's circles.

    ``to_circles`` of ``None`` means shared publicly.
    """

    post_id: int
    author_id: int
    content: str
    to_circles: frozenset[str] | None = None
    plus_ones: set[int] = field(default_factory=set)
    reshared_from: int | None = None


class GooglePlusService:
    """In-process simulation of the Google+ social networking service.

    State has two layers.  The ingested base world (users ``0..n-1``)
    lives in columns: profiles in a
    :class:`~repro.platform.columnar.ColumnarProfileStore`, circles and
    followers in a :class:`~repro.platform.columnar.ColumnarCircles`
    CSR; neither is written after :meth:`ingest_world`.  Every write
    lands in a per-user copy-on-write overlay — a :class:`UserProfile`
    or a :class:`CircleStore` materialised from the base row on the
    user's first write of that kind.  Followers and notifications copy
    nothing: a :class:`FollowerDelta` keeps the base in-row as a view
    plus the followers removed and appended since, and the base feed
    (one ``added_to_circle`` per incoming base link) is read from the
    CSR, so the overlay holds only the notes appended since, plus a
    mark once the base feed is cleared.
    Users registered outside the ingest exist only in the overlays, so
    an empty service plus :meth:`register` calls builds a hand-made
    world.  Reads check the overlay, then the columns.
    """

    def __init__(
        self,
        open_signup: bool = False,
        circle_display_limit: int = CIRCLE_DISPLAY_LIMIT,
    ):
        if circle_display_limit < 1:
            raise ValueError("circle display limit must be positive")
        self._posts: dict[int, Post] = {}
        self._next_post_id = 1
        self.open_signup = open_signup
        self.circle_display_limit = circle_display_limit
        #: Mutation subscribers; empty for every non-serving workload, so
        #: the guard in :meth:`_notify` keeps the hot paths free.
        self._mutation_listeners: list = []
        #: The base world: profile columns, circle CSR, the circle-cap
        #: whitelist, and its user count.
        self.base_profiles = ColumnarProfileStore.empty()
        self.base_circles = ColumnarCircles.empty(0)
        self._exempt = np.zeros(0, dtype=bool)
        self._n = 0
        #: Copy-on-write overlays, keyed by user id.
        self._profiles: dict[int, UserProfile] = {}
        self._circles: dict[int, CircleStore] = {}
        self._followers: dict[int, FollowerDelta] = {}
        #: Notes appended after the base feed (a registered user's whole
        #: feed), and the base users whose base feed has been cleared.
        self._notes: dict[int, list[Notification]] = {}
        self._base_feed_cleared: set[int] = set()
        #: Users registered outside the ingest, in signup order.
        self._joined: list[int] = []

    # -- mutation events -----------------------------------------------------

    def add_mutation_listener(self, listener) -> None:
        """Subscribe a callable to :class:`MutationEvent` notifications."""
        self._mutation_listeners.append(listener)

    def _notify(self, kind: str, user_id: int, target_id: int | None = None) -> None:
        if self._mutation_listeners:
            event = MutationEvent(kind=kind, user_id=user_id, target_id=target_id)
            for listener in self._mutation_listeners:
                listener(event)

    # -- account lifecycle -------------------------------------------------

    def register(
        self,
        profile: UserProfile,
        invited_by: int | None = None,
        exempt_from_circle_limit: bool = False,
    ) -> None:
        """Create an account.

        During the field trial (``open_signup`` False) a valid inviter who
        is already a member is required, mirroring the invitation-viral
        growth phase described in Section 2.1.
        """
        user_id = profile.user_id
        if user_id in self:
            raise AlreadyRegisteredError(user_id)
        if not self.open_signup:
            if invited_by is None:
                raise SignupClosedError(
                    "signups are invitation-only during the field trial"
                )
            if invited_by not in self:
                raise UnknownUserError(invited_by)
        store = CircleStore(user_id, exempt_from_limit=exempt_from_circle_limit)
        store.create_circle(DEFAULT_CIRCLE)
        self._profiles[user_id] = profile
        self._circles[user_id] = store
        self._followers[user_id] = FollowerDelta()
        self._joined.append(user_id)

    def ingest_world(
        self,
        profiles: ColumnarProfileStore,
        sources: np.ndarray,
        targets: np.ndarray,
        circle_labels: tuple[str, ...],
        label_codes: np.ndarray,
        exempt_ids=(),
    ) -> int:
        """Adopt a bulk-generated base world: profile columns for users
        ``0..n-1`` plus the edge batch (``sources[i]`` puts
        ``targets[i]`` in circle ``circle_labels[label_codes[i]]``).

        The result equals registering every profile and then calling
        :meth:`add_to_circle` once per edge in order.  ``exempt_ids``
        are whitelisted past the out-circle cap.  Runs once, on an empty
        service; returns the link count.
        """
        if len(self):
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
                raise ValueError("users cannot add themselves to their own circles")
        self.base_circles = ColumnarCircles.build(
            n, src, dst, label_codes, circle_labels, exempt
        )
        self.base_profiles = profiles
        self._exempt = exempt
        self._n = n
        if len(src):
            self._notify("bulk_edges", -1)
        return int(len(self.base_circles.in_sources))

    def enable_open_signup(self) -> None:
        """End the field trial: anyone may sign up (September 20th, 2011)."""
        self.open_signup = True

    def __contains__(self, user_id: object) -> bool:
        return isinstance(user_id, (int, np.integer)) and (
            0 <= user_id < self._n or user_id in self._profiles
        )

    def __len__(self) -> int:
        return self._n + len(self._joined)

    def user_ids(self) -> Iterator[int]:
        return chain(range(self._n), self._joined)

    def _base(self, user_id: int) -> int:
        """``user_id`` as a base-world row; only users without an overlay
        of the kind being read reach here."""
        if 0 <= user_id < self._n:
            return user_id
        raise UnknownUserError(user_id)

    def _require(self, user_id: int) -> None:
        if user_id not in self:
            raise UnknownUserError(user_id)

    def _own(self, overlay: dict, user_id: int, materialize):
        """The user's overlay entry, copied from the base row on first use."""
        item = overlay.get(user_id)
        if item is None:
            item = overlay[user_id] = materialize(self._base(user_id))
        return item

    def _base_store(self, user_id: int) -> CircleStore:
        return self.base_circles.materialize_store(user_id, bool(self._exempt[user_id]))

    def _base_followers(self, user_id: int) -> FollowerDelta:
        return FollowerDelta(self.base_circles.in_slice(user_id))

    def _base_notes(self, user_id: int) -> list[Notification]:
        """The base feed: one ``added_to_circle`` per incoming link."""
        return [
            Notification(kind="added_to_circle", actor_id=actor)
            for actor in self.base_circles.in_slice(user_id).tolist()
        ]

    # -- profile reads -------------------------------------------------------

    def profile(self, user_id: int) -> UserProfile:
        """The user's profile: the live object for a user with a profile
        overlay, else a fresh snapshot of the base columns."""
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile
        return self.base_profiles.materialize_profile(self._base(user_id))

    def name(self, user_id: int) -> str:
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile.name
        return self.base_profiles.name_of(self._base(user_id))

    def lists_public(self, user_id: int) -> bool:
        """Whether the user shows their circle lists on the profile page."""
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile.lists_public
        return bool(self.base_profiles.lists_public[self._base(user_id)])

    def field_entries(self, user_id: int) -> Iterable[tuple[str, FieldValue]]:
        """The user's ``(key, FieldValue)`` pairs in insertion order."""
        profile = self._profiles.get(user_id)
        if profile is not None:
            return profile.fields.items()
        return self.base_profiles.iter_entries(self._base(user_id))

    def visible_fields(self, user_id: int, class_key: tuple) -> dict:
        """The field values a viewer of privacy class ``class_key`` sees,
        ``{key: value}`` in the profile's insertion order.

        An anonymous viewer of a base user without a profile overlay
        reads the store's public-field mask
        (:meth:`ColumnarProfileStore.anon_fields`); every other case
        filters :meth:`field_entries` through :func:`visible_to`.
        """
        if class_key == ANON_CLASS and user_id not in self._profiles:
            fields = self.base_profiles.anon_fields(self._base(user_id))
            if fields is not None:
                return fields
        return {
            key: entry.value
            for key, entry in self.field_entries(user_id)
            if visible_to(entry.privacy, class_key)
        }

    # -- circles / social links --------------------------------------------

    def add_to_circle(
        self, user_id: int, target_id: int, circle: str = DEFAULT_CIRCLE
    ) -> bool:
        """``user_id`` adds ``target_id`` to a circle (no confirmation needed).

        Returns True when a new directed social link was created.
        """
        circles = self._own(self._circles, user_id, self._base_store)
        self._require(target_id)
        is_new_link = circles.add(target_id, circle)
        if is_new_link:
            self._own(self._followers, target_id, self._base_followers).add(user_id)
            # Section 2.1: the added user is notified (circle name stays
            # private — only the fact of the add is revealed).
            self._notes.setdefault(target_id, []).append(
                Notification(kind="added_to_circle", actor_id=user_id)
            )
        # Even a non-link add (an existing contact joining another circle)
        # changes the named-circle membership CUSTOM privacy reads.
        self._notify("circle_add", user_id, target_id)
        return is_new_link

    def remove_from_circle(
        self, user_id: int, target_id: int, circle: str | None = None
    ) -> bool:
        """Remove a contact from one circle (or all). True if the link died."""
        circles = self._own(self._circles, user_id, self._base_store)
        link_removed = circles.remove(target_id, circle)
        if link_removed:
            self._own(self._followers, target_id, self._base_followers).remove(user_id)
        self._notify("circle_remove", user_id, target_id)
        return link_removed

    def followees(self, user_id: int) -> list[int]:
        """Users ``user_id`` has in circles ("In user's circles")."""
        circles = self._circles.get(user_id)
        if circles is not None:
            return circles.flattened()
        return self.base_circles.out_slice(self._base(user_id)).tolist()

    def followers(self, user_id: int) -> list[int]:
        """Users that have ``user_id`` in circles ("Have user in circles")."""
        followers = self._followers.get(user_id)
        if followers is not None:
            return followers.tolist()
        return self.base_circles.in_slice(self._base(user_id)).tolist()

    def out_degree(self, user_id: int) -> int:
        circles = self._circles.get(user_id)
        if circles is not None:
            return circles.out_degree()
        return self.base_circles.out_degree(self._base(user_id))

    def in_degree(self, user_id: int) -> int:
        followers = self._followers.get(user_id)
        if followers is not None:
            return len(followers)
        return self.base_circles.in_degree(self._base(user_id))

    def exempt_from_circle_limit(self, user_id: int) -> bool:
        """Whether the user is whitelisted past the out-circle cap."""
        circles = self._circles.get(user_id)
        if circles is not None:
            return circles.exempt_from_limit
        return bool(self._exempt[self._base(user_id)])

    def in_circles(self, owner_id: int, viewer_id: int) -> bool:
        """Whether the owner has the viewer in any circle."""
        circles = self._circles.get(owner_id)
        if circles is not None:
            return viewer_id in circles.all_members
        # A list walk: most rows hold a few dozen ids, where a numpy
        # comparison costs several times more in call overhead.
        return viewer_id in self.base_circles.out_slice(self._base(owner_id)).tolist()

    def has_contact_in(self, owner_id: int, users: AbstractSet[int]) -> bool:
        """Whether the owner has any of ``users`` in circles.  An overlay
        owner's key view and ``users`` probe each other from the smaller
        side; a base row is probed against ``users`` in one C-level walk.
        Nothing is kept."""
        circles = self._circles.get(owner_id)
        if circles is not None:
            return not circles.all_members.keys().isdisjoint(users)
        row = self.base_circles.out_slice(self._base(owner_id))
        return not users.isdisjoint(row.tolist())

    def member_of(self, owner_id: int, target_id: int, circle: str) -> bool:
        """Whether the owner's circle named ``circle`` holds the target
        (an unknown circle holds nobody)."""
        circles = self._circles.get(owner_id)
        if circles is not None:
            return circles.member_of(target_id, circle)
        return self.base_circles.has_member(self._base(owner_id), target_id, circle)

    def circle_members(self, owner_id: int, circles) -> np.ndarray:
        """Everyone in any of the owner's circles named in ``circles``
        (a target in two of them appears twice; unknown names hold
        nobody)."""
        store = self._circles.get(owner_id)
        if store is not None:
            return np.asarray(store.members(circles), dtype=np.int64)
        return self.base_circles.members(self._base(owner_id), circles)

    def circle_names(self, user_id: int) -> list[str]:
        """The owner's circle names, in creation order."""
        circles = self._circles.get(user_id)
        if circles is not None:
            return circles.circle_names()
        return self.base_circles.circle_names(self._base(user_id))

    def in_extended_circles(self, owner_id: int, viewer_id: int) -> bool:
        """Whether the viewer is in the owner's circles, or in the
        circles of any of the owner's contacts (the EXTENDED_CIRCLES
        reach): the owner or one of its contacts follows the viewer."""
        if viewer_id not in self:
            return False  # not a user: nobody has them in circles
        followers = frozenset(self.followers(viewer_id))
        return owner_id in followers or self.has_contact_in(owner_id, followers)

    def circles_containing(self, owner_id, viewer_id, names) -> tuple[str, ...]:
        """Which of the owner's named circles hold the viewer, in the
        order ``names`` lists them (for CUSTOM privacy classing)."""
        return tuple(
            name for name in names if self.member_of(owner_id, viewer_id, name)
        )

    # -- profile mutation ----------------------------------------------------

    def update_field(
        self,
        user_id: int,
        key: str,
        value,
        privacy: FieldPrivacy | None = None,
    ) -> None:
        """Set or replace one optional profile field, notifying subscribers.

        This is the serving-side mutation path: unlike touching the
        :class:`~repro.platform.models.UserProfile` directly, it fires a
        ``profile`` :class:`MutationEvent` so caches drop the owner's
        rendered pages.
        """
        profile = self._own(self._profiles, user_id, self.base_profiles.materialize_profile)
        if privacy is None:
            profile.set_field(key, value)
        else:
            profile.set_field(key, value, privacy)
        self._notify("profile", user_id)

    def set_lists_public(self, user_id: int, public: bool) -> None:
        """Toggle the owner's circle-list visibility, notifying subscribers."""
        profile = self._own(self._profiles, user_id, self.base_profiles.materialize_profile)
        profile.lists_public = bool(public)
        self._notify("profile", user_id)

    # -- privacy-aware profile views ----------------------------------------

    def class_of(
        self, owner_id: int, viewer_id: int | None, needs=None, in_extended=None
    ) -> tuple:
        """The viewer's privacy class on the owner's page (None = anonymous;
        see :mod:`repro.platform.privacy`).

        ``needs`` may pass the owner's precomputed
        :func:`~repro.platform.privacy.member_needs`, and ``in_extended``
        a test equal to :meth:`in_extended_circles`; the page cache's
        memoised classer passes both.
        """
        if viewer_id is None:
            return ANON_CLASS
        if viewer_id == owner_id:
            return SELF_CLASS
        has_extended, custom_names = needs or member_needs(self.field_entries(owner_id))
        in_circles = self.in_circles(owner_id, viewer_id)
        # Without an EXTENDED_CIRCLES field nothing reads the extended
        # bit, so the two-hop test is skipped and the bit mirrors
        # in_circles.
        reach = in_extended or self.in_extended_circles
        extended = in_circles or (has_extended and reach(owner_id, viewer_id))
        custom = (
            self.circles_containing(owner_id, viewer_id, custom_names)
            if custom_names
            else ()
        )
        return ("m", in_circles, extended, custom)

    def can_view_field(self, owner_id: int, viewer_id: int | None, key: str) -> bool:
        """Decide whether ``viewer_id`` (None = anonymous) may see a field."""
        if key == "name":
            return True
        entry = dict(self.field_entries(owner_id)).get(key)
        if entry is None:
            return False
        return visible_to(entry.privacy, self.class_of(owner_id, viewer_id))

    def circle_lists(self, user_id: int) -> tuple[CircleListView, CircleListView]:
        """The page's two circle lists, "Have user in circles" and "In
        user's circles", each truncated at the display limit.

        A base row materialises only its displayed prefix; its length is
        the true count the paper's lost-edge estimate reads.
        """
        limit = self.circle_display_limit
        followers = self._followers.get(user_id)
        if followers is not None:
            in_list = _row_list(followers.head(limit), len(followers))
        else:
            row = self.base_circles.in_slice(self._base(user_id))
            in_list = _row_list(row[:limit], len(row))
        circles = self._circles.get(user_id)
        if circles is not None:
            out_list = truncate_list(circles.flattened(), limit)
        else:
            row = self.base_circles.out_slice(self._base(user_id))
            out_list = _row_list(row[:limit], len(row))
        return in_list, out_list

    def profile_page(self, user_id: int, viewer_id: int | None = None) -> ProfilePage:
        """Render the profile page as seen by ``viewer_id`` (None = crawler)."""
        return render_for_class(self, user_id, self.class_of(user_id, viewer_id))

    # -- content layer (stream, +1, reshare) --------------------------------

    def publish(
        self,
        author_id: int,
        content: str,
        to_circles: frozenset[str] | None = None,
        reshared_from: int | None = None,
    ) -> Post:
        """Publish a post to the author's stream, optionally circle-scoped."""
        self._require(author_id)
        if to_circles is not None:
            unknown = to_circles - set(self.circle_names(author_id))
            if unknown:
                raise ValueError(f"author has no circles named {sorted(unknown)}")
        if reshared_from is not None and reshared_from not in self._posts:
            raise KeyError(f"unknown post id: {reshared_from}")
        post = Post(
            post_id=self._next_post_id,
            author_id=author_id,
            content=content,
            to_circles=to_circles,
            reshared_from=reshared_from,
        )
        self._next_post_id += 1
        self._posts[post.post_id] = post
        self._notify("post", author_id, post.post_id)
        return post

    def notifications(self, user_id: int, clear: bool = False) -> list[Notification]:
        """The user's notification feed (optionally consuming it): a base
        user's uncleared base feed, then the notes appended since."""
        has_base_feed = 0 <= user_id < self._n and user_id not in self._base_feed_cleared
        if not has_base_feed:
            self._require(user_id)
        items = self._base_notes(user_id) if has_base_feed else []
        items.extend(self._notes.get(user_id, ()))
        if clear:
            self._notes.pop(user_id, None)
            if has_base_feed:
                self._base_feed_cleared.add(user_id)
        return items

    def plus_one(self, user_id: int, post_id: int) -> None:
        """Record a +1: a public recommendation of a post."""
        self._require(user_id)
        try:
            post = self._posts[post_id]
        except KeyError:
            raise KeyError(f"unknown post id: {post_id}") from None
        if user_id not in post.plus_ones:
            post.plus_ones.add(user_id)
            self._notes.setdefault(post.author_id, []).append(
                Notification(kind="plus_one", actor_id=user_id, subject_id=post_id)
            )
            self._notify("plus_one", user_id, post_id)

    def can_view_post(self, post_id: int, viewer_id: int | None) -> bool:
        """Circle-scoped posts are visible to members of the named circles."""
        post = self._posts[post_id]
        if post.to_circles is None:
            return True
        if viewer_id is None:
            return False
        if viewer_id == post.author_id:
            return True
        return any(
            self.member_of(post.author_id, viewer_id, name) for name in post.to_circles
        )

    def stream_for(self, viewer_id: int) -> list[Post]:
        """Posts flowing into a user's stream from the circles they follow."""
        followed = set(self.followees(viewer_id))
        return [
            post
            for post in self._posts.values()
            if post.author_id in followed and self.can_view_post(post.post_id, viewer_id)
        ]

    # -- HTTP handler ---------------------------------------------------------

    def handle_path(
        self, path: str, viewer_id: int | None = None
    ) -> tuple[int, ProfilePage | None]:
        """Serve ``/u/<id>`` paths for :class:`repro.platform.http.HttpFrontend`.

        ``viewer_id`` is the logged-in requester; the crawler's requests
        default to ``None`` and see exactly the anonymous pages they
        always did.
        """
        user_id = profile_path_user_id(path)
        if user_id is None or user_id not in self:
            return STATUS_NOT_FOUND, None
        return STATUS_OK, self.profile_page(user_id, viewer_id=viewer_id)
