"""The simulated Google+ service.

This is the substrate the paper measures: account signup (invitation-only
field trial, then open signup), circle management with the out-circle cap
and whitelist, follower tracking, per-field privacy enforcement, and the
public profile pages the crawler scrapes. A lightweight content layer
(posts with circle-scoped visibility, reshares and +1s) rounds out the
platform description of Section 2.1.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterator

import numpy as np

from .gcpause import gc_paused
from .circles import (
    CIRCLE_DISPLAY_LIMIT,
    CircleStore,
    DEFAULT_CIRCLE,
    OUT_CIRCLE_LIMIT,
)
from .errors import (
    AlreadyRegisteredError,
    CircleLimitError,
    SignupClosedError,
    UnknownUserError,
)
from .http import STATUS_NOT_FOUND, STATUS_OK
from .models import UserProfile
from .pages import CircleListView, ProfilePage, render_for_class, truncate_list
from .privacy import ANON_CLASS, FieldPrivacy, SELF_CLASS, member_needs, visible_to


@dataclass(frozen=True)
class MutationEvent:
    """One state change a subscriber (e.g. a page cache) must react to.

    Kinds: ``circle_add`` / ``circle_remove`` (``user_id`` acts on
    ``target_id``), ``bulk_edges`` (a batch ingest; ids unenumerated),
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


@dataclass
class _Account:
    """Internal per-user record: profile, circles, and follower index."""

    profile: UserProfile
    circles: CircleStore
    followers: dict[int, None] = field(default_factory=dict)
    notifications: list[Notification] = field(default_factory=list)


class GooglePlusService:
    """In-process simulation of the Google+ social networking service."""

    #: Which backing store implements the service state; the columnar
    #: subclass overrides this (``WorldConfig.store`` selects between
    #: them — see docs/storage.md).
    backend = "dict"

    def __init__(
        self,
        open_signup: bool = False,
        circle_display_limit: int = CIRCLE_DISPLAY_LIMIT,
    ):
        if circle_display_limit < 1:
            raise ValueError("circle display limit must be positive")
        self._accounts: dict[int, _Account] = {}
        self._posts: dict[int, Post] = {}
        self._next_post_id = 1
        self.open_signup = open_signup
        self.circle_display_limit = circle_display_limit
        #: Mutation subscribers; empty for every non-serving workload, so
        #: the guard in :meth:`_notify` keeps the hot paths free.
        self._mutation_listeners: list = []

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
        if profile.user_id in self._accounts:
            raise AlreadyRegisteredError(profile.user_id)
        if not self.open_signup:
            if invited_by is None:
                raise SignupClosedError(
                    "signups are invitation-only during the field trial"
                )
            if invited_by not in self._accounts:
                raise UnknownUserError(invited_by)
        store = CircleStore(profile.user_id, exempt_from_limit=exempt_from_circle_limit)
        store.create_circle(DEFAULT_CIRCLE)
        self._accounts[profile.user_id] = _Account(profile=profile, circles=store)

    def register_bulk(
        self,
        profiles,
        exempt_ids=(),
        invited_by=None,
    ) -> int:
        """Create many accounts in one call; returns how many were created.

        State-identical to calling :meth:`register` once per profile in
        order: same accounts, same iteration order, same errors at the
        same profile. ``exempt_ids`` is the set of user ids whitelisted
        past the out-circle cap (ids not in ``profiles`` are ignored);
        ``invited_by`` aligns with ``profiles`` and is required, as in
        the scalar path, while signup is invitation-only. The batch form
        hoists the signup-phase branching out of the per-account work
        and builds each account's stores directly.
        """
        accounts = self._accounts
        exempt = frozenset(int(u) for u in exempt_ids)
        open_signup = self.open_signup
        inviters = repeat(None) if invited_by is None else invited_by
        created = 0
        with gc_paused():
            for profile, inviter in zip(profiles, inviters):
                user_id = profile.user_id
                if user_id in accounts:
                    raise AlreadyRegisteredError(user_id)
                if not open_signup:
                    if inviter is None:
                        raise SignupClosedError(
                            "signups are invitation-only during the field trial"
                        )
                    if inviter not in accounts:
                        raise UnknownUserError(inviter)
                accounts[user_id] = _Account(
                    profile=profile,
                    circles=CircleStore(
                        user_id,
                        exempt_from_limit=user_id in exempt,
                        members_by_circle={DEFAULT_CIRCLE: {}},
                    ),
                )
                created += 1
        return created

    def enable_open_signup(self) -> None:
        """End the field trial: anyone may sign up (September 20th, 2011)."""
        self.open_signup = True

    def __contains__(self, user_id: int) -> bool:
        return user_id in self._accounts

    def __len__(self) -> int:
        return len(self._accounts)

    def user_ids(self) -> Iterator[int]:
        return iter(self._accounts)

    def profile(self, user_id: int) -> UserProfile:
        return self._account(user_id).profile

    def _account(self, user_id: int) -> _Account:
        try:
            return self._accounts[user_id]
        except KeyError:
            raise UnknownUserError(user_id) from None

    # -- circles / social links --------------------------------------------

    def add_to_circle(
        self, user_id: int, target_id: int, circle: str = DEFAULT_CIRCLE
    ) -> bool:
        """``user_id`` adds ``target_id`` to a circle (no confirmation needed).

        Returns True when a new directed social link was created.
        """
        account = self._account(user_id)
        target = self._account(target_id)
        is_new_link = account.circles.add(target_id, circle)
        if is_new_link:
            target.followers[user_id] = None
            # Section 2.1: the added user is notified (circle name stays
            # private — only the fact of the add is revealed).
            target.notifications.append(
                Notification(kind="added_to_circle", actor_id=user_id)
            )
        # Even a non-link add (an existing contact joining another circle)
        # changes the named-circle membership CUSTOM privacy reads.
        self._notify("circle_add", user_id, target_id)
        return is_new_link

    def add_edges_bulk(
        self,
        sources,
        targets,
        circles=None,
        *,
        circle_index=None,
    ) -> int:
        """Plant many directed links in one call; returns new-link count.

        On success the service state is identical to calling
        :meth:`add_to_circle` once per ``(sources[i], targets[i],
        circles[i])`` in order — including every insertion order the
        crawl depends on: each owner's circle membership and flattened
        contact list, each target's follower list, and the notification
        feeds. Instead of 2N dict lookups per edge, the batch is sorted
        once per side and each account's dicts are built with
        ``dict.fromkeys`` over contiguous, originally-ordered slices.

        ``circles`` may be a sequence of circle names (one per edge) or
        ``None`` for :data:`DEFAULT_CIRCLE` throughout; alternatively
        ``circle_index=(labels, index_array)`` names each edge's circle
        as ``labels[index_array[i]]`` without materializing a per-edge
        string list. Validation is batched: unknown users and self-edges
        fail up front with nothing mutated, and the out-circle cap is
        checked per owner before that owner's circles are touched (the
        scalar path raises at the exact offending edge instead; a batch
        that succeeds is unaffected).
        """
        # The ingest allocates millions of dict entries in one burst;
        # pausing cyclic GC for the duration avoids repeated whole-heap
        # collections triggered by allocation thresholds.
        with gc_paused():
            created = self._add_edges_bulk(sources, targets, circles, circle_index)
        if created:
            self._notify("bulk_edges", -1)
        return created

    def _add_edges_bulk(self, sources, targets, circles, circle_index) -> int:
        src = np.asarray(sources, dtype=np.int64)
        dst = np.asarray(targets, dtype=np.int64)
        if src.ndim != 1 or dst.shape != src.shape:
            raise ValueError("sources and targets must have equal length")
        m = len(src)
        if circles is not None and circle_index is not None:
            raise ValueError("pass either circles or circle_index, not both")
        if circles is not None and len(circles) != m:
            raise ValueError("circles must have one entry per edge")
        if m == 0:
            return 0
        accounts = self._accounts
        ids = np.concatenate((src, dst))
        top = max(accounts) if accounts else -1
        lo, hi = int(ids.min()), int(ids.max())
        if lo < 0 or hi > top:
            raise UnknownUserError(lo if lo < 0 else hi)
        known = np.zeros(top + 1, dtype=bool)
        known[np.fromiter(accounts.keys(), dtype=np.int64, count=len(accounts))] = True
        missing = np.flatnonzero(~known[ids])
        if len(missing):
            raise UnknownUserError(int(ids[missing[0]]))
        if bool((src == dst).any()):
            raise ValueError("users cannot add themselves to their own circles")
        if circle_index is not None:
            label_seq, index_arr = circle_index
            labels = [str(name) for name in label_seq]
            cidx = np.asarray(index_arr, dtype=np.int64)
            if cidx.shape != src.shape:
                raise ValueError("circle_index array must have one entry per edge")
            if len(cidx) and (
                int(cidx.min()) < 0 or int(cidx.max()) >= len(labels)
            ):
                raise ValueError("circle_index entries out of label range")
        elif circles is None:
            labels = [DEFAULT_CIRCLE]
            cidx = np.zeros(m, dtype=np.int64)
        else:
            labels = list(dict.fromkeys(circles))
            label_index = {name: i for i, name in enumerate(labels)}
            cidx = np.fromiter(
                map(label_index.__getitem__, circles), dtype=np.int64, count=m
            )
        n_labels = len(labels)
        if top * n_labels + n_labels < 2**31:
            # User ids (and the owner*n_labels+circle group keys) fit in
            # int32: the stable radix argsorts below run half the passes.
            src = src.astype(np.int32)
            dst = dst.astype(np.int32)
            cidx = cidx.astype(np.int32)

        # Owner side. Two stable sorts: by owner (original edge order per
        # owner → all_members / new-link flags) and by (owner, circle)
        # (contiguous per-circle member slices, original order within).
        # Everything sliced inside the loop is converted to plain lists
        # up front — list slicing is far cheaper than per-slice tolist().
        order_src = np.argsort(src, kind="stable")
        s_by_src = src[order_src]
        d_by_src = dst[order_src].tolist()
        obounds = np.flatnonzero(np.diff(s_by_src)) + 1
        ostarts = np.concatenate(([0], obounds)).tolist()
        ostops = np.concatenate((obounds, [m])).tolist()
        owners = s_by_src[np.concatenate(([0], obounds))].tolist()

        if n_labels == 1:
            order_grp, key_sorted = order_src, s_by_src
        else:
            group_key = src * n_labels + cidx
            order_grp = np.argsort(group_key, kind="stable")
            key_sorted = group_key[order_grp]
        d_by_grp = dst[order_grp].tolist()
        gbounds = np.flatnonzero(np.diff(key_sorted)) + 1
        gstart_arr = np.concatenate(([0], gbounds))
        gstarts = gstart_arr.tolist()
        gstops = np.concatenate((gbounds, [m])).tolist()
        gowners = (key_sorted[gstart_arr] // n_labels).tolist()
        glabels = (key_sorted[gstart_arr] % n_labels).tolist()
        #: original index of each group's first edge — per owner, groups
        #: sorted by this value are in first-occurrence label order.
        gfirst = order_grp[gstart_arr].tolist()

        #: new-link flag per edge, in owner-sorted order.
        new_by_src = np.ones(m, dtype=bool)
        limit = OUT_CIRCLE_LIMIT
        n_groups = len(gowners)
        gp = 0  # group cursor: groups are sorted by owner, like owners
        fromkeys = dict.fromkeys
        for seg, owner in enumerate(owners):
            a, b = ostarts[seg], ostops[seg]
            store = accounts[owner].circles
            all_members = store.all_members
            members_seg = d_by_src[a:b]
            distinct = fromkeys(members_seg)
            if not all_members and b - a <= limit:
                # Fresh store, segment within the cap: no violation is
                # possible, exempt or not — the hot path for world gen.
                if len(distinct) != b - a:
                    # Duplicate (u, v) pairs inside the batch: only the
                    # first occurrence forms the link.
                    local: set[int] = set()
                    for pos, v in enumerate(members_seg, start=a):
                        if v in local:
                            new_by_src[pos] = False
                        else:
                            local.add(v)
                store.all_members = distinct
            elif all_members:
                fresh = [v for v in distinct if v not in all_members]
                if (
                    not store.exempt_from_limit
                    and len(all_members) + len(fresh) > OUT_CIRCLE_LIMIT
                ):
                    raise CircleLimitError(owner, OUT_CIRCLE_LIMIT)
                for pos, v in enumerate(members_seg, start=a):
                    if v in all_members:
                        new_by_src[pos] = False
                    else:
                        all_members[v] = None
            else:
                if (
                    not store.exempt_from_limit
                    and len(distinct) > OUT_CIRCLE_LIMIT
                ):
                    raise CircleLimitError(owner, OUT_CIRCLE_LIMIT)
                if len(distinct) != len(members_seg):
                    local2: set[int] = set()
                    for pos, v in enumerate(members_seg, start=a):
                        if v in local2:
                            new_by_src[pos] = False
                        else:
                            local2.add(v)
                store.all_members = distinct

            # Circle sub-dicts for this owner: its groups are contiguous
            # at the cursor. Visiting them by their first edge's original
            # position yields first-occurrence label order, so circles are
            # created exactly when the per-edge path would have created
            # them (order across owners is free).
            g0 = gp
            while gp < n_groups and gowners[gp] == owner:
                gp += 1
            by_circle = store.members_by_circle
            span = (
                range(g0, gp)
                if gp - g0 == 1
                else sorted(range(g0, gp), key=gfirst.__getitem__)
            )
            for g in span:
                name = labels[glabels[g]]
                chunk = fromkeys(d_by_grp[gstarts[g]:gstops[g]])
                existing = by_circle.get(name)
                if existing:
                    existing.update(chunk)
                else:
                    by_circle[name] = chunk

        # Target side: follower lists and notifications, for new links
        # only, in original edge order per target.
        new_links = int(new_by_src.sum())
        if new_links:
            if new_links == m:
                sub_src, sub_dst = src, dst
            else:
                new_orig = np.empty(m, dtype=bool)
                new_orig[order_src] = new_by_src
                sel = np.flatnonzero(new_orig)
                sub_src, sub_dst = src[sel], dst[sel]
            order_t = np.argsort(sub_dst, kind="stable")
            t_sorted = sub_dst[order_t]
            actor_list = sub_src[order_t].tolist()
            tbounds = np.flatnonzero(np.diff(t_sorted)) + 1
            tstart_arr = np.concatenate(([0], tbounds))
            tstarts = tstart_arr.tolist()
            tstops = np.concatenate((tbounds, [new_links])).tolist()
            tids = t_sorted[tstart_arr].tolist()
            # One cached Notification per actor: the dataclass is frozen
            # and compares by value, so sharing instances is identical to
            # constructing one per link. Every linking actor is an owner.
            note_of = {
                u: Notification(kind="added_to_circle", actor_id=u)
                for u in owners
            }
            notes_all = list(map(note_of.__getitem__, actor_list))
            for t, a, b in zip(tids, tstarts, tstops):
                account = accounts[t]
                chunk = dict.fromkeys(actor_list[a:b])
                if account.followers:
                    account.followers.update(chunk)
                else:
                    account.followers = chunk
                account.notifications.extend(notes_all[a:b])
        return new_links

    def remove_from_circle(
        self, user_id: int, target_id: int, circle: str | None = None
    ) -> bool:
        """Remove a contact from one circle (or all). True if the link died."""
        account = self._account(user_id)
        link_removed = account.circles.remove(target_id, circle)
        if link_removed:
            self._account(target_id).followers.pop(user_id, None)
        self._notify("circle_remove", user_id, target_id)
        return link_removed

    def followees(self, user_id: int) -> list[int]:
        """Users ``user_id`` has in circles ("In user's circles")."""
        return self._account(user_id).circles.flattened()

    def followers(self, user_id: int) -> list[int]:
        """Users that have ``user_id`` in circles ("Have user in circles")."""
        return list(self._account(user_id).followers)

    def out_degree(self, user_id: int) -> int:
        return self._account(user_id).circles.out_degree()

    def in_degree(self, user_id: int) -> int:
        return len(self._account(user_id).followers)

    def in_circles(self, owner_id: int, viewer_id: int) -> bool:
        """Whether the owner has the viewer in any circle (O(1))."""
        return self._account(owner_id).circles.contains(viewer_id)

    def in_extended_circles(self, owner_id: int, viewer_id: int) -> bool:
        """Whether the viewer is in the owner's circles, or in the
        circles of any of the owner's contacts (the EXTENDED_CIRCLES
        reach; O(owner's out-degree))."""
        owner = self._account(owner_id)
        if owner.circles.contains(viewer_id):
            return True
        return any(
            self._account(contact).circles.contains(viewer_id)
            for contact in owner.circles.flattened()
        )

    def circles_containing(self, owner_id, viewer_id, names) -> tuple[str, ...]:
        """Which of the owner's named circles hold the viewer, in the
        order ``names`` lists them (for CUSTOM privacy classing)."""
        circles = self._account(owner_id).circles
        return tuple(
            name for name in names if circles.member_of(viewer_id, name)
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
        profile = self._account(user_id).profile
        if privacy is None:
            profile.set_field(key, value)
        else:
            profile.set_field(key, value, privacy)
        self._notify("profile", user_id)

    def set_lists_public(self, user_id: int, public: bool) -> None:
        """Toggle the owner's circle-list visibility, notifying subscribers."""
        self._account(user_id).profile.lists_public = bool(public)
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
        has_extended, custom_names = needs or member_needs(self.profile(owner_id).fields)
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
        entry = self.profile(owner_id).fields.get(key)
        if entry is None:
            return False
        return visible_to(entry.privacy, self.class_of(owner_id, viewer_id))

    def circle_lists(self, user_id: int) -> tuple[CircleListView, CircleListView]:
        """The page's two circle lists, "Have user in circles" and "In
        user's circles", each truncated at the display limit."""
        limit = self.circle_display_limit
        return (
            truncate_list(self.followers(user_id), limit),
            truncate_list(self.followees(user_id), limit),
        )

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
        account = self._account(author_id)
        if to_circles is not None:
            unknown = to_circles - set(account.circles.circle_names())
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
        """The user's notification feed (optionally consuming it)."""
        account = self._account(user_id)
        items = list(account.notifications)
        if clear:
            account.notifications.clear()
        return items

    def plus_one(self, user_id: int, post_id: int) -> None:
        """Record a +1: a public recommendation of a post."""
        self._account(user_id)
        try:
            post = self._posts[post_id]
        except KeyError:
            raise KeyError(f"unknown post id: {post_id}") from None
        if user_id not in post.plus_ones:
            post.plus_ones.add(user_id)
            self._account(post.author_id).notifications.append(
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
        author = self._account(post.author_id)
        return any(
            author.circles.member_of(viewer_id, name)
            for name in post.to_circles
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
        if not path.startswith("/u/"):
            return STATUS_NOT_FOUND, None
        try:
            user_id = int(path[3:])
        except ValueError:
            return STATUS_NOT_FOUND, None
        if user_id not in self._accounts:
            return STATUS_NOT_FOUND, None
        return STATUS_OK, self.profile_page(user_id, viewer_id=viewer_id)
