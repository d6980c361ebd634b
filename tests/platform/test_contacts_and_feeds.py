"""Shared serving state against oracles that rebuild it from scratch.

The service keeps no contact set per owner: ``in_circles`` and
``has_contact_in`` read the owner's row or circle overlay in place, and
the page cache answers the extended reach from the viewer's own
follower set.  Random interleavings of circle adds and removals — by
base owners, by owners with an overlay and by registered owners, one
of them with a negative id — must keep every circle test equal to sets
rebuilt from the operations.

A follower overlay is a delta over the base in-row: the base followers
removed since, and the followers appended since.  Random adds and
removes, aimed at re-adding removed base followers and removing
appended ones, must keep ``followers``, ``in_degree`` and the rendered
in-list equal to a plain ordered-dict model, in which a re-added
follower moves to the end.

Notification feeds keep only the notes appended after the base feed;
interleaved circle adds, +1s and clearing reads must give exactly the
feeds of :class:`tests.reference_feeds.MaterialisingFeeds`.
"""

from array import array

import numpy as np
import pytest

from repro.platform.errors import UnknownUserError
from repro.platform.models import UserProfile
from repro.platform.privacy import EXTENDED_CIRCLES
from repro.serve import PageCache
from repro.serve.loadgen import EventClock
from repro.synth import WorldConfig, build_world
from tests.reference_feeds import MaterialisingFeeds

CIRCLES = ("friends", "family")
N_OPS = 300


def small_world(seed: int, circle_display_limit: int = 10_000):
    config = WorldConfig(
        n_users=300, seed=seed, engine="fast", circle_display_limit=circle_display_limit
    )
    world = build_world(config)
    service = world.service
    # Two accounts that join after the ingest live only in overlays.
    for user_id in (300, 301):
        service.register(UserProfile(user_id=user_id, name=f"U{user_id}"), invited_by=0)
    return service


def pick_pool(service, rng, size: int = 24) -> list[int]:
    """Random base users, the most-followed one, and the registered two."""
    base = len(service.base_circles.in_indptr) - 1
    top = int(np.argmax(np.diff(service.base_circles.in_indptr)))
    drawn = rng.choice(base, size=size, replace=False).tolist()
    return sorted({*drawn, top, 300, 301})


class ContactModel:
    """Each owner's contacts as a plain set, seeded from the base CSR
    and updated by the operations alone."""

    def __init__(self, service):
        self._base = service.base_circles
        self._n = len(service.base_circles.in_indptr) - 1
        self._sets: dict[int, set[int]] = {}

    def of(self, owner: int) -> set[int]:
        members = self._sets.get(owner)
        if members is None:
            row = self._base.out_slice(owner).tolist() if 0 <= owner < self._n else []
            members = self._sets[owner] = set(row)
        return members

    def extended(self, owner: int, viewer: int) -> bool:
        contacts = self.of(owner)
        return viewer in contacts or any(viewer in self.of(c) for c in contacts)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contacts_match_a_fresh_set_across_circle_edits(seed):
    service = small_world(seed)
    rng = np.random.default_rng(seed)
    # A registered account may carry a negative id; it sits in no base
    # row, so it must never pass for a base user.
    service.register(UserProfile(user_id=-7, name="U-7"), invited_by=0)
    pool = [-7, *pick_pool(service, rng)]
    cache = PageCache(service, EventClock(0.0))
    for owner in pool:
        # An EXTENDED_CIRCLES field makes the class key carry the reach bit.
        service.update_field(owner, "occupation", f"job {owner}", EXTENDED_CIRCLES)
    # Warm the classer's memo and follower sets before any owner gets a
    # circle overlay.
    for owner in pool:
        for viewer in pool:
            if viewer != owner:
                cache.class_of(owner, viewer)
    model = ContactModel(service)

    def check(owner: int) -> None:
        assert set(service.followees(owner)) == model.of(owner)
        assert service.out_degree(owner) == len(model.of(owner))
        for viewer in pool:
            if viewer == owner:
                continue
            circled = viewer in model.of(owner)
            assert service.in_circles(owner, viewer) == circled
            extended = model.extended(owner, viewer)
            assert service.in_extended_circles(owner, viewer) == extended
            assert cache.class_of(owner, viewer)[1:3] == (circled, extended)

    for step in range(N_OPS):
        actor, target = (int(u) for u in rng.choice(pool, size=2, replace=False))
        if rng.random() < 0.6:
            service.add_to_circle(actor, target, CIRCLES[int(rng.integers(2))])
            model.of(actor).add(target)
        else:
            service.remove_from_circle(actor, target)
            model.of(actor).discard(target)
        check(actor)
        if step % 50 == 0:
            for owner in pool:
                check(owner)
    for owner in pool:
        check(owner)


def test_circle_tests_read_an_overlay_owner_live():
    service = small_world(4)
    owner = int(np.argmax(np.diff(service.base_circles.flat_indptr)))
    row = service.base_circles.out_slice(owner).tolist()
    victim, other = row[0], row[1]
    assert service.in_circles(owner, victim)
    assert service.has_contact_in(owner, {victim, 300})
    service.remove_from_circle(owner, victim)
    assert not service.in_circles(owner, victim)
    assert not service.has_contact_in(owner, {victim, 300})
    assert service.has_contact_in(owner, {victim, other})
    service.add_to_circle(owner, 300)
    assert service.in_circles(owner, 300)
    assert service.has_contact_in(owner, {victim, 300})
    service.add_to_circle(owner, victim)
    assert service.in_circles(owner, victim)
    assert service.has_contact_in(owner, {victim})
    assert not service.has_contact_in(owner, set())


class FollowerModel:
    """Each user's followers as an ordered dict, seeded from the base
    in-row and updated by the operations alone: a link that dies is
    popped, and a new one is appended."""

    def __init__(self, service):
        self._base = service.base_circles
        self._n = len(service.base_circles.in_indptr) - 1
        self._followers: dict[int, dict[int, None]] = {}

    def base(self, user: int) -> list[int]:
        return self._base.in_slice(user).tolist() if 0 <= user < self._n else []

    def of(self, user: int) -> dict[int, None]:
        followers = self._followers.get(user)
        if followers is None:
            followers = self._followers[user] = dict.fromkeys(self.base(user))
        return followers


def check_followers(service, model, user: int) -> None:
    expected = list(model.of(user))
    assert service.followers(user) == expected
    assert service.in_degree(user) == len(expected)
    in_list, _ = service.circle_lists(user)
    limit = service.circle_display_limit
    assert in_list.user_ids == array("I", expected[:limit])
    assert in_list.declared_count == len(expected)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_follower_overlays_match_an_ordered_dict_model(seed):
    service = small_world(seed, circle_display_limit=6)
    rng = np.random.default_rng(200 + seed)
    pool = pick_pool(service, rng, size=12)
    model = FollowerModel(service)
    counts = {"readd_base": 0, "remove_appended": 0, "remove_base": 0}
    removed_base: dict[int, set[int]] = {user: set() for user in pool}
    for _ in range(N_OPS):
        target = int(rng.choice(pool))
        followers = model.of(target)
        if followers and rng.random() < 0.45:
            actor = int(rng.choice(list(followers)))
            base = actor in model.base(target)
            if base and actor not in removed_base[target]:
                counts["remove_base"] += 1
                removed_base[target].add(actor)
            else:
                counts["remove_appended"] += 1
            assert service.remove_from_circle(actor, target)
            del followers[actor]
        else:
            # Removed base followers come back often; others are new.
            candidates = sorted(removed_base[target]) or pool
            actor = int(rng.choice(candidates if rng.random() < 0.6 else pool))
            if actor == target:
                continue
            is_new = service.add_to_circle(actor, target, CIRCLES[int(rng.integers(2))])
            assert is_new == (actor not in followers)
            if is_new:
                if actor in removed_base[target]:
                    counts["readd_base"] += 1
                followers[actor] = None
        check_followers(service, model, target)
    for user in pool:
        check_followers(service, model, user)
    assert min(counts.values()) > 0, counts


def test_a_re_added_base_follower_moves_to_the_end():
    service = small_world(6, circle_display_limit=3)
    target = int(np.argmax(np.diff(service.base_circles.in_indptr)))
    base = service.base_circles.in_slice(target).tolist()
    assert len(base) > 4
    newcomer = next(u for u in range(300) if u != target and u not in base)
    model = FollowerModel(service)
    steps = [
        ("remove", base[0]),
        ("add", newcomer),
        ("add", base[0]),
        ("remove", base[1]),
        ("remove", newcomer),
        ("remove", base[0]),
        ("add", base[0]),
        ("add", newcomer),
    ]
    for op, actor in steps:
        if op == "add":
            assert service.add_to_circle(actor, target)
            model.of(target)[actor] = None
        else:
            assert service.remove_from_circle(actor, target)
            del model.of(target)[actor]
        check_followers(service, model, target)
    assert service.followers(target) == base[2:] + [base[0], newcomer]
    # The overlay reads the base row in place instead of copying it.
    delta = service._followers[target]
    assert np.shares_memory(delta.base, service.base_circles.in_sources)
    assert sorted(delta.removed) == sorted(base[:2])
    assert list(delta.added) == [base[0], newcomer]


def test_registered_users_start_from_an_empty_base():
    service = small_world(7, circle_display_limit=2)
    model = FollowerModel(service)
    for actor in (5, 9, 301, 12):
        assert service.add_to_circle(actor, 300)
        model.of(300)[actor] = None
    check_followers(service, model, 300)
    for actor in (9, 301):
        assert service.remove_from_circle(actor, 300)
        del model.of(300)[actor]
    check_followers(service, model, 300)
    assert service.followers(300) == [5, 12]
    assert service.in_degree(301) == 0 and service.followers(301) == []


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_notifications_match_a_materialising_oracle(seed):
    service = small_world(seed)
    rng = np.random.default_rng(100 + seed)
    pool = pick_pool(service, rng)
    oracle = MaterialisingFeeds(service)
    posts: list = []
    for step in range(N_OPS):
        roll = rng.random()
        actor, other = (int(u) for u in rng.choice(pool, size=2, replace=False))
        if roll < 0.35:
            if service.add_to_circle(actor, other, CIRCLES[int(rng.integers(2))]):
                oracle.circle_added(actor, other)
        elif roll < 0.45:
            service.remove_from_circle(actor, other)
        elif roll < 0.55:
            posts.append(service.publish(actor, f"post {step}"))
        elif roll < 0.8 and posts:
            post = posts[int(rng.integers(len(posts)))]
            if actor not in post.plus_ones:
                oracle.plus_oned(actor, post.author_id, post.post_id)
            service.plus_one(actor, post.post_id)
        else:
            clear = bool(rng.random() < 0.5)
            assert service.notifications(actor, clear=clear) == oracle.read(actor, clear)
    for user_id in pool:
        assert service.notifications(user_id) == oracle.read(user_id)
    for user_id in pool:
        assert service.notifications(user_id, clear=True) == oracle.read(user_id, True)
        assert service.notifications(user_id) == []


def test_unknown_user_has_no_feed():
    service = small_world(5)
    with pytest.raises(UnknownUserError):
        service.notifications(10_000)
