"""Shared serving state against oracles that rebuild it from scratch.

``GooglePlusService.contacts`` answers ``in_circles`` and the page
cache's extended-reach test from one set per owner: a cached frozenset
of a base row, or the live key view of a circle overlay.  Random
interleavings of circle adds and removals — by base owners, by owners
with an overlay, and by owners whose base set was cached before their
overlay existed — must keep it equal to a freshly built set.

Notification feeds keep only the notes appended after the base feed;
interleaved circle adds, +1s and clearing reads must give exactly the
feeds of :class:`tests.reference_feeds.MaterialisingFeeds`.
"""

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


def small_world(seed: int):
    world = build_world(WorldConfig(n_users=300, seed=seed, engine="fast"))
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
            row = self._base.out_slice(owner).tolist() if owner < self._n else []
            members = self._sets[owner] = set(row)
        return members

    def extended(self, owner: int, viewer: int) -> bool:
        contacts = self.of(owner)
        return viewer in contacts or any(viewer in self.of(c) for c in contacts)


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_contacts_match_a_fresh_set_across_circle_edits(seed):
    service = small_world(seed)
    rng = np.random.default_rng(seed)
    pool = pick_pool(service, rng)
    cache = PageCache(service, EventClock(0.0))
    for owner in pool:
        # An EXTENDED_CIRCLES field makes the class key carry the reach bit.
        service.update_field(owner, "occupation", f"job {owner}", EXTENDED_CIRCLES)
    # Cache every pool owner's base set, and warm the classer, before
    # any owner gets a circle overlay.
    for owner in pool:
        service.contacts(owner)
        for viewer in pool:
            if viewer != owner:
                cache.class_of(owner, viewer)
    model = ContactModel(service)

    def check(owner: int) -> None:
        contacts = service.contacts(owner)
        assert contacts == frozenset(model.of(owner))
        assert len(contacts) == len(model.of(owner))
        for viewer in pool:
            if viewer == owner:
                continue
            assert service.in_circles(owner, viewer) == (viewer in model.of(owner))
            extended = model.extended(owner, viewer)
            assert service.in_extended_circles(owner, viewer) == extended
            assert cache.class_of(owner, viewer)[2] == extended

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


def test_overlay_contacts_are_live_and_replace_the_cached_base_set():
    service = small_world(4)
    owner = int(np.argmax(np.diff(service.base_circles.flat_indptr)))
    before = service.contacts(owner)
    assert isinstance(before, frozenset) and before
    victim = next(iter(before))
    service.remove_from_circle(owner, victim)
    after = service.contacts(owner)
    assert victim not in after and after == before - {victim}
    assert owner not in service._member_sets
    service.add_to_circle(owner, victim)
    assert victim in after  # the overlay's set is a live view


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
