"""Differential proofs for the privacy-aware page cache.

The load-bearing property: for every ``(owner, viewer)`` pair,
``render_for_class(class_of(owner, viewer))`` is byte-identical to
``service.profile_page(owner, viewer)`` — cached pages are the uncached
pages, always — and both match an independent per-field oracle
(``tests/reference_pages.py``).  Plus the exact-invalidation contract
for every mutation kind.
"""

import pytest

from repro.obs.metrics import Registry
from repro.platform.models import UserProfile
from repro.platform.privacy import (
    custom,
    EXTENDED_CIRCLES,
    ONLY_YOU,
    PUBLIC,
    YOUR_CIRCLES,
)
from repro.platform.service import GooglePlusService, MutationEvent
from repro.serve import (
    ANON_CLASS,
    PageCache,
    SELF_CLASS,
    ViewerClasser,
    page_to_bytes,
    render_for_class,
)
from repro.serve.loadgen import EventClock
from tests.reference_pages import reference_page


def build_service() -> GooglePlusService:
    """A small world exercising every visibility level and both list modes."""
    service = GooglePlusService(open_signup=True)
    for uid in range(8):
        service.register(UserProfile(user_id=uid, name=f"User {uid}"))
    # Owner 0: one field per visibility level.
    service.update_field(0, "gender", "female", PUBLIC)
    service.update_field(0, "occupation", "engineer", YOUR_CIRCLES)
    service.update_field(0, "education", "stanford", EXTENDED_CIRCLES)
    service.update_field(0, "introduction", "hello vips", custom("vips"))
    service.update_field(0, "employment", "secret corp", ONLY_YOU)
    # Owner 1 hides the circle lists.
    service.update_field(1, "occupation", "artist", YOUR_CIRCLES)
    service.set_lists_public(1, False)
    # Circles: 0 -> {1 (vips), 2}; 1 -> {0}; 2 -> {3}; 4 -> {0}.
    service.add_to_circle(0, 1, "vips")
    service.add_to_circle(0, 2)
    service.add_to_circle(1, 0)
    service.add_to_circle(2, 3)
    service.add_to_circle(4, 0)
    return service


def all_viewers(service):
    return [None] + sorted(service.user_ids())


def assert_equivalent(service, classer, owner_id, viewer_id):
    expected = page_to_bytes(service.profile_page(owner_id, viewer_id))
    key = classer.class_of(owner_id, viewer_id)
    got = page_to_bytes(render_for_class(service, owner_id, key))
    assert got == expected, (owner_id, viewer_id, key)
    oracle = page_to_bytes(reference_page(service, owner_id, viewer_id))
    assert oracle == expected, (owner_id, viewer_id, key)


class TestViewerClasser:
    def test_anon_and_self_classes(self):
        service = build_service()
        classer = ViewerClasser(service)
        assert classer.class_of(0, None) == ANON_CLASS
        assert classer.class_of(0, 0) == SELF_CLASS

    def test_member_class_bits(self):
        service = build_service()
        classer = ViewerClasser(service)
        # 1 is in 0's circles, including the CUSTOM-referenced "vips".
        assert classer.class_of(0, 1) == ("m", True, True, ("vips",))
        # 3 is reachable only through 0's contact 2: extended, not direct.
        assert classer.class_of(0, 3) == ("m", False, True, ())
        # 5 is a stranger.
        assert classer.class_of(0, 5) == ("m", False, False, ())

    def test_unregistered_viewer_is_a_stranger(self):
        # Viewer ids arrive from outside the platform.  Owner 0 has an
        # EXTENDED_CIRCLES field, so classing reaches the two-hop test;
        # cached and uncached rendering must agree on the stranger page.
        service = build_service()
        assert 99 not in service
        classer = ViewerClasser(service)
        assert classer.class_of(0, 99) == ("m", False, False, ())
        assert_equivalent(service, classer, 0, 99)
        page, _ = make_cache(service).lookup(0, 99)
        assert page_to_bytes(page) == page_to_bytes(service.profile_page(0, 99))

    def test_exhaustive_render_equivalence(self):
        service = build_service()
        classer = ViewerClasser(service)
        for owner_id in sorted(service.user_ids()):
            for viewer_id in all_viewers(service):
                assert_equivalent(service, classer, owner_id, viewer_id)

    def test_equivalence_holds_through_mutations(self):
        service = build_service()
        classer = ViewerClasser(service)
        mutations = [
            lambda: service.add_to_circle(2, 5),
            lambda: service.remove_from_circle(0, 2),
            lambda: service.update_field(0, "occupation", "manager", PUBLIC),
            lambda: service.set_lists_public(1, True),
            lambda: service.add_to_circle(0, 6, "vips"),
        ]
        cache = PageCache(service, EventClock(), registry=Registry(enabled=False))
        classer = cache._classer
        for mutate in mutations:
            mutate()
            for owner_id in sorted(service.user_ids()):
                for viewer_id in all_viewers(service):
                    assert_equivalent(service, classer, owner_id, viewer_id)


class TestEquivalenceOnSyntheticWorld:
    @pytest.mark.parametrize("store", ["dict", "columnar"])
    def test_sampled_pairs_byte_identical(self, store):
        from repro.synth import build_world, WorldConfig

        world = build_world(
            WorldConfig(n_users=2_500, seed=13, engine="fast", store=store)
        )
        service = world.service
        classer = ViewerClasser(service)
        users = sorted(service.user_ids())
        owners = users[:25] + users[-5:] + [world.seed_user_id()]
        viewers = [None] + users[:10] + users[::250]
        for owner_id in owners:
            for viewer_id in viewers:
                assert_equivalent(service, classer, owner_id, viewer_id)


def make_cache(service, **kwargs) -> PageCache:
    kwargs.setdefault("registry", Registry(enabled=False))
    kwargs.setdefault("clock", EventClock())
    clock = kwargs.pop("clock")
    return PageCache(service, clock, **kwargs)


class TestCacheLookups:
    def test_hit_returns_identical_page(self):
        service = build_service()
        cache = make_cache(service)
        first, hit1 = cache.lookup(0, 1)
        second, hit2 = cache.lookup(0, 1)
        assert (hit1, hit2) == (False, True)
        assert page_to_bytes(first) == page_to_bytes(second)
        assert page_to_bytes(first) == page_to_bytes(service.profile_page(0, 1))

    def test_viewers_in_same_class_share_an_entry(self):
        service = build_service()
        service.add_to_circle(0, 6)
        cache = make_cache(service)
        cache.lookup(0, 2)  # in circles, not in "vips"
        _, hit = cache.lookup(0, 6)  # same class
        assert hit is True
        assert len(cache) == 1

    def test_lru_eviction(self):
        service = build_service()
        cache = make_cache(service, capacity=2)
        cache.lookup(0, None)
        cache.lookup(1, None)
        cache.lookup(2, None)  # evicts (0, anon)
        assert len(cache) == 2
        assert (0, ANON_CLASS) not in cache
        assert cache.evictions == 1

    def test_lookup_refreshes_lru_order(self):
        service = build_service()
        cache = make_cache(service, capacity=2)
        cache.lookup(0, None)
        cache.lookup(1, None)
        cache.lookup(0, None)  # refresh: (1, anon) is now oldest
        cache.lookup(2, None)
        assert (0, ANON_CLASS) in cache
        assert (1, ANON_CLASS) not in cache

    def test_ttl_eviction(self):
        service = build_service()
        clock = EventClock()
        cache = make_cache(service, clock=clock, ttl=1.0)
        cache.lookup(0, None)
        clock.advance(2.0)
        _, hit = cache.lookup(0, None)
        assert hit is False
        assert cache.evictions == 1


class TestExactInvalidation:
    def seed_entries(self, service, cache):
        for owner_id in (0, 1, 2, 3):
            for viewer_id in (None, owner_id, 5):
                cache.lookup(owner_id, viewer_id)
        return set(cache.keys())

    def test_circle_add_drops_exactly_both_owners(self):
        service = build_service()
        cache = make_cache(service)
        before = self.seed_entries(service, cache)
        service.add_to_circle(2, 6)
        after = set(cache.keys())
        # Owners 2 and 6 show lists: every class of both is dropped; 6
        # had no entries.  Nobody else is touched.
        assert before - after == {k for k in before if k[0] == 2}
        assert after == {k for k in before if k[0] != 2}

    def test_hidden_lists_drop_only_the_self_page(self):
        service = build_service()
        cache = make_cache(service)
        self.seed_entries(service, cache)
        assert (1, SELF_CLASS) in cache
        anon_before = (1, ANON_CLASS) in cache
        service.add_to_circle(1, 7)  # owner 1 hides lists
        assert (1, SELF_CLASS) not in cache
        assert ((1, ANON_CLASS) in cache) == anon_before

    def test_profile_mutation_drops_owner_only(self):
        service = build_service()
        cache = make_cache(service)
        before = self.seed_entries(service, cache)
        service.update_field(3, "occupation", "pilot", PUBLIC)
        after = set(cache.keys())
        assert before - after == {k for k in before if k[0] == 3}

    def test_posts_and_plus_ones_do_not_invalidate(self):
        service = build_service()
        cache = make_cache(service)
        before = self.seed_entries(service, cache)
        post = service.publish(0, "hello world")
        service.plus_one(1, post.post_id)
        assert set(cache.keys()) == before
        assert cache.invalidations == 0

    def test_bulk_edges_clears_everything(self):
        service = build_service()
        cache = make_cache(service)
        self.seed_entries(service, cache)
        cache.on_mutation(MutationEvent(kind="bulk_edges", user_id=-1))
        assert len(cache) == 0

    def test_two_hop_mutation_remaps_extended_class(self):
        # 3 sees 0's EXTENDED field only via 0's contact 2.  When 2 drops
        # 3, viewer 3's class w.r.t. owner 0 must be re-derived even
        # though owner 0's own circles never changed.
        service = build_service()
        cache = make_cache(service)
        page, _ = cache.lookup(0, 3)
        assert "education" in page.fields
        service.remove_from_circle(2, 3)
        page, _ = cache.lookup(0, 3)
        assert "education" not in page.fields
        assert page_to_bytes(page) == page_to_bytes(service.profile_page(0, 3))

    def test_serving_stays_correct_through_mutation_storm(self):
        service = build_service()
        cache = make_cache(service)
        checks = [(o, v) for o in range(8) for v in all_viewers(service)]
        storm = [
            lambda: service.add_to_circle(5, 0),
            lambda: service.update_field(0, "introduction", "new", custom("vips")),
            lambda: service.remove_from_circle(0, 1),
            lambda: service.set_lists_public(1, True),
            lambda: service.add_to_circle(1, 3, "vips"),
            lambda: service.update_field(1, "occupation", "sculptor", EXTENDED_CIRCLES),
        ]
        for mutate in storm:
            for owner_id, viewer_id in checks:
                cache.lookup(owner_id, viewer_id)
            mutate()
            for owner_id, viewer_id in checks:
                page, _ = cache.lookup(owner_id, viewer_id)
                expected = service.profile_page(owner_id, viewer_id)
                assert page_to_bytes(page) == page_to_bytes(expected), (
                    owner_id,
                    viewer_id,
                )


class TestRandomizedMutationStorm:
    """Cached bytes == uncached bytes under a seeded random mutation storm.

    Heavy on removals — including circle-scoped removals and removals of
    never-members — because stale memoized circle intersections after
    ``CircleStore.remove`` are exactly the regression this guards
    against. Runs under both ``store`` labels, which build the same
    world.
    """

    @pytest.mark.parametrize("store", ["dict", "columnar"])
    def test_storm_with_removals_stays_byte_identical(self, store):
        import random

        from repro.synth import build_world, WorldConfig

        world = build_world(
            WorldConfig(n_users=600, seed=13, engine="fast", store=store)
        )
        service = world.service
        cache = make_cache(service)
        rng = random.Random(99)
        users = sorted(service.user_ids())
        owners = rng.sample(users, 12)
        viewers = [None] + rng.sample(users, 6) + owners[:3]
        checks = [(o, v) for o in owners for v in viewers]
        privacies = [PUBLIC, YOUR_CIRCLES, EXTENDED_CIRCLES, ONLY_YOU]

        def mutate_once():
            kind = rng.randrange(10)
            u = rng.choice(owners)
            if kind < 4:  # removals dominate the storm
                followees = service.followees(u)
                if kind == 0 or not followees:
                    # Never-member (or empty) removal: must be a clean no-op.
                    service.remove_from_circle(u, rng.choice(users))
                elif kind == 1:
                    v = rng.choice(followees)
                    circles = [
                        name
                        for name in service.circle_names(u)
                        if service.member_of(u, v, name)
                    ]
                    service.remove_from_circle(u, v, rng.choice(circles))
                else:
                    service.remove_from_circle(u, rng.choice(followees))
            elif kind < 7:
                v = rng.choice(users)
                if v != u:
                    service.add_to_circle(u, v, rng.choice(("friends", "vips")))
            elif kind < 9:
                service.update_field(
                    u,
                    rng.choice(("occupation", "introduction", "education")),
                    f"value-{rng.randrange(1000)}",
                    custom("vips") if kind == 8 else rng.choice(privacies),
                )
            else:
                service.set_lists_public(u, bool(rng.randrange(2)))

        for _ in range(40):
            for owner_id, viewer_id in checks:
                cache.lookup(owner_id, viewer_id)  # prime, so staleness shows
            mutate_once()
            for owner_id, viewer_id in checks:
                page, _ = cache.lookup(owner_id, viewer_id)
                expected = service.profile_page(owner_id, viewer_id)
                assert page_to_bytes(page) == page_to_bytes(expected), (
                    store,
                    owner_id,
                    viewer_id,
                )


class TestCacheState:
    def test_export_restore_roundtrip(self):
        service = build_service()
        clock = EventClock()
        cache = make_cache(service, clock=clock)
        for owner_id in (0, 1, 2):
            for viewer_id in (None, 1, owner_id):
                cache.lookup(owner_id, viewer_id)
        clock.advance(1.0)
        cache.lookup(3, None)
        exported = cache.export_state()

        replica_service = build_service()
        replica = make_cache(replica_service, clock=EventClock())
        replica.restore_state(exported)
        assert replica.export_state() == exported
        assert list(replica.keys()) == list(cache.keys())
        for key in cache.keys():
            original = cache._entries[key][0]
            restored = replica._entries[key][0]
            assert page_to_bytes(original) == page_to_bytes(restored)

    def test_restored_lru_order_matches(self):
        service = build_service()
        cache = make_cache(service, capacity=3)
        cache.lookup(0, None)
        cache.lookup(1, None)
        cache.lookup(0, None)  # (1, anon) oldest
        exported = cache.export_state()

        replica = make_cache(build_service(), capacity=3)
        replica.restore_state(exported)
        replica.lookup(2, None)
        replica.lookup(3, None)  # evicts (1, anon) first
        assert (0, ANON_CLASS) in replica
        assert (1, ANON_CLASS) not in replica

    def test_invalid_parameters(self):
        service = build_service()
        with pytest.raises(ValueError):
            make_cache(service, capacity=0)
        with pytest.raises(ValueError):
            make_cache(service, ttl=-1.0)
