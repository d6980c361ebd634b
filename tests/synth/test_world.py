"""Tests for world assembly."""

import numpy as np
import pytest

from repro.synth import build_world, WorldConfig


class TestWorldAssembly:
    def test_service_holds_every_user(self, small_world):
        assert len(small_world.service) == small_world.n_users

    def test_service_edges_match_generated_graph(self, small_world):
        service = small_world.service
        total_out = sum(service.out_degree(uid) for uid in service.user_ids())
        assert total_out == small_world.graph.n_edges

    def test_followers_consistent_with_edges(self, small_world):
        service = small_world.service
        sources, targets = small_world.true_edge_arrays()
        u, v = int(sources[0]), int(targets[0])
        assert v in service.followees(u)
        assert u in service.followers(v)

    def test_seed_user_is_zuckerberg(self, small_world):
        seed = small_world.seed_user_id()
        assert small_world.profiles[seed].name == "Mark Zuckerberg"

    def test_open_signup_enabled_after_build(self, small_world):
        assert small_world.service.open_signup

    def test_celebrities_exempt_from_circle_limit(self, small_world):
        service = small_world.service
        for user_id in small_world.population.celebrity_spec:
            assert service.exempt_from_circle_limit(user_id)

    def test_frontend_serves_profiles(self, small_world):
        from repro.platform.http import Request

        frontend = small_world.frontend()
        response = frontend.handle(Request("/u/0", "1.1.1.1"))
        assert response.ok
        assert response.payload.user_id == 0

    def test_display_limit_passed_through(self):
        world = build_world(
            WorldConfig(n_users=500, seed=2, circle_display_limit=50)
        )
        assert world.service.circle_display_limit == 50

    def test_deterministic_build(self):
        a = build_world(WorldConfig(n_users=600, seed=33))
        b = build_world(WorldConfig(n_users=600, seed=33))
        assert np.array_equal(a.graph.sources, b.graph.sources)
        assert a.profiles[10].public_field_keys() == b.profiles[10].public_field_keys()

    def test_config_validation(self):
        with pytest.raises(ValueError):
            WorldConfig(n_users=500, seed=1, field_trial_fraction=1.5)
        with pytest.raises(ValueError):
            WorldConfig(n_users=500, seed=1, tel_user_rate=1.0)


#: Small worlds leave some countries without residents; these sizes and
#: seeds each drew a stub towards one under some engine.
_SMALL_WORLDS = [
    ("fast", n, seed) for n in (200, 300, 500, 1000, 1500, 3000) for seed in range(12)
] + [("reference", n, seed) for n in (200, 300, 500) for seed in range(6)]


@pytest.mark.parametrize("engine,n_users,seed", _SMALL_WORLDS)
def test_small_worlds_build(engine, n_users, seed):
    world = build_world(WorldConfig(n_users=n_users, seed=seed, engine=engine))
    assert len(world.service) == n_users
    assert world.graph.n_edges > 0
