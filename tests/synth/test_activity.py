"""Tests for the content-activity simulation."""

import pytest

from repro.synth.activity import ActivityConfig, simulate_activity


@pytest.fixture(scope="module")
def log(small_world):
    return simulate_activity(small_world, seed=3)


class TestSimulation:
    def test_posts_generated(self, log):
        assert log.n_posts > 100
        assert len(log.cascades) == log.n_posts

    def test_counts_consistent(self, log):
        assert log.n_reshares == sum(
            len(c.reshare_post_ids) for c in log.cascades
        )
        assert log.n_plus_ones == sum(c.plus_ones for c in log.cascades)

    def test_posts_exist_in_log(self, log):
        assert len(log.posts) == log.n_posts + log.n_reshares
        for cascade in log.cascades:
            assert log.posts[cascade.root_post_id] is None

    def test_public_and_scoped_posts_both_occur(self, log):
        assert log.public_cascades()
        assert log.scoped_cascades()

    def test_reshares_reference_parents(self, log):
        for cascade in log.cascades[:100]:
            tree = {cascade.root_post_id, *cascade.reshare_post_ids}
            for post_id in cascade.reshare_post_ids:
                parent = log.posts[post_id]
                assert parent is not None
                assert parent in tree and parent < post_id

    def test_cascade_structure(self, log):
        for cascade in log.cascades:
            assert cascade.size == 1 + len(cascade.reshare_post_ids)
            assert cascade.audience >= len(cascade.resharer_ids)
            if cascade.reshare_post_ids:
                assert cascade.depth >= 1
            else:
                assert cascade.depth == 0

    def test_resharers_could_see_the_content(self, small_world, log):
        """Circle-scoped cascades only spread through permitted viewers."""
        service = small_world.service
        for cascade in log.scoped_cascades()[:50]:
            for resharer in cascade.resharer_ids:
                # The resharer saw *some* post of the cascade; at minimum
                # they must not be a complete stranger to it: they follow
                # someone in the cascade.
                followees = set(service.followees(resharer))
                participants = {cascade.author_id, *cascade.resharer_ids}
                assert followees & participants

    def test_deterministic(self, small_world):
        a = simulate_activity(small_world, seed=8, max_users=300)
        b = simulate_activity(small_world, seed=8, max_users=300)
        assert a.n_posts == b.n_posts
        assert a.n_reshares == b.n_reshares

    def test_max_users_limits_authors(self, small_world):
        log = simulate_activity(small_world, seed=2, max_users=100)
        assert all(c.author_id < 100 for c in log.cascades)

    def test_cascade_size_cap(self, small_world):
        config = ActivityConfig(
            reshare_prob=1.0, reshare_depth_decay=1.0, max_cascade_size=10
        )
        log = simulate_activity(small_world, config, seed=1, max_users=50)
        # The cap breaks the loop as soon as it is crossed; one queue
        # drain may still append a bounded overshoot.
        assert max(c.size for c in log.cascades) <= 10 + config.max_audience_sample
