"""The read-only activity simulation equals the service-writing cascade.

``simulate_activity`` keeps its posts in the returned log and only reads
the service; the oracle in ``tests/reference_activity.py`` publishes and
+1s into it follower by follower.  Both consume one random stream, so on
two copies of the same world every cascade must agree: author, scope,
size, depth, +1s, audience, resharers, and the post ids (the oracle's
service starts numbering at 1, as the log does).
"""

import numpy as np
import pytest

from repro.platform.models import UserProfile
from repro.synth import build_world, WorldConfig
from repro.synth.activity import ActivityConfig, simulate_activity
from tests.reference_activity import reference_simulate_activity


def _cascades(log) -> list[tuple]:
    return [
        (
            c.author_id,
            c.is_public,
            c.size,
            c.depth,
            c.plus_ones,
            c.audience,
            c.resharer_ids,
            c.root_post_id,
            c.reshare_post_ids,
        )
        for c in log.cascades
    ]


def _twin_worlds(n_users: int, seed: int, engine: str):
    config = WorldConfig(n_users=n_users, seed=seed, engine=engine)
    return build_world(config), build_world(config)


def assert_matches_oracle(world, oracle_world, **kwargs):
    log = simulate_activity(world, **kwargs)
    expected = reference_simulate_activity(oracle_world, **kwargs)
    assert _cascades(log) == _cascades(expected)
    assert (log.n_posts, log.n_reshares, log.n_plus_ones) == (
        expected.n_posts,
        expected.n_reshares,
        expected.n_plus_ones,
    )
    assert log.posts == {
        post_id: post.reshared_from
        for post_id, post in oracle_world.service._posts.items()
    }
    assert not world.service._posts
    return log


@pytest.mark.parametrize(
    "engine,seed", [("fast", 3), ("fast", 11), ("reference", 5), ("reference", 17)]
)
def test_default_config_matches_oracle(engine, seed):
    world, oracle_world = _twin_worlds(1_200, seed, engine)
    log = assert_matches_oracle(world, oracle_world, seed=seed + 9)
    assert log.public_cascades() and log.scoped_cascades()
    assert log.n_reshares > 0


def test_audience_cap_binding_matches_oracle():
    world, oracle_world = _twin_worlds(1_200, 7, "fast")
    config = ActivityConfig(max_audience_sample=4, reshare_prob=0.3)
    followers = [len(world.service.followers(u)) for u in range(world.n_users)]
    assert max(followers) > config.max_audience_sample
    assert_matches_oracle(world, oracle_world, config=config, seed=2)


def test_cascade_size_cap_binding_matches_oracle():
    world, oracle_world = _twin_worlds(1_200, 8, "fast")
    config = ActivityConfig(
        reshare_prob=1.0, reshare_depth_decay=1.0, max_cascade_size=10
    )
    log = assert_matches_oracle(
        world, oracle_world, config=config, seed=1, max_users=80
    )
    assert max(c.size for c in log.cascades) > config.max_cascade_size


def test_scoped_roots_with_followers_outside_friends_match_oracle():
    world, oracle_world = _twin_worlds(1_200, 9, "reference")
    config = ActivityConfig(public_post_base=0.0, reshare_prob=0.2)
    service = world.service
    hidden = sum(
        1
        for author in range(200)
        for follower in service.followers(author)
        if not service.member_of(author, follower, "friends")
    )
    assert hidden > 0
    log = assert_matches_oracle(
        world, oracle_world, config=config, seed=4, max_users=200
    )
    assert not log.public_cascades()
    # Some scoped root reached fewer users than its author has followers.
    assert any(
        c.audience < len(service.followers(c.author_id))
        for c in log.cascades
        if not c.reshare_post_ids
    )


def test_authors_with_circle_overlays_match_oracle():
    world, oracle_world = _twin_worlds(1_200, 12, "fast")
    rng = np.random.default_rng(0)
    newcomer = world.n_users + 40
    edits = []
    for author in range(0, 120, 3):
        followers = world.service.followers(author)
        for follower in followers[: len(followers) // 2]:
            edits.append(("add", author, follower, "friends"))
        for contact in world.service.followees(author)[:2]:
            edits.append(("remove", author, contact, "friends"))
        stranger = int(rng.integers(0, world.n_users))
        if stranger != author:
            edits.append(("add", stranger, author, "family"))
        # A user who signed up after the world was built (an id past
        # the population) follows every edited author, and is in their
        # friends circle.
        edits.append(("add", newcomer, author, "friends"))
        edits.append(("add", author, newcomer, "friends"))
    for service in (world.service, oracle_world.service):
        service.register(UserProfile(user_id=newcomer, name="Newcomer"), invited_by=0)
        for kind, owner, target, circle in edits:
            if kind == "add":
                service.add_to_circle(owner, target, circle)
            else:
                service.remove_from_circle(owner, target, circle)
    assert world.service._circles and world.service._followers
    assert newcomer in world.service.followers(3)
    config = ActivityConfig(public_post_base=0.3, reshare_prob=0.15)
    assert_matches_oracle(world, oracle_world, config=config, seed=6, max_users=120)
