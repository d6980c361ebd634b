"""Oracle: the content cascade written as service traffic.

This is the activity simulation as it ran before diffusion became a
read-only study stage: every post is a ``publish`` into the world's
service and every +1 a ``plus_one``, follower by follower.  It consumes
the same random stream as :func:`repro.synth.activity.simulate_activity`,
so the two must produce the same cascades; the equivalence tests in
``tests/synth/test_activity_oracle.py`` check that.  It writes into the
service it is given, so call it on a world of its own.
"""

from __future__ import annotations

from collections import deque

import numpy as np

from repro.platform.service import GooglePlusService, Post
from repro.synth.activity import (
    _pick_visibility,
    ActivityConfig,
    ActivityLog,
    Cascade,
)


def _audience_of(
    service: GooglePlusService,
    user_id: int,
    rng: np.random.Generator,
    cap: int,
) -> list[int]:
    followers = service.followers(user_id)
    if len(followers) <= cap:
        return followers
    chosen = rng.choice(len(followers), size=cap, replace=False)
    return [followers[i] for i in chosen]


def reference_simulate_activity(
    world,
    config: ActivityConfig | None = None,
    seed: int = 0,
    max_users: int | None = None,
) -> ActivityLog:
    """Posts, +1s and reshares published into ``world.service``."""
    config = config if config is not None else ActivityConfig()
    rng = np.random.default_rng(seed)
    service = world.service
    population = world.population
    n_authors = population.n if max_users is None else min(max_users, population.n)

    post_counts = rng.poisson(
        config.posts_per_user * np.minimum(population.disclosure[:n_authors], 3.0)
    )
    log = ActivityLog(cascades=[])
    for author_id in range(n_authors):
        for _ in range(int(post_counts[author_id])):
            cascade = _run_cascade(service, population, author_id, config, rng)
            log.cascades.append(cascade)
            log.n_posts += 1
            log.n_reshares += len(cascade.reshare_post_ids)
            log.n_plus_ones += cascade.plus_ones
    return log


def _run_cascade(
    service: GooglePlusService,
    population,
    author_id: int,
    config: ActivityConfig,
    rng: np.random.Generator,
) -> Cascade:
    to_circles = _pick_visibility(population, author_id, config, rng)
    root = service.publish(author_id, f"post by {author_id}", to_circles=to_circles)
    cascade = Cascade(
        root_post_id=root.post_id,
        author_id=author_id,
        is_public=to_circles is None,
    )
    seen: set[int] = {author_id}
    queue: deque[tuple[Post, int, int]] = deque([(root, author_id, 0)])
    while queue:
        post, poster, depth = queue.popleft()
        if cascade.size >= config.max_cascade_size:
            break
        audience = _audience_of(service, poster, rng, config.max_audience_sample)
        reshare_p = config.reshare_prob * config.reshare_depth_decay**depth
        rolls = rng.random((len(audience), 2))
        for follower, (reshare_roll, plus_roll) in zip(audience, rolls):
            if follower in seen:
                continue
            if not service.can_view_post(post.post_id, follower):
                continue
            seen.add(follower)
            if plus_roll < config.plus_one_prob:
                service.plus_one(follower, post.post_id)
                cascade.plus_ones += 1
            if reshare_roll < reshare_p:
                reshare = service.publish(
                    follower,
                    f"reshare of {post.post_id}",
                    reshared_from=post.post_id,
                )
                cascade.reshare_post_ids.append(reshare.post_id)
                cascade.resharer_ids.append(follower)
                cascade.depth = max(cascade.depth, depth + 1)
                queue.append((reshare, follower, depth + 1))
    cascade.audience = len(seen) - 1
    return cascade
