"""Content activity simulation — the paper's second future-work item.

Section 7: *"having seen the key differences of Google+ from other online
social networks, we would like to understand how different privacy
settings and openness impact the types of conversations and the patterns
of content sharing."*

This module generates posting and resharing activity as data beside the
graph, reading the platform (:class:`repro.platform.service.GooglePlusService`)
but never writing to it: users publish posts — public or scoped to one
of their circles, with the public/scoped split driven by the same
per-country openness culture that shapes their profiles — and content
then cascades: followers who can see a post may +1 it or reshare it to
their own audience, reshares of reshares forming diffusion trees.  The
posts live in the returned :class:`ActivityLog`, so a simulation leaves
the world it reads exactly as it found it.  The analysis side lives in
:mod:`repro.analysis.diffusion`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

import numpy as np

from repro.platform.service import GooglePlusService

from .world import SyntheticWorld


@dataclass(frozen=True)
class ActivityConfig:
    """Knobs of the activity simulation.

    * ``posts_per_user`` — mean original posts per user (Poisson);
      scaled by the user's disclosure propensity, so prolific sharers
      are also the privacy risk-takers, as Section 3.2 suggests;
    * ``public_post_base`` — base probability a post is public rather
      than circle-scoped; multiplied by the author country's openness;
    * ``reshare_prob`` / ``plus_one_prob`` — per-viewing follower
      engagement probabilities (reshares decay with depth);
    * ``reshare_depth_decay`` — multiplicative decay of the reshare
      probability per cascade level;
    * ``max_audience_sample`` — at most this many followers are offered
      each post (keeps celebrity cascades tractable).
    """

    posts_per_user: float = 0.4
    public_post_base: float = 0.55
    reshare_prob: float = 0.05
    plus_one_prob: float = 0.12
    reshare_depth_decay: float = 0.6
    max_audience_sample: int = 150
    max_cascade_size: int = 2_000


@dataclass
class Cascade:
    """One original post and everything that grew from it."""

    root_post_id: int
    author_id: int
    is_public: bool
    reshare_post_ids: list[int] = field(default_factory=list)
    resharer_ids: list[int] = field(default_factory=list)
    depth: int = 0
    plus_ones: int = 0
    audience: int = 0  # distinct users who saw the root or a reshare

    @property
    def size(self) -> int:
        """Nodes in the diffusion tree (root + reshares)."""
        return 1 + len(self.reshare_post_ids)


@dataclass
class ActivityLog:
    """The full product of one activity simulation.

    ``posts`` maps each post id (local to this log, numbered from 1 in
    creation order) to the id of the post it reshares, or ``None`` for
    an original post.
    """

    cascades: list[Cascade]
    n_posts: int = 0
    n_reshares: int = 0
    n_plus_ones: int = 0
    posts: dict[int, int | None] = field(default_factory=dict)

    def public_cascades(self) -> list[Cascade]:
        return [c for c in self.cascades if c.is_public]

    def scoped_cascades(self) -> list[Cascade]:
        return [c for c in self.cascades if not c.is_public]

    def add_post(self, reshared_from: int | None = None) -> int:
        """Record a new post; returns its id."""
        post_id = len(self.posts) + 1
        self.posts[post_id] = reshared_from
        return post_id


def _audience_of(
    service: GooglePlusService,
    user_id: int,
    rng: np.random.Generator,
    cap: int,
) -> np.ndarray:
    """A sample of a user's followers who would see a new post."""
    followers = np.asarray(service.followers(user_id), dtype=np.int64)
    if len(followers) <= cap:
        return followers
    return followers[rng.choice(len(followers), size=cap, replace=False)]


def simulate_activity(
    world: SyntheticWorld,
    config: ActivityConfig | None = None,
    seed: int = 0,
    max_users: int | None = None,
) -> ActivityLog:
    """Generate posts, +1s and reshare cascades over a world's service.

    ``max_users`` limits how many users author original posts (highest
    ids first are skipped), which keeps large worlds affordable; the
    engagement side always uses the full follower structure.  The
    service is only read (followers, circle names, circle members).
    """
    config = config if config is not None else ActivityConfig()
    rng = np.random.default_rng(seed)
    service = world.service
    population = world.population
    n_authors = population.n if max_users is None else min(max_users, population.n)

    post_counts = rng.poisson(
        config.posts_per_user * np.minimum(population.disclosure[:n_authors], 3.0)
    )
    cascades = _CascadeRunner(service, population, config, rng)
    for author_id in range(n_authors):
        for _ in range(int(post_counts[author_id])):
            cascades.run(author_id)
    return cascades.log


def _pick_visibility(
    population, author_id: int, config: ActivityConfig, rng: np.random.Generator
) -> frozenset[str] | None:
    """Public (None) or a single-circle scope, by the author's culture."""
    openness = population.openness_of(author_id)
    if rng.random() < min(0.98, config.public_post_base * openness):
        return None
    return frozenset({"friends"})


class _CascadeRunner:
    """Grows cascades over a service it only reads, into one log."""

    def __init__(self, service, population, config: ActivityConfig, rng):
        self.service = service
        self.population = population
        self.config = config
        self.rng = rng
        self.log = ActivityLog(cascades=[])
        # One "has seen this cascade" flag per user, cleared after each
        # cascade at exactly the users it reached.
        self.seen = np.zeros(population.n, dtype=bool)

    def _cover(self, users: np.ndarray) -> None:
        """Grow ``seen`` to hold every id in ``users``."""
        top = int(users.max()) if len(users) else -1
        if top >= len(self.seen):
            grown = np.zeros(top + 1, dtype=bool)
            grown[: len(self.seen)] = self.seen
            self.seen = grown

    def run(self, author_id: int) -> Cascade:
        service, config, rng, log = self.service, self.config, self.rng, self.log
        to_circles = _pick_visibility(self.population, author_id, config, rng)
        if to_circles is not None:
            unknown = to_circles - set(service.circle_names(author_id))
            if unknown:
                raise ValueError(f"author has no circles named {sorted(unknown)}")
        cascade = Cascade(
            root_post_id=log.add_post(),
            author_id=author_id,
            is_public=to_circles is None,
        )
        reached = [np.array([author_id], dtype=np.int64)]
        self._cover(reached[0])
        self.seen[author_id] = True
        # Queue of (post, poster, depth): followers of `poster` may engage.
        queue = deque([(cascade.root_post_id, author_id, 0)])
        while queue:
            post_id, poster, depth = queue.popleft()
            if cascade.size >= config.max_cascade_size:
                break
            audience = _audience_of(service, poster, rng, config.max_audience_sample)
            reshare_p = config.reshare_prob * config.reshare_depth_decay**depth
            rolls = rng.random((len(audience), 2))
            self._cover(audience)
            # Followers are distinct, so one mask pass equals the
            # follower-by-follower walk.
            offered = np.flatnonzero(~self.seen[audience])
            if depth == 0 and to_circles is not None:
                # Only the root can be scoped: reshares are public.
                scope = service.circle_members(author_id, to_circles)
                offered = offered[np.isin(audience[offered], scope, kind="table")]
            viewers = audience[offered]
            self.seen[viewers] = True
            reached.append(viewers)
            cascade.plus_ones += int(np.count_nonzero(rolls[offered, 1] < config.plus_one_prob))
            resharers = viewers[rolls[offered, 0] < reshare_p].tolist()
            for follower in resharers:
                reshare_id = log.add_post(reshared_from=post_id)
                cascade.reshare_post_ids.append(reshare_id)
                cascade.resharer_ids.append(follower)
                queue.append((reshare_id, follower, depth + 1))
            if resharers:
                cascade.depth = max(cascade.depth, depth + 1)
        reached_ids = np.concatenate(reached)
        self.seen[reached_ids] = False
        cascade.audience = len(reached_ids) - 1
        log.cascades.append(cascade)
        log.n_posts += 1
        log.n_reshares += len(cascade.reshare_post_ids)
        log.n_plus_ones += cascade.plus_ones
        return cascade
