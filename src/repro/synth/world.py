"""Assembly of a complete synthetic Google+ world.

:class:`SyntheticWorld` ties the generator stages together: population →
profiles → social graph → a populated :class:`GooglePlusService` behind a
rate-limited HTTP front end. It keeps the ground truth around so tests
and ablation benches can compare crawled measurements against the truth.
"""

from __future__ import annotations

from contextlib import nullcontext
from collections.abc import Mapping
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from repro.obs import trace
from repro.platform.columnar import ColumnarProfileStore
from repro.platform.gcpause import gc_paused
from repro.platform.http import HttpFrontend, SimulatedClock
from repro.platform.models import UserProfile
from repro.platform.service import GooglePlusService

from .config import WorldConfig
from .fastgen import generate_graph_fast
from .fastprofiles import build_profile_columns_fast
from .graphgen import GeneratedGraph, generate_graph
from .profiles import Population, build_profiles, generate_population

#: Circle labels used when planting social links, to exercise named circles.
_CIRCLE_LABELS = ("friends", "family", "colleagues", "following")


class ProfilesView(Mapping):
    """Read-only ``{user_id: profile}`` mapping over a service: each
    lookup is :meth:`GooglePlusService.profile` (no object per user is
    held)."""

    def __init__(self, service: GooglePlusService):
        self._service = service

    def __getitem__(self, user_id: int) -> UserProfile:
        if user_id not in self._service:
            raise KeyError(user_id)
        return self._service.profile(user_id)

    def __iter__(self) -> Iterator[int]:
        return self._service.user_ids()

    def __len__(self) -> int:
        return len(self._service)


@dataclass
class SyntheticWorld:
    """A fully assembled world: service + front end + ground truth."""

    config: WorldConfig
    population: Population
    #: ``{user_id: profile}`` ground truth, read through the service.
    profiles: ProfilesView
    graph: GeneratedGraph
    service: GooglePlusService
    clock: SimulatedClock

    def frontend(
        self,
        rate_per_ip: float = 200.0,
        burst: float = 400.0,
        error_rate: float = 0.0,
        faults=None,
    ) -> HttpFrontend:
        """A fresh HTTP front end over this world's service.

        ``faults`` is an optional :class:`repro.faults.FaultSchedule` of
        scripted failure windows (chaos campaigns).
        """
        return HttpFrontend(
            self.service.handle_path,
            clock=self.clock,
            rate_per_ip=rate_per_ip,
            burst=burst,
            error_rate=error_rate,
            seed=self.config.seed + 101,
            faults=faults,
        )

    @property
    def n_users(self) -> int:
        return self.population.n

    def true_edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Ground-truth (sources, targets) arrays of the social graph."""
        return self.graph.sources, self.graph.targets

    def seed_user_id(self) -> int:
        """The crawl seed: the rank-2 global celebrity (Mark Zuckerberg).

        The paper began its BFS at Mark Zuckerberg's profile; the world
        guarantees a rank-2 global celebrity exists.
        """
        for user_id, spec in self.population.celebrity_spec.items():
            if spec.global_rank == 2:
                return user_id
        raise RuntimeError("world has no rank-2 global celebrity")


def _build_service(
    world_config: WorldConfig,
    population: Population,
    profile_store: ColumnarProfileStore,
    graph: GeneratedGraph,
    rng: np.random.Generator,
) -> GooglePlusService:
    """Ingest the profile columns and the planted social links.

    The field trial (invitation-only signup, then open signup on
    September 20th, 2011) shaped who could join when; the generator's
    inviters are valid by construction, so the ingest skips the
    per-signup invitation check but keeps the inviter draw, which pins
    the RNG stream every later draw depends on.
    """
    service = GooglePlusService(
        open_signup=True,
        circle_display_limit=world_config.circle_display_limit,
    )
    n = population.n
    trial_count = max(1, int(round(world_config.field_trial_fraction * n)))
    rng.integers(0, trial_count, size=n)  # inviter rolls
    circle_rolls = rng.integers(0, len(_CIRCLE_LABELS), size=graph.n_edges)
    # Narrow before ingest: holding the int64 draw alongside the CSR
    # build costs O(edges) for nothing.
    circle_rolls = circle_rolls.astype(np.uint8)
    service.ingest_world(
        profile_store,
        graph.sources,
        graph.targets,
        _CIRCLE_LABELS,
        circle_rolls,
        exempt_ids=population.celebrity_spec,
    )
    return service


def build_world(config: WorldConfig | None = None) -> SyntheticWorld:
    """Generate a complete world from a config (or the calibrated default)."""
    config = config if config is not None else WorldConfig()
    rng = np.random.default_rng(config.seed)
    fast = config.engine == "fast"
    # One GC pause across the whole fast build: the stage-local pauses
    # nest inside it (gc_paused is re-entrant), so the collector sweeps
    # the finished world once instead of after every stage.
    pause = gc_paused() if fast else nullcontext()
    with trace.span(
        "synth.build_world",
        users=config.n_users,
        engine=config.engine,
        store=config.store,
    ), pause:
        with trace.span("synth.population"):
            population = generate_population(config, rng)
        with trace.span("synth.profiles"):
            if fast:
                profile_store = build_profile_columns_fast(population, config, rng)
            else:
                profile_store = ColumnarProfileStore.from_profiles(
                    build_profiles(population, config, rng)
                )
        with trace.span("synth.graphgen"):
            if fast:
                graph = generate_graph_fast(population, config.graph, rng)
            else:
                graph = generate_graph(population, config.graph, rng)
        with trace.span("synth.service"):
            service = _build_service(config, population, profile_store, graph, rng)
    return SyntheticWorld(
        config=config,
        population=population,
        profiles=ProfilesView(service),
        graph=graph,
        service=service,
        clock=SimulatedClock(),
    )
