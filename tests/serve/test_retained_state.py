"""A bound on the memory the serving layer keeps.

A fixed, seeded storm runs against a 4,000-user world under
``tracemalloc``; what stays allocated afterwards is the serving state:
cached pages and their circle lists, the viewer-class memo, the
viewers' follower sets, copy-on-write overlays, notifications and the
load generator's own state.  Each page keeps its circle lists as
``array('I')``; no contact set is kept per owner, because viewers are
classified from their own follower sets; a follower overlay keeps only
its delta over the base in-row, and a notification overlay copies no
base feed.  The bounds hold that with about 25% headroom over the
measured bytes (read_heavy 6.71 MB, mixed 7.51 MB on CPython 3.11).
"""

import gc
import tracemalloc

import pytest

from repro.obs.metrics import Registry
from repro.serve import EventClock, build_traffic
from repro.synth import WorldConfig, build_world

N_USERS = 4_000
N_CLIENTS = 400
N_REQUESTS = 20_000

#: mix -> bound on the bytes serving keeps after the storm.
BOUNDS = {"read_heavy": 8_400_000, "mixed": 9_500_000}


def retained_serving_bytes(mix: str) -> int:
    world = build_world(WorldConfig(n_users=N_USERS, seed=5, engine="fast"))
    clock = EventClock(world.clock.now())
    registry = Registry(enabled=True)
    gc.collect()
    tracemalloc.start()
    try:
        traffic = build_traffic(
            world.service,
            clock,
            {"n_clients": N_CLIENTS, "seed": 5, "mix": mix, "think_mean": 0.05},
            registry=registry,
        )
        traffic.run_requests(N_REQUESTS)
        assert traffic.n_requests == N_REQUESTS
        gc.collect()
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return held


@pytest.mark.parametrize("mix", sorted(BOUNDS))
def test_retained_serving_state_is_bounded(mix):
    held = retained_serving_bytes(mix)
    assert held <= BOUNDS[mix], f"{mix}: serving keeps {held / 1e6:.2f} MB"
