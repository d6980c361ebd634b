"""The crawl dataset: profiles + edges + crawl accounting.

The in-memory product of a crawl, convertible to the analysis graph
(:class:`repro.graph.csr.CSRGraph`), and serialisable to disk (an ``npz``
for the edge arrays plus a JSON-lines file for profiles) so expensive
crawls can be archived and reloaded — the role of the authors' public
dataset release.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np

from repro.graph.csr import CSRGraph
from repro.graph.digraph import DiGraph
from repro.platform.models import (
    ContactInfo,
    Gender,
    LookingFor,
    Place,
    Relationship,
)

from .parse import ParsedProfile


@dataclass
class CrawlStats:
    """Aggregate accounting of one crawl campaign."""

    pages_fetched: int = 0
    not_found: int = 0
    throttled: int = 0
    server_errors: int = 0
    virtual_duration: float = 0.0
    n_machines: int = 0
    #: Users seen in anyone's circle list (crawled or not) — the paper's
    #: 35.1M discovered vs 27.5M crawled distinction.
    discovered: int = 0
    # -- chaos accounting (see repro.faults / docs/faults.md) ------------
    #: Retries caused by injected 403 bans and 408 timeouts.
    banned: int = 0
    timeouts: int = 0
    #: Successful responses a fault rule slowed down.
    slow_responses: int = 0
    #: Pages whose payload arrived corrupt and failed to parse.
    parse_errors: int = 0
    #: Pages that exhausted retries and stayed dead after redrive.
    dead_lettered: int = 0
    #: Dead-lettered pages recovered by end-of-crawl redrive rounds.
    redriven: int = 0


@dataclass
class CrawlDataset:
    """Everything a crawl produced."""

    profiles: dict[int, ParsedProfile]
    sources: np.ndarray
    targets: np.ndarray
    stats: CrawlStats = field(default_factory=CrawlStats)

    @property
    def n_profiles(self) -> int:
        return len(self.profiles)

    @property
    def n_edges(self) -> int:
        return len(self.sources)

    def node_ids(self) -> np.ndarray:
        """All user ids present: crawled profiles plus discovered endpoints."""
        pools = [np.fromiter(self.profiles, dtype=np.int64, count=len(self.profiles))]
        if len(self.sources):
            pools.extend([self.sources, self.targets])
        return np.unique(np.concatenate(pools))

    def to_csr(self) -> CSRGraph:
        """The directed social graph G(V, E) of Section 3."""
        return CSRGraph.from_edge_arrays(
            self.sources, self.targets, node_ids=self.node_ids()
        )

    def to_digraph(self) -> DiGraph:
        graph = DiGraph.from_edges(zip(self.sources, self.targets))
        for user_id in self.profiles:
            graph.add_node(int(user_id))
        return graph

    def to_networkx(self):
        """Export to a ``networkx.DiGraph`` with basic node attributes.

        Convenience for downstream users; networkx is an optional
        dependency (dev extra) and is imported lazily.
        """
        import networkx as nx

        graph = nx.DiGraph()
        graph.add_nodes_from(int(n) for n in self.node_ids())
        graph.add_edges_from(
            (int(u), int(v)) for u, v in zip(self.sources, self.targets)
        )
        for user_id, profile in self.profiles.items():
            node = graph.nodes[int(user_id)]
            node["name"] = profile.name
            node["crawled"] = True
            country = profile.country()
            if country is not None:
                node["country"] = country
        return graph

    #: Rows per buffered chunk when streaming edge lists to disk.
    EDGE_LIST_CHUNK = 1 << 16

    def write_edge_list(self, path: str | Path, chunk_size: int | None = None) -> None:
        """Write a plain two-column edge list (the classic release format).

        Rows stream out in buffered chunks: each chunk is converted to
        native ints once (``tolist``) and written as a single string, so
        a large crawl never materialises per-edge numpy scalars or one
        Python string per row for the whole array.
        """
        chunk = self.EDGE_LIST_CHUNK if chunk_size is None else chunk_size
        if chunk < 1:
            raise ValueError("chunk_size must be positive")
        with open(path, "w", encoding="utf-8") as handle:
            for start in range(0, len(self.sources), chunk):
                stop = start + chunk
                rows = zip(
                    self.sources[start:stop].tolist(),
                    self.targets[start:stop].tolist(),
                )
                handle.write("".join([f"{u}\t{v}\n" for u, v in rows]))

    # -- serialisation -------------------------------------------------------

    def save(self, directory: str | Path) -> None:
        """Write ``edges.npz`` and ``profiles.jsonl`` under a directory."""
        directory = Path(directory)
        directory.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            directory / "edges.npz", sources=self.sources, targets=self.targets
        )
        with open(directory / "profiles.jsonl", "w", encoding="utf-8") as handle:
            for profile in self.profiles.values():
                handle.write(json.dumps(profile_to_json(profile)) + "\n")
        with open(directory / "stats.json", "w", encoding="utf-8") as handle:
            json.dump(vars(self.stats), handle)

    @classmethod
    def load(cls, directory: str | Path) -> "CrawlDataset":
        directory = Path(directory)
        with np.load(directory / "edges.npz") as arrays:
            sources = arrays["sources"]
            targets = arrays["targets"]
        profiles: dict[int, ParsedProfile] = {}
        with open(directory / "profiles.jsonl", encoding="utf-8") as handle:
            for line in handle:
                profile = profile_from_json(json.loads(line))
                profiles[profile.user_id] = profile
        stats = CrawlStats()
        stats_path = directory / "stats.json"
        if stats_path.exists():
            with open(stats_path, encoding="utf-8") as handle:
                stats = CrawlStats(**json.load(handle))
        return cls(profiles=profiles, sources=sources, targets=targets, stats=stats)


# -- JSON codecs for the typed field values ------------------------------------

def _encode_value(value: Any) -> Any:
    if isinstance(value, (Gender, Relationship, LookingFor)):
        return {"__enum__": type(value).__name__, "value": value.value}
    if isinstance(value, Place):
        return {
            "__place__": True,
            "name": value.name,
            "lat": value.latitude,
            "lon": value.longitude,
            "country": value.country,
        }
    if isinstance(value, ContactInfo):
        return {
            "__contact__": True,
            "phone": value.phone,
            "email": value.email,
            "address": value.address,
        }
    if isinstance(value, (list, tuple)):
        return [_encode_value(v) for v in value]
    return value


_ENUMS = {"Gender": Gender, "Relationship": Relationship, "LookingFor": LookingFor}


def _decode_value(value: Any) -> Any:
    if isinstance(value, dict):
        if "__enum__" in value:
            return _ENUMS[value["__enum__"]](value["value"])
        if value.get("__place__"):
            return Place(value["name"], value["lat"], value["lon"], value["country"])
        if value.get("__contact__"):
            return ContactInfo(value["phone"], value["email"], value["address"])
    if isinstance(value, list):
        return [_decode_value(v) for v in value]
    return value


def profile_to_json(profile: ParsedProfile) -> dict:
    """One profile as a JSON-ready dict — the ``profiles.jsonl`` row format.

    Also the payload of the store's journal page records
    (:mod:`repro.store.campaign`), so archives and journals replay
    through the same encoders.
    """
    return {
        "user_id": profile.user_id,
        "name": profile.name,
        "fields": {k: _encode_value(v) for k, v in profile.fields.items()},
        "in_list": profile.in_list.tolist() if profile.in_list is not None else None,
        "out_list": profile.out_list.tolist() if profile.out_list is not None else None,
        "declared_in": profile.declared_in,
        "declared_out": profile.declared_out,
    }


def profile_from_json(record: dict) -> ParsedProfile:
    return ParsedProfile(
        user_id=record["user_id"],
        name=record["name"],
        fields={k: _decode_value(v) for k, v in record["fields"].items()},
        in_list=record["in_list"],
        out_list=record["out_list"],
        declared_in=record["declared_in"],
        declared_out=record["declared_out"],
    )
