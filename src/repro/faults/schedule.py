"""Scripted, deterministic fault injection: the shared rule core and the
network plane.

The authors' 46-day crawl ran against a live service that threw rate
bans, outages, and half-rendered pages at the fleet; our simulator must
be able to do the same, on demand and reproducibly.  Two chaos planes
share one core defined here:

* :class:`WindowedRule` — a virtual-time window, an optional seeded
  RNG, and the checkpointable RNG state;
* :class:`WindowedSchedule` — an ordered rule list, the window
  envelope behind the quiet-air fast path, per-rule state
  export/restore, and the scenario-document parser.

The network plane (this module) subclasses them as :class:`FaultRule` /
:class:`FaultSchedule`, evaluated on every request the HTTP front end
admits: block it with an error status, slow it down, or corrupt its
payload.  The disk plane (:mod:`repro.faults.disk`) subclasses them as
``DiskFaultRule`` / ``DiskFaultSchedule``.  Each plane keeps only its
rule classes and its combine step.

Determinism is the design constraint that shapes everything here:

* Every rule is evaluated on **every** event while its window is
  active, whether or not an earlier rule already decided the event's
  fate.  The RNG draw sequence therefore depends only on the virtual
  event timeline, never on rule interactions.
* All randomness comes from per-rule ``numpy`` generators seeded via
  ``SeedSequence([document_seed, rule_index])``, and
  :meth:`WindowedSchedule.export_state` /
  :meth:`WindowedSchedule.restore_state` round-trip their
  bit-generator states, so a crawl killed and resumed mid-chaos replays
  the exact fault sequence an uninterrupted run would have seen (the
  :mod:`repro.store` bit-identical guarantee).

This module deliberately imports nothing from :mod:`repro` — the
platform's HTTP front end imports *it* — so the status codes the rules
inject are defined here and re-exported by ``platform.http``.
"""

from __future__ import annotations

import copy
import inspect
from types import SimpleNamespace
from typing import Any, Iterable, Mapping, Sequence

import numpy as np

__all__ = [
    "BernoulliErrors",
    "CORRUPTION_MODES",
    "CorruptPages",
    "ErrorBurst",
    "FaultDecision",
    "FaultRule",
    "FaultSchedule",
    "FaultSpecError",
    "IpBan",
    "Outage",
    "SlowResponses",
    "STATUS_FORBIDDEN",
    "STATUS_REQUEST_TIMEOUT",
    "STATUS_SERVER_ERROR",
    "Timeouts",
    "WindowedRule",
    "WindowedSchedule",
    "corrupt_payload",
    "rng_from_json",
    "rng_to_json",
]

#: Status codes the fault layer injects.  503 mirrors the platform's
#: constant; 403 (temporary per-IP ban) and 408 (request timeout) are
#: introduced by this layer and re-exported from ``repro.platform.http``.
STATUS_SERVER_ERROR = 503
STATUS_FORBIDDEN = 403
STATUS_REQUEST_TIMEOUT = 408


class FaultSpecError(ValueError):
    """A scenario document does not describe a valid fault schedule."""


class FaultDecision:
    """What one rule (or the combined schedule) does to one request.

    ``status`` set means the request is blocked before reaching the
    handler; ``slow_by`` adds virtual latency to a successful response;
    ``corrupt_mode`` mangles a successful payload (see
    :func:`corrupt_payload`).
    """

    __slots__ = ("kind", "status", "retry_after", "slow_by", "corrupt_mode")

    def __init__(
        self,
        kind: str,
        status: int | None = None,
        retry_after: float = 0.0,
        slow_by: float = 0.0,
        corrupt_mode: str | None = None,
    ):
        self.kind = kind
        self.status = status
        self.retry_after = retry_after
        self.slow_by = slow_by
        self.corrupt_mode = corrupt_mode


def rng_to_json(rng: np.random.Generator) -> dict:
    """A generator's bit-generator state as a JSON-ready dict (a copy)."""
    return copy.deepcopy(rng.bit_generator.state)


def rng_from_json(rng: np.random.Generator, state: Mapping[str, Any]) -> None:
    """Rewind ``rng`` to a state captured by :func:`rng_to_json`."""
    rng.bit_generator.state = copy.deepcopy(dict(state))


class WindowedRule:
    """Rule core: a virtual-time window plus an optional seeded RNG.

    A subclass takes ``seed`` in its constructor exactly when it owns an
    RNG; :meth:`WindowedSchedule.from_dict` reads that (and the other
    parameters a scenario document may set) off the signature.
    """

    #: Scenario-document discriminator; subclasses override.
    kind = "abstract"

    def __init__(self, start: float = 0.0, end: float = float("inf"), seed: int | None = None):
        if end < start:
            raise FaultSpecError(f"{self.kind}: window end {end} before start {start}")
        self.start = float(start)
        self.end = float(end)
        self._rng = None if seed is None else np.random.default_rng(seed)

    def active(self, now: float) -> bool:
        return self.start <= now < self.end

    def _chance(self, rate: float) -> bool:
        """One seeded Bernoulli draw (the rule's only randomness source)."""
        if self._rng is None:
            return True
        return bool(self._rng.random() < rate)

    # -- checkpointing (see repro.store) -------------------------------------

    def export_state(self) -> dict:
        if self._rng is None:
            return {}
        return {"rng": rng_to_json(self._rng)}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        if self._rng is not None and "rng" in state:
            rng_from_json(self._rng, state["rng"])


def _rate_in_unit(rate: float, what: str) -> float:
    if not 0.0 <= rate <= 1.0:
        raise FaultSpecError(f"{what} must be in [0, 1], got {rate}")
    return float(rate)


class WindowedSchedule:
    """Schedule core: an ordered, resumable list of windowed rules.

    Subclasses set :attr:`rule_kinds` (the scenario-document registry)
    and add their plane's combine step, which skips the rule loop when
    ``now`` lies outside ``[_window_start, _window_end)``: no rule can be
    active there, and inactive rules never draw.
    """

    #: ``kind`` -> rule class, for scenario documents.
    rule_kinds: dict[str, type[WindowedRule]] = {}
    #: How error messages name a document and a rule kind of this plane.
    spec_label = "scenario"
    kind_label = "kind"

    def __init__(self, rules: Iterable[WindowedRule] = ()):
        self.rules = list(rules)
        # Envelope of all rule windows; the rule list is fixed after
        # construction.
        self._window_start = min((rule.start for rule in self.rules), default=float("inf"))
        self._window_end = max((rule.end for rule in self.rules), default=float("-inf"))

    def __len__(self) -> int:
        return len(self.rules)

    # -- checkpointing (see repro.store) -------------------------------------

    def export_state(self) -> dict:
        """Per-rule RNG states, JSON-ready, positionally keyed."""
        return {"rules": [rule.export_state() for rule in self.rules]}

    def restore_state(self, state: Mapping[str, Any]) -> None:
        states = state.get("rules", [])
        if len(states) != len(self.rules):
            raise FaultSpecError(
                f"state covers {len(states)} rules, schedule has {len(self.rules)}"
            )
        for rule, rule_state in zip(self.rules, states):
            rule.restore_state(rule_state)

    # -- scenario documents --------------------------------------------------

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]):
        """Build a schedule from a scenario document.

        Document shape (JSON-compatible)::

            {"seed": 7, "rules": [
                {"kind": "error_burst", "start": 0.5, "end": 2.0, "rate": 0.4},
                {"kind": "ip_ban", "start": 1.0, "end": 1.8, "ips": ["10.0.0.3"]},
                ...
            ]}

        A rule entry may set any constructor parameter of its kind except
        ``seed``.  Seeded rules draw from generators derived via
        ``SeedSequence`` from the document seed and the rule's position,
        so the same document always produces the same chaos.
        """
        if not isinstance(spec, Mapping):
            raise FaultSpecError(
                f"{cls.spec_label} must be a mapping, got {type(spec).__name__}"
            )
        base_seed = int(spec.get("seed", 0))
        rules_spec = spec.get("rules")
        if not isinstance(rules_spec, (list, tuple)):
            raise FaultSpecError(f"{cls.spec_label} needs a 'rules' list")
        rules = []
        for index, entry in enumerate(rules_spec):
            if not isinstance(entry, Mapping):
                raise FaultSpecError(f"rules[{index}] must be a mapping")
            kind = entry.get("kind")
            rule_cls = cls.rule_kinds.get(kind)
            if rule_cls is None:
                raise FaultSpecError(
                    f"rules[{index}]: unknown {cls.kind_label} {kind!r} "
                    f"(known: {sorted(cls.rule_kinds)})"
                )
            params = inspect.signature(rule_cls).parameters
            unknown = set(entry) - (set(params) - {"seed"}) - {"kind"}
            if unknown:
                raise FaultSpecError(
                    f"rules[{index}] ({kind}): unknown parameters {sorted(unknown)}"
                )
            kwargs = {key: value for key, value in entry.items() if key != "kind"}
            if "seed" in params:
                kwargs["seed"] = int(
                    np.random.SeedSequence([base_seed, index]).generate_state(1)[0]
                )
            try:
                rules.append(rule_cls(**kwargs))
            except TypeError as exc:
                raise FaultSpecError(f"rules[{index}] ({kind}): {exc}") from exc
        return cls(rules)


class FaultRule(WindowedRule):
    """A network-plane rule: decides the fate of one admitted request."""

    def decide(self, now: float, ip: str) -> FaultDecision | None:
        raise NotImplementedError


class ErrorBurst(FaultRule):
    """A window of elevated transient 503s (error-rate burst)."""

    kind = "error_burst"

    def __init__(
        self,
        start: float = 0.0,
        end: float = float("inf"),
        rate: float = 0.5,
        retry_after: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(start, end, seed=seed)
        self.rate = _rate_in_unit(rate, "error_burst.rate")
        self.retry_after = float(retry_after)

    def decide(self, now: float, ip: str) -> FaultDecision | None:
        if not self.active(now) or self.rate == 0.0:
            return None
        if not self._chance(self.rate):
            return None
        return FaultDecision(
            self.kind, status=STATUS_SERVER_ERROR, retry_after=self.retry_after
        )


class BernoulliErrors(ErrorBurst):
    """Always-on uniform 503s — the legacy ``error_rate`` knob.

    The front end's ``error_rate`` knob builds one of these: one uniform
    draw per request from ``default_rng(seed)``.
    """

    kind = "bernoulli_errors"

    def __init__(self, rate: float, seed: int = 0):
        super().__init__(0.0, float("inf"), rate=rate, retry_after=1.0, seed=seed)


class IpBan(FaultRule):
    """A temporary 403 ban window, for all client IPs or a listed subset."""

    kind = "ip_ban"

    def __init__(
        self,
        start: float,
        end: float,
        ips: Sequence[str] | None = None,
        retry_after: float = 5.0,
    ):
        super().__init__(start, end)
        self.ips = frozenset(ips) if ips is not None else None
        self.retry_after = float(retry_after)

    def decide(self, now: float, ip: str) -> FaultDecision | None:
        if not self.active(now):
            return None
        if self.ips is not None and ip not in self.ips:
            return None
        return FaultDecision(
            self.kind, status=STATUS_FORBIDDEN, retry_after=self.retry_after
        )


class Outage(FaultRule):
    """A whole-service outage window: every request 503s until it lifts.

    The advertised ``retry_after`` is capped by the time remaining in the
    window, the way a load balancer's maintenance page advertises when
    the service is expected back.
    """

    kind = "outage"

    def __init__(self, start: float, end: float, retry_after: float = 2.0):
        super().__init__(start, end)
        self.retry_after = float(retry_after)

    def decide(self, now: float, ip: str) -> FaultDecision | None:
        if not self.active(now):
            return None
        hint = min(self.retry_after, max(self.end - now, 0.01))
        return FaultDecision(self.kind, status=STATUS_SERVER_ERROR, retry_after=hint)


class Timeouts(FaultRule):
    """Requests that never complete: the client burns ``timeout`` waiting.

    Modelled as a 408 whose ``retry_after`` is the timeout the client
    sat through before giving up on the connection.
    """

    kind = "timeouts"

    def __init__(
        self,
        start: float = 0.0,
        end: float = float("inf"),
        rate: float = 0.1,
        timeout: float = 10.0,
        seed: int = 0,
    ):
        super().__init__(start, end, seed=seed)
        self.rate = _rate_in_unit(rate, "timeouts.rate")
        self.timeout = float(timeout)

    def decide(self, now: float, ip: str) -> FaultDecision | None:
        if not self.active(now) or self.rate == 0.0:
            return None
        if not self._chance(self.rate):
            return None
        return FaultDecision(
            self.kind, status=STATUS_REQUEST_TIMEOUT, retry_after=self.timeout
        )


class SlowResponses(FaultRule):
    """Successful responses that drag: adds virtual latency to 200s."""

    kind = "slow_responses"

    def __init__(
        self,
        start: float = 0.0,
        end: float = float("inf"),
        rate: float = 0.5,
        extra_latency: float = 1.0,
        seed: int = 0,
    ):
        super().__init__(start, end, seed=seed)
        self.rate = _rate_in_unit(rate, "slow_responses.rate")
        self.extra_latency = float(extra_latency)

    def decide(self, now: float, ip: str) -> FaultDecision | None:
        if not self.active(now) or self.rate == 0.0:
            return None
        if not self._chance(self.rate):
            return None
        return FaultDecision(self.kind, slow_by=self.extra_latency)


#: Payload corruption modes, in the order the RNG indexes them.
CORRUPTION_MODES = ("blank", "truncated_document", "missing_name", "garbage_ids")


class CorruptPages(FaultRule):
    """Successful responses whose payload arrives mangled.

    The served document is replaced by one of the
    :data:`CORRUPTION_MODES` garbage shapes — an empty body, a
    half-rendered document, a page missing mandatory fields, or circle
    lists full of non-ids — everything the parser hardening
    (:func:`repro.crawler.parse.parse_profile_page`) must survive.
    """

    kind = "corrupt_pages"

    def __init__(
        self,
        start: float = 0.0,
        end: float = float("inf"),
        rate: float = 0.2,
        modes: Sequence[str] | None = None,
        seed: int = 0,
    ):
        super().__init__(start, end, seed=seed)
        self.rate = _rate_in_unit(rate, "corrupt_pages.rate")
        self.modes = tuple(modes) if modes is not None else CORRUPTION_MODES
        unknown = set(self.modes) - set(CORRUPTION_MODES)
        if unknown:
            raise FaultSpecError(f"unknown corruption modes: {sorted(unknown)}")

    def decide(self, now: float, ip: str) -> FaultDecision | None:
        if not self.active(now) or self.rate == 0.0:
            return None
        # Two draws per active request (hit?, which mode?) — always both,
        # so the draw sequence is independent of the hit outcome.
        hit = self._chance(self.rate)
        index = int(self._rng.integers(len(self.modes))) if self._rng is not None else 0
        if not hit:
            return None
        return FaultDecision(self.kind, corrupt_mode=self.modes[index])


def corrupt_payload(payload: Any, mode: str) -> Any:
    """Mangle a served page document the way ``mode`` describes.

    Purely structural — no randomness — so the schedule's RNG draws stay
    confined to :meth:`CorruptPages.decide`.
    """
    if mode == "blank":
        # A 200 with an empty body.  NOT ``None`` — that is the
        # transport's 404 signal, and a blank page must stay
        # distinguishable from a missing profile so the crawler
        # dead-letters (and later re-drives) it instead of silently
        # recording the user as not-found.
        return SimpleNamespace()
    if mode == "truncated_document":
        # The connection died mid-page: only a fragment arrived.
        return {"user_id": getattr(payload, "user_id", None), "truncated": True}
    if mode == "missing_name":
        # Rendered without its mandatory field block.
        return SimpleNamespace(
            user_id=getattr(payload, "user_id", None),
            fields={},
            in_list=getattr(payload, "in_list", None),
            out_list=getattr(payload, "out_list", None),
        )
    if mode == "garbage_ids":
        # Circle lists present but full of non-ids (mojibake scrape).
        garbage = SimpleNamespace(user_ids=("<a href>", None, -1.5), declared_count=3)
        return SimpleNamespace(
            user_id=getattr(payload, "user_id", None),
            name=getattr(payload, "name", None),
            fields=getattr(payload, "fields", {}),
            in_list=garbage,
            out_list=garbage,
        )
    raise FaultSpecError(f"unknown corruption mode {mode!r}")


class FaultSchedule(WindowedSchedule):
    """An ordered, composable set of network fault rules with resumable state."""

    rule_kinds = {
        cls.kind: cls
        for cls in (
            ErrorBurst, BernoulliErrors, IpBan, Outage, Timeouts, SlowResponses, CorruptPages
        )
    }

    def evaluate(self, now: float, ip: str) -> FaultDecision | None:
        """Combined decision for one admitted request at virtual ``now``.

        Every rule is consulted (fixed RNG draw discipline — see module
        docstring); the first blocking decision wins, slow-downs add up,
        and the first corruption mode applies.

        Outside the envelope of every rule window no rule can be active
        (and inactive rules never draw), so the whole loop is skipped —
        this keeps a schedule whose chaos has passed (or not yet begun)
        at near-zero per-request cost.
        """
        if now < self._window_start or now >= self._window_end:
            return None
        blocking: FaultDecision | None = None
        slow_by = 0.0
        corrupt_mode: str | None = None
        corrupt_kind = "corrupt_pages"
        for rule in self.rules:
            decision = rule.decide(now, ip)
            if decision is None:
                continue
            if decision.status is not None:
                if blocking is None:
                    blocking = decision
                continue
            slow_by += decision.slow_by
            if corrupt_mode is None and decision.corrupt_mode is not None:
                corrupt_mode = decision.corrupt_mode
                corrupt_kind = decision.kind
        if blocking is not None:
            return blocking
        if slow_by == 0.0 and corrupt_mode is None:
            return None
        kind = corrupt_kind if corrupt_mode is not None else "slow_responses"
        return FaultDecision(kind, slow_by=slow_by, corrupt_mode=corrupt_mode)
