"""Configuration of the synthetic Google+ world.

Every stochastic component reads its knobs from :class:`WorldConfig`; the
defaults are calibrated so the crawled measurements reproduce the paper's
shapes at laptop scale (see EXPERIMENTS.md for measured-vs-paper values).
All generation flows from ``seed``: equal configs produce identical
worlds, crawls and analyses.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class GraphGenConfig:
    """Knobs of the social-graph generator.

    The generator is a degree-driven preferential-attachment process with
    geographic and country homophily, per-user follow-back propensity, and
    triadic closure:

    * out-degrees are Pareto with CCDF exponent ``out_alpha`` (the paper
      fits 1.2) scaled by ``out_scale`` and capped at ``out_degree_cap``
      (the 5000-contact policy; celebrities are whitelisted past it);
    * each edge stub picks a target country from the source country's
      mixing row (domesticity / US-flux / global share — Figure 10), then
      a target by in-degree preferential attachment, staying in the
      source's own city with probability ``same_city_prob`` for domestic
      stubs (Figure 9a's short-range mass);
    * with probability ``triadic_prob`` a stub closes a triangle through
      an existing followee instead (Figure 4b's clustering);
    * the target follows back with its personal propensity — Beta
      distributed for ordinary users, ``celebrity_followback`` for
      celebrities (Figure 4a's bimodal RR, Table 4's 32% reciprocity).
    """

    out_alpha: float = 1.1
    out_scale: float = 3.0
    out_degree_cap: int = 5_000
    #: Domestic stubs pick a target city through a gravity kernel
    #: ``weight_j / (1 + d_ij / scale)^gamma`` — this is what puts 58% of
    #: friend pairs within a thousand miles while keeping the ~15% of
    #: same-metro pairs within ten (Figure 9a). Setting ``geo_homophily``
    #: False falls back to country-uniform preferential attachment with a
    #: flat ``same_city_prob`` (the ablation baseline).
    geo_homophily: bool = True
    gravity_gamma: float = 1.5
    gravity_scale_miles: float = 300.0
    same_city_boost: float = 0.3
    same_city_prob: float = 0.45
    triadic_prob: float = 0.5
    followback_beta_a: float = 0.9
    followback_beta_b: float = 0.9
    celebrity_followback: float = 0.02
    #: Follow-back probability is damped by 1 / (1 + in_degree / this),
    #: so very popular users reciprocate rarely (paper Section 3.3.2).
    followback_popularity_scale: float = 25.0
    #: Sociality coupling: a target's follow-back probability is scaled by
    #: ``gain / (1 + out_wish / scale)``. Low-wish users (the vast
    #: majority under a power law) reciprocate nearly always, heavy
    #: followers rarely — which is what lets the *user-weighted* RR
    #: distribution sit high (Fig 4a) while the *edge-weighted* global
    #: reciprocity stays near 32% (Table 4).
    followback_wish_gain: float = 1.4
    followback_wish_scale: float = 8.0
    #: Initial attachment tokens per ordinary user (Laplace smoothing of
    #: preferential attachment; higher = flatter in-degree distribution).
    base_attachment_tokens: int = 1
    #: Global scale on celebrity attachment weights.
    celebrity_weight_scale: float = 4.0


@dataclass(frozen=True)
class ProfileGenConfig:
    """Knobs of profile/privacy generation (Tables 2-3, Figures 2 and 8)."""

    #: Probability scale for hidden-but-present fields: when a field is not
    #: public, it exists privately with this probability.
    hidden_field_prob: float = 0.5
    #: Of tel-users, the split across contact blocks (both / work / home),
    #: derived from Table 2 vs Section 3.2 counts.
    tel_both_fraction: float = 0.65
    tel_work_only_fraction: float = 0.19
    #: Probability that a user's places-lived list has 2 or 3 entries.
    multi_place_prob: float = 0.35
    #: Probability that a previous place lived is abroad.
    foreign_previous_place_prob: float = 0.10
    #: Fraction of users hiding their circle lists on the profile page.
    private_lists_prob: float = 0.02


@dataclass(frozen=True)
class WorldConfig:
    """Top-level configuration of a synthetic Google+ world."""

    n_users: int = 20_000
    seed: int = 7
    graph: GraphGenConfig = field(default_factory=GraphGenConfig)
    profiles: ProfileGenConfig = field(default_factory=ProfileGenConfig)
    #: Tel-user rate (Section 3.2: 72,736 / 27,556,390).
    tel_user_rate: float = 0.0026
    #: Users created during the invitation-only field trial (fraction).
    field_trial_fraction: float = 0.3
    #: Public circle-list display cap. The real service used 10,000; small
    #: worlds can lower it to exercise the Section 2.2 lost-edge machinery.
    circle_display_limit: int = 10_000
    #: Generation engine. ``"reference"`` is the sequential, bit-stable
    #: original (every golden test pins its output); ``"fast"`` is the
    #: vectorized engine (:mod:`repro.synth.fastgen`), which produces the
    #: same *calibrated* graph family — statistically equivalent, not
    #: bit-identical — at a fraction of the time and memory. See
    #: ``docs/synth.md`` for the equivalence contract.
    engine: str = "reference"
    #: A label, validated but read by nothing: every world is built on
    #: the one columnar service store (see ``docs/storage.md``).  It
    #: stays because saved campaign manifests and callers still carry
    #: ``"dict"`` or ``"columnar"``; both build the same world.
    store: str = "dict"

    def __post_init__(self) -> None:
        if self.n_users < 200:
            raise ValueError("worlds below 200 users cannot host the celebrity set")
        if self.engine not in ("reference", "fast"):
            raise ValueError(
                f"engine must be 'reference' or 'fast', got {self.engine!r}"
            )
        if self.store not in ("dict", "columnar"):
            raise ValueError(
                f"store must be 'dict' or 'columnar', got {self.store!r}"
            )
        if not 0.0 <= self.field_trial_fraction <= 1.0:
            raise ValueError("field_trial_fraction must be in [0, 1]")
        if not 0.0 <= self.tel_user_rate < 1.0:
            raise ValueError("tel_user_rate must be in [0, 1)")
