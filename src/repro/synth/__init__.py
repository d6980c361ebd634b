"""Synthetic Google+ world: countries, cities, demographics, graph, assembly."""

from .activity import (
    ActivityConfig,
    ActivityLog,
    Cascade,
    simulate_activity,
)
from .baselines import (
    BASELINE_GENERATORS,
    BaselineConfig,
    generate_facebook_like,
    generate_orkut_like,
    generate_twitter_like,
)
from .celebrities import (
    attachment_weight,
    CelebritySpec,
    GLOBAL_CELEBRITIES,
    national_celebrities,
)
from .cities import build_gazetteer, City, CitySampler
from .config import GraphGenConfig, ProfileGenConfig, WorldConfig
from .countries import (
    build_country_table,
    Country,
    MAJOR_COUNTRIES,
    MINOR_COUNTRIES,
    TOP10_CODES,
)
from .demographics import (
    DemographicsSampler,
    FIELD_SHARE_PROBABILITY,
    GENDER_DISTRIBUTION,
    RELATIONSHIP_DISTRIBUTION,
    TEL_USER_RATE,
    tel_user_weights,
)
from .fastgen import generate_graph_fast, IncrementalPools
from .fastprofiles import build_profile_columns_fast
from .graphgen import GeneratedGraph, generate_graph
from .growth import (
    assign_edge_days,
    assign_join_days,
    build_timeline,
    CRAWL_DAY,
    GrowthConfig,
    GrowthTimeline,
    OPEN_SIGNUP_DAY,
)
from .occupations import (
    CELEBRITY_OCCUPATIONS,
    jaccard_index,
    OccupationSampler,
    ORDINARY_OCCUPATIONS,
)
from .profiles import build_profiles, generate_population, Population
from .world import build_world, SyntheticWorld

__all__ = [
    "ActivityConfig",
    "ActivityLog",
    "attachment_weight",
    "BASELINE_GENERATORS",
    "BaselineConfig",
    "generate_facebook_like",
    "generate_orkut_like",
    "generate_twitter_like",
    "Cascade",
    "simulate_activity",
    "build_country_table",
    "build_gazetteer",
    "build_profiles",
    "build_profile_columns_fast",
    "build_world",
    "CELEBRITY_OCCUPATIONS",
    "CelebritySpec",
    "City",
    "CitySampler",
    "Country",
    "DemographicsSampler",
    "FIELD_SHARE_PROBABILITY",
    "GENDER_DISTRIBUTION",
    "assign_edge_days",
    "assign_join_days",
    "build_timeline",
    "CRAWL_DAY",
    "GeneratedGraph",
    "generate_graph",
    "generate_graph_fast",
    "IncrementalPools",
    "GrowthConfig",
    "GrowthTimeline",
    "OPEN_SIGNUP_DAY",
    "generate_population",
    "GLOBAL_CELEBRITIES",
    "GraphGenConfig",
    "jaccard_index",
    "MAJOR_COUNTRIES",
    "MINOR_COUNTRIES",
    "national_celebrities",
    "OccupationSampler",
    "ORDINARY_OCCUPATIONS",
    "Population",
    "ProfileGenConfig",
    "RELATIONSHIP_DISTRIBUTION",
    "SyntheticWorld",
    "tel_user_weights",
    "TEL_USER_RATE",
    "TOP10_CODES",
    "WorldConfig",
]
