"""Achievable per-user rates for symmetric linear two-hop relay networks.

Computes and cross-verifies the rates of four transmission schemes over a
cascade of two symmetric interference channels: single-rate decode-and-
forward, rate splitting with successive cancellation in both hops, relay
cooperation on common messages, and multi-cell processing.
"""

from .model import HopSplit, NetworkParams, RatePair, capacity, db_to_linear
from .regions import (
    Halfspace,
    RateRegion,
    hop1_region,
    hop2_coop_region,
    hop2_mcp_region,
    hop2_rs_region,
)
from .polytope import LPSolution, contains, max_sum_rate, vertices
from .schemes import (
    SchemeResult,
    coop,
    first_hop_upper_bound,
    mcp,
    rate_splitting,
    single_rate,
    vsi_check,
    vsi_threshold,
)

__version__ = "0.1.0"

__all__ = [
    "Halfspace",
    "HopSplit",
    "LPSolution",
    "NetworkParams",
    "RatePair",
    "RateRegion",
    "SchemeResult",
    "capacity",
    "contains",
    "coop",
    "db_to_linear",
    "first_hop_upper_bound",
    "hop1_region",
    "hop2_coop_region",
    "hop2_mcp_region",
    "hop2_rs_region",
    "max_sum_rate",
    "mcp",
    "rate_splitting",
    "single_rate",
    "vertices",
    "vsi_check",
    "vsi_threshold",
]
