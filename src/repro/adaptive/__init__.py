"""Adaptive delivery plane: online per-client QoS control.

Closes the paper's cost-model/DP mapping loop in the live serving path:
:class:`ClientLinkEstimator` passively measures each connection's
effective path bandwidth from write-backlog drains, and
:class:`AdaptiveDeliveryController` re-runs the DP mapper with those
live estimates to pick a delivery tier from the fixed
:data:`TIER_LADDER`.
"""

from repro.adaptive.controller import AdaptiveDeliveryController, next_rung
from repro.adaptive.estimator import ClientLinkEstimator
from repro.adaptive.tiers import MAX_TIER, TIER_LADDER, DeliveryTier, clamp_tier

__all__ = [
    "AdaptiveDeliveryController",
    "ClientLinkEstimator",
    "DeliveryTier",
    "TIER_LADDER",
    "MAX_TIER",
    "clamp_tier",
    "next_rung",
]
