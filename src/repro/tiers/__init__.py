"""Tiered fast→exact detection (sensitivity-sampled certification)."""

from .fastpass import (
    DEFAULT_TIER,
    TIER_CHOICES,
    SensitivitySample,
    TierCertification,
    build_sensitivity_sample,
    certified_mask,
    estimated_mean_neighbors,
    pick_tier,
    resolve_tier,
    run_certification,
    support_halo,
)

__all__ = [
    "DEFAULT_TIER",
    "TIER_CHOICES",
    "SensitivitySample",
    "TierCertification",
    "build_sensitivity_sample",
    "certified_mask",
    "estimated_mean_neighbors",
    "pick_tier",
    "resolve_tier",
    "run_certification",
    "support_halo",
]
