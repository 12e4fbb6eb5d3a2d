"""Online controllers of Section IV: RHC, FHC variants, AFHC, and CHC."""

from repro.core.online.base import OnlineSolveSettings
from repro.core.online.chc import AFHC, CHC
from repro.core.online.fhc import (
    FixedHorizonTrajectory,
    run_fhc_variant,
    run_fhc_variants,
)
from repro.core.online.rhc import RHC

__all__ = [
    "AFHC",
    "CHC",
    "FixedHorizonTrajectory",
    "OnlineSolveSettings",
    "RHC",
    "run_fhc_variant",
    "run_fhc_variants",
]
