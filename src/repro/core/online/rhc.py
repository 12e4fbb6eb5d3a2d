"""Receding Horizon Control (Algorithm 2).

At each slot ``tau`` RHC solves the window ``[tau, tau + w)`` on predicted
demand, starting from the caches actually installed at ``tau - 1``, and
commits only the first slot's actions (Eqs. 32-33). That is the FHC chain
with commitment ``r = 1`` (:class:`repro.core.online.fhc.FhcChain`), so RHC
runs that chain and nothing else. Because the window problem is solved by
Algorithm 1, the committed caches are integral without rounding, and
Theorem 2 carries over the continuous competitive ratio ``1 + O(1/w)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.online.base import OnlineSolveSettings, record_cache_stats
from repro.core.online.fhc import run_fhc_variants
from repro.exceptions import ConfigurationError
from repro.obs.recorder import label_scope
from repro.perf.solvecache import SolveCache
from repro.scenario import PolicyPlan, Scenario


@dataclass(frozen=True)
class RHC:
    """Receding Horizon Control with prediction window ``w``.

    Parameters
    ----------
    window:
        Prediction window size ``w`` (the paper's default is 10).
    settings:
        Inner-solver configuration for the per-window Algorithm 1 runs.
    """

    window: int = 10
    settings: OnlineSolveSettings = field(default_factory=OnlineSolveSettings)

    def __post_init__(self) -> None:
        if self.window <= 0:
            raise ConfigurationError(f"window must be positive, got {self.window}")

    @property
    def name(self) -> str:
        return f"RHC(w={self.window})"

    def plan(self, scenario: Scenario) -> PolicyPlan:
        with label_scope(controller=self.name):
            return self._plan(scenario)

    def _plan(self, scenario: Scenario) -> PolicyPlan:
        cache = SolveCache()
        (trajectory,) = run_fhc_variants(
            scenario,
            variants=[0],
            window=self.window,
            commitment=1,
            settings=self.settings,
            solve_cache=cache,
        )
        record_cache_stats(cache, self.name)
        return PolicyPlan(x=trajectory.x, y=trajectory.y, solves=trajectory.solves)
