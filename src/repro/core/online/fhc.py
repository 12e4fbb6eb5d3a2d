"""Fixed Horizon Control — the building block of CHC and AFHC.

FHC variant ``v`` (one of ``r`` phase-shifted copies) re-plans at the times
``Psi_v = {tau : tau = v (mod r)}`` (Section IV-B): at each solve time it
optimizes the ``w``-slot window on predicted demand from *its own* cache
state and commits the first ``r`` actions. Variants are independent
trajectories, so :func:`run_fhc_variants` advances several of them in
lockstep: step ``j`` solves every variant's ``j``-th window as one stacked
Algorithm 1 (:func:`repro.core.online.base.solve_windows`), and each
variant's trajectory is bit-identical to running it alone. CHC averages
the variants.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.horizon import committed_slots, fhc_solve_times
from repro.core.online.base import (
    OnlineSolveSettings,
    WindowRequest,
    shift_mu,
    solve_windows,
)
from repro.core.primal_dual import PrimalDualResult
from repro.exceptions import ConfigurationError
from repro.faults.degrade import realize_slot, scenario_states
from repro.faults.schedule import FaultStates
from repro.obs.recorder import inc
from repro.perf.solvecache import SolveCache
from repro.scenario import Scenario
from repro.types import FloatArray


@dataclass(frozen=True)
class FixedHorizonTrajectory:
    """One FHC variant's full trajectory over the horizon.

    Attributes
    ----------
    x, y:
        The variant's committed actions, shapes ``(T, N, K)`` / ``(T, M, K)``.
    solves:
        Number of window optimizations performed.
    """

    x: FloatArray
    y: FloatArray
    solves: int


class _Chain:
    """One FHC variant's state between its window solves."""

    def __init__(self, scenario: Scenario, variant: int, commitment: int) -> None:
        T = scenario.horizon
        net = scenario.network
        self.variant = variant
        self.times = fhc_solve_times(variant, commitment, T)
        self.x = np.zeros((T, net.num_sbs, net.num_items))
        self.y = np.zeros((T, net.num_classes, net.num_items))
        self.x_prev = scenario.x_initial
        self.mu_warm: FloatArray | None = None
        self.x_warm: FloatArray | None = None
        self.solves = 0

    def request(self, step: int, window: int) -> WindowRequest:
        tau = self.times[step]
        return WindowRequest(tau, tau, window, self.x_prev, self.mu_warm, self.x_warm)

    def commit(
        self,
        step: int,
        result: PrimalDualResult,
        scenario: Scenario,
        commitment: int,
        states: FaultStates | None,
        incremental: bool,
    ) -> None:
        tau = self.times[step]
        T = scenario.horizon
        self.solves += 1
        slots = committed_slots(tau, commitment, T)
        inc(
            "controller_commits",
            len(slots),
            labels={"controller": "FHC", "variant": self.variant},
        )
        for t in slots:
            self.x[t] = result.x[t - tau]
            self.y[t] = result.y[t - tau]
        if states is not None:
            # Roll the committed block through the physical repairs so the
            # next solve starts from the caches actually installed.
            for t in slots:
                self.x_prev = realize_slot(
                    self.x[t],
                    self.x_prev,
                    states.slot(t),
                    scenario.demand.rates[t],
                    scenario.network,
                )
            self.x_warm = shift_mu(result.x, commitment)
        else:
            if len(slots):
                self.x_prev = self.x[slots[-1]]
            # Cross-window reuse: this window's trajectory, shifted past
            # the committed block, seeds the variant's next solve.
            if incremental:
                self.x_warm = shift_mu(result.x, commitment)
        self.mu_warm = shift_mu(result.mu, commitment)


def run_fhc_variants(
    scenario: Scenario,
    *,
    variants: Sequence[int],
    window: int,
    commitment: int,
    settings: OnlineSolveSettings,
    solve_cache: SolveCache | None = None,
) -> list[FixedHorizonTrajectory]:
    """Run FHC ``variants`` with window ``w`` and commitment ``r`` in lockstep.

    Step ``j`` stacks the ``j``-th window of every variant that has one —
    the negatively anchored first windows and the ragged tails included —
    into one :func:`repro.core.online.base.solve_windows` call; then each
    variant commits its own block and carries its own cache state, warm
    multipliers and seed into step ``j + 1``. One ``solve_cache`` serves
    the whole stack (when omitted, one is created if the incremental
    layer is enabled). Returns the trajectories in ``variants`` order.
    """
    if not 1 <= commitment <= window:
        raise ConfigurationError(
            f"commitment must be in [1, window={window}], got {commitment}"
        )
    chains = [_Chain(scenario, v, commitment) for v in variants]
    faulted = scenario.faults is not None and not scenario.faults.is_empty
    states = scenario_states(scenario) if faulted else None
    incremental = settings.resolved_incremental()
    if solve_cache is None:
        solve_cache = settings.make_solve_cache()
    for step in range(max((len(c.times) for c in chains), default=0)):
        stepping = [c for c in chains if step < len(c.times)]
        results = solve_windows(
            scenario,
            [c.request(step, window) for c in stepping],
            settings,
            solve_cache=solve_cache,
        )
        for chain, result in zip(stepping, results):
            chain.commit(step, result, scenario, commitment, states, incremental)
    return [FixedHorizonTrajectory(x=c.x, y=c.y, solves=c.solves) for c in chains]


def run_fhc_variant(
    scenario: Scenario,
    *,
    variant: int,
    window: int,
    commitment: int,
    settings: OnlineSolveSettings,
    solve_cache: SolveCache | None = None,
) -> FixedHorizonTrajectory:
    """Run FHC variant ``v`` alone: :func:`run_fhc_variants` with one variant.

    ``solve_cache`` shares incremental re-solve state with the caller;
    when omitted, a per-variant cache is created if the incremental layer
    is enabled.
    """
    (trajectory,) = run_fhc_variants(
        scenario,
        variants=[variant],
        window=window,
        commitment=commitment,
        settings=settings,
        solve_cache=solve_cache,
    )
    return trajectory
