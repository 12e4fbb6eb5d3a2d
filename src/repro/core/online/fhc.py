"""Fixed Horizon Control — the receding-horizon step of RHC, CHC and AFHC.

FHC variant ``v`` (one of ``r`` phase-shifted copies) re-plans at the times
``Psi_v = {tau : tau = v (mod r)}`` (Section IV-B): at each solve time it
optimizes the ``w``-slot window on predicted demand from *its own* cache
state and commits the first ``r`` actions (:class:`FhcChain`). With
``r = 1`` the one variant re-plans every slot: that is RHC. Variants are
independent trajectories, so :func:`run_fhc_variants` advances several of
them in lockstep: step ``j`` solves every variant's ``j``-th window as one
stacked Algorithm 1 (:func:`repro.core.online.base.solve_windows`), and
each variant's trajectory is bit-identical to running it alone. CHC
averages the variants.
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


class FhcChain:
    """One FHC variant's receding-horizon state between its window solves.

    This is the package's one receding-horizon step. :meth:`request` asks
    for the ``w``-slot window at the chain's next solve time; :meth:`commit`
    takes that window's solution, commits its first ``r`` actions, and
    carries into the next window the caches actually installed (rolled
    through :func:`repro.faults.degrade.realize_slot` under faults), the
    multipliers and the caching trajectory shifted past the committed
    block (warm start and seed, DESIGN.md §4). The chain with ``r = 1`` is
    RHC (Algorithm 2) and counts its commits as RHC's; CHC/AFHC step ``r``
    chains in lockstep, and the serve runtime drives one ``r = 1`` chain a
    slot at a time.
    """

    def __init__(
        self, scenario: Scenario, variant: int, window: int, commitment: int
    ) -> None:
        T = scenario.horizon
        net = scenario.network
        self.scenario = scenario
        self.window = window
        self.commitment = commitment
        self.times = fhc_solve_times(variant, commitment, T)
        self.labels = (
            {"controller": "RHC"}
            if commitment == 1
            else {"controller": "FHC", "variant": variant}
        )
        faulted = scenario.faults is not None and not scenario.faults.is_empty
        self.states = scenario_states(scenario) if faulted else None
        self.x = np.zeros((T, net.num_sbs, net.num_items))
        self.y = np.zeros((T, net.num_classes, net.num_items))
        self.x_prev = scenario.x_initial
        self.mu_warm: FloatArray | None = None
        self.x_warm: FloatArray | None = None
        self.solves = 0

    def request(self, step: int) -> WindowRequest:
        """The window of the chain's ``step``-th solve."""
        tau = self.times[step]
        return WindowRequest(
            tau, tau, self.window, self.x_prev, self.mu_warm, self.x_warm
        )

    def commit(self, step: int, result: PrimalDualResult) -> None:
        """Commit the ``step``-th window's first ``r`` actions."""
        tau = self.times[step]
        scenario = self.scenario
        slots = committed_slots(tau, self.commitment, scenario.horizon)
        self.solves += 1
        inc("controller_commits", len(slots), labels=self.labels)
        for t in slots:
            self.x[t] = result.x[t - tau]
            self.y[t] = result.y[t - tau]
            if self.states is not None:
                # Track the caches actually installed (outage freeze and
                # evict-to-fit), so the next window starts from reality.
                self.x_prev = realize_slot(
                    self.x[t],
                    self.x_prev,
                    self.states.slot(t),
                    scenario.demand.rates[t],
                    scenario.network,
                )
            else:
                self.x_prev = self.x[t]
        self.x_warm = shift_mu(result.x, self.commitment)
        self.mu_warm = shift_mu(result.mu, self.commitment)


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
    variant's :class:`FhcChain` commits its own block and carries its own
    cache state, warm multipliers and seed into step ``j + 1``. One
    ``solve_cache`` serves the whole stack (a private one when omitted).
    Returns the trajectories in ``variants`` order.
    """
    if not 1 <= commitment <= window:
        raise ConfigurationError(
            f"commitment must be in [1, window={window}], got {commitment}"
        )
    chains = [FhcChain(scenario, v, window, commitment) for v in variants]
    if solve_cache is None:
        solve_cache = SolveCache()
    for step in range(max((len(c.times) for c in chains), default=0)):
        stepping = [c for c in chains if step < len(c.times)]
        results = solve_windows(
            scenario,
            [c.request(step) for c in stepping],
            settings,
            solve_cache=solve_cache,
        )
        for chain, result in zip(stepping, results):
            chain.commit(step, result)
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

    ``solve_cache`` shares the ``P1`` memo with the caller; when omitted,
    the variant gets a private one.
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
