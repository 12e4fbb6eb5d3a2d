"""Shared machinery for the online controllers.

Every controller repeatedly solves a ``w``-slot window of the joint problem
(Eq. 26, via Algorithm 1 — Theorem 2 shows the integer window problem keeps
the continuous competitive ratio). :class:`OnlineSolveSettings` bundles the
inner-solver knobs, and :func:`solve_window` applies them with warm-started
multipliers, which is what keeps a 100-slot receding-horizon run fast: the
window shifts by one slot, so the previous window's multipliers (shifted by
one slot) are an excellent starting point, and the previous window's
caching trajectory, shifted the same way, seeds the solve as a feasible
incumbent. :func:`solve_windows` solves independent windows — the FHC
chains of :mod:`repro.core.online.fhc` — as one lockstep Algorithm 1 stack.

When the scenario carries a fault schedule (:mod:`repro.faults`), windows
are planned against the *effective* network observed at the decision slot —
the persistence assumption: the currently-observed degradation is assumed
to last through the window. The installed caches handed to the window
problem are already evicted-to-fit by the physical system (the chain
tracks them with :func:`repro.faults.realize_slot`), and the seed is
evicted-to-fit the effective capacities before it is offered.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.core.caching_lp import CachingBackend
from repro.core.primal_dual import (
    PrimalDualResult,
    WindowProblem,
    solve_primal_dual,
    solve_primal_dual_stack,
)
from repro.faults.degrade import (
    degraded_network,
    evict_trajectory_to_fit,
    sbs_item_values,
)
from repro.obs.recorder import inc, slot_scope
from repro.perf.solvecache import SolveCache
from repro.scenario import Scenario
from repro.types import FloatArray


@dataclass(frozen=True)
class OnlineSolveSettings:
    """Inner-solver configuration for per-window Algorithm 1 runs.

    Parameters
    ----------
    max_iter:
        Subgradient iteration cap per window (smaller than the offline
        default — windows are small and warm-started).
    gap_tol:
        Relative duality-gap target per window.
    caching_backend:
        ``P1`` backend for window solves.
    ub_patience:
        Stop a window solve early once the best feasible candidate has not
        improved for this many iterations — the committed trajectory is
        the feasible candidate, so chasing the dual certificate further
        buys nothing online.
    max_seconds:
        Anytime wall-time cap per window solve; the committed trajectory is
        then the best feasible one found so far. ``None`` (default) means
        uncapped. Keeps a degraded or surge-stressed slot from stalling
        the rest of the horizon.
    """

    max_iter: int = 40
    gap_tol: float = 1e-3
    caching_backend: CachingBackend = "auto"
    ub_patience: int | None = 8
    max_seconds: float | None = None


@dataclass(frozen=True)
class WindowRequest:
    """One window a controller wants solved (see :func:`solve_window`)."""

    decided_at: int
    window_start: int
    window: int
    x_prev: FloatArray
    mu_warm: FloatArray | None = None
    x_warm: FloatArray | None = None


def solve_window(
    scenario: Scenario,
    decided_at: int,
    window_start: int,
    window: int,
    x_prev: FloatArray,
    settings: OnlineSolveSettings,
    mu_warm: FloatArray | None,
    x_warm: FloatArray | None = None,
    solve_cache: SolveCache | None = None,
) -> PrimalDualResult:
    """Solve one prediction window with Algorithm 1.

    ``decided_at`` is the slot at which the forecast is issued (it differs
    from ``window_start`` only for the negatively-anchored first solves of
    FHC variants). Slots before 0 or past the trace see zero demand, per
    the paper's convention.

    ``x_warm`` — a previous window's caching trajectory, shifted to this
    window's slots — seeds Algorithm 1 as a feasible incumbent and a
    pre-warmed repair-cache entry. Under an active fault schedule the
    window problem is built on the degraded network observed at
    ``decided_at`` and the seed is first evicted-to-fit the effective
    capacities (warm restart from the last feasible point).
    ``solve_cache`` carries the ``P1`` memo across the caller's whole
    window sequence (a private one when omitted).

    This is the stack of one: the same Algorithm 1 loop
    :func:`solve_windows` runs for many windows.
    """
    spec = _window_problem(
        scenario,
        WindowRequest(decided_at, window_start, window, x_prev, mu_warm, x_warm),
    )
    # Stamp the deciding slot onto every event the inner solver emits
    # (solve_done, budget_exhausted), so traces tie each solve to its slot.
    with slot_scope(spec.slot):
        return solve_primal_dual(
            spec.problem,
            mu0=spec.mu0,
            initial_candidates=spec.initial_candidates,
            solve_cache=solve_cache,
            **_solver_kwargs(settings),
        )


def solve_windows(
    scenario: Scenario,
    requests: Sequence[WindowRequest],
    settings: OnlineSolveSettings,
    solve_cache: SolveCache | None = None,
) -> list[PrimalDualResult]:
    """Solve independent windows as one lockstep Algorithm 1 stack.

    Each request is prepared exactly as :func:`solve_window` prepares its
    window, then all of them run through
    :func:`repro.core.primal_dual.solve_primal_dual_stack`; results come
    back in request order, each bit-identical to :func:`solve_window` on
    that request. The requests must share the window length.
    ``settings.max_seconds`` counts from the start of the stacked solve.
    """
    return solve_primal_dual_stack(
        [_window_problem(scenario, r) for r in requests],
        solve_cache=solve_cache,
        **_solver_kwargs(settings),
    )


def _solver_kwargs(settings: OnlineSolveSettings) -> dict:
    return dict(
        max_iter=settings.max_iter,
        gap_tol=settings.gap_tol,
        caching_backend=settings.caching_backend,
        ub_patience=settings.ub_patience,
        max_seconds=settings.max_seconds,
    )


def _window_problem(scenario: Scenario, request: WindowRequest) -> WindowProblem:
    """Build one request's window problem, warm start and seed."""
    decided_at, window = request.decided_at, request.window
    x_warm = request.x_warm
    predicted = scenario.predictor.predict_window(
        max(decided_at, 0), request.window_start, window
    )
    faults = scenario.faults
    network = None
    candidates: tuple[FloatArray, ...] | None = None
    if faults is not None and not faults.is_empty:
        state = faults.state_at(max(decided_at, 0), scenario.network)
        network = degraded_network(scenario.network, state)
        if x_warm is not None and x_warm.shape[0] == window:
            caps_t = np.broadcast_to(
                state.cache_sizes, (window, scenario.network.num_sbs)
            )
            values_t = np.stack(
                [sbs_item_values(scenario.network, predicted[t]) for t in range(window)]
            )
            candidates = (evict_trajectory_to_fit(x_warm, caps_t, values_t),)
    elif x_warm is not None and x_warm.shape[0] == window:
        candidates = (x_warm,)
    problem = scenario.window_problem(predicted, request.x_prev, network=network)
    mu0 = None
    mu_warm = request.mu_warm
    if mu_warm is not None and mu_warm.shape == (window, *predicted.shape[1:]):
        mu0 = mu_warm
    inc("window_solves")
    if mu0 is not None:
        inc("window_solves_warm_started")
    if candidates is not None:
        inc("window_solves_candidate_seeded")
    # The deciding slot stamps this window's solve_done/budget_exhausted
    # events, so traces tie each solve to its slot.
    return WindowProblem(
        problem,
        mu0=mu0,
        initial_candidates=candidates,
        slot=max(request.window_start, 0),
    )


def record_cache_stats(cache: SolveCache, controller: str) -> None:
    """Report a plan's :class:`SolveCache` counters, labeled per controller.

    The unlabeled ``p1_memo_*`` counters accumulate
    per-call inside ``solve_caching``; these labeled totals additionally
    attribute the reuse to the controller whose plan owned the cache (the
    benchmark report reads them per policy).
    """
    labels = {"controller": controller}
    if cache.hits:
        inc("p1_memo_hits", cache.hits, labels=labels)
    if cache.misses:
        inc("p1_memo_misses", cache.misses, labels=labels)


def shift_mu(mu: FloatArray, shift: int) -> FloatArray:
    """Shift multipliers ``shift`` slots earlier, padding the tail.

    Used to warm-start the next window: slot ``t`` of the new window
    corresponds to slot ``t + shift`` of the previous one; the final
    ``shift`` slots reuse the last available multiplier as a prior. Works
    on any per-slot trajectory — the FHC chain also applies it to the
    caching trajectory that seeds its next window.
    """
    if shift <= 0:
        return mu.copy()
    T = mu.shape[0]
    out = np.empty_like(mu)
    if shift >= T:
        out[:] = mu[-1]
        return out
    out[: T - shift] = mu[shift:]
    out[T - shift :] = mu[-1]
    return out
