"""Graceful degradation: make plans feasible under a fault schedule.

The planning layers (offline Algorithm 1, RHC/CHC/AFHC windows, the
baselines) all decide against *some* model of the network; a fault schedule
makes the realized network differ from that model mid-horizon. The repairs
here close that gap deterministically instead of raising:

- :func:`evict_to_fit` — when ``C_n`` shrinks below the installed set,
  evict the least valuable contents (lowest current demand volume at that
  SBS, ties broken by item index) until the cache fits;
- :func:`realize_caching` — roll a planned caching trajectory forward under
  the per-slot effective state: a down SBS cannot fetch (its cache freezes)
  and every slot's cache is evicted-to-fit its effective capacity;
- :func:`degraded_network` — the network a controller should plan against
  at a decision slot (persistence assumption: the currently observed
  degradation lasts through the window);
- :class:`StalePredictor` — during a predictor blackout, re-issue the
  forecast from the last decision slot that had one;
- :func:`inject_faults` — bind a schedule to a scenario (surging the true
  demand, wrapping the predictor) so every downstream consumer sees it;
- :func:`assert_feasible_under_faults` — the zero-violation audit the
  resilience benchmark and tests run on every realized trajectory.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from repro.exceptions import ConfigurationError
from repro.faults.schedule import FaultSchedule, FaultStates, SlotState
from repro.network.topology import Network
from repro.obs.recorder import emit, inc
from repro.scenario import Scenario
from repro.types import FloatArray
from repro.workload.demand import DemandMatrix
from repro.workload.predictor import DemandPredictor


def sbs_item_values(network: Network, rates_slot: FloatArray) -> FloatArray:
    """Per-(SBS, item) demand volume of one slot, shape ``(N, K)``.

    The eviction value of a cached item: how much demand its SBS's classes
    direct at it right now.
    """
    values = np.zeros((network.num_sbs, network.num_items))
    np.add.at(values, network.class_sbs, rates_slot)
    return values


def evict_to_fit(
    x_slot: FloatArray, caps: np.ndarray, values: FloatArray
) -> FloatArray:
    """Evict lowest-value contents until every SBS row fits its capacity.

    Deterministic: rows already within capacity are returned bit-identical;
    oversized rows keep their ``cap`` highest-``values`` cached items, ties
    broken by ascending item index.
    """
    x = np.where(np.asarray(x_slot, dtype=np.float64) > 0.5, 1.0, 0.0)
    caps = np.asarray(caps)
    used = x.sum(axis=1)
    for n in np.nonzero(used > caps)[0]:
        cap = int(caps[n])
        cached = np.nonzero(x[n] > 0.5)[0]
        if cap <= 0:
            inc("fault_evictions", len(cached), labels={"sbs": int(n)})
            x[n, cached] = 0.0
            continue
        # Sort cached items by descending value, ascending index on ties.
        order = cached[np.lexsort((cached, -values[n, cached]))]
        inc("fault_evictions", len(order[cap:]), labels={"sbs": int(n)})
        x[n, order[cap:]] = 0.0
    return x


def evict_trajectory_to_fit(
    x: FloatArray, caps_t: np.ndarray, values_t: FloatArray
) -> FloatArray:
    """Apply :func:`evict_to_fit` slot by slot over a ``(T, N, K)`` trajectory."""
    out = np.empty_like(x, dtype=np.float64)
    for t in range(x.shape[0]):
        out[t] = evict_to_fit(x[t], caps_t[t], values_t[t])
    return out


def realize_caching(
    plan_x: FloatArray,
    x_initial: FloatArray,
    states: FaultStates,
    rates: FloatArray,
    network: Network,
) -> FloatArray:
    """Roll a planned caching trajectory forward under the effective state.

    Per slot: a down SBS keeps its previous cache (no fetches while
    unreachable), every SBS is evicted-to-fit its effective capacity, and
    the result becomes the next slot's baseline — so a fault-time eviction
    is followed by a genuine (cost-bearing) re-fetch after recovery if the
    plan still wants the item.
    """
    T = plan_x.shape[0]
    x_real = np.empty_like(plan_x, dtype=np.float64)
    prev = np.where(np.asarray(x_initial, dtype=np.float64) > 0.5, 1.0, 0.0)
    for t in range(T):
        desired = np.where(plan_x[t] > 0.5, 1.0, 0.0)
        down = ~states.sbs_up[t]
        if down.any():
            inc("fault_frozen_slots", int(down.sum()))
            desired[down] = prev[down]
        x_real[t] = evict_to_fit(
            desired, states.cache_sizes[t], sbs_item_values(network, rates[t])
        )
        prev = x_real[t]
    return x_real


def realize_slot(
    desired: FloatArray,
    prev: FloatArray,
    state: SlotState,
    rates_slot: FloatArray,
    network: Network,
) -> FloatArray:
    """One step of :func:`realize_caching` (same rule, single slot).

    Controllers use this to track the caches *actually installed* after
    each committed slot — observing their own physical cache state — so
    their ``x_prev`` matches what the engine's realization will produce.
    """
    x = np.where(np.asarray(desired, dtype=np.float64) > 0.5, 1.0, 0.0)
    down = ~np.asarray(state.sbs_up)
    if down.any():
        x[down] = np.where(np.asarray(prev, dtype=np.float64)[down] > 0.5, 1.0, 0.0)
    return evict_to_fit(x, state.cache_sizes, sbs_item_values(network, rates_slot))


def degraded_network(network: Network, state: SlotState) -> Network:
    """The network a controller should plan against at one decision slot.

    Applies the slot's effective bandwidths (0 for a down SBS) and cache
    capacities — the persistence assumption: whatever degradation is
    observed now is planned to last through the prediction window.
    """
    return network.with_bandwidths(
        [float(b) for b in state.bandwidths]
    ).with_cache_sizes([int(c) for c in state.cache_sizes])


@dataclass(frozen=True)
class StalePredictor:
    """Blackout-aware wrapper: re-issue the last available forecast.

    During a blackout slot, forecasts are the ones the inner predictor
    issued at the most recent non-blackout decision slot (possibly ``-1``,
    i.e. "before the trace began" — the paper's controllers accept negative
    decision anchors already). Outside blackouts it is transparent.
    """

    inner: DemandPredictor
    schedule: FaultSchedule
    horizon: int

    def predict_window(self, decided_at: int, start: int, length: int) -> FloatArray:
        mask = self.schedule.blackout_mask(self.horizon)
        t = min(max(decided_at, 0), self.horizon - 1) if self.horizon else 0
        if self.horizon == 0 or not mask[t]:
            return self.inner.predict_window(decided_at, start, length)
        clear = t - 1
        while clear >= 0 and mask[clear]:
            clear -= 1
        return self.inner.predict_window(clear, start, length)


def inject_faults(scenario: Scenario, schedule: FaultSchedule) -> Scenario:
    """Bind ``schedule`` to ``scenario``; the one entry point for faults.

    Returns a new scenario whose true demand carries the surges, whose
    predictor is blackout-aware but *surge-blind* (it keeps forecasting the
    pre-surge trace — surges are unknown arrivals), and whose ``faults``
    field the engine and controllers consult for per-slot network state.
    """
    if scenario.faults is not None:
        raise ConfigurationError(
            "scenario already carries a fault schedule; compose events into "
            "one FaultSchedule instead of injecting twice"
        )
    schedule.validate(scenario.network)
    if schedule.is_empty:
        return replace(scenario, faults=schedule)
    emit("fault_injected", events=len(schedule.events))

    demand = scenario.demand
    factors = schedule.demand_factors(demand.horizon, demand.num_classes)
    if not np.all(factors == 1.0):
        demand = DemandMatrix(demand.rates * factors[:, :, None])

    predictor = scenario.predictor
    if schedule.blackout_mask(scenario.horizon).any():
        predictor = StalePredictor(predictor, schedule, scenario.horizon)

    return replace(scenario, demand=demand, predictor=predictor, faults=schedule)


def scenario_states(scenario: Scenario) -> FaultStates:
    """The scenario's per-slot effective state (nominal when fault-free)."""
    schedule = scenario.faults if scenario.faults is not None else FaultSchedule()
    return schedule.states(scenario.horizon, scenario.network)


def assert_feasible_under_faults(
    scenario: Scenario,
    x: FloatArray,
    y: FloatArray,
    *,
    atol: float = 1e-6,
) -> dict[str, float]:
    """Audit a realized trajectory against the *effective* constraints.

    Checks, per slot: integrality and the unit box; effective cache
    capacity; the coupling ``y <= x``; the effective bandwidth budget; and
    that down SBSs serve nothing. Raises :class:`ConfigurationError` on the
    first violation; returns the measured worst-case slacks (all ``<= 0``
    up to ``atol``) for machine-readable benchmark records.
    """
    net = scenario.network
    states = scenario_states(scenario)
    rates = scenario.demand.rates
    T = scenario.horizon

    if x.shape != (T, net.num_sbs, net.num_items):
        raise ConfigurationError(f"x has shape {x.shape}")
    if y.shape != (T, net.num_classes, net.num_items):
        raise ConfigurationError(f"y has shape {y.shape}")
    if np.any((x < -atol) | (x > 1 + atol)) or np.any(np.abs(x - np.round(x)) > atol):
        raise ConfigurationError("realized x is not a 0/1 trajectory")
    if np.any((y < -atol) | (y > 1 + atol)):
        raise ConfigurationError("realized y outside [0, 1]")

    used = x.sum(axis=2)  # (T, N)
    cache_slack = float((used - states.cache_sizes).max())
    if cache_slack > atol:
        raise ConfigurationError(
            f"effective cache capacity exceeded by {cache_slack:.3g}"
        )

    coupling_slack = float((y - x[:, net.class_sbs, :]).max())
    if coupling_slack > atol:
        raise ConfigurationError(
            f"coupling y <= x violated by {coupling_slack:.3g}"
        )

    load = (rates * y).sum(axis=2)  # (T, M)
    per_sbs = net.sum_classes_per_sbs(load)
    tol = atol * np.maximum(1.0, states.bandwidths)
    bandwidth_slack = float((per_sbs - states.bandwidths).max())
    if np.any(per_sbs > states.bandwidths + tol):
        raise ConfigurationError(
            f"effective bandwidth exceeded by {bandwidth_slack:.3g}"
        )

    down_service = float(np.where(~states.sbs_up, per_sbs, 0.0).max())
    if down_service > atol:
        raise ConfigurationError(
            f"a down SBS served {down_service:.3g} units of traffic"
        )

    return {
        "max_cache_violation": max(cache_slack, 0.0),
        "max_bandwidth_violation": max(bandwidth_slack, 0.0),
        "max_coupling_violation": max(coupling_slack, 0.0),
        "max_down_sbs_service": max(down_service, 0.0),
    }
