"""Cost model of Section II-B: operating costs and cache replacement cost.

The per-slot system cost has three components (paper Eqs. 5, 6, 8):

- BS operating cost ``f_t(Y) = sum_n ( sum_{m in n} omega_m *
  sum_k (1 - y[m,k]) * lam[m,k] )**2`` — quadratic in each SBS's aggregate
  *weighted residual* load that falls back to the BS.
- SBS operating cost ``g_t(Y) = sum_n ( sum_{m in n} omega-hat_m *
  sum_k y[m,k] * lam[m,k] )**2``.
- Replacement cost ``h(X_t, X_{t-1}) = sum_n beta_n *
  sum_k (x[n,k,t] - x[n,k,t-1])^+``.

The quadratic shape is the paper's representative choice; any non-decreasing
convex function of the per-SBS aggregate is admissible, so the shape is
pluggable through :class:`OperatingCost`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.network.topology import Network
from repro.types import FloatArray


class OperatingCost(Protocol):
    """A non-decreasing convex scalar cost applied to per-SBS aggregate loads.

    ``evaluate`` maps a vector of per-SBS aggregates to the summed cost;
    ``derivative`` returns the elementwise derivative (used by gradient
    solvers via the chain rule).
    """

    def evaluate(self, aggregates: FloatArray) -> float:
        """Total cost ``sum_n phi(aggregates[n])``."""
        ...

    def derivative(self, aggregates: FloatArray) -> FloatArray:
        """Elementwise ``phi'(aggregates[n])``, same shape as the input."""
        ...


@dataclass(frozen=True)
class QuadraticOperatingCost:
    """The paper's representative cost ``phi(u) = scale * u**2`` (Eqs. 5-6)."""

    scale: float = 1.0

    def evaluate(self, aggregates: FloatArray) -> float:
        return float(self.scale * np.sum(np.square(aggregates)))

    def derivative(self, aggregates: FloatArray) -> FloatArray:
        return 2.0 * self.scale * aggregates


@dataclass(frozen=True)
class LinearOperatingCost:
    """Linear energy model of Arnold et al. [23]: ``phi(u) = scale * u``.

    Included as the alternative cost shape the paper discusses in Section
    II-B; convex but not strictly convex.
    """

    scale: float = 1.0

    def evaluate(self, aggregates: FloatArray) -> float:
        return float(self.scale * np.sum(aggregates))

    def derivative(self, aggregates: FloatArray) -> FloatArray:
        return np.full_like(aggregates, self.scale)


def _check_mk(network: Network, arr: FloatArray, name: str) -> None:
    expected = (network.num_classes, network.num_items)
    if arr.shape != expected:
        raise DimensionMismatchError(
            f"{name} has shape {arr.shape}, expected (M, K) = {expected}"
        )


def aggregate_bs_load(
    network: Network, demand: FloatArray, y: FloatArray
) -> FloatArray:
    """Per-SBS weighted load served by the BS, shape ``(N,)``.

    Entry ``n`` is ``sum_{m in n} omega_m * sum_k (1 - y[m,k]) * lam[m,k]``.
    """
    _check_mk(network, demand, "demand")
    _check_mk(network, y, "y")
    per_class = network.omega_bs * ((1.0 - y) * demand).sum(axis=1)
    return np.bincount(
        network.class_sbs, weights=per_class, minlength=network.num_sbs
    )


def aggregate_sbs_load(
    network: Network, demand: FloatArray, y: FloatArray
) -> FloatArray:
    """Per-SBS weighted load served locally, shape ``(N,)``.

    Entry ``n`` is ``sum_{m in n} omega-hat_m * sum_k y[m,k] * lam[m,k]``.
    """
    _check_mk(network, demand, "demand")
    _check_mk(network, y, "y")
    per_class = network.omega_sbs * (y * demand).sum(axis=1)
    return np.bincount(
        network.class_sbs, weights=per_class, minlength=network.num_sbs
    )


def bs_operating_cost(
    network: Network,
    demand: FloatArray,
    y: FloatArray,
    cost: OperatingCost | None = None,
) -> float:
    """``f_t(Y)`` — Eq. 5 (or a plugged-in convex alternative)."""
    cost = cost or QuadraticOperatingCost()
    return cost.evaluate(aggregate_bs_load(network, demand, y))


def sbs_operating_cost(
    network: Network,
    demand: FloatArray,
    y: FloatArray,
    cost: OperatingCost | None = None,
) -> float:
    """``g_t(Y)`` — Eq. 6 (or a plugged-in convex alternative)."""
    cost = cost or QuadraticOperatingCost()
    return cost.evaluate(aggregate_sbs_load(network, demand, y))


def replacement_cost(
    network: Network, x: FloatArray, x_prev: FloatArray
) -> float:
    """``h(X_t, X_{t-1})`` — Eq. 8, with per-SBS ``beta_n`` weights.

    ``x`` and ``x_prev`` have shape ``(N, K)``; values may be fractional
    (relaxed iterates) — the positive-part definition applies unchanged.
    """
    expected = (network.num_sbs, network.num_items)
    if x.shape != expected or x_prev.shape != expected:
        raise DimensionMismatchError(
            f"x has shape {x.shape}, x_prev {x_prev.shape}, expected (N, K) = {expected}"
        )
    inserted = np.clip(x - x_prev, 0.0, None).sum(axis=1)
    return float(np.dot(network.replacement_costs, inserted))


def replacement_count(x: FloatArray, x_prev: FloatArray, *, atol: float = 1e-6) -> int:
    """Number of cache insertions between two (integral) cache states."""
    return int(np.count_nonzero((x - x_prev) > atol))


@dataclass(frozen=True)
class CostBreakdown:
    """Itemized cost of a trajectory (the four quantities Fig. 2 plots).

    Attributes
    ----------
    bs_cost:
        Total BS operating cost ``sum_t f_t`` (Fig. 2d's series).
    sbs_cost:
        Total SBS operating cost ``sum_t g_t``.
    replacement:
        Total cache replacement cost ``sum_t h`` (Fig. 2b's series).
    replacements:
        Total number of cache insertions (Fig. 2c's series).
    """

    bs_cost: float
    sbs_cost: float
    replacement: float
    replacements: int

    @property
    def operating(self) -> float:
        """Operating cost excluding replacement: ``f + g``."""
        return self.bs_cost + self.sbs_cost

    @property
    def total(self) -> float:
        """Total system cost ``f + g + h`` (Fig. 2a's series)."""
        return self.bs_cost + self.sbs_cost + self.replacement

    def __add__(self, other: "CostBreakdown") -> "CostBreakdown":
        return CostBreakdown(
            self.bs_cost + other.bs_cost,
            self.sbs_cost + other.sbs_cost,
            self.replacement + other.replacement,
            self.replacements + other.replacements,
        )

    @staticmethod
    def zero() -> "CostBreakdown":
        return CostBreakdown(0.0, 0.0, 0.0, 0)


def total_cost(
    network: Network,
    demand: FloatArray,
    x: FloatArray,
    y: FloatArray,
    *,
    x_initial: FloatArray | None = None,
    bs_cost: OperatingCost | None = None,
    sbs_cost: OperatingCost | None = None,
) -> CostBreakdown:
    """Itemized cost of a full trajectory.

    Parameters
    ----------
    demand:
        Shape ``(T, M, K)``.
    x:
        Caching trajectory, shape ``(T, N, K)``.
    y:
        Load-balancing trajectory, shape ``(T, M, K)``.
    x_initial:
        Cache state before slot 0; defaults to the empty cache, matching the
        paper's convention ``x^t = 0`` for ``t <= 0``.
    """
    T = demand.shape[0]
    if x.shape[0] != T or y.shape[0] != T:
        raise DimensionMismatchError(
            f"trajectories disagree on horizon: demand T={T}, x {x.shape[0]}, y {y.shape[0]}"
        )
    prev = (
        np.zeros((network.num_sbs, network.num_items))
        if x_initial is None
        else x_initial
    )
    mk = (network.num_classes, network.num_items)
    if demand.shape[1:] != mk or y.shape[1:] != mk:
        raise DimensionMismatchError(
            f"demand {demand.shape} and y {y.shape} slots must have shape (M, K) = {mk}"
        )
    nk = (network.num_sbs, network.num_items)
    if x.shape[1:] != nk or prev.shape != nk:
        raise DimensionMismatchError(
            f"x slots have shape {x.shape[1:]}, x_initial {prev.shape}, expected (N, K) = {nk}"
        )
    bs_cost = bs_cost or QuadraticOperatingCost()
    sbs_cost = sbs_cost or QuadraticOperatingCost()
    # The per-slot quantities of bs/sbs_operating_cost, replacement_cost
    # and replacement_count, computed for all slots at once: row-wise
    # reductions are bitwise the per-slot ones, one bincount over (slot,
    # SBS) buckets adds each slot's classes in the same order as the
    # per-slot bincount, and the totals accumulate slot by slot.
    N = network.num_sbs
    bucket = (np.arange(T)[:, None] * N + network.class_sbs[None, :]).ravel()

    def per_sbs(per_class: FloatArray) -> FloatArray:
        return np.bincount(
            bucket, weights=per_class.ravel(), minlength=T * N
        ).reshape(T, N)

    bs_agg = per_sbs(network.omega_bs * ((1.0 - y) * demand).sum(axis=2))
    sbs_agg = per_sbs(network.omega_sbs * (y * demand).sum(axis=2))
    step = x - np.concatenate([prev[None], x[:-1]])
    inserted = np.clip(step, 0.0, None).sum(axis=2)
    counts = np.count_nonzero(step > 1e-6, axis=(1, 2))
    out = CostBreakdown.zero()
    for t in range(T):
        out = out + CostBreakdown(
            bs_cost.evaluate(bs_agg[t]),
            sbs_cost.evaluate(sbs_agg[t]),
            float(np.dot(network.replacement_costs, inserted[t])),
            int(counts[t]),
        )
    return out
