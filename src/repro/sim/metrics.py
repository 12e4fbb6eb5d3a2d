"""Extended metrics derived from realized trajectories.

Beyond the four cost quantities the paper plots, operators of an edge
caching system watch a handful of standard efficiency indicators. These
are computed from a finished :class:`~repro.sim.engine.RunResult` (or raw
trajectories) and used by the examples and the discrete-event validation
layer:

- **cache hit ratio** — fraction of demand volume whose content was cached
  at its SBS when requested (regardless of bandwidth);
- **offload ratio** — fraction of demand volume actually served by SBSs
  (``y``-weighted, so bandwidth-limited);
- **bandwidth utilization** — per-SBS mean utilization of ``B_n``;
- **cache occupancy** — mean fraction of cache slots in use;
- **churn rate** — cache insertions per slot per SBS;
- **fairness** — Jain's index over per-class offload ratios (do a few
  lucky classes get all the edge service?).

The resilience benchmark adds two fault-centric indicators
(:func:`cost_under_faults`, :func:`time_to_recover`) comparing a faulted
run's per-slot cost trace against the same policy's fault-free trace.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.exceptions import DimensionMismatchError
from repro.network.topology import Network
from repro.types import FloatArray


@dataclass(frozen=True)
class EdgeMetrics:
    """Operational indicators of one realized run.

    All ratios lie in ``[0, 1]``; ``churn_per_slot`` is insertions per slot
    summed over SBSs.
    """

    hit_ratio: float
    offload_ratio: float
    bandwidth_utilization: FloatArray  # per SBS, shape (N,)
    cache_occupancy: FloatArray  # per SBS, shape (N,)
    churn_per_slot: float
    offload_fairness: float

    def summary(self) -> str:
        """One-line human-readable rendering for reports."""
        util = ", ".join(f"{u:.0%}" for u in self.bandwidth_utilization)
        occ = ", ".join(f"{o:.0%}" for o in self.cache_occupancy)
        return (
            f"hit={self.hit_ratio:.1%} offload={self.offload_ratio:.1%} "
            f"bw-util=[{util}] occupancy=[{occ}] "
            f"churn={self.churn_per_slot:.2f}/slot "
            f"fairness={self.offload_fairness:.2f}"
        )


def cost_under_faults(per_slot_total: FloatArray, active_mask: np.ndarray) -> float:
    """Realized cost summed over the slots during which any fault is active."""
    per_slot_total = np.asarray(per_slot_total, dtype=np.float64)
    active = np.asarray(active_mask, dtype=bool)
    if per_slot_total.shape != active.shape:
        raise DimensionMismatchError(
            f"per-slot costs {per_slot_total.shape} vs mask {active.shape}"
        )
    return float(per_slot_total[active].sum())


def time_to_recover(
    per_slot_total: FloatArray,
    baseline_per_slot: FloatArray,
    recover_from: int,
    *,
    rel_tol: float = 0.05,
) -> int | None:
    """Slots after ``recover_from`` until the faulted cost trace re-joins baseline.

    The faulted run has "recovered" at the first slot ``t >= recover_from``
    whose realized cost is within ``rel_tol`` (relative) of the fault-free
    baseline at the same slot; the returned value is ``t - recover_from``
    (0 = recovered immediately when the faults ended). ``None`` means the
    trace never re-joins the baseline within the horizon — e.g. a
    fault-time eviction that keeps costing re-fetches to the end.
    """
    per_slot_total = np.asarray(per_slot_total, dtype=np.float64)
    baseline = np.asarray(baseline_per_slot, dtype=np.float64)
    if per_slot_total.shape != baseline.shape:
        raise DimensionMismatchError(
            f"per-slot costs {per_slot_total.shape} vs baseline {baseline.shape}"
        )
    T = per_slot_total.shape[0]
    start = max(int(recover_from), 0)
    if start >= T:
        return 0
    tail = per_slot_total[start:]
    base_tail = baseline[start:]
    ok = tail <= base_tail + rel_tol * np.maximum(np.abs(base_tail), 1.0)
    hits = np.nonzero(ok)[0]
    if hits.size == 0:
        return None
    return int(hits[0])


def jain_index(values: FloatArray) -> float:
    """Jain's fairness index ``(sum v)^2 / (n * sum v^2)``; 1 = perfectly fair.

    Entries that are all zero yield 1.0 (vacuously fair).
    """
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        return 1.0
    total_sq = float(values.sum()) ** 2
    denom = values.size * float(np.square(values).sum())
    if denom == 0.0:
        return 1.0
    return total_sq / denom


def compute_edge_metrics(
    network: Network,
    demand: FloatArray,
    x: FloatArray,
    y: FloatArray,
    *,
    x_initial: FloatArray | None = None,
) -> EdgeMetrics:
    """Compute :class:`EdgeMetrics` from realized trajectories.

    Parameters
    ----------
    demand:
        True demand, shape ``(T, M, K)``.
    x:
        Caching trajectory, shape ``(T, N, K)``.
    y:
        Realized load balancing, shape ``(T, M, K)``.
    """
    T = demand.shape[0]
    if x.shape != (T, network.num_sbs, network.num_items):
        raise DimensionMismatchError(f"x has shape {x.shape}")
    if y.shape != demand.shape:
        raise DimensionMismatchError(f"y has shape {y.shape}")

    total_volume = float(demand.sum())
    cached_at_request = x[:, network.class_sbs, :]  # (T, M, K)
    hit_volume = float((demand * cached_at_request).sum())
    served_volume = float((demand * y).sum())

    # Per-SBS bandwidth utilization.
    load_per_class = (demand * y).sum(axis=2)  # (T, M)
    per_sbs_load = network.sum_classes_per_sbs(load_per_class)
    with np.errstate(divide="ignore", invalid="ignore"):
        utilization = np.where(
            network.bandwidths > 0,
            per_sbs_load.mean(axis=0) / network.bandwidths,
            0.0,
        )

    with np.errstate(divide="ignore", invalid="ignore"):
        occupancy = np.where(
            network.cache_sizes > 0,
            x.sum(axis=2).mean(axis=0) / network.cache_sizes,
            0.0,
        )

    prev = (
        np.zeros((network.num_sbs, network.num_items))
        if x_initial is None
        else x_initial
    )
    insertions = 0.0
    for t in range(T):
        insertions += float(np.clip(x[t] - prev, 0, None).sum())
        prev = x[t]

    per_class_volume = demand.sum(axis=(0, 2))
    per_class_served = (demand * y).sum(axis=(0, 2))
    with np.errstate(divide="ignore", invalid="ignore"):
        per_class_ratio = np.where(
            per_class_volume > 0, per_class_served / per_class_volume, 0.0
        )
    active = per_class_volume > 0

    return EdgeMetrics(
        hit_ratio=hit_volume / total_volume if total_volume else 0.0,
        offload_ratio=served_volume / total_volume if total_volume else 0.0,
        bandwidth_utilization=utilization,
        cache_occupancy=occupancy,
        churn_per_slot=insertions / T if T else 0.0,
        offload_fairness=jain_index(per_class_ratio[active]),
    )
