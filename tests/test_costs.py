"""Unit + property tests for the cost model (paper Eqs. 5-8)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import DimensionMismatchError
from repro.network.costs import (
    CostBreakdown,
    LinearOperatingCost,
    QuadraticOperatingCost,
    aggregate_bs_load,
    bs_operating_cost,
    replacement_cost,
    replacement_count,
    sbs_operating_cost,
    total_cost,
)
from repro.network.topology import single_cell_network


def _net(M=3, K=4, omega=None, omega_hat=0.0):
    omega = omega if omega is not None else [0.5] * M
    return single_cell_network(
        num_items=K,
        cache_size=2,
        bandwidth=10.0,
        replacement_cost=3.0,
        omega_bs=omega,
        omega_sbs=omega_hat,
    )


class TestOperatingCosts:
    def test_bs_cost_matches_equation_5(self):
        """f_t = (sum_m omega_m sum_k (1-y) lam)^2 for one SBS."""
        net = _net(M=2, K=2, omega=[0.5, 1.0])
        lam = np.array([[1.0, 2.0], [3.0, 0.0]])
        y = np.array([[0.5, 0.0], [1.0, 0.0]])
        inner = 0.5 * (0.5 * 1.0 + 1.0 * 2.0) + 1.0 * (0.0 * 3.0 + 1.0 * 0.0)
        assert bs_operating_cost(net, lam, y) == pytest.approx(inner**2)

    def test_sbs_cost_matches_equation_6(self):
        net = _net(M=2, K=2, omega=[0.5, 1.0], omega_hat=[0.01, 0.02])
        lam = np.array([[1.0, 2.0], [3.0, 0.0]])
        y = np.array([[0.5, 0.0], [1.0, 0.0]])
        inner = 0.01 * (0.5 * 1.0) + 0.02 * (1.0 * 3.0)
        assert sbs_operating_cost(net, lam, y) == pytest.approx(inner**2)

    def test_full_offload_zeroes_bs_cost(self):
        net = _net()
        lam = np.ones((3, 4))
        assert bs_operating_cost(net, lam, np.ones((3, 4))) == pytest.approx(0.0)

    def test_no_offload_zeroes_sbs_cost(self):
        net = _net(omega_hat=0.1)
        lam = np.ones((3, 4))
        assert sbs_operating_cost(net, lam, np.zeros((3, 4))) == pytest.approx(0.0)

    def test_bs_cost_decreases_with_offload(self):
        net = _net()
        lam = np.ones((3, 4))
        y_lo = np.full((3, 4), 0.2)
        y_hi = np.full((3, 4), 0.8)
        assert bs_operating_cost(net, lam, y_hi) < bs_operating_cost(net, lam, y_lo)

    def test_shape_validation(self):
        net = _net()
        with pytest.raises(DimensionMismatchError):
            bs_operating_cost(net, np.ones((2, 4)), np.ones((2, 4)))

    def test_linear_cost_shape(self):
        cost = LinearOperatingCost(scale=2.0)
        agg = np.array([1.0, 3.0])
        assert cost.evaluate(agg) == pytest.approx(8.0)
        np.testing.assert_allclose(cost.derivative(agg), [2.0, 2.0])

    def test_quadratic_derivative(self):
        cost = QuadraticOperatingCost(scale=1.5)
        agg = np.array([2.0])
        assert cost.evaluate(agg) == pytest.approx(6.0)
        np.testing.assert_allclose(cost.derivative(agg), [6.0])

    def test_multi_sbs_aggregation(self):
        from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation

        net = Network(
            ContentCatalog(2),
            (SmallBaseStation(0, 1, 5.0, 1.0), SmallBaseStation(1, 1, 5.0, 1.0)),
            (MUClass(0, 0, 1.0), MUClass(1, 1, 2.0)),
        )
        lam = np.array([[1.0, 0.0], [0.0, 2.0]])
        y = np.zeros((2, 2))
        agg = aggregate_bs_load(net, lam, y)
        np.testing.assert_allclose(agg, [1.0, 4.0])
        # Squares are summed per SBS, not over the joint aggregate.
        assert bs_operating_cost(net, lam, y) == pytest.approx(1.0 + 16.0)


class TestReplacementCost:
    def test_counts_only_insertions(self):
        net = _net(K=4)
        prev = np.array([[1.0, 1.0, 0.0, 0.0]])
        new = np.array([[1.0, 0.0, 1.0, 1.0]])
        # Two insertions (items 2, 3), beta = 3.
        assert replacement_cost(net, new, prev) == pytest.approx(6.0)
        assert replacement_count(new, prev) == 2

    def test_eviction_is_free(self):
        net = _net(K=4)
        prev = np.array([[1.0, 1.0, 0.0, 0.0]])
        new = np.array([[0.0, 0.0, 0.0, 0.0]])
        assert replacement_cost(net, new, prev) == pytest.approx(0.0)
        assert replacement_count(new, prev) == 0

    def test_fractional_positive_part(self):
        net = _net(K=4)
        prev = np.array([[0.2, 0.0, 0.0, 0.0]])
        new = np.array([[0.7, 0.0, 0.0, 0.0]])
        assert replacement_cost(net, new, prev) == pytest.approx(3.0 * 0.5)


class TestCostBreakdown:
    def test_total_and_addition(self):
        a = CostBreakdown(1.0, 2.0, 3.0, 4)
        b = CostBreakdown(10.0, 20.0, 30.0, 40)
        s = a + b
        assert s.total == pytest.approx(66.0)
        assert s.operating == pytest.approx(33.0)
        assert s.replacements == 44
        assert CostBreakdown.zero().total == 0.0

    def test_total_cost_trajectory(self):
        net = _net(M=1, K=2, omega=[1.0])
        lam = np.ones((2, 1, 2))
        x = np.array([[[1.0, 0.0]], [[0.0, 1.0]]])
        y = np.zeros((2, 1, 2))
        out = total_cost(net, lam, x, y)
        # Two slots each with residual (1+1) -> f = 4; two insertions.
        assert out.bs_cost == pytest.approx(8.0)
        assert out.replacement == pytest.approx(6.0)
        assert out.replacements == 2

    def test_total_cost_respects_initial_cache(self):
        net = _net(M=1, K=2, omega=[1.0])
        lam = np.ones((1, 1, 2))
        x = np.array([[[1.0, 0.0]]])
        y = np.zeros((1, 1, 2))
        out = total_cost(net, lam, x, y, x_initial=np.array([[1.0, 0.0]]))
        assert out.replacement == pytest.approx(0.0)

    def test_horizon_mismatch_raises(self):
        net = _net(M=1, K=2, omega=[1.0])
        with pytest.raises(DimensionMismatchError):
            total_cost(net, np.ones((2, 1, 2)), np.zeros((1, 1, 2)), np.zeros((2, 1, 2)))


@settings(max_examples=50, deadline=None)
@given(
    y_seed=st.integers(0, 2**31 - 1),
    scale=st.floats(0.1, 5.0),
)
def test_bs_cost_nonnegative_and_monotone(y_seed: int, scale: float):
    """Property: f_t >= 0 and raising any y entry never increases f_t."""
    rng = np.random.default_rng(y_seed)
    net = _net(M=3, K=4, omega=list(rng.uniform(0, 1, 3)))
    lam = rng.uniform(0, 2, (3, 4))
    y = rng.uniform(0, 1, (3, 4))
    cost = QuadraticOperatingCost(scale=scale)
    base = bs_operating_cost(net, lam, y, cost)
    assert base >= 0
    bumped = y.copy()
    m, k = rng.integers(0, 3), rng.integers(0, 4)
    bumped[m, k] = min(1.0, bumped[m, k] + 0.3)
    assert bs_operating_cost(net, lam, bumped, cost) <= base + 1e-9


@settings(max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**31 - 1))
def test_replacement_cost_triangle(seed: int):
    """Property: switching a->c costs at most switching a->b->c."""
    rng = np.random.default_rng(seed)
    net = _net(K=6)
    a, b, c = [(rng.random((1, 6)) > 0.5).astype(float) for _ in range(3)]
    direct = replacement_cost(net, c, a)
    detour = replacement_cost(net, b, a) + replacement_cost(net, c, b)
    assert direct <= detour + 1e-9


def _per_slot_total(network, demand, x, y, x_initial, cost):
    """The slot-by-slot sum of Eqs. 5, 6 and 8 that ``total_cost`` vectorizes."""
    prev = x_initial
    out = CostBreakdown.zero()
    for t in range(demand.shape[0]):
        out = out + CostBreakdown(
            bs_operating_cost(network, demand[t], y[t], cost),
            sbs_operating_cost(network, demand[t], y[t], cost),
            replacement_cost(network, x[t], prev),
            replacement_count(x[t], prev),
        )
        prev = x[t]
    return out


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    N=st.integers(1, 5),
    K=st.integers(1, 12),
    T=st.integers(1, 8),
    shape=st.sampled_from(["quadratic", "linear"]),
)
def test_total_cost_equals_per_slot_sum_bitwise(seed, N, K, T, shape):
    """All-slot total_cost is bit for bit the per-slot accumulation: uneven
    classes (an SBS may have none), fractional x, both cost shapes."""
    from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation

    rng = np.random.default_rng(seed)
    classes = []
    for n in range(N):
        for _ in range(int(rng.integers(0, 4))):
            classes.append(
                MUClass(len(classes), n, float(rng.uniform(0, 2)), float(rng.uniform(0, 1)))
            )
    if not classes:
        classes.append(MUClass(0, 0, 1.0))
    net = Network(
        ContentCatalog(K),
        tuple(SmallBaseStation(n, K, 1.0, float(rng.uniform(0, 9))) for n in range(N)),
        tuple(classes),
    )
    M = len(classes)
    demand = rng.uniform(0, 5, (T, M, K)) * (rng.random((T, M, K)) > 0.3)
    x = rng.uniform(0, 1, (T, N, K)) * (rng.random((T, N, K)) > 0.5)
    y = rng.uniform(0, 1, (T, M, K))
    x0 = (rng.random((N, K)) > 0.5).astype(float)
    cost = QuadraticOperatingCost(0.5) if shape == "quadratic" else LinearOperatingCost(2.0)
    got = total_cost(net, demand, x, y, x_initial=x0, bs_cost=cost, sbs_cost=cost)
    want = _per_slot_total(net, demand, x, y, x0, cost)
    assert got == want
    assert np.float64(got.total).tobytes() == np.float64(want.total).tobytes()
