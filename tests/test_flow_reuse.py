"""Tests for flow-graph reuse: pooled templates vs fresh builds.

The subgradient loop solves the same-*shaped* caching flow every iteration
with different hold/fetch costs; ``caching_lp`` therefore pools built
graphs and rewrites arc costs in place (``MinCostFlow.set_arc_costs`` +
``reset``). These tests pin the contract that a pooled graph solves to the
exact same caches and objective as a freshly built one, over randomized
``(c, beta, x0)`` sequences, plus the low-level reset/cost-rewrite hooks.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.core.caching_lp as caching_lp
from repro.core.caching_lp import _solve_single_sbs_flow
from repro.exceptions import ConfigurationError
from repro.optim.mincostflow import MinCostFlow


class TestMinCostFlowReuseHooks:
    def _two_path_graph(self):
        g = MinCostFlow(4)
        arcs = [
            g.add_arc(0, 1, 2, 1.0),
            g.add_arc(0, 2, 2, 2.0),
            g.add_arc(1, 3, 2, 1.0),
            g.add_arc(2, 3, 2, 0.5),
        ]
        return g, arcs

    def test_reset_restores_capacities(self):
        g, _ = self._two_path_graph()
        first = g.solve(0, 3, 4)
        assert first.amount == 4
        # Without a reset the graph is saturated and routes nothing more.
        assert g.solve(0, 3, 4).amount == 0
        g.reset()
        again = g.solve(0, 3, 4)
        assert again.amount == first.amount
        assert again.cost == first.cost

    def test_set_arc_cost_changes_optimum(self):
        g, arcs = self._two_path_graph()
        base = g.solve(0, 3, 3)
        g.reset()
        # Make the previously cheap 0->1->3 path expensive.
        g.set_arc_cost(arcs[0], 10.0)
        rerouted = g.solve(0, 3, 3)
        assert rerouted.cost > base.cost
        # 1 unit forced over the now-expensive path: 2*(2+0.5) + (10+1).
        assert rerouted.cost == pytest.approx(16.0)

    def test_set_arc_costs_bulk(self):
        g, arcs = self._two_path_graph()
        g.set_arc_costs(np.array(arcs), np.array([0.5, 0.5, 0.5, 0.5]))
        res = g.solve(0, 3, 4)
        assert res.cost == pytest.approx(4 * 1.0)

    def test_set_arc_costs_rejects_bad_ids(self):
        g, arcs = self._two_path_graph()
        with pytest.raises(ConfigurationError):
            g.set_arc_costs(np.array([99]), np.array([1.0]))

    def test_reset_before_any_solve_is_noop(self):
        g, _ = self._two_path_graph()
        g.reset()
        assert g.solve(0, 3, 3).amount == 3


class TestSingleSbsFlowReuse:
    @pytest.mark.parametrize("shape", [(4, 5, 2), (7, 6, 3)])
    def test_randomized_sequences_match_fresh(self, rng, shape, monkeypatch):
        """A pooled graph must replay fresh-build results exactly."""
        T, K, cap = shape
        monkeypatch.setattr(caching_lp, "_TEMPLATE_POOL", {})
        for trial in range(12):
            c = rng.normal(scale=5.0, size=(T, K))
            beta = float(rng.uniform(0.0, 12.0))
            x0 = np.zeros(K)
            x0[rng.choice(K, size=rng.integers(0, cap + 1), replace=False)] = 1.0
            # From the second trial on, the pool holds the graph the
            # previous trial solved with other costs; an emptied pool makes
            # the next solve build a fresh graph.
            x_reuse, obj_reuse = _solve_single_sbs_flow(
                c, beta, cap, x0, canonical=False
            )
            caching_lp._TEMPLATE_POOL.clear()
            x_fresh, obj_fresh = _solve_single_sbs_flow(
                c, beta, cap, x0, canonical=False
            )
            assert len(caching_lp._TEMPLATE_POOL[(T, K, cap)]) == 1
            assert np.array_equal(x_fresh, x_reuse), trial
            assert obj_fresh == obj_reuse, trial

    def test_zero_capacity_shortcut(self):
        x, obj = _solve_single_sbs_flow(np.ones((3, 4)), 1.0, 0, np.zeros(4))
        assert not x.any() and obj == 0.0
