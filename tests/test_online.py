"""Tests for the online controllers: RHC, FHC variants, AFHC, CHC."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.offline import OfflineOptimal
from repro.core.online import AFHC, CHC, RHC, OnlineSolveSettings
from repro.core.online.base import shift_mu
from repro.core.online.fhc import run_fhc_variant
from repro.exceptions import ConfigurationError
from repro.faults import inject_faults
from repro.scenario import validate_plan
from repro.sim.engine import evaluate_plan
from repro.sim.experiment import paper_scenario
from repro.sim.resilience import default_fault_schedule
from repro.workload.predictor import PerfectPredictor

FAST = OnlineSolveSettings(max_iter=25, gap_tol=5e-3, ub_patience=6)


class TestShiftMu:
    def test_shift_by_one(self):
        mu = np.arange(12, dtype=float).reshape(3, 2, 2)
        out = shift_mu(mu, 1)
        np.testing.assert_allclose(out[0], mu[1])
        np.testing.assert_allclose(out[1], mu[2])
        np.testing.assert_allclose(out[2], mu[2])

    def test_shift_zero_copies(self):
        mu = np.ones((2, 1, 1))
        out = shift_mu(mu, 0)
        out[0] = 5.0
        assert mu[0, 0, 0] == 1.0

    def test_shift_past_horizon(self):
        mu = np.arange(4, dtype=float).reshape(2, 2, 1)
        out = shift_mu(mu, 10)
        np.testing.assert_allclose(out[0], mu[1])
        np.testing.assert_allclose(out[1], mu[1])


class TestRHC:
    def test_plan_shapes_and_feasibility(self, small_scenario):
        plan = RHC(window=4, settings=FAST).plan(small_scenario)
        validate_plan(small_scenario, plan)
        assert plan.solves == small_scenario.horizon
        assert set(np.unique(plan.x)) <= {0.0, 1.0}

    def test_perfect_predictions_near_offline(self, small_scenario):
        """With exact predictions and a long window RHC ~ offline optimal."""
        scenario = small_scenario.with_predictor(
            PerfectPredictor(small_scenario.demand)
        )
        rhc = RHC(
            window=scenario.horizon,
            settings=OnlineSolveSettings(max_iter=60, gap_tol=1e-4),
        )
        rhc_cost = evaluate_plan(scenario, rhc.plan(scenario)).cost.total
        off_cost = evaluate_plan(
            scenario, OfflineOptimal(max_iter=120).plan(scenario)
        ).cost.total
        assert rhc_cost <= off_cost * 1.15 + 1e-6

    def test_window_validation(self):
        with pytest.raises(ConfigurationError):
            RHC(window=0)

    def test_name(self):
        assert RHC(window=7).name == "RHC(w=7)"


class TestFHC:
    def test_variant_covers_whole_horizon(self, small_scenario):
        traj = run_fhc_variant(
            small_scenario, variant=1, window=4, commitment=2, settings=FAST
        )
        assert traj.x.shape == (small_scenario.horizon, 1, 8)
        assert set(np.unique(traj.x)) <= {0.0, 1.0}
        # Capacity respected in every committed slot.
        assert np.all(traj.x.sum(axis=2) <= 3)

    def test_commitment_validation(self, small_scenario):
        with pytest.raises(ConfigurationError):
            run_fhc_variant(
                small_scenario, variant=0, window=3, commitment=5, settings=FAST
            )

    def test_solve_count(self, small_scenario):
        traj = run_fhc_variant(
            small_scenario, variant=0, window=4, commitment=3, settings=FAST
        )
        assert traj.solves == len(range(0, small_scenario.horizon, 3))


class TestCHC:
    def test_plan_feasible(self, small_scenario):
        plan = CHC(window=4, commitment=2, settings=FAST).plan(small_scenario)
        validate_plan(small_scenario, plan)
        assert set(np.unique(plan.x)) <= {0.0, 1.0}

    def test_y_respects_rounded_cache(self, small_scenario):
        plan = CHC(window=4, commitment=2, settings=FAST).plan(small_scenario)
        assert plan.y is not None
        mask = plan.x[:, small_scenario.network.class_sbs, :] == 0
        assert np.abs(plan.y[mask]).max(initial=0.0) == 0.0

    def test_commitment_one_equals_rhc_trajectory(self):
        """CHC with r=1 averages a single FHC variant solving every slot -
        exactly RHC (rounding a 0/1 average is the identity), bit for bit
        in ``x`` and ``y`` under the default settings, with and without
        faults."""
        for seed in (1, 2):
            nominal = paper_scenario(seed=seed, horizon=12)
            faulted = inject_faults(nominal, default_fault_schedule(nominal.horizon))
            for scenario in (nominal, faulted):
                chc = CHC(window=4, commitment=1).plan(scenario)
                rhc = RHC(window=4).plan(scenario)
                assert chc.x.tobytes() == rhc.x.tobytes()
                assert chc.y.tobytes() == rhc.y.tobytes()
                assert chc.solves == rhc.solves == scenario.horizon

    def test_parameter_validation(self):
        with pytest.raises(ConfigurationError):
            CHC(window=4, commitment=0)
        with pytest.raises(ConfigurationError):
            CHC(window=4, commitment=5)
        with pytest.raises(ConfigurationError):
            CHC(window=4, commitment=2, rho=1.5)

    def test_name(self):
        assert CHC(window=8, commitment=4).name == "CHC(w=8,r=4)"


class TestAFHC:
    def test_is_full_commitment_chc(self, small_scenario):
        afhc = AFHC(window=4, settings=FAST)
        assert afhc.commitment == afhc.window == 4
        assert afhc.name == "AFHC(w=4)"

    def test_matches_explicit_chc(self, small_scenario):
        settings = OnlineSolveSettings(max_iter=30, gap_tol=1e-3, ub_patience=None)
        a = AFHC(window=3, settings=settings).plan(small_scenario)
        c = CHC(window=3, commitment=3, settings=settings).plan(small_scenario)
        np.testing.assert_allclose(a.x, c.x)

    def test_plan_feasible(self, small_scenario):
        plan = AFHC(window=3, settings=FAST).plan(small_scenario)
        validate_plan(small_scenario, plan)


class TestOnlineVsBaselines:
    def test_online_beats_nocache(self, small_scenario):
        from repro.baselines import NoCache

        rhc_cost = evaluate_plan(
            small_scenario, RHC(window=4, settings=FAST).plan(small_scenario)
        ).cost.total
        nocache_cost = evaluate_plan(
            small_scenario, NoCache().plan(small_scenario)
        ).cost.total
        assert rhc_cost < nocache_cost

    def test_offline_lower_bounds_online(self, small_scenario):
        offline = evaluate_plan(
            small_scenario, OfflineOptimal(max_iter=100).plan(small_scenario)
        ).cost.total
        for policy in (RHC(window=4, settings=FAST), CHC(window=4, commitment=2, settings=FAST)):
            online = evaluate_plan(small_scenario, policy.plan(small_scenario)).cost.total
            assert online >= offline * 0.999  # offline is (near-)optimal
