"""The public-API stability contract of :mod:`repro.api`.

``repro.api.__all__`` is the supported surface: removing or renaming a
name there is a breaking change and must update the snapshot below
*deliberately*. Internal module layout is free to move as long as the
facade keeps resolving.
"""

from __future__ import annotations

import pytest

from repro import api
from repro.exceptions import ConfigurationError

#: The supported public surface. Additions append here; removals are
#: breaking changes. Keep sorted.
PUBLIC_API = [
    "AFHC",
    "BandwidthDegradation",
    "BaseStation",
    "BeladyVolume",
    "CHC",
    "CacheDegradation",
    "CachingPolicy",
    "ContentCatalog",
    "ConvergenceTrace",
    "CostBreakdown",
    "Decision",
    "DemandMatrix",
    "DemandSurge",
    "Diagnosis",
    "DistributedOfflineOptimal",
    "EdgeMetrics",
    "FIFO",
    "FaultSchedule",
    "Finding",
    "HealthScoreStrategy",
    "JointProblem",
    "LFU",
    "LRFU",
    "LRU",
    "LeastConnectionsStrategy",
    "LinearOperatingCost",
    "MUClass",
    "MetricsServer",
    "Network",
    "NoCache",
    "OfflineOptimal",
    "OnlineSolveSettings",
    "OptimalYStrategy",
    "PerfectPredictor",
    "PerturbedPredictor",
    "PolicyPlan",
    "PolicyResilience",
    "PredictorBlackout",
    "PrimalDualResult",
    "QuadraticOperatingCost",
    "QuantileSketch",
    "RHC",
    "Recorder",
    "ReplayReport",
    "Request",
    "ResilienceReport",
    "RoundRobinStrategy",
    "RoutingStrategy",
    "RunResult",
    "RuntimeConfig",
    "SWEEP_AXES",
    "SbsOutage",
    "Scenario",
    "ServeReport",
    "SloSpec",
    "SloTracker",
    "SmallBaseStation",
    "SolveBudget",
    "SolveCache",
    "StageTimers",
    "StaticTopK",
    "SweepResult",
    "TraceEvent",
    "WindowedCounter",
    "analyze_trace",
    "assert_feasible_under_faults",
    "bandwidth_sweep",
    "beta_sweep",
    "build_scenario",
    "compare_policies",
    "compute_edge_metrics",
    "cost_ratios",
    "current_recorder",
    "decision_digest",
    "default_fault_schedule",
    "default_policies",
    "diurnal_demand",
    "evaluate_plan",
    "flash_crowd_demand",
    "headline_comparison",
    "inject_faults",
    "noise_sweep",
    "open_loop_requests",
    "paper_demand",
    "paper_scenario",
    "parse_slo_specs",
    "read_decision_log",
    "read_trace",
    "record_into",
    "render_diagnosis",
    "render_headline_table",
    "render_resilience_table",
    "render_serve_report",
    "render_sweep_table",
    "render_top_frame",
    "render_trace_dashboard",
    "replay_plan",
    "requests_from_trace",
    "run_manifest",
    "run_policies",
    "run_policy",
    "run_resilience",
    "run_serve",
    "sample_poisson_trace",
    "serve_requests",
    "single_cell_network",
    "single_outage_with_degradation",
    "solve_primal_dual",
    "strategy_by_name",
    "sweep",
    "sweep_to_dict",
    "window_sweep",
    "write_decision_log",
    "write_manifest",
    "write_trace",
]


class TestPublicSurface:
    def test_all_matches_snapshot(self):
        assert sorted(api.__all__) == PUBLIC_API

    def test_every_name_resolves(self):
        for name in api.__all__:
            assert getattr(api, name, None) is not None, name

    def test_no_duplicates(self):
        assert len(api.__all__) == len(set(api.__all__))

    def test_star_import_is_clean(self):
        namespace: dict = {}
        exec("from repro.api import *", namespace)
        assert set(PUBLIC_API) <= set(namespace)


class TestFacadeFunctions:
    def test_build_scenario_is_paper_scenario(self):
        a = api.build_scenario(seed=3, horizon=4)
        b = api.paper_scenario(seed=3, horizon=4)
        assert a.horizon == b.horizon == 4
        assert (a.demand.rates == b.demand.rates).all()

    def test_compare_policies_defaults_and_keys(self):
        scenario = api.build_scenario(seed=1, horizon=4)
        results = api.compare_policies(
            scenario, [api.LRFU(), api.NoCache()]
        )
        assert set(results) == {"LRFU", "NoCache"}
        for result in results.values():
            assert result.cost.total > 0

    def test_compare_policies_deduplicates_names(self):
        scenario = api.build_scenario(seed=1, horizon=3)
        results = api.compare_policies(scenario, [api.LRFU(), api.LRFU()])
        assert set(results) == {"LRFU", "LRFU#2"}

    def test_sweep_dispatch(self):
        result = api.sweep(
            "noise", [0.0, 0.3], horizon=3, seeds=(1,), window=2
        )
        assert [p.value for p in result.points] == [0.0, 0.3]

    def test_sweep_window_axis_casts_to_int(self):
        result = api.sweep("window", [2.0, 3.0], horizon=3, seeds=(1,))
        assert [p.value for p in result.points] == [2, 3]

    def test_sweep_unknown_axis(self):
        with pytest.raises(ConfigurationError, match="unknown sweep axis"):
            api.sweep("zipf")

    def test_doctests(self):
        import doctest

        failures, _ = doctest.testmod(api)
        assert failures == 0


class TestDeprecatedEntryPoints:
    """Replay entry points: ``replay_plan`` is the supported name; the
    ``replay_trace`` shim it superseded is gone from the facade."""

    def _replay_args(self):
        import numpy as np

        scenario = api.build_scenario(seed=1, horizon=2)
        trace = api.sample_poisson_trace(
            scenario.demand, rng=np.random.default_rng(0)
        )
        net = scenario.network
        x = np.zeros((2, net.num_sbs, net.num_items))
        y = np.zeros((2, net.num_classes, net.num_items))
        return scenario.network, trace, x, y

    def test_replay_plan_is_supported_and_silent(self):
        args = self._replay_args()
        with warnings_catcher() as caught:
            report = api.replay_plan(*args)
        assert not [w for w in caught if w.category is DeprecationWarning]
        assert report.total_requests == int(args[1].counts.sum())

    def test_replay_trace_shim_removed(self):
        assert not hasattr(api, "replay_trace")
        assert not hasattr(api, "DEPRECATED_API")


def warnings_catcher():
    import warnings

    ctx = warnings.catch_warnings(record=True)

    class _Catcher:
        def __enter__(self):
            caught = ctx.__enter__()
            warnings.simplefilter("always")
            return caught

        def __exit__(self, *exc):
            return ctx.__exit__(*exc)

    return _Catcher()
