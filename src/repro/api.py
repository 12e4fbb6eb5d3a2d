"""The stable public API of the library.

Everything a user of the library needs — building scenarios, running and
comparing policies, sweeping parameters, injecting faults, configuring the
runtime — is importable from this one module, and only the names exported
here (``repro.api.__all__``) are covered by the public-API stability test
(``tests/test_api.py``). Internal module layout may change between
releases; this facade does not.

Quickstart
----------
>>> from repro import api
>>> scenario = api.build_scenario(seed=1, horizon=20)
>>> results = api.compare_policies(scenario, api.default_policies(window=5))
>>> sorted(results)  # doctest: +NORMALIZE_WHITESPACE
['AFHC(w=5)', 'CHC(w=5,r=2)', 'LRFU', 'Offline', 'RHC(w=5)']

Fault injection::

    schedule = api.FaultSchedule.random(seed=7, horizon=100, num_sbs=1)
    faulted = api.inject_faults(scenario, schedule)
    results = api.compare_policies(faulted)
"""

from __future__ import annotations

from typing import Iterable, Sequence

from repro.baselines import BeladyVolume, FIFO, LFU, LRFU, LRU, NoCache, StaticTopK
from repro.config import RuntimeConfig
from repro.core.distributed import DistributedOfflineOptimal
from repro.core.offline import OfflineOptimal
from repro.core.online import AFHC, CHC, RHC, OnlineSolveSettings
from repro.core.primal_dual import PrimalDualResult, solve_primal_dual
from repro.core.problem import JointProblem
from repro.exceptions import ConfigurationError
from repro.faults import (
    BandwidthDegradation,
    CacheDegradation,
    DemandSurge,
    FaultSchedule,
    PredictorBlackout,
    SbsOutage,
    assert_feasible_under_faults,
    inject_faults,
    single_outage_with_degradation,
)
from repro.network import (
    BaseStation,
    ContentCatalog,
    CostBreakdown,
    MUClass,
    Network,
    SmallBaseStation,
)
from repro.network.costs import LinearOperatingCost, QuadraticOperatingCost
from repro.network.topology import single_cell_network
from repro.obs import (
    ConvergenceTrace,
    Diagnosis,
    Finding,
    MetricsServer,
    QuantileSketch,
    Recorder,
    SloSpec,
    SloTracker,
    TraceEvent,
    WindowedCounter,
    analyze_trace,
    current_recorder,
    parse_slo_specs,
    read_trace,
    record_into,
    render_diagnosis,
    render_top_frame,
    render_trace_dashboard,
    run_manifest,
    write_manifest,
    write_trace,
)
from repro.optim import SolveBudget
from repro.perf.solvecache import SolveCache
from repro.perf.timers import StageTimers
from repro.scenario import CachingPolicy, PolicyPlan, Scenario
from repro.serve import (
    Decision,
    HealthScoreStrategy,
    LeastConnectionsStrategy,
    OptimalYStrategy,
    Request,
    RoundRobinStrategy,
    RoutingStrategy,
    ServeReport,
    decision_digest,
    open_loop_requests,
    read_decision_log,
    render_serve_report,
    requests_from_trace,
    run_serve,
    serve_requests,
    strategy_by_name,
    write_decision_log,
)
from repro.sim.discrete import ReplayReport
from repro.sim.discrete import replay_trace as _replay_trace
from repro.sim.engine import EvaluationMode, RunResult, evaluate_plan
from repro.sim.experiment import (
    SweepResult,
    bandwidth_sweep,
    beta_sweep,
    default_policies,
    headline_comparison,
    noise_sweep,
    paper_scenario,
    window_sweep,
)
from repro.sim.metrics import EdgeMetrics, compute_edge_metrics
from repro.sim.report import (
    render_headline_table,
    render_sweep_table,
    sweep_to_dict,
)
from repro.sim.resilience import (
    PolicyResilience,
    ResilienceReport,
    default_fault_schedule,
    render_resilience_table,
    run_resilience,
)
from repro.sim.runner import cost_ratios, run_policies, run_policy
from repro.workload import (
    DemandMatrix,
    PerfectPredictor,
    PerturbedPredictor,
    paper_demand,
)
from repro.workload.demand import diurnal_demand, flash_crowd_demand
from repro.workload.trace import sample_poisson_trace

#: Sweepable axes of :func:`sweep`, mapped to the figure functions.
SWEEP_AXES = ("beta", "window", "bandwidth", "noise")

def replay_plan(*args: object, **kwargs: object) -> ReplayReport:
    """Batch-replay an integer request trace against a committed plan.

    The serve layer (:func:`run_serve`) is the live counterpart; this is
    the offline one-shot. Accepts the same arguments
    as :func:`repro.sim.discrete.replay_trace` (network, trace, x, y,
    plus ``x_initial`` / ``stochastic`` / cost-shape keywords).
    """
    return _replay_trace(*args, **kwargs)  # type: ignore[arg-type]


def build_scenario(**kwargs: object) -> Scenario:
    """Build the paper's Section V-B evaluation scenario.

    A stable alias for :func:`repro.sim.experiment.paper_scenario`; accepts
    the same keyword arguments (``seed``, ``horizon``, ``num_items``,
    ``beta``, ``bandwidth``, ``eta``, ...).
    """
    return paper_scenario(**kwargs)  # type: ignore[arg-type]


def compare_policies(
    scenario: Scenario,
    policies: Iterable[CachingPolicy] | None = None,
    *,
    mode: EvaluationMode = "reoptimize",
    verbose: bool = False,
    executor: object = None,
    config: RuntimeConfig | None = None,
) -> dict[str, RunResult]:
    """Run a set of policies on one scenario, keyed by policy name.

    ``policies`` defaults to the paper's comparison set
    (:func:`default_policies`: Offline, RHC, CHC, AFHC, LRFU). Duplicate
    policy names are de-duplicated (``LRFU``, ``LRFU#2``), never dropped.
    """
    if policies is None:
        policies = default_policies()
    return run_policies(
        scenario,
        policies,
        mode=mode,
        verbose=verbose,
        executor=executor,  # type: ignore[arg-type]
        config=config,
    )


def sweep(
    axis: str,
    values: Sequence[float] | None = None,
    **kwargs: object,
) -> SweepResult:
    """Run one of the paper's parameter sweeps by axis name.

    ``axis`` is one of :data:`SWEEP_AXES`: ``"beta"`` (Fig. 2),
    ``"window"`` (Fig. 3), ``"bandwidth"`` (Fig. 4) or ``"noise"``
    (Fig. 5). ``values`` overrides the figure's default grid; remaining
    keyword arguments go to the underlying sweep function (``seeds``,
    ``mode``, ``executor``, ``config``, scenario parameters, ...).
    """
    sweeps = {
        "beta": beta_sweep,
        "window": window_sweep,
        "bandwidth": bandwidth_sweep,
        "noise": noise_sweep,
    }
    fn = sweeps.get(axis)
    if fn is None:
        raise ConfigurationError(
            f"unknown sweep axis {axis!r}; pick from {SWEEP_AXES}"
        )
    if values is None:
        return fn(**kwargs)  # type: ignore[arg-type]
    if axis == "window":
        values = [int(v) for v in values]
    return fn(values, **kwargs)  # type: ignore[arg-type]


__all__ = [
    # configuration
    "RuntimeConfig",
    "SolveBudget",
    "SolveCache",
    # scenario building blocks
    "BaseStation",
    "ContentCatalog",
    "DemandMatrix",
    "MUClass",
    "Network",
    "Scenario",
    "SmallBaseStation",
    "single_cell_network",
    "build_scenario",
    "paper_scenario",
    # demand and prediction
    "PerfectPredictor",
    "PerturbedPredictor",
    "diurnal_demand",
    "flash_crowd_demand",
    "paper_demand",
    "sample_poisson_trace",
    # costs
    "CostBreakdown",
    "LinearOperatingCost",
    "QuadraticOperatingCost",
    # policies
    "AFHC",
    "BeladyVolume",
    "CHC",
    "CachingPolicy",
    "DistributedOfflineOptimal",
    "FIFO",
    "LFU",
    "LRFU",
    "LRU",
    "NoCache",
    "OfflineOptimal",
    "OnlineSolveSettings",
    "PolicyPlan",
    "RHC",
    "StaticTopK",
    "default_policies",
    # solving and evaluation
    "JointProblem",
    "PrimalDualResult",
    "ReplayReport",
    "RunResult",
    "evaluate_plan",
    "run_policies",
    "run_policy",
    "compare_policies",
    "cost_ratios",
    "solve_primal_dual",
    "replay_plan",
    # serving runtime
    "Decision",
    "HealthScoreStrategy",
    "LeastConnectionsStrategy",
    "OptimalYStrategy",
    "Request",
    "RoundRobinStrategy",
    "RoutingStrategy",
    "ServeReport",
    "decision_digest",
    "open_loop_requests",
    "read_decision_log",
    "render_serve_report",
    "requests_from_trace",
    "run_serve",
    "serve_requests",
    "strategy_by_name",
    "write_decision_log",
    # sweeps and reports
    "SWEEP_AXES",
    "SweepResult",
    "bandwidth_sweep",
    "beta_sweep",
    "headline_comparison",
    "noise_sweep",
    "sweep",
    "window_sweep",
    "render_headline_table",
    "render_sweep_table",
    "sweep_to_dict",
    # metrics
    "EdgeMetrics",
    "compute_edge_metrics",
    # faults and resilience
    "BandwidthDegradation",
    "CacheDegradation",
    "DemandSurge",
    "FaultSchedule",
    "PredictorBlackout",
    "SbsOutage",
    "assert_feasible_under_faults",
    "inject_faults",
    "single_outage_with_degradation",
    "PolicyResilience",
    "ResilienceReport",
    "default_fault_schedule",
    "render_resilience_table",
    "run_resilience",
    # observability
    "ConvergenceTrace",
    "Diagnosis",
    "Finding",
    "MetricsServer",
    "QuantileSketch",
    "Recorder",
    "SloSpec",
    "SloTracker",
    "StageTimers",
    "TraceEvent",
    "WindowedCounter",
    "analyze_trace",
    "current_recorder",
    "parse_slo_specs",
    "read_trace",
    "record_into",
    "render_diagnosis",
    "render_top_frame",
    "render_trace_dashboard",
    "run_manifest",
    "write_manifest",
    "write_trace",
]
