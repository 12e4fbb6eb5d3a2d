"""The benchmark's three workloads: inputs, the timed call, output checks.

Each workload warms the solve stack up, builds one call's inputs from a
seed, runs the timed call into the program's public API and checks what
came back. ``workloads.json`` beside this file records why each workload
was chosen, its loop type, its seeds and its path-split predictions;
``reference.json`` holds the outputs recorded per seed.

- ``paper-online``: the paper's single-SBS headline comparison (Sec. V-C)
  at beta=50, w=10, T=40. Every kernel call carries one row, so per-call
  overhead dominates.
- ``wide-cell``: one 20-iteration offline Algorithm 1 solve on a
  100-SBS, 2,000-item instance. Every kernel call carries 100 rows.
- ``serve-paced``: the live serving runtime replaying a benchmark-made
  open-loop stream at 2,000 req/s against RHC re-solves, paced to the
  wall clock.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import repro.serve.loop as serve_loop
from repro import api
from repro.api import Request, build_scenario, headline_comparison, run_serve
from repro.core.problem import JointProblem
from repro.exceptions import ReproError
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.perf.solvecache import SolveCache
from repro.serve.routing import OptimalYStrategy

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))["workloads"]
REFERENCE_PATH = HERE / "reference.json"

#: Costs recorded per seed are compared at this relative tolerance: far
#: below any change of solution, above summation-order noise.
COST_RTOL = 1e-9


def reference() -> dict[str, dict[str, dict[str, float]]]:
    """Recorded outputs, ``{workload: {seed: {quantity: value}}}``."""
    if not REFERENCE_PATH.exists():
        return {}
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


def _same(a: float, b: float) -> bool:
    return abs(a - b) <= COST_RTOL * max(abs(a), abs(b), 1.0)


def _check_recorded(
    name: str, seed: int, values: dict[str, float]
) -> list[str]:
    """Compare ``values`` with the outputs recorded for ``seed``, if any."""
    recorded = reference().get(name, {}).get(str(seed))
    if recorded is None:
        return []
    return [
        f"{key} = {values[key]!r}, recorded {want!r}"
        for key, want in recorded.items()
        if not _same(values[key], want)
    ]


@dataclass
class Outcome:
    """What one timed call produced, as the benchmark scores it."""

    attempted: int
    failed: int
    failures: list[str]
    #: Workload figures printed by name (costs, gaps, latencies).
    figures: dict[str, tuple[float, str]]
    #: Per-request decision latencies (us), pooled across calls.
    decision_us: list[float] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    name: str
    #: ``warm_up(seed)``: a small run through the same solve paths.
    warm_up: Callable[[int], None]
    #: ``instance(seed) -> state``: build one call's inputs.
    instance: Callable[[int], Any]
    #: ``run(state) -> raw``: the timed call.
    run: Callable[[Any], Any]
    #: ``score(state, raw) -> Outcome``: check and summarize (untimed).
    score: Callable[[Any, Any], Outcome]


# ----------------------------------------------------------- paper-online

PAPER_BETA = 50.0
PAPER_WINDOW = 10
PAPER_HORIZON = 40
PAPER_ETA = 0.1
#: Policy display names, as the comparison labels them.
PAPER_POLICIES = {
    "offline_cost": "Offline",
    "rhc_cost": "RHC(w=10)",
    "chc_cost": "CHC(w=10,r=5)",
    "afhc_cost": "AFHC(w=10)",
    "lrfu_cost": "LRFU",
}


def _paper_comparison(seed: int, *, horizon: int, window: int) -> Any:
    return headline_comparison(
        beta=PAPER_BETA,
        window=window,
        seeds=(seed,),
        horizon=horizon,
        eta=PAPER_ETA,
        executor="serial",
    )


@dataclass(frozen=True)
class PaperState:
    seed: int


def paper_warm_up(seed: int) -> None:
    # The same comparison at a 4-slot horizon touches every policy, solve
    # path and evaluation path once.
    _paper_comparison(seed, horizon=4, window=2)


def paper_run(state: PaperState) -> dict[str, float]:
    sweep = _paper_comparison(
        state.seed, horizon=PAPER_HORIZON, window=PAPER_WINDOW
    )
    metrics = sweep.points[0].metrics
    return {
        key: float(metrics[label]["total"])
        for key, label in PAPER_POLICIES.items()
    }


def paper_score(state: PaperState, costs: dict[str, float]) -> Outcome:
    failures = _check_recorded("paper-online", state.seed, costs)
    # Alg. 1's offline plan is an upper bound, not the optimum, so an
    # online controller may beat it; both must beat LRFU.
    for key in ("offline_cost", "rhc_cost"):
        if not costs[key] <= costs["lrfu_cost"]:
            failures.append(f"{key} {costs[key]!r} > lrfu_cost {costs['lrfu_cost']!r}")
    figures = {key: (value, "cost") for key, value in costs.items()}
    return Outcome(1, int(bool(failures)), failures, figures)


# -------------------------------------------------------------- wide-cell

WIDE_SBS = 100
WIDE_CLASSES_PER_SBS = 2
WIDE_ITEMS = 2_000
WIDE_HORIZON = 4
WIDE_CACHE = 12
WIDE_BANDWIDTH = 2.0
WIDE_BETA = 4.0
WIDE_ITERATIONS = 20


def wide_problem(
    seed: int,
    *,
    num_sbs: int = WIDE_SBS,
    num_items: int = WIDE_ITEMS,
    horizon: int = WIDE_HORIZON,
) -> JointProblem:
    """A multi-SBS instance in the overload regime (bandwidth ~ half load).

    Zipf(0.8, shift 30) popularity permuted per MU class; per-class
    density ~ U[0, 4] per slot; MU-to-BS weights ~ U[0.5, 1.5].
    """
    rng = np.random.default_rng(seed)
    num_classes = num_sbs * WIDE_CLASSES_PER_SBS
    network = Network(
        ContentCatalog(num_items),
        tuple(
            SmallBaseStation(n, WIDE_CACHE, WIDE_BANDWIDTH, WIDE_BETA)
            for n in range(num_sbs)
        ),
        tuple(
            MUClass(m, m // WIDE_CLASSES_PER_SBS, float(rng.uniform(0.5, 1.5)))
            for m in range(num_classes)
        ),
    )
    zipf = (np.arange(1, num_items + 1) + 30.0) ** -0.8
    zipf /= zipf.sum()
    pref = np.stack([rng.permutation(zipf) for _ in range(num_classes)])
    density = rng.uniform(0.0, 4.0, size=(horizon, num_classes))
    return JointProblem(network=network, demand=density[:, :, None] * pref[None])


def _wide_solve(problem: JointProblem, max_iter: int) -> Any:
    # Looked up on the module at call time, so a traced run's rebinding
    # applies.
    return api.solve_primal_dual(
        problem,
        max_iter=max_iter,
        caching_backend="flow",
        solve_cache=SolveCache(),
    )


@dataclass(frozen=True)
class WideState:
    seed: int
    problem: JointProblem


def wide_warm_up(seed: int) -> None:
    _wide_solve(wide_problem(seed, num_sbs=4, num_items=200), 2)


def wide_instance(seed: int) -> WideState:
    return WideState(seed, wide_problem(seed))


def wide_run(state: WideState) -> Any:
    return _wide_solve(state.problem, WIDE_ITERATIONS)


def wide_score(state: WideState, result: Any) -> Outcome:
    failures = []
    try:
        state.problem.check_feasible(result.x, result.y)
    except ReproError as exc:
        failures.append(f"infeasible plan: {exc}")
    cost = float(result.cost.total)
    lower = float(result.lower_bound)
    if not lower <= cost:
        failures.append(f"lower bound {lower!r} > offline cost {cost!r}")
    values = {"offline_cost": cost, "lower_bound": lower}
    failures += _check_recorded("wide-cell", state.seed, values)
    figures = {
        "offline_cost": (cost, "cost"),
        "lower_bound": (lower, "cost"),
        "dual_gap": (float(result.gap), "ratio"),
        "iterations": (float(result.iterations), "count"),
    }
    return Outcome(1, int(bool(failures)), failures, figures)


# ------------------------------------------------------------ serve-paced

SERVE_HORIZON = 60
SERVE_RPS = 2_000.0
SERVE_SLOT_SECONDS = 0.1
SERVE_WINDOW = 10
#: The deployment is fixed (the Sec. V-B scenario of seed 1); the seed
#: draws the request stream. The plan re-solves depend on the scenario
#: only, so every seed asks the solver thread for the same work.
SERVE_SCENARIO_SEED = 1
#: One second of traffic. The first slot's requests wait for the first
#: plan (about 0.1 s of solving); with the default depth of 256 (0.128 s
#: of traffic) a slow first solve sheds requests. A deeper queue charges
#: such a stall to decision latency instead.
SERVE_QUEUE_DEPTH = 2_000


def serve_stream(scenario: Any, seed: int) -> tuple[Request, ...]:
    """Open-loop arrivals every ``1/rps`` s; ``(class, item)`` drawn from
    each slot's true demand rates."""
    rng = np.random.default_rng(seed)
    rates = scenario.demand.rates  # (T, M, K)
    per_slot = int(round(SERVE_RPS * SERVE_SLOT_SECONDS))
    num_items = rates.shape[2]
    requests = []
    for t in range(scenario.horizon):
        p = rates[t].ravel()
        picks = rng.choice(p.size, size=per_slot, p=p / p.sum())
        for j, flat in enumerate(picks):
            seq = t * per_slot + j
            requests.append(
                Request(
                    seq=seq,
                    slot=t,
                    mu_class=int(flat // num_items),
                    item=int(flat % num_items),
                    arrival=seq / SERVE_RPS,
                )
            )
    return tuple(requests)


class _StampedStrategy(OptimalYStrategy):
    """The paper's optimal-y routing, stamping the wall time of each
    routing decision (one ``select_server`` call per decided request)."""

    def __init__(self) -> None:
        super().__init__()
        self.stamps: list[float] = []

    def select_server(self, servers, ctx):  # type: ignore[override]
        self.stamps.append(time.perf_counter())
        return super().select_server(servers, ctx)


class _StartClock:
    """Stands in for ``repro.serve.loop.time`` until its first
    ``perf_counter`` call, which is the loop's schedule origin: request
    ``i`` is due at ``origin + arrival_i``. Restores the module after."""

    def __init__(self) -> None:
        self.origin: float | None = None

    def __getattr__(self, name: str) -> Any:
        return getattr(time, name)

    def perf_counter(self) -> float:
        self.origin = time.perf_counter()
        serve_loop.time = time
        return self.origin


@dataclass
class ServeState:
    seed: int
    scenario: Any
    stream: tuple[Request, ...]


def _serve(state: ServeState, *, pace: bool) -> tuple[Any, list[float], float]:
    strategy = _StampedStrategy()
    clock = _StartClock()
    serve_loop.time = clock  # type: ignore[assignment]
    try:
        report = run_serve(
            state.scenario,
            requests=state.stream,
            strategy=strategy,
            slot_seconds=SERVE_SLOT_SECONDS,
            admission="shed",
            queue_depth=SERVE_QUEUE_DEPTH,
            pace=pace,
            window=SERVE_WINDOW,
        )
    finally:
        serve_loop.time = time
    assert clock.origin is not None
    return report, strategy.stamps, clock.origin


def serve_warm_up(seed: int) -> None:
    small = build_scenario(seed=SERVE_SCENARIO_SEED, horizon=4)
    _serve(ServeState(seed, small, serve_stream(small, seed)), pace=False)


def serve_instance(seed: int) -> ServeState:
    scenario = build_scenario(seed=SERVE_SCENARIO_SEED, horizon=SERVE_HORIZON)
    return ServeState(seed, scenario, serve_stream(scenario, seed))


def serve_run(state: ServeState) -> tuple[Any, list[float], float]:
    return _serve(state, pace=True)


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (the serve report's own definition)."""
    ordered = sorted(values)
    idx = min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))
    return float(ordered[idx])


def serve_score(state: ServeState, raw: tuple[Any, list[float], float]) -> Outcome:
    report, stamps, origin = raw
    total = len(state.stream)
    failures = []
    if report.requests_total != total or report.decided + report.shed != total:
        failures.append(
            f"decided {report.decided} + shed {report.shed} != requests {total}"
        )
    stale = [d.seq for d in report.decisions if d.plan_slot > d.slot]
    if stale:
        failures.append(f"{len(stale)} decisions used a plan from a later slot")
    decided = [d for d in report.decisions if d.route != "shed"]
    if len(stamps) != len(decided):
        failures.append(f"{len(stamps)} routing calls for {len(decided)} decisions")
        latencies: list[float] = []
    else:
        # Queue order is stream order, so the i-th routing call decides the
        # i-th admitted request.
        latencies = [
            stamp - (origin + state.stream[d.seq].arrival)
            for stamp, d in zip(stamps, decided)
        ]
    figures = {
        "shed_ratio": (report.shed_ratio, "share"),
        "swap_drop_ratio": (report.swap_drop_ratio, "share"),
        "serve.loop.plan_swaps_late": (float(report.plan_swaps_late), "count"),
        "serve.loop.decision_service_p50_us": (
            report.decision_p50_seconds * 1e6,
            "us",
        ),
        "serve.loop.decision_service_p99_us": (
            report.decision_p99_seconds * 1e6,
            "us",
        ),
        "serve.loop.swap_wait_p99_ms": (report.swap_wait_p99_seconds * 1e3, "ms"),
        "served_cost": (float(report.cost.total), "cost"),
    }
    failed = report.shed + (total if failures else 0)
    return Outcome(
        total,
        min(failed, total),
        failures,
        figures,
        [v * 1e6 for v in latencies],
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload("paper-online", paper_warm_up, PaperState, paper_run, paper_score),
        Workload("wide-cell", wide_warm_up, wide_instance, wide_run, wide_score),
        Workload(
            "serve-paced", serve_warm_up, serve_instance, serve_run, serve_score
        ),
    )
}
