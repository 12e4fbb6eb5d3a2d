"""The serve runtime: streams, strategies, admission, and the swap contract."""

from __future__ import annotations

import asyncio
import time

import numpy as np
import pytest

from repro import api
from repro.config import RuntimeConfig
from repro.exceptions import ConfigurationError
from repro.faults.degrade import realize_caching, scenario_states
from repro.faults.schedule import CacheDegradation, FaultSchedule, SbsOutage
from repro.obs import Recorder, record_into, validate_trace
from repro.serve import (
    AdmissionQueue,
    Decision,
    HealthScoreStrategy,
    LeastConnectionsStrategy,
    OptimalYStrategy,
    PlanManager,
    Request,
    RoundRobinStrategy,
    RouteContext,
    ServerView,
    decision_digest,
    open_loop_requests,
    read_decision_log,
    render_serve_report,
    requests_from_trace,
    run_serve,
    serve_requests,
    strategy_by_name,
    validate_stream,
    write_decision_log,
)


def tiny_scenario(horizon=5, seed=1):
    return api.build_scenario(seed=seed, horizon=horizon)


def fast_solve(scenario):
    """A trivial injected solver: cache item 0 everywhere, split 50/50."""
    net = scenario.network

    def solve(slot, x_prev):
        x = np.zeros((net.num_sbs, net.num_items))
        x[:, 0] = 1.0
        y = np.full((net.num_classes, net.num_items), 0.5)
        return x, y

    return solve


def slow_solve(scenario, delay):
    inner = fast_solve(scenario)

    def solve(slot, x_prev):
        time.sleep(delay)
        return inner(slot, x_prev)

    return solve


class TestStrategies:
    def _ctx(self, y=0.5):
        return RouteContext(
            slot=0, mu_class=0, item=0, cached=True, sbs_up=True, y_fraction=y
        )

    def test_round_robin_cycles(self):
        strat = RoundRobinStrategy()
        sbs, bs = ServerView(sid="sbs:0"), ServerView(sid="bs")
        picks = [strat.select_server([sbs, bs], self._ctx()).sid for _ in range(4)]
        assert picks == ["sbs:0", "bs", "sbs:0", "bs"]

    def test_least_connections_picks_min(self):
        strat = LeastConnectionsStrategy()
        sbs = ServerView(sid="sbs:0", connections=3)
        bs = ServerView(sid="bs", connections=1)
        assert strat.select_server([sbs, bs], self._ctx()) is bs

    def test_health_score_penalizes_failures(self):
        sbs = ServerView(sid="sbs:0", connections=0, failures=4)
        bs = ServerView(sid="bs", connections=1, failures=0)
        assert HealthScoreStrategy.score(sbs) == pytest.approx(0.2)
        assert HealthScoreStrategy.score(bs) == pytest.approx(0.5)
        assert HealthScoreStrategy().select_server([sbs, bs], self._ctx()) is bs

    def test_optimal_y_converges_to_fraction(self):
        strat = OptimalYStrategy()
        sbs, bs = ServerView(sid="sbs:0"), ServerView(sid="bs")
        n = 1000
        hits = sum(
            strat.select_server([sbs, bs], self._ctx(y=0.3)) is sbs
            for _ in range(n)
        )
        assert hits == 300

    def test_optimal_y_without_eligible_sbs_uses_bs(self):
        strat = OptimalYStrategy()
        bs = ServerView(sid="bs")
        assert strat.select_server([bs], self._ctx(y=1.0)) is bs

    def test_strategy_by_name_unknown(self):
        with pytest.raises(ConfigurationError, match="routing strategy"):
            strategy_by_name("random")

    def test_reset_clears_state(self):
        strat = OptimalYStrategy()
        sbs, bs = ServerView(sid="sbs:0"), ServerView(sid="bs")
        strat.select_server([sbs, bs], self._ctx(y=0.9))
        strat.reset()
        assert strat._acc == {}


class TestStreams:
    def test_open_loop_is_deterministic(self):
        scenario = tiny_scenario()
        a = open_loop_requests(scenario, rps=100.0, slot_seconds=0.1, seed=4)
        b = open_loop_requests(scenario, rps=100.0, slot_seconds=0.1, seed=4)
        assert a == b
        assert len(a) == 50  # ceil(5 * 0.1 * 100)
        validate_stream(a)
        assert all(0 <= r.slot < scenario.horizon for r in a)

    def test_open_loop_seed_changes_stream(self):
        scenario = tiny_scenario()
        a = open_loop_requests(scenario, rps=100.0, slot_seconds=0.1, seed=4)
        b = open_loop_requests(scenario, rps=100.0, slot_seconds=0.1, seed=5)
        assert a != b

    def test_open_loop_max_requests_truncates(self):
        scenario = tiny_scenario()
        a = open_loop_requests(
            scenario, rps=100.0, slot_seconds=0.1, seed=4, max_requests=7
        )
        assert len(a) == 7

    def test_requests_from_trace_expands_counts(self):
        scenario = tiny_scenario(horizon=3)
        trace = api.sample_poisson_trace(
            scenario.demand, rng=np.random.default_rng(0)
        )
        stream = requests_from_trace(trace, slot_seconds=0.5)
        assert len(stream) == int(trace.counts.sum())
        validate_stream(stream)
        assert stream == requests_from_trace(trace, slot_seconds=0.5)

    def test_decision_log_round_trip(self, tmp_path):
        decisions = (
            Decision(1, 0, 0, 2, "bs", False, False, 0),
            Decision(0, 0, 1, 3, "sbs", True, False, 0),
        )
        path = tmp_path / "log.jsonl"
        assert write_decision_log(path, decisions) == 2
        back = read_decision_log(path)
        assert [d.seq for d in back] == [0, 1]  # canonical order
        assert decision_digest(back) == decision_digest(decisions)


class TestAdmissionQueue:
    def test_shed_mode_drops_overflow(self):
        async def scenario():
            queue = AdmissionQueue("shed", 2)
            reqs = [Request(i, 0, 0, 0, 0.0) for i in range(3)]
            assert await queue.offer(reqs[0])
            assert await queue.offer(reqs[1])
            assert not await queue.offer(reqs[2])
            assert queue.stats.shed == 1
            assert queue.stats.admitted == 2

        asyncio.run(scenario())

    def test_queue_mode_backpressures(self):
        async def scenario():
            queue = AdmissionQueue("queue", 1)
            assert await queue.offer(Request(0, 0, 0, 0, 0.0))
            blocked = asyncio.ensure_future(queue.offer(Request(1, 0, 0, 0, 0.0)))
            await asyncio.sleep(0)
            assert not blocked.done()  # producer is blocked, nothing dropped
            assert (await queue.get()).seq == 0
            assert await blocked
            assert queue.stats.shed == 0

        asyncio.run(scenario())

    def test_close_terminates_stream(self):
        async def scenario():
            queue = AdmissionQueue("queue", 4)
            await queue.offer(Request(0, 0, 0, 0, 0.0))
            await queue.close()
            assert (await queue.get()).seq == 0
            assert await queue.get() is None

        asyncio.run(scenario())

    def test_rejects_bad_mode_and_depth(self):
        with pytest.raises(ConfigurationError):
            AdmissionQueue("panic", 4)
        with pytest.raises(ConfigurationError):
            AdmissionQueue("queue", 0)


class TestDeterminism:
    def test_same_seed_runs_are_byte_identical(self):
        scenario = tiny_scenario()
        reports = [
            run_serve(
                scenario, rps=100.0, slot_seconds=0.1, seed=2, window=2
            )
            for _ in range(2)
        ]
        a, b = reports
        assert a.digest == b.digest
        assert a.decisions == b.decisions
        lines_a = [d.to_json() for d in a.decisions]
        lines_b = [d.to_json() for d in b.decisions]
        assert lines_a == lines_b
        assert a.cost.total == pytest.approx(b.cost.total)

    def test_queue_admission_decisions_use_own_slot_plan(self):
        scenario = tiny_scenario()
        report = run_serve(
            scenario, rps=100.0, slot_seconds=0.1, seed=2, window=2
        )
        assert report.plan_swaps_dropped == 0
        assert all(d.plan_slot == d.slot for d in report.decisions)
        assert report.decided == report.requests_total
        assert report.solves == scenario.horizon

    def test_report_accounting_is_consistent(self):
        scenario = tiny_scenario()
        report = run_serve(
            scenario, rps=100.0, slot_seconds=0.1, seed=2, window=2
        )
        assert report.decided == report.sbs_served + report.bs_served
        assert report.hit_rate == report.hits / report.decided
        assert report.slots_served == scenario.horizon
        payload = report.to_dict()
        assert payload["decision_digest"] == report.digest
        assert "decisions" not in payload
        assert "digest" in render_serve_report(report)


class TestPlanSwapContract:
    def test_atomic_swaps_under_slow_solver(self):
        scenario = tiny_scenario()
        report = run_serve(
            scenario,
            rps=100.0,
            slot_seconds=0.1,
            seed=2,
            window=2,
            solve_fn=slow_solve(scenario, 0.03),
        )
        # queue admission: the boundary waits, so every decision is made
        # from its own slot's plan even though the solver lags the stream.
        assert report.plan_swaps_dropped == 0
        assert all(d.plan_slot == d.slot for d in report.decisions)
        assert report.plan_swaps == scenario.horizon
        assert report.plan_swaps_late > 0

    def test_shed_mode_overload_sheds_and_staleness_is_counted(self):
        # Paced replay with a solver slower than the slot clock: admission
        # sheds while the consumer bootstraps, and later slots must serve
        # from a stale (dropped-swap) plan instead of blocking.
        scenario = tiny_scenario()
        report = run_serve(
            scenario,
            rps=100.0,
            slot_seconds=0.1,
            seed=2,
            window=2,
            admission="shed",
            queue_depth=4,
            pace=True,
            solve_fn=slow_solve(scenario, 0.15),
        )
        assert report.shed > 0
        assert report.decided + report.shed == report.requests_total
        assert report.plan_swaps_dropped > 0  # solver behind, stale plan used
        shed = [d for d in report.decisions if d.route == "shed"]
        assert len(shed) == report.shed
        assert all(d.plan_slot == -1 for d in shed)
        served = [d for d in report.decisions if d.route != "shed"]
        assert all(d.plan_slot <= d.slot for d in served)

    def test_solver_failure_propagates(self):
        scenario = tiny_scenario()

        def broken(slot, x_prev):
            raise RuntimeError("solver exploded")

        with pytest.raises(RuntimeError, match="solver exploded"):
            run_serve(
                scenario, rps=50.0, slot_seconds=0.1, seed=2, solve_fn=broken
            )

    def test_stream_past_horizon_rejected(self):
        scenario = tiny_scenario(horizon=2)
        bad = (Request(seq=0, slot=5, mu_class=0, item=0, arrival=0.0),)
        with pytest.raises(ConfigurationError, match="horizon"):
            asyncio.run(serve_requests(scenario, bad, solve_fn=fast_solve(scenario)))

    def test_empty_stream_reports_zeroes(self):
        scenario = tiny_scenario(horizon=2)
        report = asyncio.run(
            serve_requests(scenario, (), solve_fn=fast_solve(scenario))
        )
        assert report.requests_total == 0
        assert report.decided == 0
        assert report.solves == 0


class TestPlanManager:
    def test_commits_binarized_injected_plans(self):
        scenario = tiny_scenario(horizon=3)
        planner = PlanManager(scenario, solve_fn=fast_solve(scenario))
        asyncio.run(planner.run(3))
        assert planner.solves == 3
        for t in range(3):
            plan = planner.plans[t]
            assert plan.slot == t
            assert set(np.unique(plan.x)) <= {0.0, 1.0}
        assert planner.latest_at(10) is planner.plans[2]

    def test_wait_for_raises_after_failure(self):
        scenario = tiny_scenario(horizon=2)

        def broken(slot, x_prev):
            raise ValueError("no plan for you")

        async def scenario_run():
            planner = PlanManager(scenario, solve_fn=broken)
            task = asyncio.ensure_future(planner.run(2))
            with pytest.raises(ValueError, match="no plan"):
                await planner.wait_for(0)
            with pytest.raises(ValueError):
                await task

        asyncio.run(scenario_run())

    def test_rejects_nonpositive_window(self):
        with pytest.raises(ConfigurationError, match="window"):
            PlanManager(tiny_scenario(horizon=2), window=0)

    def test_commits_the_rhc_plan_and_the_installed_caches(self):
        # The serve chain is RHC stepped one slot at a time: fault-free it
        # commits RHC's rows; under faults it commits the caches actually
        # installed (RHC's caches rolled through the physical repairs). A
        # cache shrink during an outage makes the two differ: the frozen
        # caches no longer fit and are evicted.
        nominal = tiny_scenario(horizon=6, seed=2)
        faulted = api.inject_faults(
            nominal,
            FaultSchedule(
                events=(
                    SbsOutage(sbs=0, start=1, duration=3),
                    CacheDegradation(sbs=0, start=2, duration=1, factor=0.5),
                )
            ),
        )
        for scenario in (nominal, faulted):
            planner = PlanManager(scenario, window=3)
            asyncio.run(planner.run(scenario.horizon))
            rhc = api.RHC(window=3).plan(scenario)
            x_served = realize_caching(
                rhc.x,
                scenario.x_initial,
                scenario_states(scenario),
                scenario.demand.rates,
                scenario.network,
            )
            assert (x_served.tobytes() == rhc.x.tobytes()) == (scenario is nominal)
            for t in range(scenario.horizon):
                assert planner.plans[t].x.tobytes() == x_served[t].tobytes()
                assert planner.plans[t].y.tobytes() == rhc.y[t].tobytes()


class TestStrategyComparison:
    def test_heuristics_run_on_identical_streams(self):
        scenario = tiny_scenario()
        stream = open_loop_requests(
            scenario, rps=100.0, slot_seconds=0.1, seed=2
        )
        reports = {
            name: asyncio.run(
                serve_requests(
                    scenario,
                    stream,
                    strategy=name,
                    window=2,
                    slot_seconds=0.1,
                )
            )
            for name in ("optimal-y", "round-robin", "least-connections",
                         "health-score")
        }
        assert {r.requests_total for r in reports.values()} == {len(stream)}
        for name, report in reports.items():
            assert report.strategy == name
            assert report.decided == len(stream)
            assert report.cost.total > 0


class TestConfigIntegration:
    def test_runtime_config_supplies_serve_knobs(self):
        scenario = tiny_scenario(horizon=2)
        config = RuntimeConfig(
            serve_rps=40.0,
            serve_admission="shed",
            serve_queue_depth=8,
            serve_slot_seconds=0.1,
        )
        report = run_serve(
            scenario, config=config, solve_fn=fast_solve(scenario)
        )
        assert report.admission == "shed"
        assert report.queue_depth == 8
        assert report.slot_seconds == 0.1
        assert report.requests_total == 8  # ceil(2 * 0.1 * 40)

    def test_args_beat_config(self):
        scenario = tiny_scenario(horizon=2)
        config = RuntimeConfig(serve_admission="shed")
        report = run_serve(
            scenario,
            config=config,
            admission="queue",
            rps=40.0,
            slot_seconds=0.1,
            solve_fn=fast_solve(scenario),
        )
        assert report.admission == "queue"


class TestObsIntegration:
    def test_serve_emits_swaps_and_counters(self):
        scenario = tiny_scenario()
        recorder = Recorder()
        with record_into(recorder):
            report = run_serve(
                scenario, rps=100.0, slot_seconds=0.1, seed=2, window=2
            )
        assert validate_trace(recorder.events) == len(recorder.events)
        kinds = {e.kind for e in recorder.events}
        assert {"plan_swap", "slot_end", "solve_done"} <= kinds
        swaps = [e for e in recorder.events if e.kind == "plan_swap"]
        assert len(swaps) == report.plan_swaps
        assert all(e.data["plan_slot"] == e.slot for e in swaps)
        counters = recorder.metrics.to_dict()["counters"]
        assert counters["serve_requests"] == report.decided
        assert counters["serve_plan_swaps"] == report.plan_swaps

    def test_shed_emits_request_shed_events(self):
        scenario = tiny_scenario()
        recorder = Recorder()
        with record_into(recorder):
            report = run_serve(
                scenario,
                rps=100.0,
                slot_seconds=0.1,
                seed=2,
                admission="shed",
                queue_depth=4,
                solve_fn=slow_solve(scenario, 0.05),
            )
        shed_events = [e for e in recorder.events if e.kind == "request_shed"]
        assert len(shed_events) == report.shed > 0

    def test_faulted_scenario_serves_from_installed_caches(self):
        scenario = tiny_scenario(horizon=8)
        schedule = api.default_fault_schedule(8)
        faulted = api.inject_faults(scenario, schedule)
        recorder = Recorder()
        with record_into(recorder):
            report = run_serve(
                faulted, rps=60.0, slot_seconds=0.1, seed=2, window=3
            )
        assert report.decided == report.requests_total
        kinds = {e.kind for e in recorder.events}
        assert "fault_injected" in kinds
        # determinism holds under faults too
        again = run_serve(faulted, rps=60.0, slot_seconds=0.1, seed=2, window=3)
        assert again.digest == report.digest
