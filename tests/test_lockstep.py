"""Lockstep Algorithm 1: a stacked solve equals its windows solved alone.

:func:`repro.core.primal_dual.solve_primal_dual_stack` runs independent
windows through one ``P1``/``P2``/repair call per iteration over their
union network, with every scalar of Algorithm 1 kept per window. Stacking
selects *granularity, not semantics*: each window's result must be bit for
bit what :func:`repro.core.primal_dual.solve_primal_dual` (the stack of
one) returns for it. These tests pin that on randomized stacks — windows
with different networks (caps, bandwidths, ``beta``, outages), all-zero
demand, warm starts, seeds, and stopping at different iterations for
different reasons — and pin that RHC/CHC/AFHC, which step their FHC chains
in lockstep, plan exactly what the chains run one after another plan. The
``P1`` memo is a pure cache: a cache that never answers gives bitwise the
same stacks and plans.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import primal_dual
from repro.core.horizon import committed_slots, fhc_solve_times
from repro.core.online import base as online_base
from repro.core.online import chc as online_chc
from repro.core.online import fhc as online_fhc
from repro.core.online import rhc as online_rhc
from repro.core.online.base import (
    OnlineSolveSettings,
    record_cache_stats,
    shift_mu,
    solve_window,
)
from repro.core.online.chc import AFHC, CHC
from repro.core.online.rhc import RHC
from repro.core.primal_dual import (
    WindowProblem,
    solve_primal_dual,
    solve_primal_dual_stack,
)
from repro.core.problem import JointProblem, stack_problems
from repro.core.rounding import (
    optimal_rounding_threshold,
    round_caching,
    round_load_balancing,
)
from repro.exceptions import ConfigurationError, DimensionMismatchError
from repro.faults import inject_faults, single_outage_with_degradation
from repro.faults.degrade import realize_slot, scenario_states
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.obs import Recorder, analyze_trace, record_into
from repro.obs.events import TraceEvent
from repro.obs.recorder import inc, label_scope
from repro.perf.solvecache import SolveCache
from repro.sim.experiment import paper_scenario


def _window(rng, *, K, T, omega_hat=0.0, zero_demand=False, outage=False):
    """A random window problem: 1-3 SBSs, 1-3 classes each, its own caps,
    bandwidths and ``beta``; optionally all-zero demand or one SBS down
    (cap 0, bandwidth 0, as a fault-degraded network plans it)."""
    N = int(rng.integers(1, 4))
    caps = rng.integers(1, min(3, K) + 1, size=N)
    bandwidths = rng.uniform(0.5, 4.0, size=N)
    if outage:
        down = int(rng.integers(N))
        caps[down] = 0
        bandwidths[down] = 0.0
    sbss = tuple(
        SmallBaseStation(n, int(caps[n]), float(bandwidths[n]), float(rng.uniform(0.5, 5.0)))
        for n in range(N)
    )
    classes, cid = [], 0
    for n in range(N):
        for _ in range(int(rng.integers(1, 4))):
            classes.append(MUClass(cid, n, float(rng.uniform(0.1, 1.0)), omega_hat))
            cid += 1
    net = Network(ContentCatalog(K), sbss, tuple(classes))
    demand = rng.uniform(0.0, 3.0, size=(T, net.num_classes, K))
    demand *= rng.random(demand.shape) > 0.3
    if zero_demand:
        demand[:] = 0.0
    x0 = np.zeros((N, K))
    for n in range(N):
        x0[n, rng.choice(K, size=int(caps[n]), replace=False)] = 1.0
    return JointProblem(network=net, demand=demand, x_initial=x0)


def _feasible_x(rng, problem):
    x = np.zeros(problem.x_shape)
    caps = problem.network.cache_sizes
    for t in range(problem.horizon):
        for n in range(problem.network.num_sbs):
            x[t, n, rng.choice(problem.network.num_items, size=int(caps[n]), replace=False)] = 1.0
    return x


def _stack(rng, *, B, K, T, omega_hat=0.0):
    windows = []
    for _ in range(B):
        kind = rng.random()
        problem = _window(
            rng,
            K=K,
            T=T,
            omega_hat=omega_hat,
            zero_demand=kind < 0.15,
            outage=0.15 <= kind < 0.35,
        )
        mu0 = None
        if rng.random() < 0.5:
            mu0 = rng.uniform(0.0, 4.0, size=problem.y_shape)
            mu0 *= rng.random(problem.y_shape) > 0.4
        candidates = None
        if rng.random() < 0.5:
            candidates = tuple(_feasible_x(rng, problem) for _ in range(int(rng.integers(1, 3))))
        windows.append(WindowProblem(problem, mu0=mu0, initial_candidates=candidates))
    return windows


def _assert_same_result(a, b):
    for name in ("x", "y", "mu"):
        va, vb = getattr(a, name), getattr(b, name)
        assert va.shape == vb.shape and va.tobytes() == vb.tobytes(), name
    assert a.cost == b.cost
    for name in ("lower_bound", "gap", "iterations", "converged", "stop_reason"):
        assert getattr(a, name) == getattr(b, name), name
    assert a.stopped_by_budget == b.stopped_by_budget
    assert a.history == b.history
    assert a.convergence == b.convergence


class _MissCache(SolveCache):
    """A ``SolveCache`` that never answers: every lookup is a miss, so
    every ``P1`` row is solved cold. Algorithm 1 fed this cache must give
    bitwise what it gives with a real one — the memo is a pure cache."""

    def lookup(self, key):
        self.misses += 1
        return None


stack_draws = st.tuples(
    st.integers(0, 2**32 - 1),  # numpy seed
    st.integers(2, 5),  # B windows
    st.integers(3, 7),  # K
    st.integers(1, 4),  # T
    st.sampled_from([1, 3, 12]),  # max_iter
    st.sampled_from([None, 1, 3]),  # ub_patience
    st.sampled_from([1e-6, 1e-3, 5e-2]),  # gap_tol
    st.sampled_from(["polyak", "paper"]),
    st.booleans(),  # the stack's cache: real memo, or one that always misses
)


def _solve_both(windows, *, max_iter, ub_patience, gap_tol, step, memo):
    """Each window solved in one stack and alone. The stack shares one real
    ``SolveCache`` (``memo``) or a :class:`_MissCache`; each alone solve
    makes its own real cache, so ``memo=False`` also pins that a memo hit
    never changes a result."""
    kwargs = dict(max_iter=max_iter, ub_patience=ub_patience, gap_tol=gap_tol, step=step)
    stacked = solve_primal_dual_stack(
        windows, solve_cache=SolveCache() if memo else _MissCache(), **kwargs
    )
    alone = [
        solve_primal_dual(
            w.problem, mu0=w.mu0, initial_candidates=w.initial_candidates, **kwargs
        )
        for w in windows
    ]
    return stacked, alone


class TestStackedEqualsAlone:
    @settings(max_examples=30, deadline=None)
    @given(stack_draws)
    def test_closed_form_stack_bitwise(self, d):
        seed, B, K, T, max_iter, patience, gap_tol, step, memo = d
        rng = np.random.default_rng(seed)
        windows = _stack(rng, B=B, K=K, T=T)
        stacked, alone = _solve_both(
            windows,
            max_iter=max_iter,
            ub_patience=patience,
            gap_tol=gap_tol,
            step=step,
            memo=memo,
        )
        assert len(stacked) == B
        for a, b in zip(stacked, alone):
            _assert_same_result(a, b)

    @settings(max_examples=6, deadline=None)
    @given(stack_draws)
    def test_fista_windows_stack_bitwise(self, d):
        # omega-hat > 0 routes P2 through FISTA, which steps on the whole
        # vector; the stack must still answer each window as if alone.
        seed, B, K, T, max_iter, patience, gap_tol, step, memo = d
        rng = np.random.default_rng(seed)
        windows = _stack(rng, B=min(B, 3), K=K, T=T, omega_hat=0.3)
        stacked, alone = _solve_both(
            windows,
            max_iter=min(max_iter, 3),
            ub_patience=patience,
            gap_tol=gap_tol,
            step=step,
            memo=memo,
        )
        for a, b in zip(stacked, alone):
            _assert_same_result(a, b)

    def test_windows_stop_at_different_iterations(self):
        # The property above only means something if stacks really are
        # ragged: find one whose windows stop at different iterations for
        # different reasons, and check it.
        for seed in range(40):
            rng = np.random.default_rng(seed)
            windows = _stack(rng, B=4, K=5, T=3)
            stacked, alone = _solve_both(
                windows, max_iter=12, ub_patience=3, gap_tol=1e-3, step="polyak", memo=True
            )
            if len({r.iterations for r in stacked}) > 1 and len(
                {r.stop_reason for r in stacked}
            ) > 1:
                break
        else:  # pragma: no cover - the generator always finds one
            pytest.fail("no ragged stack drawn")
        for a, b in zip(stacked, alone):
            _assert_same_result(a, b)

    def test_memo_is_a_pure_cache_on_ragged_stacks(self):
        # A ragged stack whose real memo answers some rows (the stall
        # re-anchor and best-dual recovery revisit earlier prices) solves
        # bitwise as with a cache that never answers.
        kwargs = dict(max_iter=30, ub_patience=None, gap_tol=1e-6)
        for seed in range(40):
            windows = _stack(np.random.default_rng(seed), B=4, K=5, T=3)
            real = SolveCache()
            with_memo = solve_primal_dual_stack(windows, solve_cache=real, **kwargs)
            if real.hits and len({r.iterations for r in with_memo}) > 1:
                break
        else:  # pragma: no cover - the generator always finds one
            pytest.fail("no ragged stack with memo hits drawn")
        miss = _MissCache()
        cold = solve_primal_dual_stack(windows, solve_cache=miss, **kwargs)
        assert miss.hits == 0 and miss.misses == real.hits + real.misses
        for a, b in zip(with_memo, cold):
            _assert_same_result(a, b)

    def test_solve_done_per_window_with_its_slot(self):
        rng = np.random.default_rng(3)
        windows = [
            WindowProblem(_window(rng, K=4, T=2), slot=s) for s in (5, 6, 7)
        ]
        recorder = Recorder()
        with record_into(recorder):
            results = solve_primal_dual_stack(windows, max_iter=6, ub_patience=2)
        done = [e for e in recorder.events if e.kind == "solve_done"]
        assert sorted(e.slot for e in done) == [5, 6, 7]
        by_slot = {e.slot: e for e in done}
        for w, r in zip(windows, results):
            assert by_slot[w.slot].data["stop_reason"] == r.stop_reason
            assert by_slot[w.slot].data["iterations"] == r.iterations

    def test_stack_rejects_mixed_shapes(self):
        rng = np.random.default_rng(0)
        with pytest.raises(DimensionMismatchError):
            solve_primal_dual_stack(
                [WindowProblem(_window(rng, K=4, T=2)), WindowProblem(_window(rng, K=4, T=3))]
            )
        with pytest.raises(ConfigurationError, match="catalog"):
            solve_primal_dual_stack(
                [WindowProblem(_window(rng, K=4, T=2)), WindowProblem(_window(rng, K=5, T=2))]
            )
        assert solve_primal_dual_stack([]) == []

    def test_union_network_blocks(self):
        rng = np.random.default_rng(1)
        a, b = _window(rng, K=4, T=2, outage=True), _window(rng, K=4, T=2)
        union = stack_problems([a, b])
        na = a.network.num_sbs
        assert union.network.num_sbs == na + b.network.num_sbs
        assert np.array_equal(
            union.network.cache_sizes,
            np.concatenate([a.network.cache_sizes, b.network.cache_sizes]),
        )
        assert np.array_equal(union.network.class_sbs[a.network.num_classes :] - na, b.network.class_sbs)
        assert np.array_equal(union.demand[:, : a.network.num_classes], a.demand)
        assert np.array_equal(union.x_initial[na:], b.x_initial)


class TestStopReason:
    """Every stop reason is reachable, and reported on result and event."""

    @pytest.mark.parametrize(
        "reason, kwargs, zero_demand",
        [
            ("gap", dict(gap_tol=10.0), False),
            ("patience", dict(gap_tol=-1.0, ub_patience=1, max_iter=50), False),
            ("budget", dict(gap_tol=-1.0, max_seconds=0.0), False),
            ("zero_subgradient", dict(gap_tol=-1.0), True),
            ("iteration_cap", dict(gap_tol=-1.0, max_iter=2), False),
        ],
    )
    def test_each_reason_reachable(self, tiny_problem, reason, kwargs, zero_demand):
        problem = tiny_problem
        if zero_demand:
            problem = JointProblem(problem.network, np.zeros_like(problem.demand))
        recorder = Recorder()
        with record_into(recorder):
            result = solve_primal_dual(problem, **kwargs)
        assert result.stop_reason == reason
        (done,) = [e for e in recorder.events if e.kind == "solve_done"]
        assert done.data["stop_reason"] == reason
        assert done.data["stopped_by_patience"] == (reason == "patience")
        assert done.data["stopped_by_budget"] == (reason == "budget")
        assert result.stopped_by_budget == (reason == "budget")
        if reason == "gap":
            assert result.converged

    def test_unknown_step_mode_rejected_up_front(self, tiny_problem):
        with pytest.raises(ConfigurationError):
            solve_primal_dual(tiny_problem, step="bogus")


def _stall_event(i, **data):
    return TraceEvent.make(i, "solve_done", i, gap=0.5, converged=False, **data)


class TestStallReadsStopReason:
    def test_patience_reason_is_not_a_stall(self):
        events = [_stall_event(i, stop_reason="patience") for i in range(5)]
        assert analyze_trace(events).verdict == "clean"

    def test_cap_reason_is_a_stall(self):
        events = [_stall_event(i, stop_reason="iteration_cap") for i in range(5)]
        kinds = [f.kind for f in analyze_trace(events).findings]
        assert "convergence_stall" in kinds


# ------------------------------------------------------- RHC / CHC / AFHC

SETTINGS = OnlineSolveSettings(max_iter=12)
COUNTERS = (
    "window_solves",
    "window_solves_warm_started",
    "window_solves_candidate_seeded",
    "controller_commits",
    "fhc_variants_run",
    "p1_memo_hits",
    "p1_memo_misses",
)


def _commitment(policy):
    return policy.commitment if isinstance(policy, CHC) else 1


def _sequential_variant(scenario, v, policy, cache):
    """One FHC chain run alone, window after window through
    :func:`solve_window` — the per-variant loop CHC ran before its chains
    stepped in lockstep, and RHC's own loop (the chain with ``r = 1``)."""
    w, r = policy.window, _commitment(policy)
    labels = {"controller": "RHC"} if r == 1 else {"controller": "FHC", "variant": v}
    T, net = scenario.horizon, scenario.network
    x = np.zeros((T, net.num_sbs, net.num_items))
    y = np.zeros((T, net.num_classes, net.num_items))
    x_prev, mu_warm, x_warm, solves = scenario.x_initial, None, None, 0
    faulted = scenario.faults is not None and not scenario.faults.is_empty
    states = scenario_states(scenario) if faulted else None
    for tau in fhc_solve_times(v, r, T):
        result = solve_window(
            scenario, tau, tau, w, x_prev, policy.settings, mu_warm, x_warm, cache
        )
        solves += 1
        slots = committed_slots(tau, r, T)
        inc("controller_commits", len(slots), labels=labels)
        for t in slots:
            x[t] = result.x[t - tau]
            y[t] = result.y[t - tau]
        if states is not None:
            for t in slots:
                x_prev = realize_slot(x[t], x_prev, states.slot(t), scenario.demand.rates[t], net)
        elif len(slots):
            x_prev = x[slots[-1]]
        x_warm = shift_mu(result.x, r)
        mu_warm = shift_mu(result.mu, r)
    return x, y, solves


def _sequential_plan(policy, scenario):
    """What the controller planned when its FHC chains ran one after
    another: each variant's whole trajectory, then the next, through one
    shared cache; CHC/AFHC then average and round, RHC commits its one
    chain as is."""
    with label_scope(controller=policy.name):
        net = scenario.network
        cache = SolveCache()
        if isinstance(policy, RHC):
            x, y, solves = _sequential_variant(scenario, 0, policy, cache)
            record_cache_stats(cache, policy.name)
            return x, y, solves
        x_sum = np.zeros((scenario.horizon, net.num_sbs, net.num_items))
        y_sum = np.zeros((scenario.horizon, net.num_classes, net.num_items))
        solves = 0
        for v in range(policy.commitment):
            x, y, n = _sequential_variant(scenario, v, policy, cache)
            x_sum += x
            y_sum += y
            solves += n
            inc("fhc_variants_run", labels={"controller": policy.name})
        record_cache_stats(cache, policy.name)
        rho = policy.rho if policy.rho is not None else optimal_rounding_threshold()
        x = round_caching(x_sum / policy.commitment, net.cache_sizes, rho=rho)
        y = round_load_balancing(y_sum / policy.commitment, x, net.class_sbs)
    return x, y, solves


def _counters(recorder, *, memo_split):
    """The controller counters; with ``memo_split=False`` each label set's
    ``p1_memo_hits``/``p1_memo_misses`` pair is summed into its lookups."""
    counters = recorder.metrics.items()["counters"]
    out = {k: v for k, v in counters.items() if k[0] in COUNTERS}
    if not memo_split:
        for (name, labels), value in list(out.items()):
            if name.startswith("p1_memo_"):
                del out[(name, labels)]
                key = ("p1_memo_lookups", labels)
                out[key] = out.get(key, 0.0) + value
    return out


@pytest.mark.parametrize(
    "policy",
    [
        CHC(window=4, commitment=2, settings=SETTINGS),
        AFHC(window=3, settings=SETTINGS),
        RHC(window=3, settings=SETTINGS),
    ],
    ids=["chc", "afhc", "rhc"],
)
@pytest.mark.parametrize("faulted", [False, True], ids=["nominal", "faults"])
def test_lockstep_plan_equals_sequential_chains(policy, faulted):
    scenario = paper_scenario(seed=2, horizon=9, num_items=12)
    if faulted:
        scenario = inject_faults(
            scenario,
            single_outage_with_degradation(
                sbs=0,
                outage_start=2,
                outage_duration=2,
                degradation_start=5,
                degradation_duration=2,
                bandwidth_factor=0.5,
            ),
        )
    ref_rec, new_rec = Recorder(), Recorder()
    with record_into(ref_rec):
        x_ref, y_ref, solves_ref = _sequential_plan(policy, scenario)
    with record_into(new_rec):
        plan = policy.plan(scenario)
    assert plan.x.tobytes() == x_ref.tobytes()
    assert plan.y.tobytes() == y_ref.tobytes()
    assert plan.solves == solves_ref
    # The lockstep steps really stack several windows (ragged tails and
    # negatively anchored first windows included).
    r = _commitment(policy)
    lengths = {len(fhc_solve_times(v, r, scenario.horizon)) for v in range(r)}
    assert max(lengths) >= 2
    # One chain looks its rows up in the same order either way, so RHC's
    # memo hits and misses match exactly. Stepping several chains together
    # reorders their lookups, which moves the hit/miss split but not the
    # number of lookups.
    counters = _counters(new_rec, memo_split=r == 1)
    assert counters == _counters(ref_rec, memo_split=r == 1)
    memo = "p1_memo_misses" if r == 1 else "p1_memo_lookups"
    assert {"window_solves", "controller_commits"} <= {k[0] for k in counters}
    assert counters[(memo, (("controller", policy.name),))] > 0
    done = [len([e for e in r.events if e.kind == "solve_done"]) for r in (ref_rec, new_rec)]
    assert done[0] == done[1] == solves_ref


#: Settings under which every controller below gets memo hits on the
#: scenario of :func:`test_memo_is_a_pure_cache_on_plans`: without the
#: patience stop the dual stalls, so the re-anchor revisits prices.
NO_PATIENCE = OnlineSolveSettings(max_iter=20, ub_patience=None)


@pytest.mark.parametrize(
    "policy",
    [
        RHC(window=4),
        CHC(window=4, commitment=2, settings=NO_PATIENCE),
        AFHC(window=3, settings=NO_PATIENCE),
    ],
    ids=["rhc", "chc", "afhc"],
)
def test_memo_is_a_pure_cache_on_plans(policy, monkeypatch):
    """A controller whose memo never answers plans bitwise what it plans
    with the real memo."""
    scenario = paper_scenario(seed=1, horizon=10, num_items=12)
    real_rec, cold_rec = Recorder(), Recorder()
    with record_into(real_rec):
        real = policy.plan(scenario)
    for module in (online_base, online_chc, online_fhc, online_rhc, primal_dual):
        if hasattr(module, "SolveCache"):
            monkeypatch.setattr(module, "SolveCache", _MissCache)
    with record_into(cold_rec):
        cold = policy.plan(scenario)
    assert cold.x.tobytes() == real.x.tobytes()
    assert cold.y.tobytes() == real.y.tobytes()
    assert cold.solves == real.solves
    hits, misses = (
        [r.metrics.counter(name) for r in (real_rec, cold_rec)]
        for name in ("p1_memo_hits", "p1_memo_misses")
    )
    assert hits[0] > 0 and hits[1] == 0
    assert hits[0] + misses[0] == misses[1]
