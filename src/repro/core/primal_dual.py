"""Algorithm 1 — primal-dual decomposition for the joint problem.

The coupling constraint ``y <= x`` (Eq. 3) is relaxed with multipliers
``mu[t, m, k] >= 0`` (Eq. 12). Each outer iteration:

1. solves the caching subproblem ``P1`` (integral, Theorem 1),
2. solves the load-balancing subproblem ``P2`` (strictly convex),
3. updates ``mu`` along the subgradient ``y - x`` (Eq. 17),
4. maintains a certified *lower bound* (the dual value ``P1 + P2``) and a
   feasible *upper bound* (the cost of ``P1``'s caches with the exact
   fixed-cache ``y`` — the repair that makes the primal candidate feasible),

and stops at relative gap ``epsilon`` (the paper uses ``1e-4``) or the
iteration cap — exactly the structure of the paper's Algorithm 1.

Step sizes
----------
The paper's Eq. 16 rule ``delta_l = 1 / (1 + alpha l)`` is dimensionless;
because ``mu`` has the units of marginal cost (hundreds to thousands in the
paper's scenario), the rule is kept but scaled by a unit-correcting factor
measured on the first iteration. The default is the Polyak step
``delta_l = (UB_best - d_l) / ||g_l||^2``, which needs no tuning and
certifies the same bounds; both are available via ``step``.

Lockstep stacks
---------------
:func:`solve_primal_dual_stack` runs Algorithm 1 on a *stack* of
independent window problems at once (the ``r`` FHC chains of CHC/AFHC
step together this way). Each iteration makes one ``P1`` call, one
``P2`` call and one repair call over the *union network* whose SBS
blocks are the active windows' networks
(:func:`repro.core.problem.stack_problems`); every kernel answers an SBS
row independently of the rows stacked beside it, and each window's
objectives are summed from its own block in SBS order, so a window's
result is bit-identical to solving it alone. All scalar bookkeeping —
bounds, step, relaxation, patience, re-anchor, best-dual recovery, the
repair memo, history and the ``solve_done`` event — stays per window,
and a window leaves the stack when it stops. :func:`solve_primal_dual`
is the stack of one.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Literal, Mapping, Sequence

import numpy as np

from repro.config import RuntimeConfig, resolved_incremental
from repro.core.caching_lp import CachingBackend, solve_caching
from repro.core.load_balancing import _uses_fast_path, solve_p2, solve_y_given_x
from repro.core.problem import JointProblem, stack_problems
from repro.exceptions import ConfigurationError
from repro.network.costs import CostBreakdown
from repro.obs.convergence import ConvergenceRecorder, ConvergenceTrace
from repro.obs.recorder import emit, observe_quantile
from repro.optim.budget import SolveBudget
from repro.optim.subgradient import dual_ascent_recorder
from repro.perf.executor import Executor, resolve_executor
from repro.perf.solvecache import SolveCache
from repro.perf.timers import StageTimers
from repro.types import DEFAULT_GAP_TOL, FloatArray

StepMode = Literal["polyak", "paper"]

#: Why a window's Algorithm 1 loop stopped, in the order the tests run:
#: the gap certificate, the feasible-incumbent patience, the anytime
#: budget, an all-zero subgradient (``y <= x`` already holds), or the
#: iteration cap.
StopReason = Literal["gap", "patience", "budget", "zero_subgradient", "iteration_cap"]


@dataclass(frozen=True)
class PrimalDualResult:
    """Outcome of Algorithm 1.

    Attributes
    ----------
    x:
        Best feasible integral caching trajectory found, shape ``(T, N, K)``.
    y:
        The exact optimal load balancing for ``x``, shape ``(T, M, K)``.
    cost:
        Itemized cost of ``(x, y)`` — the certified upper bound.
    lower_bound:
        Best dual value (a certified lower bound on the optimum).
    gap:
        Relative duality gap ``(UB - LB) / |UB|`` at termination.
    iterations:
        Outer (subgradient) iterations performed.
    converged:
        Whether the gap tolerance was met.
    mu:
        Final multipliers (useful for warm-starting subsequent windows).
    history:
        Per-iteration ``(lower_bound, upper_bound)`` pairs.
    timings:
        Wall-clock seconds per solver stage (``p1``, ``p2``, ``repair``,
        ``total``), from :class:`repro.perf.timers.StageTimers`. For a
        stacked solve these are the whole stack's stage times up to the
        iteration this window stopped at.
    stopped_by_budget:
        Whether an anytime budget (``max_seconds``) ended the loop before
        convergence; ``(x, y)`` is then the best *feasible* pair found so
        far and the bounds/gap are still certified.
    convergence:
        Per-iteration :class:`repro.obs.convergence.ConvergenceTrace` with
        columns ``gap``, ``lower_bound``, ``upper_bound``, ``step``,
        ``subgrad_norm`` — the dual-ascent diagnostics the paper plots.
    stop_reason:
        Which test ended the loop (:data:`StopReason`). ``converged`` can
        still turn true after a ``patience`` or ``iteration_cap`` stop,
        when the best-dual recovery closes the gap.
    """

    x: FloatArray
    y: FloatArray
    cost: CostBreakdown
    lower_bound: float
    gap: float
    iterations: int
    converged: bool
    mu: FloatArray
    history: tuple[tuple[float, float], ...]
    timings: Mapping[str, float] = field(default_factory=dict)
    stopped_by_budget: bool = False
    convergence: ConvergenceTrace | None = None
    stop_reason: StopReason = "iteration_cap"

    @property
    def upper_bound(self) -> float:
        return self.cost.total


@dataclass(frozen=True)
class WindowProblem:
    """One window of a lockstep stack (:func:`solve_primal_dual_stack`).

    ``mu0`` and ``initial_candidates`` are the per-window warm start and
    feasible seeds (see :func:`solve_primal_dual`); ``slot``, when given,
    stamps the window's ``solve_done``/``budget_exhausted`` events
    (otherwise the ambient slot scope applies).
    """

    problem: JointProblem
    mu0: FloatArray | None = None
    initial_candidates: tuple[FloatArray, ...] | None = None
    slot: int | None = None


def solve_primal_dual(
    problem: JointProblem,
    *,
    max_iter: int = 150,
    gap_tol: float = DEFAULT_GAP_TOL,
    step: StepMode = "polyak",
    alpha: float = 0.05,
    polyak_relax: float = 1.0,
    caching_backend: CachingBackend = "flow",
    mu0: FloatArray | None = None,
    ub_patience: int | None = None,
    initial_candidates: tuple[FloatArray, ...] | None = None,
    executor: Executor | str | None = None,
    max_seconds: float | None = None,
    config: RuntimeConfig | None = None,
    solve_cache: SolveCache | None = None,
) -> PrimalDualResult:
    """Run Algorithm 1 on ``problem`` (a lockstep stack of one).

    Parameters
    ----------
    max_iter:
        Cap on outer subgradient iterations (the paper's ``L``).
    gap_tol:
        Relative duality-gap stopping tolerance (the paper's ``epsilon``).
    step:
        ``"polyak"`` (default) or ``"paper"`` (Eq. 16 with measured scale).
    alpha:
        Decay parameter of the paper's step rule.
    polyak_relax:
        Relaxation factor ``theta`` in the Polyak step.
    mu0:
        Warm-start multipliers, e.g. from the previous receding-horizon
        window; dramatically cuts iterations for consecutive solves.
    ub_patience:
        Optional early stop: end when the best feasible cost has not
        improved for this many iterations. Used by the online controllers,
        where the feasible trajectory (not the dual certificate) is what
        gets committed.
    initial_candidates:
        Optional heuristic caching trajectories (shape ``(T, N, K)``,
        integral, capacity-feasible) evaluated up-front as incumbent upper
        bounds. Guarantees the returned solution is at least as good as
        every supplied candidate.
    executor:
        Parallel-execution strategy for the per-SBS ``P1`` solves — an
        :class:`repro.perf.Executor`, a spec string (``"process:4"``), or
        ``None`` to defer to ``config`` (default serial). Results are
        bit-identical across strategies.
    max_seconds:
        Anytime wall-time cap. Checked after each completed outer
        iteration, so at least one feasible ``(x, y)`` pair always exists
        when the cap fires; the result then carries
        ``stopped_by_budget=True``. The same clock is shared with the
        FISTA fallback inside ``P2`` so a single slow subproblem cannot
        blow through the cap.
    config:
        Runtime knobs (:class:`repro.config.RuntimeConfig`): the executor
        when ``executor`` is not given, and the incremental layer.
    solve_cache:
        Incremental re-solve state (:class:`repro.perf.solvecache.SolveCache`)
        shared with related solves — the online controllers pass one cache
        across their whole window sequence. When omitted and the
        incremental layer is enabled (``RuntimeConfig(incremental=...)`` /
        ``REPRO_INCREMENTAL``; default on), a private per-call cache is
        created so within-solve reuse still applies. A cache also enables
        the *best-dual recovery* step: when the loop stops without
        converging, the caching trajectory at the best dual point is
        re-derived (free, via the memo) and evaluated as one extra
        feasible candidate.
    """
    (result,) = solve_primal_dual_stack(
        [WindowProblem(problem, mu0=mu0, initial_candidates=initial_candidates)],
        max_iter=max_iter,
        gap_tol=gap_tol,
        step=step,
        alpha=alpha,
        polyak_relax=polyak_relax,
        caching_backend=caching_backend,
        ub_patience=ub_patience,
        executor=executor,
        max_seconds=max_seconds,
        config=config,
        solve_cache=solve_cache,
    )
    return result


class _Window:
    """Per-window state of the lockstep loop: everything scalar stays here."""

    def __init__(self, index: int, spec: WindowProblem, polyak_relax: float) -> None:
        problem = spec.problem
        self.index = index
        self.problem = problem
        self.slot = spec.slot
        self.sbs_of = problem.network.class_sbs
        mu = np.zeros(problem.y_shape) if spec.mu0 is None else np.maximum(spec.mu0, 0.0)
        if mu.shape != problem.y_shape:
            raise ConfigurationError(f"mu0 shape {mu.shape} != {problem.y_shape}")
        self.mu: FloatArray = mu
        self.candidates = tuple(spec.initial_candidates or ())
        self.lower_bound = -np.inf
        self.best_cost: CostBreakdown | None = None
        self.best_x: FloatArray | None = None
        self.best_y: FloatArray | None = None
        self.history: list[tuple[float, float]] = []
        self.paper_scale: float | None = None
        self.y_warm: FloatArray | None = None
        self.gap = np.inf
        self.iterations = 0
        self.converged = False
        self.stop_reason: StopReason = "iteration_cap"
        self.relax = polyak_relax
        self.since_lb_improved = 0
        self.since_ub_improved = 0
        self.repair_cache: dict[bytes, tuple[FloatArray, CostBreakdown]] = {}
        self.convergence: ConvergenceRecorder = dual_ascent_recorder()
        self.mu_best: FloatArray | None = None
        self.mu_solved: FloatArray | None = None
        self.reanchor = False

    def offer(self, x: FloatArray, y: FloatArray, cost: CostBreakdown) -> bool:
        """Keep ``(x, y)`` if it strictly beats the incumbent."""
        if self.best_cost is None or cost.total < self.best_cost.total - 1e-12:
            self.best_cost, self.best_x, self.best_y = cost, x, y
            return True
        return False


def _block_sum(parts: Sequence[float], lo: int, hi: int) -> float:
    """``0.0 + parts[lo] + ... + parts[hi-1]``: a block's objective, summed
    in SBS order exactly as a solve of the block alone sums it."""
    total = 0.0
    for value in parts[lo:hi]:
        total += value
    return total


class _Union:
    """The subproblem calls of one lockstep solve, over union networks.

    Each call stacks its windows' problems into one
    (:func:`repro.core.problem.stack_problems`, built once per window set)
    and splits the answer back by SBS block; a single window is solved on
    its own problem. ``stackable`` is false when some window is off the
    closed-form ``P2`` path: FISTA steps on the whole vector (one step size,
    one stopping test), which would couple stacked windows, so ``P2`` and
    the repair then run per window.
    """

    def __init__(
        self, windows: Sequence[_Window], timers: StageTimers, p1_kwargs: dict
    ) -> None:
        self.timers = timers
        self.p1_kwargs = p1_kwargs
        self.stackable = all(_uses_fast_path(w.problem) for w in windows)
        self._built: dict[tuple[int, ...], tuple[JointProblem, list[tuple[int, ...]]]] = {}

    def _stack(
        self, windows: Sequence[_Window]
    ) -> tuple[JointProblem, list[tuple[int, ...]]]:
        """The union problem and each window's ``(n0, n1, m0, m1)`` SBS and
        class range in it."""
        key = tuple(w.index for w in windows)
        if key not in self._built:
            blocks = []
            n0 = m0 = 0
            for w in windows:
                n1 = n0 + w.problem.network.num_sbs
                m1 = m0 + w.problem.network.num_classes
                blocks.append((n0, n1, m0, m1))
                n0, m0 = n1, m1
            self._built[key] = (stack_problems([w.problem for w in windows]), blocks)
        return self._built[key]

    def p1(
        self, windows: Sequence[_Window], mus: Sequence[FloatArray]
    ) -> list[tuple[FloatArray, float]]:
        """``P1`` at ``mus``: per-window ``(x, objective)``."""
        with self.timers.stage("p1"):
            if len(windows) == 1:
                problem = windows[0].problem
                caching = solve_caching(
                    problem.network, mus[0], problem.x_initial, **self.p1_kwargs
                )
                return [(caching.x, caching.objective)]
            stacked, blocks = self._stack(windows)
            caching = solve_caching(
                stacked.network,
                np.concatenate(mus, axis=1),
                stacked.x_initial,
                **self.p1_kwargs,
            )
        return [
            (np.ascontiguousarray(caching.x[:, n0:n1]), _block_sum(caching.per_sbs, n0, n1))
            for n0, n1, _, _ in blocks
        ]

    def p2(
        self, windows: Sequence[_Window], budget: SolveBudget | None
    ) -> list[tuple[FloatArray, float]]:
        """``P2`` at every window's current ``mu``: per-window ``(y, objective)``."""
        with self.timers.stage("p2"):
            if len(windows) == 1 or not self.stackable:
                out = []
                for w in windows:
                    balancing = solve_p2(w.problem, w.mu, y0=w.y_warm, budget=budget)
                    out.append((balancing.y, balancing.objective))
                return out
            stacked, blocks = self._stack(windows)
            balancing = solve_p2(
                stacked, np.concatenate([w.mu for w in windows], axis=1), budget=budget
            )
        return [
            (np.ascontiguousarray(balancing.y[:, m0:m1]), _block_sum(balancing.per_sbs, n0, n1))
            for n0, n1, m0, m1 in blocks
        ]

    def repair(
        self, pairs: Sequence[tuple[_Window, FloatArray]]
    ) -> list[tuple[FloatArray, CostBreakdown]]:
        """Feasible repair: keep each pair's caches ``x`` and re-solve ``y``
        exactly under them; returns ``(y, cost)`` per pair.

        ``P1`` often revisits the same caches as ``mu`` oscillates, so
        repairs are memoized per window on the cache trajectory; the misses
        are solved in one call (each window appears at most once).
        """
        keys = [x.tobytes() for _, x in pairs]
        found = [w.repair_cache.get(key) for (w, _), key in zip(pairs, keys)]
        missing = [pairs[i] for i, hit in enumerate(found) if hit is None]
        if missing:
            with self.timers.stage("repair"):
                if len(missing) == 1 or not self.stackable:
                    ys = [solve_y_given_x(w.problem, x).y for w, x in missing]
                else:
                    stacked, blocks = self._stack([w for w, _ in missing])
                    y = solve_y_given_x(
                        stacked, np.concatenate([x for _, x in missing], axis=1)
                    ).y
                    ys = [np.ascontiguousarray(y[:, m0:m1]) for _, _, m0, m1 in blocks]
            solved = iter(ys)
            for i, hit in enumerate(found):
                if hit is None:
                    w, x = pairs[i]
                    y = next(solved)
                    found[i] = w.repair_cache[keys[i]] = (y, w.problem.cost(x, y))
        return found  # type: ignore[return-value]


def solve_primal_dual_stack(
    windows: Sequence[WindowProblem],
    *,
    max_iter: int = 150,
    gap_tol: float = DEFAULT_GAP_TOL,
    step: StepMode = "polyak",
    alpha: float = 0.05,
    polyak_relax: float = 1.0,
    caching_backend: CachingBackend = "flow",
    ub_patience: int | None = None,
    executor: Executor | str | None = None,
    max_seconds: float | None = None,
    config: RuntimeConfig | None = None,
    solve_cache: SolveCache | None = None,
) -> list[PrimalDualResult]:
    """Run Algorithm 1 on a stack of independent windows in lockstep.

    The windows share the horizon ``T``, the catalog and the operating
    costs; each keeps its own network (caps, ``beta`` and bandwidths may
    differ, e.g. fault-degraded), ``x_initial``, ``mu0`` and candidates.
    Keyword arguments are those of :func:`solve_primal_dual` and apply to
    every window; ``solve_cache`` is shared by the whole stack, and
    ``max_seconds`` counts from the start of this call. Returns one
    :class:`PrimalDualResult` per window, in input order, each
    bit-identical to solving that window alone (module docstring).
    """
    if max_iter <= 0:
        raise ConfigurationError(f"max_iter must be positive, got {max_iter}")
    if not 0 < polyak_relax <= 2:
        raise ConfigurationError(f"polyak_relax must be in (0, 2], got {polyak_relax}")
    if step not in ("polyak", "paper"):
        raise ConfigurationError(f"unknown step mode {step!r}")
    states = [_Window(i, spec, polyak_relax) for i, spec in enumerate(windows)]
    if not states:
        return []
    ex = resolve_executor(executor, config=config)
    if solve_cache is None and resolved_incremental(config):
        solve_cache = SolveCache()
    timers = StageTimers()
    union = _Union(
        states,
        timers,
        dict(backend=caching_backend, executor=ex, config=config, cache=solve_cache),
    )
    solve_started = time.perf_counter()
    budget = SolveBudget(max_seconds=max_seconds) if max_seconds is not None else None

    # Seed candidates, one stacked repair per candidate position.
    for i in range(max((len(w.candidates) for w in states), default=0)):
        pairs = []
        for w in states:
            if i < len(w.candidates):
                cx = np.where(np.asarray(w.candidates[i], dtype=np.float64) > 0.5, 1.0, 0.0)
                if cx.shape != w.problem.x_shape:
                    raise ConfigurationError(
                        f"candidate shape {cx.shape} != {w.problem.x_shape}"
                    )
                pairs.append((w, cx))
        for (w, cx), (cy, c_cost) in zip(pairs, union.repair(pairs)):
            if w.best_cost is None or c_cost.total < w.best_cost.total:
                w.best_cost, w.best_x, w.best_y = c_cost, cx, cy

    results: list[PrimalDualResult | None] = [None] * len(states)
    active = states
    for iteration in range(1, max_iter + 1):
        for w in active:
            w.iterations = iteration
            w.mu_solved = w.mu
            w.reanchor = False
        p1 = union.p1(active, [w.mu for w in active])
        p2 = union.p2(active, budget)
        dual_values = []
        for w, (y, p2_obj), (_, p1_obj) in zip(active, p2, p1):
            w.y_warm = y
            dual_value = p1_obj + p2_obj
            dual_values.append(dual_value)
            # At the -inf sentinel the relative-improvement margin is nan
            # (-inf + 1e-12*inf), which compares False against everything
            # and would pin the bound at -inf forever; accept any finite
            # dual first.
            if not np.isfinite(w.lower_bound) or dual_value > w.lower_bound + 1e-12 * max(
                1.0, abs(w.lower_bound)
            ):
                w.lower_bound = dual_value
                # The subgradient update rebinds ``mu`` to a fresh array,
                # so aliasing (no copy) is safe here.
                w.mu_best = w.mu
                w.since_lb_improved = 0
            else:
                w.since_lb_improved += 1
                # The Polyak step overshoots when the dual stalls; relax it.
                if w.since_lb_improved >= 5:
                    w.relax = max(w.relax * 0.5, 0.05)
                    w.since_lb_improved = 0
                    # With a memo, also re-anchor the ascent at the best
                    # dual point seen: the gradient step is skipped this
                    # iteration, so the next one re-solves ``mu_best``
                    # byte-identically — ``P1`` comes straight from the
                    # memo — and the relaxed ascent continues from the
                    # best point instead of wherever the overshoot drifted.
                    if solve_cache is not None and w.mu_best is not None and w.mu_best is not w.mu:
                        w.mu = w.mu_best
                        w.reanchor = True

        repaired = union.repair([(w, x) for w, (x, _) in zip(active, p1)])
        out_of_budget = budget is not None and budget.exhausted(iteration)
        stopped: list[_Window] = []
        for w, (x, _), (y, _), (repaired_y, candidate), dual_value in zip(
            active, p1, p2, repaired, dual_values
        ):
            if w.offer(x, repaired_y, candidate):
                w.since_ub_improved = 0
            else:
                w.since_ub_improved += 1
            best_total = w.best_cost.total  # type: ignore[union-attr]
            w.history.append((w.lower_bound, best_total))
            w.gap = (best_total - w.lower_bound) / max(abs(best_total), 1e-12)

            subgrad = y - x[:, w.sbs_of, :]
            norm_sq = float(np.sum(subgrad**2))
            delta = 0.0
            stop: StopReason | None = None
            if w.gap <= gap_tol:
                w.converged = True
                stop = "gap"
            elif ub_patience is not None and w.since_ub_improved >= ub_patience:
                stop = "patience"
            elif out_of_budget:
                stop = "budget"
            elif norm_sq <= 1e-18:
                # y <= x already satisfied everywhere: the candidate is
                # optimal for the current mu and the repair certified it.
                w.converged = w.gap <= gap_tol
                stop = "zero_subgradient"
            elif w.reanchor:
                pass  # mu was rebound to mu_best above; re-solve it next
            else:
                surplus = max(best_total - dual_value, 0.0)
                if step == "polyak":
                    delta = w.relax * surplus / norm_sq
                else:
                    if w.paper_scale is None:
                        w.paper_scale = surplus / norm_sq if surplus > 0 else 1.0
                    delta = w.paper_scale / (1.0 + alpha * iteration)
                w.mu = np.maximum(w.mu + delta * subgrad, 0.0)
            w.convergence.record(
                lower_bound=w.lower_bound,
                upper_bound=best_total,
                gap=w.gap,
                step=delta,
                subgrad_norm=float(np.sqrt(norm_sq)),
            )
            if stop is not None:
                w.stop_reason = stop
                stopped.append(w)
        if iteration == max_iter:
            stopped = active
        if not stopped:
            continue
        if solve_cache is not None:
            _recover_best_dual(union, stopped, gap_tol)
        for w in stopped:
            results[w.index] = _finish(w, timers, solve_started, max_seconds)
        leaving = {w.index for w in stopped}
        active = [w for w in active if w.index not in leaving]
        if not active:
            break
    return results  # type: ignore[return-value]


def _recover_best_dual(union: _Union, stopped: Sequence[_Window], gap_tol: float) -> None:
    """Best-dual recovery for the windows that just stopped (memo only).

    A loop that stopped without converging (patience or iteration cap)
    last solved ``P1`` at a *worse* dual point than the best one seen.
    Re-deriving the caching trajectory at ``mu_best`` is free with the
    memo (its per-SBS subproblems were solved when the best dual was
    recorded) and evaluating it can only improve the committed feasible
    candidate — the classic primal-recovery-at-best-dual step.
    """
    todo = [
        w
        for w in stopped
        if not w.converged
        and w.stop_reason != "budget"
        and w.mu_best is not None
        and w.mu_solved is not None
        and w.mu_best is not w.mu_solved
        and w.mu_best.tobytes() != w.mu_solved.tobytes()
    ]
    if not todo:
        return
    recovered = union.p1(todo, [w.mu_best for w in todo])
    pairs = [(w, x) for w, (x, _) in zip(todo, recovered)]
    for (w, x), (y, candidate) in zip(pairs, union.repair(pairs)):
        if candidate.total < w.best_cost.total - 1e-12:  # type: ignore[union-attr]
            w.best_cost, w.best_x, w.best_y = candidate, x, y
            w.gap = (candidate.total - w.lower_bound) / max(abs(candidate.total), 1e-12)
            w.converged = w.gap <= gap_tol


def _finish(
    w: _Window, timers: StageTimers, solve_started: float, max_seconds: float | None
) -> PrimalDualResult:
    """Freeze a stopped window's result and emit its ``solve_done``."""
    assert w.best_cost is not None and w.best_x is not None and w.best_y is not None
    timings = timers.as_dict()
    timings["total"] = time.perf_counter() - solve_started
    stopped_by_budget = w.stop_reason == "budget"
    emit(
        "solve_done",
        slot=w.slot,
        iterations=w.iterations,
        gap=float(w.gap),
        lower_bound=float(w.lower_bound),
        upper_bound=float(w.best_cost.total),
        converged=w.converged,
        stopped_by_budget=stopped_by_budget,
        stopped_by_patience=w.stop_reason == "patience",
        stop_reason=w.stop_reason,
    )
    # Streaming sketches over *deterministic* solve outcomes only (never
    # wall-clock), so merged registries stay byte-identical across
    # executors (tests/test_obs_traces.py).
    observe_quantile("solve_gap", float(w.gap))
    observe_quantile("solve_iterations", float(w.iterations))
    if stopped_by_budget:
        emit(
            "budget_exhausted",
            slot=w.slot,
            iterations=w.iterations,
            max_seconds=max_seconds,
        )
    return PrimalDualResult(
        x=w.best_x,
        y=w.best_y,
        cost=w.best_cost,
        lower_bound=w.lower_bound,
        gap=w.gap,
        iterations=w.iterations,
        converged=w.converged,
        mu=w.mu,
        history=tuple(w.history),
        timings=timings,
        stopped_by_budget=stopped_by_budget,
        convergence=w.convergence.freeze(),
        stop_reason=w.stop_reason,
    )
