"""Subproblem ``P1`` — the caching problem (Eq. 18) with exact integral optima.

Given the dual prices ``mu``, ``P1`` decomposes per SBS into

    min   sum_t ( beta_n * sum_k p[t,k]  -  sum_k c[t,k] * x[t,k] )
    s.t.  sum_k x[t,k] <= C_n,      p[t,k] >= x[t,k] - x[t-1,k],
          x in {0,1},               p >= 0,

with ``c[t,k] = sum_{m in n} mu[t,m,k]`` (Eqs. 20-22). Theorem 1 proves the
constraint matrix totally unimodular, so the LP relaxation has an integral
optimum.

:func:`solve_caching` is the one front door. Every SBS subproblem is
answered by the first of: the digest-exact memo
(:class:`repro.perf.solvecache.SolveCache`), the batched pass over all
memo misses (the vectorized relaxed DP, then the cap-constrained cancel
kernel of :mod:`repro.core.capped`), and a per-SBS exact backend for the
rows neither kernel certifies:

- ``"flow"`` (default): the LP *is* a min-cost flow in which each of the
  ``C_n`` cache slots is one unit of flow travelling through time — idling
  between hub nodes for free, or detouring through a content's per-slot
  node chain (paying ``beta_n`` to enter, collecting ``c[t,k]`` per slot
  held). Integrality is automatic and the solve is combinatorial; each
  solve is a cold start on a pooled graph of its shape.
- ``"lp"``: the sparse LP of Eqs. 20-22 via :func:`repro.optim.solve_lp`
  (HiGHS or the in-house simplex); near-integral vertices are snapped and
  verified. Used to cross-check the flow backend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Literal

import numpy as np
import scipy.optimize
import scipy.sparse

from repro.config import RuntimeConfig
from repro.core.capped import capped_cancel_stack
from repro.exceptions import ConfigurationError, SolverError
from repro.network.topology import Network
from repro.obs.recorder import inc
from repro.optim.linprog import solve_lp
from repro.optim.mincostflow import MinCostFlow
from repro.perf.executor import Executor, resolve_executor
from repro.perf.solvecache import SolveCache, p1_digest
from repro.types import FloatArray, is_binary

CachingBackend = Literal["auto", "flow", "lp", "lp-simplex"]

#: ``auto`` uses the combinatorial flow solver up to this many ``(slot,
#: item)`` cells per SBS and the sparse HiGHS LP above it. Re-measured
#: after the flow-graph-reuse optimization (measurement table in
#: EXPERIMENTS.md, "Backend crossover"): with graph reuse the flow solve is
#: dominated by augmentation, which scales with the cache size, so the true
#: crossover depends on ``cap`` more than on the cell count. At the paper's
#: ``cap = 5`` the two backends are within ~10% of each other over
#: 3000-5000 cells (flow clearly ahead below ~1500); at ``cap >= 10`` HiGHS
#: wins from ~2000 cells. The cell count stays the rule's proxy because it
#: is what callers know cheaply; pass an explicit ``backend=`` to override.
AUTO_FLOW_LIMIT = 5000


def resolve_backend(backend: CachingBackend, cells: int) -> str:
    """Resolve ``auto`` by the cell rule; explicit backends always win."""
    if backend != "auto":
        return backend
    return "flow" if cells <= AUTO_FLOW_LIMIT else "lp"


@dataclass(frozen=True)
class CachingSolution:
    """Solution of ``P1`` across all SBSs.

    Attributes
    ----------
    x:
        Integral caching trajectory, shape ``(T, N, K)``.
    objective:
        The ``P1`` objective ``sum_t (h - sum mu x)`` at the solution.
    per_sbs:
        Each SBS's objective, in SBS order; ``objective`` is their sum
        accumulated from ``0.0`` in that order, so the sum over any
        contiguous block of SBSs is bitwise what a solve of that block
        alone reports.
    """

    x: FloatArray
    objective: float
    per_sbs: tuple[float, ...] = ()


def class_prices(network: Network, mu: FloatArray) -> FloatArray:
    """Aggregate dual prices per SBS: ``c[t, n, k] = sum_{m in n} mu[t, m, k]``."""
    return network.sum_classes_per_sbs(mu)


def solve_caching(
    network: Network,
    mu: FloatArray,
    x_initial: FloatArray,
    *,
    backend: CachingBackend = "auto",
    executor: Executor | str | None = None,
    config: RuntimeConfig | None = None,
    cache: SolveCache | None = None,
) -> CachingSolution:
    """Solve ``P1`` given multipliers ``mu`` of shape ``(T, M, K)``.

    ``x_initial`` is the 0/1 cache state entering the first slot, shape
    ``(N, K)``; insertions in the first slot are charged against it.

    ``P1`` is exactly separable per SBS. Each SBS goes through one front
    door, in order:

    1. the digest-exact **memo** of a :class:`repro.perf.solvecache.SolveCache`
       (when given): byte-identical subproblems are answered without
       solving;
    2. the **batched pass** over every miss at once
       (:func:`_solve_batched_p1`): the relaxed DP plus the capped cancel
       kernel — counted as ``p1_batched_solves`` / ``p1_batched_capped``;
    3. the **per-SBS exact backend** (``backend``: flow, HiGHS LP or the
       in-house simplex; a cold solve on a pooled graph) for the rows
       neither kernel certifies — counted as ``p1_batched_fallbacks``.

    With an ``executor`` (or a :class:`repro.config.RuntimeConfig`) the
    per-SBS fallback solves fan out in parallel; results are reduced in
    SBS order, bit-identical to the serial path. All cache bookkeeping
    (memo lookups, counter increments) happens here in the parent, so
    results and recorded telemetry stay bit-identical across executors.
    """
    backend = resolve_backend(backend, mu.shape[0] * network.num_items)
    if backend not in ("flow", "lp", "lp-simplex"):
        raise ConfigurationError(f"unknown caching backend {backend!r}")
    if mu.ndim != 3 or mu.shape[1:] != (network.num_classes, network.num_items):
        raise ConfigurationError(
            f"mu must have shape (T, M, K), got {mu.shape}"
        )
    if np.any(mu < -1e-9):
        raise ConfigurationError("dual prices must be non-negative")
    T = mu.shape[0]
    K = network.num_items
    prices = class_prices(network, mu)

    results: list[tuple[FloatArray, float] | None] = [None] * network.num_sbs
    hits_before = cache.hits if cache is not None else 0
    miss_ns: list[int] = []
    miss_keys: list[bytes] = []
    for n in range(network.num_sbs):
        key = b""
        if cache is not None:
            key = p1_digest(
                prices[:, n, :],
                float(network.replacement_costs[n]),
                int(network.cache_sizes[n]),
                np.asarray(x_initial[n], dtype=np.float64),
            )
            hit = cache.lookup(key)
            if hit is not None:
                results[n] = hit
                continue
        miss_ns.append(n)
        miss_keys.append(key)
    n_misses = len(miss_ns)

    # Batched pass: one vectorized DP over every miss at once; subproblems
    # whose certificate holds are solved here (and memoized), the rest fall
    # back to the exact per-SBS backend below.
    if miss_ns:
        accepted = _solve_batched_p1(network, prices, x_initial, miss_ns)
        if accepted:
            kept_ns: list[int] = []
            kept_keys: list[bytes] = []
            for n, key in zip(miss_ns, miss_keys):
                entry = accepted.get(n)
                if entry is None:
                    kept_ns.append(n)
                    kept_keys.append(key)
                    continue
                results[n] = entry
                if cache is not None:
                    cache.store(key, entry[0], entry[1])
            miss_ns, miss_keys = kept_ns, kept_keys
            inc("p1_batched_solves", len(accepted))
        if miss_ns:
            inc("p1_batched_fallbacks", len(miss_ns))

    tasks = [
        (
            prices[:, n, :],
            float(network.replacement_costs[n]),
            int(network.cache_sizes[n]),
            np.asarray(x_initial[n], dtype=np.float64),
            backend,
        )
        for n in miss_ns
    ]
    ex = resolve_executor(executor, config=config)
    if ex.workers > 1 and len(tasks) > 1:
        solved = ex.map(_solve_sbs_task, tasks)
    else:
        solved = [_solve_sbs_task(task) for task in tasks]

    for n, key, (xn, obj) in zip(miss_ns, miss_keys, solved):
        results[n] = (xn, obj)
        if cache is not None:
            cache.store(key, xn, obj)
    if cache is not None:
        hits = cache.hits - hits_before
        if hits:
            inc("p1_memo_hits", hits)
        if n_misses:
            # Memo misses count every digest lookup that missed, including
            # those the batched relaxation pass answered.
            inc("p1_memo_misses", n_misses)

    x = np.zeros((T, network.num_sbs, K))
    objective = 0.0
    per_sbs = []
    for n, entry in enumerate(results):
        assert entry is not None
        xn, obj = entry
        x[:, n, :] = xn
        objective += obj
        per_sbs.append(obj)
    return CachingSolution(x=x, objective=objective, per_sbs=tuple(per_sbs))


def _solve_sbs_task(
    task: tuple[FloatArray, float, int, FloatArray, str],
) -> tuple[FloatArray, float]:
    """One SBS's ``P1`` solve — module-level so process executors can use it.

    Returns ``(x, objective)``.
    """
    c, beta, cap, x0, backend = task
    if backend == "flow":
        return _solve_single_sbs_flow(c, beta, cap, x0)
    lp_backend = "scipy" if backend == "lp" else "simplex"
    return _solve_single_sbs_lp(c, beta, cap, x0, lp_backend=lp_backend)


def caching_objective(
    network: Network, x: FloatArray, mu: FloatArray, x_initial: FloatArray
) -> float:
    """Evaluate the ``P1`` objective for a given trajectory (for tests)."""
    prices = class_prices(network, mu)
    prev = x_initial
    total = 0.0
    for t in range(x.shape[0]):
        inserted = np.clip(x[t] - prev, 0.0, None).sum(axis=1)
        total += float(np.dot(network.replacement_costs, inserted))
        total -= float(np.sum(prices[t] * x[t]))
        prev = x[t]
    return total


# ------------------------------------------------------------- batched relax

#: Element budget per DP-tensor chunk of the batched relaxation pass
#: (bounds peak memory at roughly ten float64 tensors of this size).
_BATCH_DP_CHUNK = 32_000_000

_DP_EPS = float(np.finfo(np.float64).eps)


def _relaxed_dp_stack(
    C: FloatArray,
    beta: FloatArray,
    X0: FloatArray,
    caps: FloatArray,
) -> tuple[FloatArray, FloatArray]:
    """Canonical cardinality-relaxed ``P1`` DP over a stack of SBSs.

    Dropping the per-slot cardinality constraint makes ``P1`` separate per
    *item* into an interval-selection problem — hold content ``k`` through
    profitable time intervals, paying ``beta`` per insertion (free at
    ``t = 0`` for initially cached items) — solved for every (SBS, item)
    pair of the ``(B, T, K)`` stack simultaneously by one two-state DP
    over the horizon. Every elementwise operation here is independent of
    ``B``, so the ``B = 1`` call a per-SBS backend makes produces bitwise
    the rows a stacked call would (the property
    ``tests/test_batched.py::TestP1Ties`` pins).

    Ties are resolved by one **canonical discipline** — prefer the
    uncached state: enter as late as possible (``stay > enter``), leave as
    early as possible (``V0 >= V1`` keeps the item out, final state
    cached only on strict gain). Among all relaxed optima this picks the
    pointwise-minimal occupancy one, which maximizes the chance of cap
    feasibility below.

    Acceptance (the returned ``ok`` mask) requires

    * **certified decisions**: every margin along the backtracked path is
      either exactly ``0.0`` (a structural tie — the canonical branch is
      taken) or strict beyond the float danger band
      ``16 * eps * max(T, 4) * max(1, beta, max |c|)``, and the path's
      value re-folds bitwise to the DP optimum; and
    * **cap feasibility**: the relaxed optimum satisfies the per-slot
      cardinality caps.

    A certified cap-feasible relaxed optimum is a true optimum of the
    *constrained* problem (every feasible trajectory is relaxed-feasible),
    so accepting it is exact. Sub-danger-band nonzero margins — decisions
    whose sign could flip under a different float evaluation order — are
    never accepted.
    """
    B, T, K = C.shape
    bcol = np.asarray(beta, dtype=np.float64)[:, None]
    scale = np.maximum(
        1.0, np.maximum(bcol[:, 0], np.abs(C).max(axis=(1, 2)) if K else 0.0)
    )[:, None]
    # Path values are <= T-term float sums: their error is below
    # T * eps * scale, so margins beyond this band cannot change sign under
    # any evaluation order, and nonzero margins inside it are treated as
    # unsafe rather than as ties.
    tol = (16.0 * _DP_EPS * max(T, 4)) * scale

    # Forward pass: V1/V0 = best profit with the item cached/uncached in
    # slot t.
    take1 = np.empty((T, B, K), dtype=bool)  # cached at t <- cached at t-1
    take0 = np.empty((T, B, K), dtype=bool)  # uncached at t <- uncached
    m1 = np.empty((T, B, K))
    m0 = np.empty((T, B, K))
    fetch0 = np.where(X0 > 0.5, 0.0, bcol)
    V1 = C[:, 0, :] - fetch0
    V0 = np.zeros((B, K))
    for t in range(1, T):
        stay = V1
        enter = V0 - bcol
        take1[t] = stay > enter  # tie -> enter late
        m1[t] = np.abs(stay - enter)
        nV1 = np.maximum(stay, enter) + C[:, t, :]
        take0[t] = V0 >= V1  # tie -> stay uncached
        m0[t] = np.abs(V0 - V1)
        V0 = np.maximum(V0, V1)
        V1 = nV1

    # Backtrack the optimal path, accumulating certification failures only
    # along decisions the path actually takes.
    x = np.zeros((B, T, K))
    state = V1 > V0  # cache in the last slot only on strict gain
    mfin = np.abs(V1 - V0)
    fail = (mfin > 0.0) & (mfin <= tol)
    for t in range(T - 1, 0, -1):
        x[:, t, :] = state
        m = np.where(state, m1[t], m0[t])
        fail |= (m > 0.0) & (m <= tol)
        state = np.where(state, take1[t], ~take0[t])
    x[:, 0, :] = state

    # Fold the backtracked path's value with the DP's exact operation
    # order and require bitwise agreement with the DP optimum — a
    # belt-and-braces guard that the tie-resolved path really attains
    # the optimal value (any pointer/value inconsistency fails here).
    on = x[:, 0, :] > 0.5
    acc = np.where(on, C[:, 0, :] - fetch0, 0.0)
    for t in range(1, T):
        on = x[:, t, :] > 0.5
        was = x[:, t - 1, :] > 0.5
        acc = np.where(
            on & ~was,
            (acc - bcol) + C[:, t, :],
            np.where(on & was, acc + C[:, t, :], acc),
        )
    final = np.where(x[:, T - 1, :] > 0.5, V1, V0)
    fail |= acc != final

    counts = x.sum(axis=2)
    ok = ~fail.any(axis=1) & (counts <= np.asarray(caps)[:, None]).all(axis=1)
    return x, ok


def _certified_canonical(
    c: FloatArray, beta: float, cap: int, x0: FloatArray
) -> tuple[FloatArray, float] | None:
    """The canonical certified-exact ``P1`` optimum for one SBS, if any.

    Runs :func:`_relaxed_dp_stack` with ``B = 1``; when the canonical relaxed optimum certifies and fits the
    cap it *is* an optimum of the constrained problem. Cap-bound rows — the
    relaxed optimum over-caps, which is the common case on the paper's
    uniform-cost scenarios — go to the exact cap-constrained kernel
    (:func:`repro.core.capped.capped_cancel_stack`) instead. Either way the
    predicate is exactly the one the batched pass applies, so a per-SBS
    backend that answers from it returns bitwise what the batched pass
    would have returned for the same row: tie resolution is uniform across
    every solve path by construction, not by reverse-engineering any
    backend's internal order. Returns ``(x, objective)``, or ``None`` when
    neither kernel certifies (the backend's own exact solve takes over).
    """
    C = np.ascontiguousarray(c, dtype=np.float64)[None]
    beta_arr = np.asarray([float(beta)], dtype=np.float64)
    X0 = np.asarray(x0, dtype=np.float64)[None]
    caps = np.asarray([cap], dtype=np.float64)
    x, ok = _relaxed_dp_stack(C, beta_arr, X0, caps)
    if not bool(ok[0]):
        x, ok = capped_cancel_stack(C, beta_arr, X0, caps)
        if not bool(ok[0]):
            return None
    xb = x[0]
    return xb, _objective_single(c, beta, xb, x0)


def _solve_batched_p1(
    network: Network,
    prices: FloatArray,
    x_initial: FloatArray,
    ns: list[int],
) -> dict[int, tuple[FloatArray, float]]:
    """Vectorized certified-exact ``P1`` over a stack of SBSs.

    Two stages per memory-bounded chunk. One :func:`_relaxed_dp_stack`
    call answers every row whose certified relaxed optimum fits the cap;
    the cap-bound remainder — the storm case on the paper's uniform-cost
    scenarios, where the relaxed optimum over-caps on (nearly) every row —
    goes to the exact cap-constrained cancel kernel
    (:func:`repro.core.capped.capped_cancel_stack`, counted as
    ``p1_batched_capped``). Only rows neither stage certifies fall back to
    the per-SBS backends.

    The accepted answers are bitwise what the per-SBS backends return,
    because those backends answer from the same
    :func:`_certified_canonical` predicate first. Returns
    ``{n: (x, objective)}`` for the accepted SBSs, objectives evaluated by
    :func:`_objective_single` exactly as the per-SBS backends do.
    """
    T = prices.shape[0]
    K = network.num_items
    idx = np.asarray(ns, dtype=np.intp)
    out: dict[int, tuple[FloatArray, float]] = {}
    capped = 0
    chunk = max(1, _BATCH_DP_CHUNK // max(1, T * K))
    for start in range(0, idx.size, chunk):
        sel = idx[start : start + chunk]
        C = np.ascontiguousarray(prices[:, sel, :].transpose(1, 0, 2))  # (B,T,K)
        beta = network.replacement_costs[sel].astype(np.float64)
        caps = np.asarray(network.cache_sizes[sel])
        X0 = np.asarray(x_initial[sel], dtype=np.float64)
        x, ok = _relaxed_dp_stack(C, beta, X0, caps)
        for b in np.flatnonzero(ok):
            xb = x[b]
            out[int(sel[b])] = (
                xb,
                _objective_single(C[b], float(beta[b]), xb, X0[b]),
            )
        rest = np.flatnonzero(~ok)
        if rest.size:
            xc, okc = capped_cancel_stack(C[rest], beta[rest], X0[rest], caps[rest])
            for i in np.flatnonzero(okc):
                b = int(rest[i])
                xb = xc[i]
                out[int(sel[b])] = (
                    xb,
                    _objective_single(C[b], float(beta[b]), xb, X0[b]),
                )
                capped += 1
    if capped:
        inc("p1_batched_capped", capped)
    return out


# ----------------------------------------------------------------- flow back

@dataclass
class _FlowTemplate:
    """A built caching-flow graph, reusable across solves of one shape.

    The arc topology depends only on ``(T, K, cap)``; the dual prices (hold
    costs) and ``(beta, x0)`` (fetch costs) change between solves, so they
    are rewritten in place via :meth:`MinCostFlow.set_all_arc_costs` and
    the flow rewound with :meth:`MinCostFlow.reset`. ``base_costs`` is the
    id-indexed all-user-arc cost vector with the structural (always-zero)
    arcs filled in, so a solve only scatters the fetch/hold costs into a
    copy of it.
    """

    graph: MinCostFlow
    fetch_arcs: "np.ndarray"  # (T, K) arc ids, cost = beta or 0
    hold_arcs: "np.ndarray"  # (T, K) arc ids, cost = -c[t, k]
    base_costs: "np.ndarray"  # (num_user_arcs,) zeros
    src: int
    snk: int


def _build_flow_template(T: int, K: int, cap: int) -> _FlowTemplate:
    """Construct the caching-flow topology with placeholder costs.

    Nodes: free-slot hubs ``F_0..F_T`` plus an in/out pair per ``(k, t)``.
    A unit of flow is one cache slot; holding content ``k`` during slot
    ``t`` routes through ``(k,t)_in -> (k,t)_out`` (gain ``c[t,k]``),
    entering from a hub costs ``beta`` (free at ``t=0`` for initially
    cached contents).
    """

    def hub(t: int) -> int:
        return t  # 0..T

    def node_in(k: int, t: int) -> int:
        return (T + 1) + 2 * (t * K + k)

    def node_out(k: int, t: int) -> int:
        return (T + 1) + 2 * (t * K + k) + 1

    num_nodes = (T + 1) + 2 * T * K + 2
    src = num_nodes - 2
    snk = num_nodes - 1
    g = MinCostFlow(num_nodes)
    g.add_arc(src, hub(0), cap, 0.0)
    for t in range(T):
        g.add_arc(hub(t), hub(t + 1), cap, 0.0)
    g.add_arc(hub(T), snk, cap, 0.0)

    fetch_arcs = np.empty((T, K), dtype=np.int64)
    hold_arcs = np.empty((T, K), dtype=np.int64)
    for t in range(T):
        for k in range(K):
            fetch_arcs[t, k] = g.add_arc(hub(t), node_in(k, t), 1, 0.0)
            hold_arcs[t, k] = g.add_arc(node_in(k, t), node_out(k, t), 1, 0.0)
            g.add_arc(node_out(k, t), hub(t + 1), 1, 0.0)
            if t + 1 < T:
                g.add_arc(node_out(k, t), node_in(k, t + 1), 1, 0.0)
    base_costs = np.zeros(g._num_user_arcs, dtype=np.float64)
    return _FlowTemplate(g, fetch_arcs, hold_arcs, base_costs, src, snk)


def _initial_potentials_dag(c: FloatArray, fetch_costs: FloatArray) -> list[float]:
    """Closed-form shortest distances on the empty caching flow.

    The generic topological pass walks every arc of the template in Kahn
    order; the caching DAG's layered structure lets the same distances be
    computed by a vectorized forward DP over slots instead. Exactness
    matters: each node's distance is a min over incoming path sums whose
    additions happen in the same order as the relaxation pass, so the
    returned potentials are the bitwise values that pass would produce
    (up to the sign of zero) and Dijkstra's stale-potential guard treats
    them as settled.
    """
    T, K = c.shape
    d_hub = np.empty(T + 1)
    d_hub[0] = 0.0
    d_in = np.empty((T, K))
    d_out = np.empty((T, K))
    hold = -np.asarray(c, dtype=np.float64)
    for t in range(T):
        enter = d_hub[t] + fetch_costs[t]
        d_in[t] = enter if t == 0 else np.minimum(enter, d_out[t - 1])
        d_out[t] = d_in[t] + hold[t]
        d_hub[t + 1] = min(d_hub[t], float(d_out[t].min()))
    num_nodes = (T + 1) + 2 * T * K + 2
    potentials = np.empty(num_nodes)
    potentials[: T + 1] = d_hub
    potentials[T + 1 : T + 1 + 2 * T * K : 2] = d_in.reshape(-1)
    potentials[T + 2 : T + 2 + 2 * T * K : 2] = d_out.reshape(-1)
    potentials[num_nodes - 2] = 0.0  # source
    potentials[num_nodes - 1] = d_hub[T]  # sink
    return potentials.tolist()


# Templates are checked out under a lock so concurrent thread-executor
# solves never share a graph; each process has its own pool.
_TEMPLATE_POOL: dict[tuple[int, int, int], list[_FlowTemplate]] = {}
_TEMPLATE_LOCK = threading.Lock()
_TEMPLATE_POOL_LIMIT = 8  # per (T, K, cap); bounds memory under thread fan-out


def _acquire_template(T: int, K: int, cap: int) -> _FlowTemplate:
    with _TEMPLATE_LOCK:
        pool = _TEMPLATE_POOL.get((T, K, cap))
        if pool:
            return pool.pop()
    return _build_flow_template(T, K, cap)


def _release_template(T: int, K: int, cap: int, template: _FlowTemplate) -> None:
    with _TEMPLATE_LOCK:
        pool = _TEMPLATE_POOL.setdefault((T, K, cap), [])
        if len(pool) < _TEMPLATE_POOL_LIMIT:
            pool.append(template)


def _solve_single_sbs_flow(
    c: FloatArray,
    beta: float,
    cap: int,
    x0: FloatArray,
    *,
    canonical: bool = True,
) -> tuple[FloatArray, float]:
    """Min-cost-flow solve for one SBS (see :func:`_build_flow_template`).

    Tie-degenerate subproblems are answered by :func:`_certified_canonical`
    before any flow work: the flow's own tie resolution is an accident of
    Dijkstra settle order and the potentials earlier augmentations left
    behind, so imposing the canonical discipline here (and identically in
    the LP backend and the batched pass) is what makes every solve path
    return the same bits on degenerate instances. ``canonical=False``
    exposes the raw flow answer — tests use it to verify the canonical
    trajectory attains the flow's optimal objective.

    The solve is a cold start on a graph checked out of the per-shape
    template pool. A pooled solve is bit-identical to a fresh-graph
    solve: the rewound capacities and rewritten costs reproduce the exact
    graph a fresh build would create. Returns ``(x, objective)``.
    """
    T, K = c.shape
    if cap == 0:
        return np.zeros((T, K)), 0.0
    if canonical:
        canon = _certified_canonical(c, beta, cap, x0)
        if canon is not None:
            return canon

    template = _acquire_template(T, K, cap)
    g = template.graph
    fetch_costs = np.full((T, K), float(beta))
    fetch_costs[0, np.asarray(x0) > 0.5] = 0.0
    costs = template.base_costs.copy()
    costs[template.fetch_arcs.reshape(-1)] = fetch_costs.reshape(-1)
    costs[template.hold_arcs.reshape(-1)] = -np.asarray(c, dtype=np.float64).reshape(-1)
    g.set_all_arc_costs(costs)
    potentials = _initial_potentials_dag(c, fetch_costs)
    g.reset()
    result = g.solve(
        template.src, template.snk, cap, dag=True, initial_potentials=potentials
    )
    x = result.arc_flow[template.hold_arcs]
    _release_template(T, K, cap, template)
    if result.amount != cap:
        raise SolverError(
            f"caching flow routed {result.amount}/{cap} units; graph is malformed"
        )
    x = np.where(x > 0.5, 1.0, 0.0)
    return x, _objective_single(c, beta, x, x0)


# ------------------------------------------------------------------- LP back

def _solve_single_sbs_lp(
    c: FloatArray,
    beta: float,
    cap: int,
    x0: FloatArray,
    *,
    lp_backend: str,
    canonical: bool = True,
) -> tuple[FloatArray, float]:
    """Sparse LP of Eqs. 20-22 for one SBS; snaps and validates integrality.

    Like the flow backend, tie-degenerate subproblems are answered by
    :func:`_certified_canonical` first so every backend resolves ties with
    the same canonical discipline (the LP's vertex choice on a degenerate
    optimal face is solver-internal and not reproducible across backends).
    """
    if canonical and cap > 0:
        canon = _certified_canonical(c, beta, cap, x0)
        if canon is not None:
            return canon
    T, K = c.shape
    n_x = T * K

    # Objective: -c on x, beta on p.
    cost = np.concatenate([-c.reshape(-1), np.full(n_x, beta)])

    cells = np.arange(n_x)
    # Capacity rows (one per slot): sum_k x[t,k] <= cap.
    cap_rows = np.repeat(np.arange(T), K)
    cap_cols = cells
    cap_vals = np.ones(n_x)
    # Switching rows (one per cell): x[t,k] - x[t-1,k] - p[t,k] <= [t=0] x0[k].
    sw_rows = T + cells
    later = cells[K:]  # cells with t > 0
    rows_all = np.concatenate([cap_rows, sw_rows, T + later, sw_rows])
    cols_all = np.concatenate([cap_cols, cells, later - K, n_x + cells])
    vals_all = np.concatenate(
        [cap_vals, np.ones(n_x), -np.ones(n_x - K), -np.ones(n_x)]
    )
    b_ub = np.concatenate([np.full(T, float(cap)), x0.astype(np.float64), np.zeros(n_x - K)])

    A_ub = scipy.sparse.csr_matrix(
        (vals_all, (rows_all, cols_all)), shape=(T + n_x, 2 * n_x)
    )
    lo = np.zeros(2 * n_x)
    hi = np.concatenate([np.ones(n_x), np.full(n_x, np.inf)])

    if lp_backend == "scipy":
        res = scipy.optimize.linprog(
            cost,
            A_ub=A_ub,
            b_ub=np.asarray(b_ub),
            bounds=np.column_stack([lo, hi]),
            method="highs",
        )
        if not res.success:
            raise SolverError(f"HiGHS failed on P1: {res.message}")
        raw = np.asarray(res.x[:n_x]).reshape(T, K)
    else:
        result = solve_lp(
            cost,
            A_ub=A_ub.toarray(),
            b_ub=np.asarray(b_ub),
            lo=lo,
            hi=hi,
            backend="simplex",
        )
        raw = result.x[:n_x].reshape(T, K)

    snapped = np.where(raw > 0.5, 1.0, 0.0)
    if not is_binary(raw, atol=1e-5):
        # A degenerate optimal face can contain fractional points; verify the
        # snap did not change the objective before accepting it.
        raw_obj = _objective_single(c, beta, raw, x0, fractional=True)
        snap_obj = _objective_single(c, beta, snapped, x0)
        if snap_obj > raw_obj + 1e-6 * max(1.0, abs(raw_obj)):
            raise SolverError(
                "LP returned a fractional P1 solution that does not snap cleanly; "
                "this contradicts total unimodularity and indicates a solver issue"
            )
    obj = _objective_single(c, beta, snapped, x0)
    return snapped, obj


def _objective_single(
    c: FloatArray,
    beta: float,
    x: FloatArray,
    x0: FloatArray,
    *,
    fractional: bool = False,
) -> float:
    # Per-slot reductions are vectorized; the scalar accumulation stays a
    # t-ordered loop so the result is bitwise what the original per-slot
    # loop computed (row-wise axis reductions are bit-equal to reducing
    # each row alone; only the accumulation order could differ).
    prev = np.vstack([x0.astype(np.float64)[None, :], x[:-1]])
    inserted = np.clip(x - prev, 0.0, None).sum(axis=1)
    gained = (c * x).sum(axis=1)
    total = 0.0
    for t in range(x.shape[0]):
        total += beta * float(inserted[t])
        total -= float(gained[t])
    return total
