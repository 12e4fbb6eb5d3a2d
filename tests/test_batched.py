"""Equivalence properties of the batched solve core.

The batched kernels (DESIGN.md, "Batched solve core") stack every SBS of a
window into one call. Stacking selects *granularity, not semantics*: the
stacked ``P1`` certificate pass and the all-SBS ``P2`` water-fill must
reproduce independent per-SBS references — the per-SBS flow backend,
one kernel call per SBS, per-SBS projections, the per-move polish oracle —
bit-for-bit wherever both are exact, and within ``1e-9`` where the
reference itself is approximate. These tests pin that contract with
randomized multi-SBS instances — uneven class counts included, so the
zero-cap padding rows of the SBS-major stacking are exercised.
"""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import repro.core.load_balancing as load_balancing
import repro.core.polish as polish_mod
from repro.core.caching_lp import (
    _objective_single,
    _solve_batched_p1,
    _solve_single_sbs_flow,
    class_prices,
    solve_caching,
)
from repro.core.capped import capped_cancel_stack
from repro.core.load_balancing import (
    _project_blocks_capped,
    _solve_p2_fast,
    _solve_p2_fista,
    _waterfill_reference,
    solve_y_given_x,
)
from repro.core.polish import polish_caching
from repro.core.rounding import optimal_rounding_threshold, round_caching
from repro.core.problem import JointProblem
from repro.network import ContentCatalog, MUClass, Network, SmallBaseStation
from repro.obs import Recorder, record_into
from repro.optim.fista import minimize_fista
import repro.optim.waterfill as waterfill_mod
from repro.optim.waterfill import _zero_extended_sum, waterfill_batch
from repro.perf.solvecache import SolveCache


def _multi_network(rng, *, N, K, C, beta=2.0, bandwidth=3.0, omega_hat=0.0):
    """N-SBS network with 1-3 classes per SBS (uneven on purpose)."""
    counts = rng.integers(1, 4, size=N)
    classes, cid = [], 0
    for n in range(N):
        for _ in range(counts[n]):
            classes.append(
                MUClass(cid, n, float(rng.uniform(0.1, 1.0)), omega_hat)
            )
            cid += 1
    return Network(
        ContentCatalog(K),
        tuple(SmallBaseStation(n, C, bandwidth, beta) for n in range(N)),
        tuple(classes),
    )


def _multi_problem(
    rng, *, N, K, T, C, sparsity=0.3, omega_hat=0.0, bandwidth=3.0
):
    net = _multi_network(
        rng, N=N, K=K, C=C, bandwidth=bandwidth, omega_hat=omega_hat
    )
    demand = rng.uniform(0.0, 3.0, size=(T, net.num_classes, K))
    demand *= rng.random(demand.shape) > sparsity
    return JointProblem(network=net, demand=demand)


def _sparse_mu(rng, shape, scale=4.0, sparsity=0.4):
    mu = rng.uniform(0.0, scale, size=shape)
    mu *= rng.random(shape) > sparsity
    return mu


def _per_sbs_p2(prob, mu, x_caps=None):
    """Reference ``P2`` fast path: one kernel call per SBS, its slots as
    the rows, each SBS at its own (unpadded) width."""
    net = prob.network
    scale = prob.bs_cost.scale
    T, K = prob.horizon, net.num_items
    y = np.zeros(prob.y_shape)
    objective = 0.0
    for n in range(net.num_sbs):
        classes = net.classes_of_sbs[n]
        lam = prob.demand[:, classes, :].reshape(T, -1)
        omega = np.repeat(net.omega_bs[classes], K)
        mu_n = mu[:, classes, :].reshape(T, -1)
        caps = lam.copy()
        if x_caps is not None:
            caps = caps * np.broadcast_to(
                x_caps[:, n, None, :], (T, len(classes), K)
            ).reshape(T, -1)
        W = lam @ omega
        alloc, u = waterfill_batch(
            np.ascontiguousarray(lam),
            caps,
            np.ascontiguousarray(np.broadcast_to(omega, caps.shape)),
            mu_n,
            W,
            np.full(T, float(net.bandwidths[n])),
            scale,
        )
        with np.errstate(divide="ignore", invalid="ignore"):
            y_n = np.where(lam > 0, alloc / lam, 0.0)
        y[:, classes, :] = y_n.reshape(T, len(classes), K)
        objective += float(scale * np.sum((W - u) ** 2)) + float(np.sum(mu_n * y_n))
    return y, objective


def _per_sbs_projection(prob):
    """Reference for the stacked FISTA projection: one
    :func:`_project_blocks_capped` call per SBS on its own (unpadded)
    ``(T, J)`` block of the iterate (``P2`` caps are all ones)."""
    net = prob.network
    T, K = prob.horizon, net.num_items

    def project(y_flat):
        y = y_flat.reshape(prob.y_shape).copy()
        for n in range(net.num_sbs):
            classes = net.classes_of_sbs[n]
            block = y[:, classes, :].reshape(T, -1)
            y[:, classes, :] = _project_blocks_capped(
                block,
                prob.demand[:, classes, :].reshape(T, -1),
                np.full(T, float(net.bandwidths[n])),
                np.ones_like(block),
            ).reshape(T, len(classes), K)
        return y.reshape(-1)

    return project


dims = st.tuples(
    st.integers(0, 2**32 - 1),  # numpy seed
    st.integers(2, 4),  # N
    st.integers(3, 8),  # K
    st.integers(1, 4),  # T
    st.integers(1, 3),  # C
)


class TestP2Batched:
    """The all-SBS stacked P2 equals per-SBS kernel calls, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_fast_path_bitwise(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        mu = _sparse_mu(rng, prob.y_shape)
        y_ref, obj_ref = _per_sbs_p2(prob, mu)
        batched = _solve_p2_fast(prob, mu)
        assert np.array_equal(y_ref, batched.y)
        assert obj_ref == batched.objective

    @settings(max_examples=15, deadline=None)
    @given(dims)
    def test_fixed_cache_oracle_bitwise(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        x = np.zeros(prob.x_shape)
        for t in range(T):
            for n in range(N):
                x[t, n, rng.choice(K, size=C, replace=False)] = 1.0
        y_ref, obj_ref = _per_sbs_p2(prob, np.zeros(prob.y_shape), x_caps=x)
        batched = solve_y_given_x(prob, x)
        assert np.array_equal(y_ref, batched.y)
        assert obj_ref == batched.objective

    @settings(max_examples=15, deadline=None)
    @given(dims, st.integers(1, 3), st.booleans())
    def test_uniform_classes_bitwise(self, d, G, fixed_cache):
        """With G contiguous classes per SBS the batched assembly is a pure
        reshape; it must still equal per-SBS kernel calls bit for bit."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = Network(
            ContentCatalog(K),
            tuple(SmallBaseStation(n, C, 1.5, 2.0) for n in range(N)),
            tuple(
                MUClass(m, m // G, float(rng.uniform(0.1, 1.0)))
                for m in range(N * G)
            ),
        )
        demand = rng.uniform(0.0, 3.0, size=(T, N * G, K))
        demand *= rng.random(demand.shape) > 0.3
        prob = JointProblem(network=net, demand=demand)
        if fixed_cache:
            x = np.zeros(prob.x_shape)
            for t in range(T):
                for n in range(N):
                    x[t, n, rng.choice(K, size=C, replace=False)] = 1.0
            y_ref, obj_ref = _per_sbs_p2(prob, np.zeros(prob.y_shape), x_caps=x)
            batched = solve_y_given_x(prob, x)
        else:
            mu = _sparse_mu(rng, prob.y_shape)
            y_ref, obj_ref = _per_sbs_p2(prob, mu)
            batched = _solve_p2_fast(prob, mu)
        assert np.array_equal(y_ref, batched.y)
        assert obj_ref == batched.objective

    @settings(max_examples=8, deadline=None)
    @given(dims)
    def test_fista_bitwise(self, d):
        """Every projection FISTA makes through the stacked layout equals
        per-SBS projections of the same iterate, bit for bit."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        # omega_hat > 0 leaves the closed-form fast path: FISTA engages,
        # where stacking only changes the projection layout. A tight
        # bandwidth makes the projections bind.
        prob = _multi_problem(
            rng, N=N, K=K, T=T, C=C, omega_hat=0.1, bandwidth=0.4
        )
        mu = _sparse_mu(rng, prob.y_shape, scale=1.0)
        reference = _per_sbs_projection(prob)
        calls = []

        def checked_fista(objective, gradient, project, x0, **kwargs):
            def checked(y_flat):
                out = project(y_flat)
                assert np.array_equal(out, reference(y_flat))
                calls.append(1)
                return out

            return minimize_fista(objective, gradient, checked, x0, **kwargs)

        with mock.patch.object(load_balancing, "minimize_fista", checked_fista):
            _solve_p2_fista(prob, mu)
        assert calls


class TestClassSums:
    """Per-SBS class sums equal the scatter-add they replace, bit for bit."""

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_matches_add_at_on_uneven_classes(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        M = net.num_classes
        for shape in ((T, M, K), (T, M)):
            values = rng.uniform(-3.0, 3.0, shape) * 10.0 ** rng.uniform(
                -8, 8, shape
            )
            ref = np.zeros((T, N) + shape[2:])
            np.add.at(ref, (slice(None), net.class_sbs), values)
            assert np.array_equal(net.sum_classes_per_sbs(values), ref)
        assert np.array_equal(class_prices(net, values[..., None]), ref[..., None])

    def test_uniform_contiguous_classes_use_slices(self):
        net = Network(
            ContentCatalog(4),
            tuple(SmallBaseStation(n, 1, 1.0, 1.0) for n in range(3)),
            tuple(MUClass(m, m // 2, 1.0) for m in range(6)),
        )
        assert all(
            isinstance(sbs, slice) and isinstance(cls, slice)
            for sbs, cls in net.classes_by_rank
        )


def _row_objective(alloc, lam, omega, mu, W, scale):
    """P2 row objective in allocation space (what the water-fill minimizes)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        slope = np.where(alloc > 0, mu / np.where(lam > 0, lam, 1.0), 0.0)
    residual = W - float((omega * alloc).sum())
    return scale * residual * residual + float((slope * alloc).sum())


def _random_stack(rng, R, J):
    lam = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.3)
    frac = rng.uniform(0.0, 1.0, size=(R, J))
    caps = lam * frac  # routing caps never exceed demand volume
    omega = rng.uniform(0.05, 1.0, size=(R, J))
    mu = rng.uniform(0.0, 2.0, size=(R, J)) * (rng.random((R, J)) > 0.4)
    W = (omega * caps).sum(axis=1) * rng.uniform(1.0, 1.5, size=R)
    bandwidths = rng.uniform(0.5, 4.0, size=R)
    return lam, caps, omega, mu, W, bandwidths


class TestWaterfillKernel:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
    def test_early_exit_bitwise(self, seed, R, J):
        """The bisection early-exit is a no-op on the returned numbers."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _random_stack(rng, R, J)
        full = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0, early_exit=False)
        fast = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0, early_exit=True)
        assert np.array_equal(full[0], fast[0])
        assert np.array_equal(full[1], fast[1])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8))
    def test_matches_bisection_reference(self, seed, R, J):
        """Closed form is within 1e-9 of the historical bisection solver,
        and never worse (it is exact where the reference is approximate)."""
        rng = np.random.default_rng(seed)
        lam, caps, _, mu, W, bw = _random_stack(rng, R, J)
        # The reference solver takes one omega row shared by all rows
        # (its rows are the slots of a single SBS).
        omega_row = rng.uniform(0.05, 1.0, size=J)
        omega = np.tile(omega_row, (R, 1))
        scale = float(rng.uniform(0.2, 2.0))
        bw_scalar = float(bw[0])
        alloc, _ = waterfill_batch(
            lam, caps, omega, mu, W, np.full(R, bw_scalar), scale
        )
        ref_alloc, _ = _waterfill_reference(
            lam, caps, omega_row, mu, W, bw_scalar, scale
        )
        for r in range(R):
            got = _row_objective(alloc[r], lam[r], omega[r], mu[r], W[r], scale)
            ref = _row_objective(
                ref_alloc[r], lam[r], omega[r], mu[r], W[r], scale
            )
            tol = 1e-9 * max(1.0, abs(ref))
            assert got <= ref + tol

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(2, 8))
    def test_zero_cap_columns_inert(self, seed, R, J):
        """Padding columns (zero caps everywhere) cannot change any bit —
        the compression recursion depends on it."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _random_stack(rng, R, J)
        dead = rng.choice(J, size=max(1, J // 2), replace=False)
        caps[:, dead] = 0.0
        alloc, u = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        keep = np.setdiff1d(np.arange(J), dead)
        alloc_c, u_c = waterfill_batch(
            np.ascontiguousarray(lam[:, keep]),
            np.ascontiguousarray(caps[:, keep]),
            np.ascontiguousarray(omega[:, keep]),
            np.ascontiguousarray(mu[:, keep]),
            W, bw, 1.0,
        )
        assert np.array_equal(alloc[:, keep], alloc_c)
        assert np.array_equal(alloc[:, dead], np.zeros((R, dead.size)))
        assert np.array_equal(u, u_c)

    # The kernel works on each row's candidate set (items with threshold
    # t < W), bucketed by candidate count. The properties below pin that
    # restriction and the bucketing as invisible.

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 12),
        st.integers(2, 14),
        st.integers(1, 10),
        st.sampled_from([1, 2]),
    )
    def test_never_eligible_columns_inert(self, seed, R, J, extra, G):
        """Appending items with t >= W (routable, but never worth routing)
        changes no bit of the other columns, of u, or of the counters."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _mixed_stack(rng, R, J, G)
        if lam.shape[0] == 0:
            return
        base, base_c = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        # The new items reuse each row's weights: the weight structure the
        # bound stage routes on stays the same.
        picks = rng.integers(0, J, (lam.shape[0], extra))
        lam_x, caps_x, om_x, mu_x = _append_never_eligible(
            rng, lam, caps, omega, mu, W, np.take_along_axis(omega, picks, 1)
        )
        wide, wide_c = _counters(
            lambda: waterfill_batch(lam_x, caps_x, om_x, mu_x, W, bw, 1.0)
        )
        assert np.array_equal(wide[0][:, :J], base[0])
        assert not wide[0][:, J:].any()
        assert np.array_equal(wide[1], base[1])
        assert wide_c == base_c

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 30), st.integers(2, 40))
    def test_row_permutation_and_bucketing_invisible(self, seed, R, J):
        """Permuting the rows permutes the outputs exactly, also when every
        candidate-count class is its own bucket and the element budget
        forces many chunks and bound-stage flushes."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _mixed_stack(rng, R, J, 2)
        rows = lam.shape[0]
        if rows == 0:
            return
        base, base_c = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        perm = rng.permutation(rows)
        with mock.patch.object(waterfill_mod, "_BUCKET_MIN_ELEMS", 0), \
                mock.patch.object(
                    waterfill_mod, "_CHUNK_ELEMS", int(rng.integers(1, 4 * J))
                ):
            out, out_c = _counters(
                lambda: waterfill_batch(
                    lam[perm], caps[perm], omega[perm], mu[perm], W[perm],
                    bw[perm], 1.0,
                )
            )
        assert np.array_equal(out[0], base[0][perm])
        assert np.array_equal(out[1], base[1][perm])
        assert out_c == base_c

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(8, 40))
    def test_wide_row_among_narrow_rows_matches_per_row_calls(self, seed, R, J):
        """One row whose every item is a candidate, stacked with rows of
        few candidates, returns what each row returns on its own."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _mixed_stack(rng, R, J, 2)
        rows = lam.shape[0]
        if rows == 0:
            return
        # Narrow rows: most items priced out of the fill.
        priced = rng.random((rows, J)) < 0.8
        priced[:, 0] = False
        mu = np.where(priced, mu + 4.0 * lam * omega * W[:, None], mu)
        # The wide row: every item capped and cheap (t << W).
        i0 = int(rng.integers(rows))
        caps[i0] = lam[i0] * rng.uniform(0.1, 1.0, J)
        mu[i0] = 1e-3 * lam[i0] * omega[i0] * W[i0] * rng.uniform(0.1, 1.0, J)
        alloc, u = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        for r in range(rows):
            one = slice(r, r + 1)
            a_r, u_r = waterfill_batch(
                lam[one], caps[one], omega[one], mu[one], W[one], bw[one], 1.0
            )
            assert np.array_equal(alloc[r], a_r[0])
            assert u[r] == u_r[0]

    @settings(max_examples=15, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 12),
        st.integers(2, 12),
        st.integers(2, 6),
    )
    def test_third_weight_on_never_eligible_items_falls_back(
        self, seed, R, J, extra
    ):
        """The weight-structure test reads the full row: a third weight on
        items outside every candidate set still routes each bound row to
        the bisection, counted, exactly as closed_form=False does."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J, 2)
        rows = lam.shape[0]
        if rows == 0:
            return
        # Two new weights above every existing one: each row then carries
        # at least three distinct weights, two of them only on items that
        # never enter the fill.
        factor = np.where(np.arange(extra) % 2 == 0, 1.5, 2.5)
        om_new = omega.max(axis=1)[:, None] * factor[None, :]
        lam_x, caps_x, om_x, mu_x = _append_never_eligible(
            rng, lam, caps, omega, mu, W, om_new
        )
        out, counters = _counters(
            lambda: waterfill_batch(lam_x, caps_x, om_x, mu_x, W, bw, 1.0)
        )
        assert counters == {
            "p2_bw_bound_rows": rows,
            "p2_bw_closed_form": 0,
            "p2_bisection_fallbacks": rows,
        }
        ref = waterfill_batch(
            lam_x, caps_x, om_x, mu_x, W, bw, 1.0, closed_form=False
        )
        assert np.array_equal(out[0], ref[0])
        assert np.array_equal(out[1], ref[1])

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(1, 5000),
        st.floats(0.0, 1.0),
    )
    def test_zero_extended_sum_is_the_full_width_sum(self, seed, width, frac):
        """The compact ``closed`` test sums a candidate prefix as if it
        were zero-extended to the full row; it must equal numpy's sum of
        the full-width row bit for bit."""
        rng = np.random.default_rng(seed)
        C = max(1, int(frac * width))
        a = rng.random((3, C)) * 10.0 ** rng.uniform(-6, 6, (3, C))
        full = np.zeros((3, width))
        full[:, :C] = a
        assert np.array_equal(_zero_extended_sum(a, width), full.sum(axis=1))


def _mixed_stack(rng, R, J, G):
    """A bound stack with some rows relaxed back to bandwidth slack."""
    lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J, G)
    bw = bw * rng.uniform(0.5, 4.0, lam.shape[0])
    return lam, caps, omega, mu, W, bw


def _append_never_eligible(rng, lam, caps, omega, mu, W, om_new):
    """Append routable items whose threshold t = mu / (2 lam omega) is at
    least 1.5 W (unit cost scale), so no residual r <= W admits them."""
    shape = om_new.shape
    lam_n = rng.exponential(1.0, shape) + 1e-3
    caps_n = lam_n * rng.uniform(0.1, 1.0, shape)
    mu_n = 2.0 * lam_n * om_new * W[:, None] * rng.uniform(1.5, 3.0, shape)
    return (
        np.hstack([lam, lam_n]),
        np.hstack([caps, caps_n]),
        np.hstack([omega, om_new]),
        np.hstack([mu, mu_n]),
    )


class TestProjectionEarlyExit:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
    def test_bitwise(self, seed, R, J):
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.0, 2.0, size=(R, J))
        a = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        budgets = rng.uniform(0.5, 4.0, size=R)
        caps = rng.uniform(0.0, 1.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        full = _project_blocks_capped(v, a, budgets, caps, early_exit=False)
        fast = _project_blocks_capped(v, a, budgets, caps, early_exit=True)
        assert np.array_equal(full, fast)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 9))
    def test_exact_theta_beats_bisection(self, seed, R, J):
        """The event-sweep theta is feasible and never a worse projection
        (in Euclidean distance) than the bisection reference, beyond the
        1e-9 envelope."""
        rng = np.random.default_rng(seed)
        v = rng.uniform(-1.0, 2.0, size=(R, J))
        a = rng.uniform(0.0, 3.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        budgets = rng.uniform(0.2, 2.0, size=R)
        caps = rng.uniform(0.0, 1.0, size=(R, J)) * (rng.random((R, J)) > 0.2)
        exact = _project_blocks_capped(v, a, budgets, caps)
        ref = _project_blocks_capped(v, a, budgets, caps, closed_form=False)
        assert (exact >= -1e-12).all()
        assert (exact <= caps + 1e-9).all()
        usage = np.einsum("rj,rj->r", a, exact)
        assert (usage <= budgets * (1 + 1e-9) + 1e-9).all()
        d_exact = ((exact - v) ** 2).sum(axis=1)
        d_ref = ((ref - v) ** 2).sum(axis=1)
        assert (d_exact <= d_ref + 1e-9 * np.maximum(1.0, d_ref)).all()


class TestP1Batched:
    """The stacked certificate pass answers exactly like the flow backend."""

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_accepted_solves_match_flow_exactly(self, d):
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.7)
        prices = class_prices(net, mu)
        x0 = np.zeros((N, K))
        for n in range(N):
            x0[n, rng.choice(K, size=rng.integers(0, C + 1), replace=False)] = 1.0
        accepted = _solve_batched_p1(net, prices, x0, list(range(N)))
        for n, (x_b, obj_b) in accepted.items():
            x_f, obj_f = _solve_single_sbs_flow(
                prices[:, n, :], float(net.sbss[n].replacement_cost),
                int(net.sbss[n].cache_size), x0[n],
            )
            assert np.array_equal(x_b, x_f), f"SBS {n} trajectory differs"
            assert obj_b == obj_f

    @settings(max_examples=15, deadline=None)
    @given(dims, st.booleans())
    def test_solve_caching_batched_vs_loop(self, d, with_cache):
        """The full front door (memo, batched pass, fallback) equals one
        per-SBS flow-backend solve per SBS."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.6)
        x0 = np.zeros((N, K))
        prices = class_prices(net, mu)
        loop_x = np.zeros((T, N, K))
        loop_obj = 0.0
        for n in range(N):
            x_n, obj_n = _solve_single_sbs_flow(
                prices[:, n, :], float(net.sbss[n].replacement_cost),
                int(net.sbss[n].cache_size), x0[n],
            )
            loop_x[:, n, :] = x_n
            loop_obj += obj_n
        batched = solve_caching(
            net, mu, x0, backend="flow",
            cache=SolveCache() if with_cache else None,
        )
        assert np.array_equal(loop_x, batched.x)
        assert loop_obj == batched.objective

    @pytest.mark.parametrize("executor", ["serial", "thread:2", "process:2"])
    def test_executors_bitwise(self, rng, executor):
        net = _multi_network(rng, N=3, K=6, C=2)
        mu = _sparse_mu(rng, (3, net.num_classes, 6), sparsity=0.5)
        x0 = np.zeros((3, 6))
        base = solve_caching(net, mu, x0, backend="flow")
        other = solve_caching(net, mu, x0, backend="flow", executor=executor)
        assert np.array_equal(base.x, other.x)
        assert base.objective == other.objective

    def test_memo_hit_short_circuits_batch(self, rng):
        """A warm cache answers repeats before the batched pass sees them."""
        net = _multi_network(rng, N=3, K=6, C=2)
        mu = _sparse_mu(rng, (3, net.num_classes, 6))
        x0 = np.zeros((3, 6))
        cache = SolveCache()
        first = solve_caching(net, mu, x0, backend="flow", cache=cache)
        misses = cache.misses
        second = solve_caching(net, mu, x0, backend="flow", cache=cache)
        assert cache.misses == misses  # all hits the second time
        assert np.array_equal(first.x, second.x)
        assert first.objective == second.objective


class TestRoundingRepair:
    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 4), st.integers(2, 9))
    def test_stacked_repair_matches_loop(self, seed, N, K):
        """The vectorized capacity repair equals the per-(t, n) loop."""
        rng = np.random.default_rng(seed)
        T = int(rng.integers(1, 4))
        # Cluster values near the threshold so over-capacity rows (and
        # ties) actually occur.
        x_frac = rng.choice(
            [0.0, 0.3, 0.39, 0.4, 0.8, 1.0], size=(T, N, K)
        ) * np.ones((T, N, K))
        caps = rng.integers(1, max(2, K // 2), size=N)
        got = round_caching(x_frac, caps)
        expected = np.where(x_frac >= optimal_rounding_threshold(), 1.0, 0.0)
        for n in range(N):
            cap = int(caps[n])
            for t in range(T):
                sel = np.flatnonzero(expected[t, n] > 0.5)
                if sel.size > cap:
                    keep = sel[
                        np.argsort(-x_frac[t, n, sel], kind="stable")
                    ][:cap]
                    expected[t, n] = 0.0
                    expected[t, n, keep] = 1.0
        assert np.array_equal(got, expected)
        assert np.all((got > 0.5).sum(axis=2) <= caps[None, :])


class TestPolishBatched:
    @settings(max_examples=10, deadline=None)
    @given(dims)
    def test_batched_vs_loop_bitwise(self, d):
        """Batched candidate evaluation equals the per-move oracle loop
        (the path problems off the fast path take), bit for bit."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        x = np.zeros(prob.x_shape)
        for t in range(T):
            for n in range(N):
                x[t, n, rng.choice(K, size=C, replace=False)] = 1.0
        with mock.patch.object(polish_mod, "_uses_fast_path", lambda p: False):
            x_l, y_l, cost_l = polish_caching(prob, x)
        x_b, y_b, cost_b = polish_caching(prob, x)
        assert np.array_equal(x_l, x_b)
        assert np.array_equal(y_l, y_b)
        assert cost_l.total == cost_b.total


def _bound_stack(rng, R, J, G=2, bw_frac=0.4):
    """A row stack whose every surviving row is bandwidth-bound.

    Two-phase: solve once with effectively infinite bandwidth to learn each
    row's unconstrained fill, then starve every row to ``bw_frac`` of it —
    the adversarial regime where the closed-form parametric solve carries
    the whole batch. ``G`` distinct positive omegas per row (``G <= 2`` is
    the certified closed-form family; ``G >= 3`` must fall back, counted).
    """
    lam = rng.exponential(1.0, (R, J)) + 1e-3
    omvals = np.sort(rng.uniform(0.2, 2.0, (R, G)), axis=1)
    gi = rng.integers(0, G, (R, J))
    omega = np.take_along_axis(omvals, gi, axis=1)
    mu = rng.exponential(0.5, (R, J))
    mu[rng.random((R, J)) < 0.3] = 0.0
    caps = lam * rng.uniform(0.1, 1.0, (R, J))
    caps[rng.random((R, J)) < 0.15] = 0.0
    # Rows whose every positive-cap item has zero slope take the
    # single-pass greedy shortcut and are (by design) not counted as
    # bound rows — force one sloped, capped item per row so every
    # surviving row really enters the bound stage.
    anchor = np.arange(R)
    mu[anchor, 0] = np.maximum(mu[anchor, 0], 0.1)
    caps[anchor, 0] = np.maximum(caps[anchor, 0], 0.5 * lam[anchor, 0])
    W = (lam * omega).sum(axis=1) * rng.uniform(0.3, 1.2, R)
    unconstrained, _ = waterfill_batch(
        lam, caps, omega, mu, W, np.full(R, 1e18), 1.0
    )
    totals = unconstrained.sum(axis=1)
    keep = totals > 0
    bw = totals[keep] * bw_frac
    return lam[keep], caps[keep], omega[keep], mu[keep], W[keep], bw


_P2_COUNTERS = ("p2_bw_bound_rows", "p2_bw_closed_form", "p2_bisection_fallbacks")


def _counters(run):
    rec = Recorder()
    with record_into(rec):
        out = run()
    return out, {name: rec.metrics.counter(name) for name in _P2_COUNTERS}


class TestBwBoundClosedForm:
    """Exactness and accounting of the closed-form bandwidth-bound solve."""

    @settings(max_examples=25, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.integers(2, 25),
        st.integers(2, 18),
        st.sampled_from([1, 2]),
        st.floats(0.05, 0.95),
    )
    # A flat optimum: zero-slope items finish the offload (residual 0)
    # inside the budget, so the budget multiplier is 0 and the row is not
    # tight.
    @example(seed=6, R=17, J=6, G=2, bw_frac=0.75)
    def test_feasible_tight_and_never_worse(self, seed, R, J, G, bw_frac):
        """On an all-bound stack the closed form stays feasible, satisfies
        complementary slackness (every row either exhausts the budget or
        has reached zero marginal cost, where the budget multiplier may be
        0), and is never worse than a deep bisection beyond the 1e-9
        relative envelope."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J, G, bw_frac)
        if lam.shape[0] == 0:
            return
        (out, counters) = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        alloc, u = out
        rows = lam.shape[0]
        assert counters["p2_bw_bound_rows"] == rows
        # Accounting identity: certified closed-form solves plus counted
        # bisection fallbacks cover every bound row (degenerate rows may
        # legitimately fail the certificate and fall back).
        assert (
            counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
            == rows
        )
        assert (alloc >= 0.0).all()
        assert (alloc <= caps * (1 + 1e-12) + 1e-12).all()
        sums = alloc.sum(axis=1)
        assert (sums <= bw * (1 + 1e-9) + 1e-12).all()
        # Complementary slackness: a row whose budget multiplier is
        # positive sits on the hyperplane. The multiplier can be 0 only
        # when no item with spare capacity has a positive margin
        # 2 s r omega_j - slope_j (r = W - u): the row has reached zero
        # marginal cost. Closed-form rows are exact; when a fallback row is
        # present its bisection is exact only to its bracket width.
        tol = 1e-9 if counters["p2_bisection_fallbacks"] == 0 else 1e-6
        residual = W - (omega * alloc).sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            slope = np.where(lam > 0, mu / lam, np.inf)
        margin = 2.0 * residual[:, None] * omega - slope
        room = alloc < caps
        scale = 2.0 * np.maximum(1.0, np.abs(W)) * omega.max(axis=1)
        flat = ~(room & (margin > tol * scale[:, None])).any(axis=1)
        tight = sums >= bw * (1 - tol) - tol * 1e-3
        assert (tight | flat).all()
        deep, _ = waterfill_batch(
            lam, caps, omega, mu, W, bw, 1.0,
            closed_form=False, bisection_iters=60,
        )
        for r in range(rows):
            got = _row_objective(alloc[r], lam[r], omega[r], mu[r], W[r], 1.0)
            ref = _row_objective(deep[r], lam[r], omega[r], mu[r], W[r], 1.0)
            assert got <= ref + 1e-9 * max(1.0, abs(ref))

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(3, 14))
    def test_three_group_rows_fall_back_counted(self, seed, R, J):
        """G = 3 is outside the certified family: every bound row must take
        the (column-compressed) bisection fallback, bit-identical to the
        closed_form=False path, and be counted."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J, G=3)
        if lam.shape[0] == 0:
            return
        # Rows where fewer than 3 omega groups survive the cap mask may
        # still be solved closed-form; only the accounting total is fixed.
        (out, counters) = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        rows = lam.shape[0]
        assert counters["p2_bw_bound_rows"] == rows
        assert (
            counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
            == rows
        )
        # Rows with more than two surviving omega groups must all have
        # fallen back (the certified families only cover G <= 2).
        g_counts = [
            np.unique(omega[r][(caps[r] > 0) & (omega[r] > 0)]).size
            for r in range(rows)
        ]
        assert counters["p2_bisection_fallbacks"] >= sum(g > 2 for g in g_counts)
        # Fallback rows reuse the bisection verbatim, so when everything
        # fell back the outputs must match the closed_form=False bits.
        ref = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0, closed_form=False)
        if counters["p2_bw_closed_form"] == 0:
            assert np.array_equal(out[0], ref[0])
            assert np.array_equal(out[1], ref[1])

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 10), st.integers(2, 10))
    def test_padding_invariance_on_bound_stack(self, seed, R, J):
        """Order-preserving zero-cap padding cannot change any bit of the
        closed-form bound solve (the layout property the batched/loop
        equivalence rests on)."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J)
        if lam.shape[0] == 0:
            return
        rows = lam.shape[0]
        alloc, u = waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        # Interleave dead columns at random positions, preserving order.
        width = J + int(rng.integers(1, J + 1))
        keep = np.sort(rng.choice(width, size=J, replace=False))
        lam_p = np.zeros((rows, width))
        caps_p = np.zeros((rows, width))
        om_p = np.zeros((rows, width))
        mu_p = np.zeros((rows, width))
        lam_p[:, keep], caps_p[:, keep] = lam, caps
        om_p[:, keep], mu_p[:, keep] = omega, mu
        alloc_p, u_p = waterfill_batch(lam_p, caps_p, om_p, mu_p, W, bw, 1.0)
        assert np.array_equal(alloc_p[:, keep], alloc)
        assert np.array_equal(u_p, u)
        assert not alloc_p[:, np.setdiff1d(np.arange(width), keep)].any()

    @settings(max_examples=12, deadline=None)
    @given(dims)
    def test_starved_batched_vs_loop_bitwise(self, d):
        """Stacked vs per-SBS kernel calls, bit-identical under bandwidth
        starvation — the regime where the closed form (not the slack
        scan) produces the returned rows."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        prob = _multi_problem(rng, N=N, K=K, T=T, C=C)
        starved = JointProblem(
            network=Network(
                prob.network.catalog,
                tuple(
                    SmallBaseStation(
                        s.sbs_id, s.cache_size, 0.4, s.replacement_cost
                    )
                    for s in prob.network.sbss
                ),
                prob.network.mu_classes,
            ),
            demand=prob.demand,
        )
        mu = _sparse_mu(rng, starved.y_shape)
        ((loop_y, loop_obj), loop_c) = _counters(lambda: _per_sbs_p2(starved, mu))
        (batched, batched_c) = _counters(lambda: _solve_p2_fast(starved, mu))
        assert np.array_equal(loop_y, batched.y)
        assert loop_obj == batched.objective
        assert loop_c == batched_c
        assert (
            loop_c["p2_bw_closed_form"] + loop_c["p2_bisection_fallbacks"]
            == loop_c["p2_bw_bound_rows"]
        )

    @settings(max_examples=8, deadline=None)
    @given(dims, st.booleans())
    def test_starved_solve_caching_cache_and_executors(self, d, with_cache):
        """The end-to-end solve under starvation is invariant to the memo
        cache and the executor, bit for bit."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C, bandwidth=0.4)
        mu = _sparse_mu(rng, (T, net.num_classes, K), sparsity=0.6)
        x0 = np.zeros((N, K))
        base = solve_caching(net, mu, x0, backend="flow")
        cached = solve_caching(
            net, mu, x0, backend="flow",
            cache=SolveCache() if with_cache else None,
        )
        threaded = solve_caching(net, mu, x0, backend="flow", executor="thread:2")
        for other in (cached, threaded):
            assert np.array_equal(base.x, other.x)
            assert base.objective == other.objective

    @settings(max_examples=15, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 12), st.integers(2, 12))
    def test_closed_form_off_counts_every_row_as_fallback(self, seed, R, J):
        """closed_form=False demotes every bound row to the bisection;
        the accounting identity must still hold with zero closed solves."""
        rng = np.random.default_rng(seed)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, R, J)
        if lam.shape[0] == 0:
            return
        (out, counters) = _counters(
            lambda: waterfill_batch(
                lam, caps, omega, mu, W, bw, 1.0, closed_form=False
            )
        )
        assert counters["p2_bw_closed_form"] == 0
        assert counters["p2_bw_bound_rows"] == lam.shape[0]
        assert counters["p2_bisection_fallbacks"] == lam.shape[0]

    def test_closed_form_covers_the_bulk_deterministic(self):
        """On a pinned bound stack the certificate solves the vast
        majority of rows closed-form; the fallback is the exception, not
        the rule."""
        rng = np.random.default_rng(0)
        lam, caps, omega, mu, W, bw = _bound_stack(rng, 300, 24)
        rows = lam.shape[0]
        (_, counters) = _counters(
            lambda: waterfill_batch(lam, caps, omega, mu, W, bw, 1.0)
        )
        assert counters["p2_bw_bound_rows"] == rows
        assert (
            counters["p2_bw_closed_form"] + counters["p2_bisection_fallbacks"]
            == rows
        )
        assert counters["p2_bw_closed_form"] >= 0.9 * rows


class TestP1Ties:
    """Degenerate stacks — tied and cap-bound rows — are *accepted* cases.

    The paper's uniform-cost scenarios make (nearly) every P1 row either
    tie-degenerate or cap-bound; the canonical discipline plus the exact
    capped kernel must answer them in the batched pass, bitwise what the
    per-SBS flow backend returns, instead of falling back row by row.
    """

    def _assert_all_accepted_match_flow(self, net, prices, x0, N):
        accepted = _solve_batched_p1(net, prices, x0, list(range(N)))
        assert set(accepted) == set(range(N)), (
            f"degenerate rows fell back: accepted {sorted(accepted)} of {N}"
        )
        for n, (x_b, obj_b) in accepted.items():
            x_f, obj_f = _solve_single_sbs_flow(
                prices[:, n, :], float(net.sbss[n].replacement_cost),
                int(net.sbss[n].cache_size), x0[n],
            )
            assert np.array_equal(x_b, x_f), f"SBS {n} trajectory differs"
            assert obj_b == obj_f

    @settings(max_examples=25, deadline=None)
    @given(dims, st.floats(0.1, 3.0))
    def test_uniform_price_stacks_accepted(self, d, value):
        """Every item identically priced: maximal ties, cap-bound when the
        uniform value clears the swap cost."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C, beta=float(rng.uniform(0.0, 2.0)))
        prices = np.full((T, N, K), float(value))
        x0 = np.zeros((N, K))
        for n in range(N):
            x0[n, rng.choice(K, size=rng.integers(0, C + 1), replace=False)] = 1.0
        self._assert_all_accepted_match_flow(net, prices, x0, N)

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_duplicated_item_stacks_accepted(self, d):
        """Item columns duplicated so distinct items carry identical price
        trajectories — the classic tied-argmax case."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C)
        base = rng.uniform(0.0, 2.0, size=(T, N, max(1, K // 2)))
        prices = np.empty((T, N, K))
        for k in range(K):
            prices[:, :, k] = base[:, :, k % base.shape[2]]
        x0 = np.zeros((N, K))
        self._assert_all_accepted_match_flow(net, prices, x0, N)

    @settings(max_examples=25, deadline=None)
    @given(dims)
    def test_zero_beta_stacks_accepted(self, d):
        """Free replacement (beta = 0) ties every fetch/evict margin."""
        seed, N, K, T, C = d
        rng = np.random.default_rng(seed)
        net = _multi_network(rng, N=N, K=K, C=C, beta=0.0)
        prices = rng.uniform(0.0, 1.5, size=(T, N, K))
        # Quantize to a coarse grid so exact cross-item ties are common.
        prices = np.round(prices * 4.0) / 4.0
        x0 = np.zeros((N, K))
        for n in range(N):
            x0[n, rng.choice(K, size=rng.integers(0, C + 1), replace=False)] = 1.0
        self._assert_all_accepted_match_flow(net, prices, x0, N)

    def test_uniform_prices_answered_in_batch(self, rng):
        """Uniform prices make every row cap-bound: the capped kernel
        answers all of them in the batched pass (no per-SBS fallback),
        bitwise what the per-SBS flow backend returns."""
        net = _multi_network(rng, N=4, K=8, C=2, beta=0.5)
        # Uniform demand -> uniform prices -> every row cap-bound.
        mu = np.full((3, net.num_classes, 8), 1.0)
        x0 = np.zeros((4, 8))

        rec = Recorder()
        with record_into(rec):
            got = solve_caching(net, mu, x0, backend="flow")
        assert rec.metrics.counter("p1_batched_fallbacks") == 0
        assert rec.metrics.counter("p1_batched_capped") == 4

        prices = class_prices(net, mu)
        for n in range(4):
            x_f, _ = _solve_single_sbs_flow(
                prices[:, n, :], float(net.sbss[n].replacement_cost),
                int(net.sbss[n].cache_size), x0[n],
            )
            assert np.array_equal(got.x[:, n, :], x_f)


class TestCappedKernel:
    """Exactness properties of the cap-constrained cancel kernel."""

    def _instance(self, rng, B, T, K):
        """Cap-bound-leaning stack: mostly-attractive items, small caps."""
        C = rng.uniform(-0.2, 1.0, size=(B, T, K))
        beta = rng.uniform(0.0, 0.8, size=B)
        caps = rng.integers(1, max(2, K // 2 + 1), size=B)
        x0 = np.zeros((B, K))
        for b in range(B):
            x0[b, rng.choice(K, size=rng.integers(0, caps[b] + 1), replace=False)] = 1.0
        return C, beta, x0, caps

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5),
           st.integers(1, 6), st.integers(2, 8))
    def test_accepted_rows_are_flow_optimal(self, seed, B, T, K):
        rng = np.random.default_rng(seed)
        C, beta, x0, caps = self._instance(rng, B, T, K)
        x, ok = capped_cancel_stack(C, beta, x0, caps)
        assert ok.any(), "kernel certified nothing on a benign stack"
        for b in np.flatnonzero(ok):
            xb = x[b]
            # Feasible, binary, cap-respecting.
            assert set(np.unique(xb)) <= {0.0, 1.0}
            assert (xb.sum(axis=1) <= caps[b]).all()
            obj = _objective_single(C[b], float(beta[b]), xb, x0[b])
            _, obj_f = _solve_single_sbs_flow(
                C[b], float(beta[b]), int(caps[b]), x0[b], canonical=False,
            )
            scale = max(1.0, abs(obj_f))
            assert obj == pytest.approx(obj_f, abs=1e-9 * scale), (
                f"row {b}: capped {obj} vs flow {obj_f}"
            )

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(2, 5),
           st.integers(1, 5), st.integers(2, 7))
    def test_stacked_equals_single_row(self, seed, B, T, K):
        """B-elementwise discipline: a row's answer must not depend on its
        batch-mates — stacked and B=1 runs agree bitwise."""
        rng = np.random.default_rng(seed)
        C, beta, x0, caps = self._instance(rng, B, T, K)
        x, ok = capped_cancel_stack(C, beta, x0, caps)
        for b in range(B):
            x1, ok1 = capped_cancel_stack(
                C[b : b + 1], beta[b : b + 1], x0[b : b + 1], caps[b : b + 1]
            )
            assert bool(ok1[0]) == bool(ok[b])
            if ok[b]:
                assert np.array_equal(x1[0], x[b])

    def test_zero_cap_keeps_cache_empty(self, rng):
        C = rng.uniform(0.0, 1.0, size=(2, 3, 4))
        x, ok = capped_cancel_stack(
            C, np.array([0.5, 0.0]), np.zeros((2, 4)), np.array([0, 0])
        )
        assert ok.all()
        assert not x.any()

    def test_full_cap_matches_flow(self, rng):
        """cap = K removes the binding constraint; the kernel must still
        answer exactly (the relaxed pass normally owns this regime)."""
        C = rng.uniform(-0.5, 1.0, size=(3, 4, 5))
        beta = np.array([0.0, 0.3, 1.0])
        caps = np.array([5, 5, 5])
        x0 = np.zeros((3, 5))
        x, ok = capped_cancel_stack(C, beta, x0, caps)
        for b in np.flatnonzero(ok):
            obj = _objective_single(C[b], float(beta[b]), x[b], x0[b])
            _, obj_f = _solve_single_sbs_flow(
                C[b], float(beta[b]), 5, x0[b], canonical=False
            )
            assert obj == pytest.approx(obj_f, abs=1e-12)

    def test_empty_stack_shapes(self):
        x, ok = capped_cancel_stack(
            np.zeros((0, 3, 4)), np.zeros(0), np.zeros((0, 4)), np.zeros(0, dtype=int)
        )
        assert x.shape == (0, 3, 4)
        assert ok.shape == (0,)
