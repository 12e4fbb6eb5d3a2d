"""Batched dual-water-level fill for the ``P2`` fast path.

:func:`waterfill_batch` solves the per-(SBS, slot) residual fixed point of
subproblem ``P2`` for a whole stack of rows at once: every row is one
(SBS, slot) pair, so a single call covers all ``N`` SBSs of a window
instead of one solve per SBS. A single-SBS window routes through the same
kernel with its slots as rows, and every reduction inside the kernel is
either elementwise or a sequential per-row scan — zero-padded tail
coordinates are exactly inert and rows never interact — so a row's
solution is bit-identical however the rows are stacked, padded, or
chunked.

Closed-form solve, bandwidth slack (the common case)
----------------------------------------------------
Each row minimizes ``s (W - sum omega alloc)^2 + sum slope alloc`` over
``0 <= alloc <= caps`` and ``sum alloc <= bw``. Item ``j`` enters the
optimal allocation when the residual ``r = W - u`` exceeds its threshold
``t_j = slope_j / (2 s omega_j)`` (the benefit ``2 s r omega_j`` beats the
price ``slope_j``). When the bandwidth constraint is slack, the KKT system
collapses to a one-dimensional fixed point over a *sorted threshold scan*:

* sort the candidate items (below) by ``t_j`` once; prefix-sum their
  weighted capacities ``U_k``;
* the fixed point lies in segment ``k*`` — the largest ``k`` with
  ``t_(k) < W - U_k`` (both sequences are monotone, so ``k*`` is a count);
* if ``W - U_k* <= t_(k*+1)`` the solution is interior: the first ``k*``
  items at full capacity, residual ``r* = W - U_k*``;
* otherwise the line ``W - r`` crosses inside the jump at ``r* = t_(k*+1)``
  and the items tied at that threshold (``kappa = 0``, indifferent) split
  the remaining weighted volume ``W - r* - U_k*`` greedily in stable order.

Candidate set
-------------
Only items with ``t_j < W`` can ever be filled: the residual satisfies
``r = W - u <= W``, so any other item's margin ``2 s omega_j (r - t_j)``
is never positive. These *candidates* (19% of a row on the many-SBS
wide-cell instance, 2.5% by its last iteration) are all the kernel sorts
and scans. Each chunk packs every row's candidates to the left, in
column order, behind inert padding (``t = +inf``, cap 0), and keeps the
column map for the scatter back. Rows are bucketed by
``ceil(log2(count))``, so one wide row never pads a whole chunk; a class
too small to pay for its own numpy calls (:data:`_BUCKET_MIN_ELEMS`)
joins the next wider bucket.

The restriction is bitwise-invisible. Every non-candidate sorts after
every candidate, so the candidates' stable order is exactly the prefix
of the full-row sort; the slack scan never needs the first threshold
outside the set (when ``k* == count``, ``r_int <= W <= t`` makes the row
interior); and the ``closed`` test sums the compact row as if it were
zero-extended to the full width (:func:`_zero_extended_sum`). The bound
stage below runs on the compact rows too, while its weight-structure
test (:func:`_weight_groups`) reads every item of the full row, so
fallback routing and the counters do not depend on the restriction.

Closed-form solve, bandwidth bound (:func:`_solve_bw_bound`)
------------------------------------------------------------
Rows whose slack-scan allocation exceeds the bandwidth historically fell
back to a 26-iteration bisection. They are now solved exactly as well, via
a parametric KKT enumeration. With a bandwidth multiplier ``theta >= 0``
the optimum fills every item whose benefit margin ``kappa_j(r) = 2 s r
omega_j - slope_j`` exceeds ``theta``, zeroes those below, and puts at
most one *partial* item exactly at ``theta``. ``P2`` rows carry at most
two distinct positive weights (one ``omega`` per MU class of the SBS —
``G <= 2`` after padding), so splitting the items into a high-weight and a
low-weight group, each sorted by ``slope`` (within a group the ``kappa``
order equals the slope order and is independent of ``r``), makes the
candidate set enumerable: a candidate is "the first ``i`` items of one
group at capacity, the other group greedily filled with the remaining
bandwidth, the marginal item partial". Every candidate spends the whole
bandwidth, so its fill volume collapses to ``u(i) = m_M bw + (m_F - m_M)
P_F[i]`` — monotone in the prefix sum ``P_F[i]`` — and the KKT residual
``f(i) = kappa_excl(i) - theta(i)`` (first excluded full-group item's
margin minus the marginal item's) is non-increasing in ``i``. A
vectorized binary search over ``i`` — O(A log J) gather/compare steps
instead of any O(A J) candidate table — brackets the sign change, and
the exact KKT conditions (``theta >= 0``; every filled item's ``kappa >=
theta``; every zeroed item's ``kappa <= theta``) are then certified on a
small window of candidates around it, which by convexity certifies
*global* optimality — no fixed-point iteration, no bracketing error. One
shared argsort by slope, two cumsum-positioned group compactions, prefix
scans, and two binary searches replace up to 26 fresh greedy fills.

Fallback criteria: rows with three or more distinct positive weights
among cap-positive items (never produced by ``P2``, but the kernel is
general), rows where an item with non-positive weight could become
eligible (negative slope), and degenerate cross-group ``kappa`` ties
whose optimum needs two simultaneously-partial items (a measure-zero
coincidence under continuous inputs: it requires ``2 s r (omega_H -
omega_L) = slope_H - slope_L`` to hold exactly at the optimum) are routed
to the legacy bisection below. The counters ``p2_bw_bound_rows``,
``p2_bw_closed_form`` and ``p2_bisection_fallbacks`` (see
:mod:`repro.obs`) account for every bound row:
``p2_bw_closed_form + p2_bisection_fallbacks == p2_bw_bound_rows``.

Legacy bisection (the counted fallback)
---------------------------------------
The greedy fill at residual ``r`` ranks items by ``kappa_j(r)`` and pours
bandwidth down the ranking; bisection finds ``W - u(r) = r``. The fill's
output depends on ``r`` only through the *state* (eligible set, sort
order), so the kernel stores the last state evaluated on each side of the
bracket; at each midpoint one gather plus two vectorized checks — the
``(key, index)`` pairs strictly increasing along the stored order (exactly
the output a stable argsort would produce; ``+inf`` runs are exempt
because their caps are zeroed) and the ``+inf`` pattern matching the
stored eligible-prefix length — prove the stored state is valid at the
midpoint, making ``u(mid)`` free. Since each ``kappa_j(r)`` is linear in
``r``, a state valid at both ends of a bracket is valid throughout it, so
a *cross-side* match certifies the fill is constant on the bracket and the
row settles immediately. Both mechanisms are bitwise-invisible;
``early_exit=False`` runs every iteration with fresh fills. The bisection
runs ``bisection_iters`` (default 26) steps; ``closed_form=False`` demotes
every bound row to this path. Those three arguments exist for tests and
benchmarks, which use the plain bisection as an independent reference;
no solver above the kernel passes them. State arrays are allocated at the *compressed* width
of each fallback subset (columns with positive cap in some row), never at
the padded width.

Memory discipline
-----------------
Active rows are processed in chunks of roughly ``2^18`` matrix elements
(:data:`_CHUNK_ELEMS`): only the threshold pass that finds the
candidates runs at the full width ``J``. The compact buckets are never
larger than their chunk, and bound rows wait, compact, in a queue that is
solved whenever it would exceed the same element budget (the bound
stage's cost is mostly per call, so batching rows across chunks keeps it
small). The legacy bisection gets full rows one chunk at a time. Every
operation is row-wise, so chunking, bucketing and queueing are
bitwise-invisible; they bound the solver's transient state to a few MB
regardless of the stack size, where the historical kernel materialized
O(R x J) bracket-state arrays (two ``(R, J)`` intp arrays alone are
~320 MB at R=1000, J=20000).
"""

from __future__ import annotations

import numpy as np

from repro.obs.recorder import inc
from repro.types import FloatArray, IntArray

_INF = np.inf

#: Row-chunk size for the active-row stages, in matrix elements. Chunks of
#: ``max(1, _CHUNK_ELEMS // J)`` rows keep per-stage temporaries at a few
#: MB each; all per-row math is chunk-invariant (bitwise).
_CHUNK_ELEMS = 1 << 18

#: A candidate-count bucket smaller than this many elements, padded to the
#: next wider bucket's width, joins that bucket: below it the bucket's fixed
#: numpy-call overhead outweighs the padding it saves. Bitwise-invisible.
_BUCKET_MIN_ELEMS = 1 << 14


def waterfill_batch(
    lam: FloatArray,
    caps: FloatArray,
    omega: FloatArray,
    mu: FloatArray,
    W: FloatArray,
    bandwidths: FloatArray,
    scale: float,
    *,
    group_ids: IntArray | None = None,
    early_exit: bool = True,
    closed_form: bool = True,
    bisection_iters: int = 26,
) -> tuple[FloatArray, FloatArray]:
    """Solve the water-fill for a stack of independent rows.

    Parameters
    ----------
    lam, caps, omega, mu:
        Row-stacked ``(R, J)`` arrays: demand, routing caps, BS weights
        and multipliers per flattened (class, item) coordinate. Rows from
        SBSs with fewer coordinates are zero-padded (zero caps make the
        padding inert — bitwise, not just approximately).
    W:
        Offloadable weighted volume per row, shape ``(R,)``.
    bandwidths:
        SBS bandwidth per row, shape ``(R,)``.
    scale:
        Quadratic BS-cost scale.
    group_ids:
        Optional ``(R,)`` int labels tying rows to their SBS. The
        "no bisection needed" shortcut (all slopes zero) is decided per
        SBS over the whole window, so the batched kernel must apply it
        per group, not per row. ``None`` treats the whole batch as one
        group.
    early_exit:
        Enable the state-reuse fast path of the legacy bisection
        (bitwise-invisible; see module docstring).
    closed_form:
        Solve bandwidth-bound rows by the exact parametric path (see
        module docstring); ``False`` demotes every bound row to the legacy
        bisection (a test and benchmark reference).
    bisection_iters:
        Depth of the legacy bisection (default 26).

    Returns
    -------
    (alloc, u):
        Routed amounts ``(R, J)`` and offloaded weighted volume ``(R,)``.
    """
    R, J = lam.shape
    alloc_out = np.zeros_like(caps)
    u_out = np.zeros(R)
    if R == 0 or J == 0:
        return alloc_out, u_out

    # Columns with zero cap in every row are exactly inert: their
    # threshold is +inf, their weighted capacity contributes +0.0 to every
    # prefix scan, and their allocation is identically zero. Dropping them
    # up front is bitwise-invisible (stable sorts preserve the relative
    # order of the surviving columns) and shrinks every (rows, J) op —
    # typical caching instances route only the cached fraction of items.
    chunk = max(1, _CHUNK_ELEMS // J)
    col_any = np.zeros(J, dtype=bool)
    for s0 in range(0, R, chunk):
        col_any |= (caps[s0 : s0 + chunk] > 0).any(axis=0)
    keep_cols = np.flatnonzero(col_any)
    if keep_cols.size < J:
        alloc_c, u_out = waterfill_batch(
            np.ascontiguousarray(lam[:, keep_cols]),
            np.ascontiguousarray(caps[:, keep_cols]),
            np.ascontiguousarray(omega[:, keep_cols]),
            np.ascontiguousarray(mu[:, keep_cols]),
            W,
            bandwidths,
            scale,
            group_ids=group_ids,
            early_exit=early_exit,
            closed_form=closed_form,
            bisection_iters=bisection_iters,
        )
        alloc_out[:, keep_cols] = alloc_c
        return alloc_out, u_out

    two_s = 2.0 * scale

    def slope_of(rows: IntArray) -> FloatArray:
        lam_r = lam[rows]
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.where(lam_r > 0, mu[rows] / lam_r, _INF)

    def full_fill(rows: IntArray, r: FloatArray) -> tuple[FloatArray, FloatArray]:
        """One bandwidth-capped greedy pass at residual ``r`` over rows whose
        cap-positive items all have slope zero (``kappa = 2 s r omega``).

        When every row has zero-cap columns, each row's cap-positive
        columns are gathered to the left in column order, padded with
        zero-cap columns to the widest row: stacked rows (SBSs, lockstep
        windows) route different items, and the column drop above keeps
        their union. Like that drop, the gather is bitwise invisible — a
        zero-cap item is never eligible, sorts to the +inf tail, adds +0.0
        to both scans and is allocated nothing.
        """
        ridx = np.arange(rows.size)[:, None]
        nz = caps[rows] > 0
        width = max(int(nz.sum(axis=1).max()), 1)
        if width < J:
            cols = np.argsort(~nz, axis=1, kind="stable")[:, :width]
            cp = caps[rows[:, None], cols]
            om = omega[rows[:, None], cols]
        else:
            cols = None
            cp = caps[rows]
            om = omega[rows]
        kappa = two_s * r[:, None] * om
        eligible = (kappa > 0) & (cp > 0)
        key = np.where(eligible, -kappa, _INF)
        order = np.argsort(key, axis=1, kind="stable")
        caps_sorted = np.where(eligible, cp, 0.0)[ridx, order]
        cum = np.cumsum(caps_sorted, axis=1)
        alloc_sorted = np.clip(
            bandwidths[rows, None] - (cum - caps_sorted), 0.0, caps_sorted
        )
        # Sequential scan instead of a blocked dot keeps the value
        # invariant to trailing zero padding.
        u = np.cumsum(alloc_sorted * om[ridx, order], axis=1)[:, -1]
        alloc = np.zeros((rows.size, J))
        alloc[ridx, order if cols is None else cols[ridx, order]] = alloc_sorted
        return alloc, u

    # Per-SBS shortcut: when no item of the group carries a positive slope
    # with positive cap, the fill order and eligible set do not depend on
    # r and one bandwidth-capped pass at max(W, 1) is exact. This is the
    # fixed-cache oracle's hot path. (caps > 0 implies lam > 0, where
    # slope > 0 iff mu > 0 — no division needed for the test.)
    row_any = np.zeros(R, dtype=bool)
    for s0 in range(0, R, chunk):
        sl = slice(s0, s0 + chunk)
        row_any[sl] = ((mu[sl] > 0) & (caps[sl] > 0)).any(axis=1)
    if group_ids is None:
        bisect_rows = np.full(R, bool(row_any.any()))
    else:
        grp = np.zeros(int(group_ids.max()) + 1, dtype=bool)
        np.logical_or.at(grp, group_ids, row_any)
        bisect_rows = grp[group_ids]

    single = np.flatnonzero(~bisect_rows)
    if single.size:
        # Every cap-positive item of a single-pass group has slope exactly
        # zero, so the zero-slope fill is bit-identical and skips the
        # (R, J) division.
        alloc, u = full_fill(single, np.maximum(W[single], 1.0))
        alloc_out[single] = alloc
        u_out[single] = u

    act = np.flatnonzero(bisect_rows)
    if act.size == 0:
        return alloc_out, u_out


    def bisect_rows_legacy(
        rows: IntArray,
        om_a: FloatArray,
        cp_a: FloatArray,
        sl_a: FloatArray,
        W_a: FloatArray,
        bw_a: FloatArray,
    ) -> None:
        """Legacy residual bisection over one subset of bound rows.

        State arrays live at the subset's compressed column width (columns
        with positive cap in some row) — dropping the rest is
        bitwise-invisible exactly as in the kernel-level compression —
        so the reference path never allocates O(rows x J) state.
        """
        kc = np.flatnonzero((cp_a > 0).any(axis=0))
        Jc = kc.size
        if Jc == 0:
            return  # nothing routable; alloc and u stay zero
        om_c = np.ascontiguousarray(om_a[:, kc])
        cp_c = np.ascontiguousarray(cp_a[:, kc])
        sl_c = np.ascontiguousarray(sl_a[:, kc])
        colc = np.arange(Jc)

        act_l = np.arange(rows.size)
        r_lo = np.zeros(rows.size)
        r_hi = np.maximum(W_a, 1e-12)
        A = rows.size
        # Stored fill state per bracket side: sort order, eligible-prefix
        # length, u, and a "present" flag. Invariant: a flagged side's
        # state is fill-valid at that side's current residual.
        ol = np.zeros((A, Jc), dtype=np.intp)
        oh = np.zeros((A, Jc), dtype=np.intp)
        ul = np.zeros(A)
        uh = np.zeros(A)
        ml = np.zeros(A, dtype=np.intp)
        mh = np.zeros(A, dtype=np.intp)
        hl = np.zeros(A, dtype=bool)
        hh = np.zeros(A, dtype=bool)

        def state_fill(
            order: IntArray, m: IntArray, cp: FloatArray, bw: FloatArray
        ) -> FloatArray:
            """Replay a stored fill state; returns the compressed allocation."""
            n = order.shape[0]
            sidx = np.arange(n)[:, None]
            caps_sorted = np.where(colc < m[:, None], cp[sidx, order], 0.0)
            cum = np.cumsum(caps_sorted, axis=1)
            alloc_sorted = np.clip(
                bw[:, None] - (cum - caps_sorted), 0.0, caps_sorted
            )
            alloc = np.zeros((n, Jc))
            alloc[sidx, order] = alloc_sorted
            return alloc

        def state_match(
            key: FloatArray, sub: IntArray, order: IntArray, m: IntArray
        ) -> IntArray:
            """Rows (subset indices into ``key``) whose key row provably
            sorts to the stored state.

            A stable argsort orders by ``(key, original index)``; the
            stored order reproduces it exactly when that pair sequence is
            strictly increasing along the stored order — keys
            non-decreasing and, in every run of equal finite keys, indices
            ascending. Runs of ``+inf`` are exempt (zero caps make their
            arrangement fill-invisible), but the ``+inf`` pattern must
            match the stored eligible-prefix length.
            """
            o = order[sub]
            seq = key[sub[:, None], o]
            a, b = seq[:, :-1], seq[:, 1:]
            ok = np.all(
                (b > a) | ((a == b) & ((o[:, 1:] > o[:, :-1]) | (a == _INF))),
                axis=1,
            )
            ok &= np.all((seq != _INF) == (colc < m[sub, None]), axis=1)
            return sub[ok]

        def fresh_fill_u(
            sub: IntArray, r: FloatArray
        ) -> tuple[FloatArray, FloatArray]:
            """Compressed fresh fill at residual ``r``; returns (alloc, u)."""
            kappa = two_s * r[:, None] * om_c[sub] - sl_c[sub]
            eligible = (kappa > 0) & (cp_c[sub] > 0)
            key = np.where(eligible, -kappa, _INF)
            order = np.argsort(key, axis=1, kind="stable")
            sidx = np.arange(sub.size)[:, None]
            caps_sorted = np.where(eligible, cp_c[sub], 0.0)[sidx, order]
            cum = np.cumsum(caps_sorted, axis=1)
            alloc_sorted = np.clip(
                bw_a[sub, None] - (cum - caps_sorted), 0.0, caps_sorted
            )
            u = np.cumsum(alloc_sorted * om_c[sub][sidx, order], axis=1)[:, -1]
            alloc = np.zeros((sub.size, Jc))
            alloc[sidx, order] = alloc_sorted
            return alloc, u

        om_b, cp_b, sl_b = om_c, cp_c, sl_c
        bw_b, W_b = bw_a, W_a

        def scatter(sub_rows: IntArray, alloc_c: FloatArray, u: FloatArray) -> None:
            alloc_out[sub_rows[:, None], kc[None, :]] = alloc_c
            u_out[sub_rows] = u

        for _ in range(bisection_iters):
            if act_l.size == 0:
                break
            A = act_l.size
            mid = 0.5 * (r_lo + r_hi)
            kappa = two_s * mid[:, None] * om_b - sl_b
            eligible = (kappa > 0) & (cp_b > 0)
            key = np.where(eligible, -kappa, _INF)
            u_m = np.empty(A)
            used = np.full(A, 2, dtype=np.int8)  # 0 = lo state, 1 = hi, 2 = fresh
            if early_exit:
                lo_rows = np.flatnonzero(hl)
                if lo_rows.size:
                    matched = state_match(key, lo_rows, ol, ml)
                    u_m[matched] = ul[matched]
                    used[matched] = 0
                rem = np.flatnonzero((used == 2) & hh)
                if rem.size:
                    matched = state_match(key, rem, oh, mh)
                    u_m[matched] = uh[matched]
                    used[matched] = 1
            fresh = np.flatnonzero(used == 2)
            if fresh.size:
                keyf = key[fresh]
                eligf = eligible[fresh]
                order_f = np.argsort(keyf, axis=1, kind="stable")
                fidx = np.arange(fresh.size)[:, None]
                caps_sorted = np.where(eligf, cp_b[fresh], 0.0)[fidx, order_f]
                cum_f = np.cumsum(caps_sorted, axis=1)
                alloc_sorted_f = np.clip(
                    bw_b[fresh, None] - (cum_f - caps_sorted), 0.0, caps_sorted
                )
                u_m[fresh] = np.cumsum(
                    alloc_sorted_f * om_b[fresh][fidx, order_f], axis=1
                )[:, -1]
                m_f = eligf.sum(axis=1)

            implied = W_b - u_m
            too_small = implied > mid  # G(r) > 0 -> root is to the right
            r_lo = np.where(too_small, mid, r_lo)
            r_hi = np.where(too_small, r_hi, mid)
            if not early_exit:
                continue

            # The updated side inherits the state used at the midpoint.
            cross_hi = (used == 1) & too_small
            if cross_hi.any():
                idx = np.flatnonzero(cross_hi)
                ol[idx] = oh[idx]
                ul[idx] = uh[idx]
                ml[idx] = mh[idx]
                hl[idx] = True
            cross_lo = (used == 0) & ~too_small
            if cross_lo.any():
                idx = np.flatnonzero(cross_lo)
                oh[idx] = ol[idx]
                uh[idx] = ul[idx]
                mh[idx] = ml[idx]
                hh[idx] = True
            if fresh.size:
                sel = too_small[fresh]
                tgt = fresh[sel]
                if tgt.size:
                    ol[tgt] = order_f[sel]
                    ul[tgt] = u_m[tgt]
                    ml[tgt] = m_f[sel]
                    hl[tgt] = True
                tgt = fresh[~sel]
                if tgt.size:
                    oh[tgt] = order_f[~sel]
                    uh[tgt] = u_m[tgt]
                    mh[tgt] = m_f[~sel]
                    hh[tgt] = True

            # Cross-side match -> the state is valid at both ends of the
            # new bracket, hence constant on it: the final gap is exactly
            # zero and the closing interpolation returns this state's
            # fill. Settle now.
            settle = cross_hi | cross_lo
            if settle.any():
                s = np.flatnonzero(settle)
                scatter(
                    rows[act_l[s]],
                    state_fill(ol[s], ml[s], cp_b[s], bw_b[s]),
                    ul[s],
                )
                kp = ~settle
                act_l = act_l[kp]
                om_b, cp_b, sl_b = om_b[kp], cp_b[kp], sl_b[kp]
                bw_b, W_b = bw_b[kp], W_b[kp]
                r_lo, r_hi = r_lo[kp], r_hi[kp]
                ol, oh, ul, uh = ol[kp], oh[kp], ul[kp], uh[kp]
                ml, mh, hl, hh = ml[kp], mh[kp], hl[kp], hh[kp]

        if act_l.size:
            A = act_l.size

            def endpoint(
                have: FloatArray,
                order: IntArray,
                u_s: FloatArray,
                m_s: IntArray,
                r_end: FloatArray,
            ) -> tuple[FloatArray, FloatArray]:
                alloc = np.empty((A, Jc))
                u = np.empty(A)
                hv = np.flatnonzero(have)
                if hv.size:
                    alloc[hv] = state_fill(order[hv], m_s[hv], cp_b[hv], bw_b[hv])
                    u[hv] = u_s[hv]
                nh = np.flatnonzero(~have)
                if nh.size:
                    al, uu = fresh_fill_u(act_l[nh], r_end[nh])
                    alloc[nh] = al
                    u[nh] = uu
                return alloc, u

            alloc_lo, u_lo = endpoint(hl, ol, ul, ml, r_lo)
            alloc_hi, u_hi = endpoint(hh, oh, uh, mh, r_hi)
            u_target = W_b - 0.5 * (r_lo + r_hi)
            gap = u_hi - u_lo
            with np.errstate(divide="ignore", invalid="ignore"):
                t = np.where(
                    gap > 1e-15, np.clip((u_target - u_lo) / gap, 0.0, 1.0), 0.0
                )
            scatter(
                rows[act_l],
                alloc_lo + t[:, None] * (alloc_hi - alloc_lo),
                u_lo + t * gap,
            )

    def process(rows: IntArray) -> None:
        """Solve one chunk of active rows on their candidate sets."""
        A = rows.size
        # A contiguous run of rows is sliced (views), not gathered.
        sel = slice(rows[0], rows[-1] + 1) if rows[-1] - rows[0] + 1 == A else rows
        om_a = omega[sel]
        cp_a = caps[sel]
        W_a = W[rows].astype(np.float64, copy=False)
        # Fused threshold t_j = mu_j / (2 s lam_j omega_j): one division,
        # and valid entries have lam > 0 so the denominator is positive.
        with np.errstate(divide="ignore", invalid="ignore"):
            t_thr = lam[sel] * om_a
            t_thr *= two_s
            np.divide(mu[sel], t_thr, out=t_thr)
        # Candidates: valid items with t < W, in row-major order.
        idx = np.flatnonzero((cp_a > 0) & (om_a > 0) & (t_thr < W_a[:, None]))
        rr = idx // J
        count = np.bincount(rr, minlength=A)
        pos = np.arange(idx.size) - np.repeat(np.cumsum(count) - count, count)
        t_e = t_thr.ravel()[idx]
        om_e = om_a.ravel()[idx]
        cp_e = cp_a.ravel()[idx]
        col_e = idx - rr * J
        del om_a, cp_a, t_thr, idx

        # Bucket rows by ceil(log2(count)) so a bucket pads every row to at
        # most twice its own candidate count; a class too small to pay for
        # its own numpy calls (see _BUCKET_MIN_ELEMS) joins the next wider
        # bucket. Each bucket row holds its candidates packed left in
        # column order, then inert padding (t = +inf, cap = 0).
        cls = np.frexp(np.maximum(count - 1, 0).astype(np.float64))[1]
        bucket = np.empty(A, dtype=np.intp)
        widths: list[int] = []
        for k in np.unique(cls)[::-1]:
            b = cls == k
            nb = int(b.sum())
            if not widths or nb * widths[-1] > _BUCKET_MIN_ELEMS:
                widths.append(max(int(count[b].max()), 1))
            bucket[b] = len(widths) - 1
        loc = np.empty(A, dtype=np.intp)
        for i, C in enumerate(widths):
            b = np.flatnonzero(bucket == i)
            nb = b.size
            loc[b] = np.arange(nb)
            e = np.flatnonzero(bucket[rr] == i) if nb < A else slice(None)
            dst = loc[rr[e]] * C + pos[e]
            t_b = np.full(nb * C, _INF)
            om_b = np.zeros(nb * C)
            cp_b = np.zeros(nb * C)
            col_b = np.zeros(nb * C, dtype=np.intp)
            t_b[dst] = t_e[e]
            om_b[dst] = om_e[e]
            cp_b[dst] = cp_e[e]
            col_b[dst] = col_e[e]
            solve_bucket(
                rows[b],
                t_b.reshape(nb, C),
                om_b.reshape(nb, C),
                cp_b.reshape(nb, C),
                col_b.reshape(nb, C),
                count[b],
                W_a[b],
            )

    def solve_bucket(
        rows: IntArray,
        t_b: FloatArray,
        om_b: FloatArray,
        cp_b: FloatArray,
        col_b: IntArray,
        cnt: IntArray,
        W_b: FloatArray,
    ) -> None:
        """Slack scan over one bucket of compact rows; queues bound rows."""
        nb, C = t_b.shape
        bw_b = bandwidths[rows]
        cols_c = np.arange(C)
        ordt = np.argsort(t_b, axis=1, kind="stable")
        # Flat compact index of each sorted position.
        flat = (ordt + (np.arange(nb) * C)[:, None]).ravel()
        tv = t_b.ravel()[flat].reshape(nb, C)
        cps = cp_b.ravel()[flat].reshape(nb, C)
        cwv = (om_b * cp_b).ravel()[flat].reshape(nb, C)
        cum = np.cumsum(cwv, axis=1)
        # k* = number of items strictly below the fixed-point residual.
        # Both tv (sorted) and W - cum (cumsum of non-negatives) are
        # monotone, so the comparison row is a prefix of Trues and the
        # count locates it.
        kstar = (tv < (W_b[:, None] - cum)).sum(axis=1)
        rows1 = np.arange(nb)
        U_star = np.where(kstar > 0, cum[rows1, np.maximum(kstar - 1, 0)], 0.0)
        # Past the candidates tv is the +inf padding: when every candidate
        # is below the residual, r_int = W - U* <= W <= t of any other
        # item, so the row is interior and that item's t is never needed.
        tv_next = np.where(kstar < C, tv[rows1, np.minimum(kstar, C - 1)], _INF)
        r_int = W_b - U_star
        interior = r_int <= tv_next
        u_b = np.where(interior, U_star, W_b - tv_next)

        alloc_sorted = np.where(cols_c < kstar[:, None], cps, 0.0)
        jrows = np.flatnonzero(~interior)
        if jrows.size:
            # The crossing sits inside the jump at r* = tv_next: items
            # tied at that threshold are indifferent (kappa = 0) and
            # greedily absorb the remaining weighted volume in stable
            # order. The budget never exceeds the tied run's weighted
            # capacity (otherwise k* would be larger), so items beyond
            # the run stay at zero.
            bu = ((W_b[jrows] - tv_next[jrows]) - U_star[jrows])[:, None]
            mass = cum[jrows] - U_star[jrows, None]
            # Ties can straddle the k* boundary (tv[k*-1] == tv[k*] with
            # the prefix condition flipping on cum alone). Straddling
            # items are first among the indifferent tied items in stable
            # order, so their full-caps prefix allocation is already
            # greedy-correct and their mass is inside U_star — the
            # residual budget is distributed over run positions >= k*
            # only.
            run = (tv[jrows] == tv_next[jrows, None]) & (
                cols_c >= kstar[jrows, None]
            )
            cwj = cwv[jrows]
            run_full = run & (mass <= bu)
            boundary = run & (mass > bu) & ((mass - cwj) < bu)
            with np.errstate(divide="ignore", invalid="ignore"):
                part = np.clip(
                    (bu - (mass - cwj)) / om_b[jrows[:, None], ordt[jrows]],
                    0.0,
                    cps[jrows],
                )
            alloc_sorted[jrows] += np.where(
                run_full, cps[jrows], np.where(boundary, part, 0.0)
            )
            del bu, mass, run, cwj, run_full, boundary, part

        closed = _zero_extended_sum(alloc_sorted, J) <= bw_b
        # Sorted positions below a row's count hold its candidates.
        e = np.flatnonzero((cols_c < cnt[:, None]) & closed[:, None])
        if e.size:
            alloc_out[rows[e // C], col_b.ravel()[flat[e]]] = alloc_sorted.ravel()[e]
        u_out[rows[closed]] = u_b[closed]

        keep = np.flatnonzero(~closed)
        if keep.size:
            queue_bound(rows[keep], om_b[keep], cp_b[keep], col_b[keep], cnt[keep])

    # Bound rows wait here, compact, until they fill the element budget:
    # the bound stage's numpy-call overhead is per call, not per row, so
    # batching rows across buckets and chunks keeps it small.
    pending: list[tuple[IntArray, FloatArray, FloatArray, IntArray, IntArray]] = []
    pending_rows = pending_width = 0
    n_bound = n_closed = 0

    def queue_bound(
        rows: IntArray, om_b: FloatArray, cp_b: FloatArray, col_b: IntArray,
        cnt: IntArray,
    ) -> None:
        nonlocal pending_rows, pending_width
        width = max(int(cnt.max()), 1)
        if pending and (pending_rows + rows.size) * max(
            pending_width, width
        ) > _CHUNK_ELEMS:
            flush_bound()
        pending.append((rows, om_b[:, :width], cp_b[:, :width], col_b[:, :width], cnt))
        pending_rows += rows.size
        pending_width = max(pending_width, width)

    def flush_bound() -> None:
        nonlocal pending_rows, pending_width, n_bound, n_closed
        if not pending:
            return
        width = pending_width

        def stacked(i: int, fill: float) -> np.ndarray:
            out = np.full((pending_rows, width), fill, dtype=pending[0][i].dtype)
            r0 = 0
            for piece in pending:
                x = piece[i]
                out[r0 : r0 + x.shape[0], : x.shape[1]] = x
                r0 += x.shape[0]
            return out

        brows = np.concatenate([piece[0] for piece in pending])
        cnt = np.concatenate([piece[4] for piece in pending])
        om_k, cp_k, col_k = stacked(1, 0.0), stacked(2, 0.0), stacked(3, 0)
        pending.clear()
        pending_rows = pending_width = 0
        nb = brows.size
        W_k = W[brows].astype(np.float64, copy=False)
        bw_k = bandwidths[brows]
        n_cf = 0
        unsolved = brows
        if closed_form:
            # The weight-structure test reads every item of the full rows,
            # so fallback routing does not depend on the candidate
            # restriction; the solve itself runs compact.
            ok = np.empty(nb, dtype=bool)
            m1s = np.empty(nb)
            m2s = np.empty(nb)
            for s0 in range(0, nb, chunk):
                r = brows[s0 : s0 + chunk]
                sl = slice(s0, s0 + chunk)
                ok[sl], m1s[sl], m2s[sl] = _weight_groups(
                    omega[r], caps[r], slope_of(r)
                )
            lam_k = lam[brows[:, None], col_k]
            with np.errstate(divide="ignore", invalid="ignore"):
                sl_k = np.where(lam_k > 0, mu[brows[:, None], col_k] / lam_k, _INF)
            del lam_k
            alloc_k, u_k, solved = _solve_bw_bound(
                om_k, cp_k, sl_k, W_k, bw_k, two_s, (ok, m1s, m2s)
            )
            e = np.flatnonzero((np.arange(width) < cnt[:, None]) & solved[:, None])
            if e.size:
                alloc_out[brows[e // width], col_k.ravel()[e]] = alloc_k.ravel()[e]
            u_out[brows[solved]] = u_k[solved]
            n_cf = int(solved.sum())
            unsolved = brows[~solved]
        # The legacy bisection runs on full rows, one chunk at a time.
        for s0 in range(0, unsolved.size, chunk):
            r = unsolved[s0 : s0 + chunk]
            bisect_rows_legacy(
                r, omega[r], caps[r], slope_of(r),
                W[r].astype(np.float64, copy=False), bandwidths[r],
            )
        n_bound += nb
        n_closed += n_cf

    for start in range(0, act.size, chunk):
        process(act[start : start + chunk])
    flush_bound()
    if n_bound:
        inc("p2_bw_bound_rows", float(n_bound))
    if n_closed:
        inc("p2_bw_closed_form", float(n_closed))
    if n_bound > n_closed:
        inc("p2_bisection_fallbacks", float(n_bound - n_closed))
    return alloc_out, u_out


def _zero_extended_sum(a: FloatArray, width: int) -> FloatArray:
    """Row sums of ``a`` as if each row were zero-extended to ``width``.

    Bit for bit, without materializing the ``width``-wide rows. numpy sums
    a contiguous row pairwise: above 128 elements it splits at half the
    length rounded down to a multiple of 8 and adds the two halves. A half
    made only of zeros sums to an exact ``+0.0``, which leaves the other
    half's sum unchanged, so the zero tail can be cut back along that split
    chain to the shortest prefix that still holds ``a``.
    ``tests/test_batched.py`` pins this against full-width sums.
    """
    n, C = a.shape
    w = width
    while w > 128:
        half = w // 2
        half -= half % 8
        if half < C:
            break
        w = half
    if w == C:
        return a.sum(axis=1)
    buf = np.zeros((n, w))
    buf[:, :C] = a
    return buf.sum(axis=1)


def _weight_groups(
    om: FloatArray, cp: FloatArray, slope: FloatArray
) -> tuple[np.ndarray, FloatArray, FloatArray]:
    """Weight structure of full bound rows: ``(ok, m_high, m_low)``.

    Items that can ever be routed have positive cap, positive weight and
    finite slope (lam > 0). Items with infinite slope are never eligible
    (kappa = -inf); items with non-positive weight are never eligible
    unless their slope is negative — such "stray" rows are not
    representable in the two-group structure. ``ok`` flags rows with at
    most two distinct weights among the routable items and no stray item;
    the others must take the bisection. Computed over *all* items of the
    row, so the routing does not depend on the candidate restriction the
    bound solve runs on.
    """
    valid = (cp > 0) & (om > 0) & np.isfinite(slope)
    stray = (cp > 0) & (om <= 0) & (slope < 0)
    with np.errstate(invalid="ignore"):
        m1 = np.max(np.where(valid, om, -_INF), axis=1)  # high weight
        m2 = np.min(np.where(valid, om, _INF), axis=1)  # low weight
    has = np.isfinite(m1) & (m1 > 0)
    m1s = np.where(has, m1, 1.0)
    m2s = np.where(has, m2, 1.0)
    third = valid & (om != m1s[:, None]) & (om != m2s[:, None])
    ok = has & ~stray.any(axis=1) & ~third.any(axis=1)
    return ok, m1s, m2s


def _solve_bw_bound(
    om: FloatArray,
    cp: FloatArray,
    slope: FloatArray,
    W: FloatArray,
    bw: FloatArray,
    two_s: float,
    groups: tuple[np.ndarray, FloatArray, FloatArray],
) -> tuple[FloatArray, FloatArray, np.ndarray]:
    """Exact allocation for bandwidth-bound rows (see module docstring).

    Parameters are row-stacked ``(A, J)`` arrays (weights, caps, slopes)
    plus per-row ``W``, ``bw``, the fused cost scale ``2 s`` and the
    :func:`_weight_groups` of the full rows. The arrays may hold only each
    row's candidate items (column order kept, zero-cap padding). Returns
    ``(alloc, u, solved)`` where ``solved`` flags the rows certified
    optimal; unsolved rows (``G >= 3`` weights, stray eligible items with
    non-positive weight, or a degenerate cross-group tie) keep zero
    allocation and must be routed to the bisection by the caller.
    """
    A, J = cp.shape
    alloc = np.zeros((A, J))
    u = np.zeros(A)
    solved = np.zeros(A, dtype=bool)
    if A == 0 or J == 0:
        return alloc, u, solved

    ok, m1s, m2s = groups
    if not ok.any():
        return alloc, u, solved
    valid = (cp > 0) & (om > 0) & np.isfinite(slope)

    ridx = np.arange(A)[:, None]
    rows1 = np.arange(A)
    # One argsort by slope shared by both groups. The sort MUST be
    # stable: slope ties (sparse ``mu`` rows tie at slope 0) then follow
    # the original column order of the valid items, which is invariant
    # under column compression — padding differs between the loop and
    # batched layouts, but compression only drops cap-0 (invalid)
    # columns, so the valid items' relative order is the same in every
    # layout and so is the tie-broken allocation. Introsort is faster
    # but permutes ties by padded-row content, which breaks the
    # batched-vs-loop bit-identity contract. (The slack scan's threshold
    # sort is *not* reused on purpose: t = slope / (2 s omega) agrees
    # with the slope order within a group only in real arithmetic —
    # rounding of the fused threshold can flip near-ties, and the KKT
    # certificate below checks only the marginal neighbours, so it
    # relies on the group slopes being exactly sorted.)
    ord0 = np.argsort(np.where(valid, slope, _INF), axis=1, kind="stable")
    slope_t = slope[ridx, ord0]
    cp_t = cp[ridx, ord0]
    om_t = om[ridx, ord0]
    valid_t = valid[ridx, ord0]
    gH = valid_t & (om_t == m1s[:, None])
    gL = valid_t & (om_t == m2s[:, None]) & (m2s < m1s)[:, None]
    del om_t, valid_t, valid
    Jm1 = J - 1

    def vgroup(g: np.ndarray) -> tuple:
        """Virtual group view over the shared slope order.

        Returns ``(idx, P, n_g)``: ``idx[:, k]`` is the sort-order
        position of each row's ``(k + 1)``-th group member (members keep
        their slope order; tail columns park the non-members), ``P`` is
        the running sum of group caps *in sort order* (so the prefix sum
        of the first ``k + 1`` members is ``P[idx[:, k]]``), and ``n_g``
        the member count. Nothing per-group is materialized beyond one
        int32 index row and one prefix row — group slopes and caps are
        gathered through ``idx`` on demand.
        """
        cnt = np.cumsum(g, axis=1, dtype=np.int32)
        n_g = cnt[:, -1].astype(np.intp)
        arange1 = np.arange(1, J + 1, dtype=np.int32)
        pos = np.where(g, cnt - 1, n_g[:, None].astype(np.int32) + (arange1 - cnt) - 1)
        idx = np.empty((A, J), dtype=np.int32)
        idx[ridx, pos] = np.arange(J, dtype=np.int32)
        P = np.cumsum(np.where(g, cp_t, 0.0), axis=1)
        return idx, P, n_g

    idxH, PH, nHr = vgroup(gH)
    idxL, PL, nLr = vgroup(gL)
    del gH, gL
    c1 = two_s * m1s
    c2 = two_s * m2s

    def make_family(
        idxF: np.ndarray,
        PF: FloatArray,
        nF: IntArray,
        idxM: np.ndarray,
        PM: FloatArray,
        nM: IntArray,
        mF: FloatArray,
        mM: FloatArray,
        cF: FloatArray,
        cM: FloatArray,
    ) -> tuple:
        """One candidate family: first ``i`` items of the *full* group F
        at capacity, the *marginal* group M greedily filled with the
        remaining bandwidth ``q = bw - PF0[i]``.

        Because every candidate spends the whole bandwidth, the fill
        volume collapses to ``u(i) = mM bw + (mF - mM) PF0[i]`` — no
        weighted-capacity prefixes needed, and ``u`` is monotone in
        ``i``. That makes the KKT residual ``f(i) = kappa_F_excl(i) -
        theta(i)`` non-increasing in ``i`` (each term is), so the first
        ``i`` with ``f <= 0`` — a vectorized binary search, O(A log J)
        gathers in place of any O(A J) candidate table — brackets the
        optimum and a small window around it is certified exactly.
        """
        dmf = mF - mM
        dcf = cF - cM

        def slp_at(idxG: np.ndarray, nG: IntArray, k: IntArray) -> FloatArray:
            """Slope of a group's ``(k + 1)``-th member; +inf past it."""
            kk = np.minimum(np.maximum(k, 0), Jm1)
            return np.where(
                (k >= 0) & (k < nG), slope_t[rows1, idxG[rows1, kk]], _INF
            )

        def pre_at(idxG: np.ndarray, P: FloatArray, k: IntArray) -> FloatArray:
            """Prefix cap sum of a group's first ``k`` members (k >= 0)."""
            kk = np.minimum(np.maximum(k - 1, 0), Jm1)
            return np.where(k > 0, P[rows1, idxG[rows1, kk]], 0.0)

        def count_m(q: FloatArray) -> IntArray:
            """Count of marginal-group members whose prefix sum <= q."""
            lo = np.zeros(A, dtype=np.intp)
            hi = nM.copy()
            while True:
                live = lo < hi
                if not live.any():
                    break
                mid = (lo + hi) >> 1
                gt = PM[rows1, idxM[rows1, np.minimum(mid, Jm1)]] > q
                hi = np.where(live & gt, mid, hi)
                lo = np.where(live & ~gt, mid + 1, lo)
            return lo

        def pieces(iv: IntArray) -> tuple:
            PF0 = pre_at(idxF, PF, iv)
            q = bw - PF0
            n = count_m(q)
            u_c = mM * bw + dmf * PF0
            r = W - u_c
            slpF_i = slp_at(idxF, nF, iv)
            slpM_n = slp_at(idxM, nM, n)
            return PF0, q, n, u_c, r, slpF_i, slpM_n

        def f_of(iv: IntArray) -> FloatArray:
            _pf, _q, _n, _u, r, slpF_i, slpM_n = pieces(iv)
            f = dcf * r - slpF_i + slpM_n
            # Past the full group's end there is no next item to promote,
            # so the search must never be pushed right of nF. Without the
            # override, iv >= nF with the marginal group also exhausted
            # gives -inf + inf = NaN there, which compares False ("push
            # right") and can strand the bracket outside the certifiable
            # window — whether it does depends on the probe sequence,
            # i.e. on the padded width J, breaking layout invariance.
            return np.where(iv >= nF, -_INF, f)

        def full_eval(iv: IntArray) -> tuple:
            PF0, q, n, u_c, r, slpF_i, slpM_n = pieces(iv)
            p = q - pre_at(idxM, PM, n)
            theta = cM * r - slpM_n
            kF_excl = cF * r - slpF_i
            kF_full = np.where(iv > 0, cF * r - slp_at(idxF, nF, iv - 1), _INF)
            kM_full = np.where(n > 0, cM * r - slp_at(idxM, nM, n - 1), _INF)
            pos = p > 0.0
            v_pos = (
                pos & (theta >= 0.0) & (kF_excl <= theta) & (theta <= kF_full)
            )
            lo_b = np.maximum(np.maximum(kF_excl, theta), 0.0)
            hi_b = np.minimum(kF_full, kM_full)
            v_vert = ~pos & (lo_b <= hi_b)
            ok_c = (q >= 0.0) & (iv <= nF) & (v_pos | v_vert)
            return ok_c, n, p, u_c

        return f_of, full_eval

    def search(f_of) -> IntArray:
        """Smallest candidate index in ``[0, J]`` with ``f(i) <= 0``.

        NaN residuals (both neighbour slopes ``+inf``) compare False and
        push the search right; the exact window check below decides."""
        lo = np.zeros(A, dtype=np.intp)
        hi = np.full(A, J, dtype=np.intp)
        while True:
            live = lo < hi
            if not live.any():
                break
            mid = (lo + hi) >> 1
            leq = f_of(mid) <= 0.0
            hi = np.where(live & leq, mid, hi)
            lo = np.where(live & ~leq, mid + 1, lo)
        return lo

    famL = np.zeros(A, dtype=bool)
    found = np.zeros(A, dtype=bool)
    cand_i = np.zeros(A, dtype=np.intp)
    cand_n = np.zeros(A, dtype=np.intp)
    cand_p = np.zeros(A)
    cand_u = np.zeros(A)
    with np.errstate(invalid="ignore", over="ignore"):
        families = (
            (True, make_family(idxH, PH, nHr, idxL, PL, nLr, m1s, m2s, c1, c2)),
            (False, make_family(idxL, PL, nLr, idxH, PH, nHr, m2s, m1s, c2, c1)),
        )
        for is_l, (f_of, full_eval) in families:
            if found.all():
                break
            istar = search(f_of)
            # Float round-off can displace the crossing by a step and exact
            # slope ties widen it into a run, so certify a small window of
            # candidates around the bracket. Any certified candidate is a
            # KKT point of a convex problem — a global optimum — so the
            # first one in fixed window order (family L, then H) is a
            # deterministic, layout-invariant choice. A row whose window
            # certifies nothing falls back to the bisection (counted).
            for d in (-2, -1, 0, 1, 2):
                iv = np.clip(istar + d, 0, J)
                ok_c, n, p, u_c = full_eval(iv)
                new = ok_c & ~found
                if new.any():
                    cand_i = np.where(new, iv, cand_i)
                    cand_n = np.where(new, n, cand_n)
                    cand_p = np.where(new, p, cand_p)
                    cand_u = np.where(new, u_c, cand_u)
                    famL |= new & is_l
                    found |= new

    solved = ok & found
    srows = np.flatnonzero(solved)
    if srows.size == 0:
        return alloc, u, solved

    def build(
        sub: IntArray,
        i_full: IntArray,
        n_marg: IntArray,
        p: FloatArray,
        idxF: np.ndarray,
        idxM: np.ndarray,
        u_val: FloatArray,
    ) -> None:
        """Scatter one candidate family's allocation back to item order.

        Gathers are width-limited to the longest prefix in play. The two
        scatters touch disjoint column sets per row (the groups are
        disjoint), entries past a row's own prefix write or add exact
        zeros, and a vertex candidate (``p == 0``) may have no marginal
        member at ``n_marg`` at all — its add is an exact ``+0.0`` at
        whatever column the tail parks there, which is a no-op.
        """
        ns = sub.size
        sub2 = sub[:, None]
        wF = int(i_full.max()) if ns else 0
        if wF > 0:
            tposF = idxF[sub2, np.arange(wF)[None, :]]
            aF = np.where(
                np.arange(wF) < i_full[:, None], cp_t[sub2, tposF], 0.0
            )
            alloc[sub2, ord0[sub2, tposF]] = aF
        wM = int(np.minimum(n_marg, Jm1).max()) + 1 if ns else 0
        if wM > 0:
            tposM = idxM[sub2, np.arange(wM)[None, :]]
            aM = np.where(
                np.arange(wM) < n_marg[:, None], cp_t[sub2, tposM], 0.0
            )
            aM[np.arange(ns), np.minimum(n_marg, wM - 1)] += np.where(
                n_marg < J, p, 0.0
            )
            alloc[sub2, ord0[sub2, tposM]] += aM
        u[sub] = u_val

    selL = famL[srows]
    rl = srows[selL]
    if rl.size:
        build(rl, cand_i[rl], cand_n[rl], cand_p[rl], idxH, idxL, cand_u[rl])
    rh = srows[~selL]
    if rh.size:
        build(rh, cand_i[rh], cand_n[rh], cand_p[rh], idxL, idxH, cand_u[rh])
    return alloc, u, solved
