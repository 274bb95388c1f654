"""Numba provider of the kernel API.

Module-level ``@njit(parallel=True, cache=True)`` kernels mirroring the C
provider line for line: ``prange`` over edges (round) / nodes (counts,
apply) with each iteration owning its output row, and a serial token
dispatch (it consumes one shared uniform stream) and record-round
reductions (their sums keep one fixed order).  ``cache=True`` keeps
recompiles out of warm processes; every float literal comes in through
the ``consts`` array so float32 runs never promote through a python
float.  Optional arrays (``speeds``, ``uni``, ``fsg``) arrive as 0-size
arrays instead of None — numba specialises on types, and a uniform array
signature keeps one compilation per dtype.
"""

from __future__ import annotations

import numpy as np
from numba import njit, prange


@njit(parallel=True, cache=True)
def _round_edges(
    eu, ev, load, speeds, flows, act, fsg, uni,
    alpha, ar, ac, beta, bm1, bs, mode, rounding, consts,
):
    m, B = act.shape
    one = consts[1]
    has_speeds = speeds.size != 0
    for e in prange(m):
        u = eu[e]
        v = ev[e]
        for b in range(B):
            nu = load[u, b]
            nv = load[v, b]
            if has_speeds:
                nu = nu / speeds[u]
                nv = nv / speeds[v]
            if mode == 2:
                # fused operators: flows*bm1, then +c*nu, then +(-c)*nv —
                # the csr_matvecs accumulation over the interleaved data
                c = alpha[e * ar + b * ac]
                s = flows[e, b] * bm1[b * bs]
                s = s + c * nu
                s = s + (-c) * nv
            else:
                d = (nu - nv) * alpha[e * ar + b * ac]
                if mode == 1:
                    d = d * beta[b * bs]
                    s = flows[e, b] * bm1[b * bs] + d
                else:
                    s = d  # round-0 FOS opener
            if rounding == 0:  # floor (toward zero)
                a = np.trunc(s)
            elif rounding == 1:  # nearest (ties to even)
                a = np.rint(s)
            elif rounding == 2:  # ceil (away from zero)
                a = np.copysign(np.ceil(np.abs(s)), s)
            elif rounding == 3:  # unbiased-edge: (B, m) uniform layout
                ab = np.abs(s)
                base = np.floor(ab)
                frac = ab - base
                if uni[b, e] < frac:
                    base = base + one
                a = np.copysign(base, s)
            else:  # randomized-excess: signed base + fractional part
                a = np.trunc(s)
                fsg[e, b] = s - a
            act[e, b] = a
    return act


@njit(parallel=True, cache=True)
def _excess_counts(adj_edges, adj_signs, dmax, m, fsg, counts, totals, consts):
    n, B = counts.shape
    zero = consts[0]
    for i in prange(n):
        for b in range(B):
            cum = zero
            for j in range(dmax):
                e = adj_edges[i * dmax + j]
                if e == m:
                    continue  # padding slot: adds exactly zero
                f = fsg[e, b]
                p = f if f > zero else zero
                if adj_signs[i * dmax + j] < 0:
                    p = p - f
                cum = cum + p
            counts[i, b] = np.int64(np.ceil(cum - consts[2]))
    # per-replica token totals, reduced here so the caller sizes the
    # uniform stream without an extra numpy pass over (n, B)
    for b in range(B):
        tot = np.int64(0)
        for i in range(n):
            tot += counts[i, b]
        totals[b] = tot
    return counts


@njit(cache=True)
def _excess_dispatch(
    adj_edges, adj_signs, dmax, m, fsg, counts, uni, uoff, act, consts,
):
    n, B = counts.shape
    zero = consts[0]
    tol = consts[2]
    off = uoff[:B].copy()  # next unread uniform per replica
    cums = np.empty(dmax, dtype=fsg.dtype)
    # Serial, node-major for locality.  A token's uniform is addressed by
    # (replica, rank-within-replica) via the off counters, and within a
    # replica the node order is preserved — so the values consumed are
    # exactly the replica-major / node-ascending stream order of the
    # numpy tier, whatever the visit order here.
    for i in range(n):
        rowtot = 0
        for b in range(B):
            rowtot += counts[i, b]
        if rowtot == 0:
            continue
        for b in range(B):
            k = counts[i, b]
            if k == 0:
                continue
            cum = zero
            for j in range(dmax):
                e = adj_edges[i * dmax + j]
                if e != m:
                    f = fsg[e, b]
                    p = f if f > zero else zero
                    if adj_signs[i * dmax + j] < 0:
                        p = p - f
                    cum = cum + p
                cums[j] = cum
            c = np.ceil(cum - tol)
            for t in range(k):
                target = uni[off[b] + t] * c
                # slot = #(cumulative fractions <= target); branchless
                # count — the running sum is non-decreasing, so the count
                # equals the first-crossing position
                pos = 0
                for j in range(dmax):
                    pos += np.int64(cums[j] <= target)
                if pos < dmax:  # otherwise the token stays home
                    sl = i * dmax + pos
                    sgn = consts[1] if adj_signs[sl] > 0 else -consts[1]
                    act[adj_edges[sl], b] += sgn
            off[b] += k
    return act


@njit(parallel=True, cache=True)
def _apply_flows(indptr, edges, signs, act, load):
    n, B = load.shape
    for i in prange(n):
        lo = indptr[i]
        hi = indptr[i + 1]
        for b in range(B):
            acc = load[i, b]
            for j in range(lo, hi):
                acc = acc + signs[j] * act[edges[j], b]
            load[i, b] = acc
    return load


# Record-round reductions: serial, so every sum adds in node (or edge)
# order in the array dtype, the order of numpy's axis-0 reductions over a
# C-contiguous (rows, B > 1) plane.


@njit(cache=True)
def _record_metrics(
    load, targets, trow, tcol, lo, hi, eu, ev, elo, ehi, out, consts,
):
    B = load.shape[1]
    zero = consts[0]
    if hi > lo:
        for b in range(B):
            d = load[lo, b] - targets[lo * trow, b * tcol]
            out[0, b] = d
            out[1, b] = d
            out[2, b] = zero
            out[3, b] = load[lo, b]
            out[4, b] = zero
        for i in range(lo, hi):
            for b in range(B):
                v = load[i, b]
                d = v - targets[i * trow, b * tcol]
                if d > out[0, b]:
                    out[0, b] = d
                if d < out[1, b]:
                    out[1, b] = d
                out[2, b] = out[2, b] + d * d
                if v < out[3, b]:
                    out[3, b] = v
                out[4, b] = out[4, b] + v
    if ehi > elo:
        for b in range(B):
            out[5, b] = np.abs(load[eu[elo], b] - load[ev[elo], b])
        for e in range(elo, ehi):
            # not u/v: numba gives a name one type, and v is a load above
            ue = eu[e]
            ve = ev[e]
            for b in range(B):
                a = np.abs(load[ue, b] - load[ve, b])
                if a > out[5, b]:
                    out[5, b] = a
    return out


@njit(cache=True)
def _apply_info(indptr, edges, signs, act, load, info, consts):
    n, B = load.shape
    zero = consts[0]
    half = consts[3]
    delta = np.empty(B, dtype=load.dtype)
    outg = np.empty(B, dtype=load.dtype)
    for i in range(n):
        for b in range(B):
            delta[b] = zero
            outg[b] = zero
        for j in range(indptr[i], indptr[i + 1]):
            s = signs[j]
            e = edges[j]
            for b in range(B):
                delta[b] = delta[b] + s * act[e, b]
                outg[b] = outg[b] + np.abs(act[e, b])
        for b in range(B):
            x = load[i, b]
            t = x - (outg[b] - delta[b]) * half
            if i == 0 or t < info[0, b]:
                info[0, b] = t
            load[i, b] = x + delta[b]
    for b in range(B):
        info[1, b] = zero
    for k in range(act.shape[0]):
        for b in range(B):
            info[1, b] = info[1, b] + np.abs(act[k, b])
    return load


class NumbaKernels:
    """Provider wrapper substituting 0-size sentinels for None arrays."""

    name = "numba"
    compiled = True

    def limit_threads(self, k: int) -> int:
        """Cap numba's thread count for later calls from this thread at
        ``k``; returns the count in force."""
        import numba

        if 1 <= k < numba.get_num_threads():
            numba.set_num_threads(k)
        return numba.get_num_threads()

    def round_edges(
        self, eu, ev, load, speeds, flows, act, fsg, uni,
        alpha, ar, ac, beta, bm1, bs, mode, rounding, consts,
    ):
        dtype = act.dtype
        B = act.shape[1]
        if speeds is None:
            speeds = np.empty(0, dtype=dtype)
        if uni is None:
            uni = np.empty((B, 0), dtype=dtype)
        if fsg is None:
            fsg = np.empty((0, B), dtype=dtype)
        return _round_edges(
            eu, ev, load, speeds, flows, act, fsg, uni,
            alpha, ar, ac, beta, bm1, bs, mode, rounding, consts,
        )

    def excess_counts(
        self, adj_edges, adj_signs, dmax, m, fsg, counts, totals, consts,
    ):
        return _excess_counts(
            adj_edges, adj_signs, dmax, m, fsg, counts, totals, consts
        )

    def excess_dispatch(
        self, adj_edges, adj_signs, dmax, m, fsg, counts, uni, uoff, act,
        cums, consts,
    ):
        # The jitted loop walks one replica at a time and keeps its own
        # dmax-long cumulative row; the (dmax, B) ``cums`` goes unused.
        return _excess_dispatch(
            adj_edges, adj_signs, dmax, m, fsg, counts, uni, uoff, act, consts,
        )

    def apply_flows(self, indptr, edges, signs, act, load):
        return _apply_flows(indptr, edges, signs, act, load)

    def record_metrics(
        self, load, targets, lo, hi, eu, ev, elo, ehi, out, consts,
    ):
        rows, cols = targets.shape
        return _record_metrics(
            load, targets, int(rows > 1), int(cols > 1), lo, hi, eu, ev,
            elo, ehi, out, consts,
        )

    def apply_info(self, indptr, edges, signs, act, load, info, consts):
        return _apply_info(indptr, edges, signs, act, load, info, consts)


def make_provider() -> NumbaKernels:
    return NumbaKernels()
