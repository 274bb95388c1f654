"""C provider of the kernel API, compiled once through cffi.

The kernels are instantiated for float64 and float32 from one
template; the staleness round (``stale_schedule`` and ``stale_ship``, see
:mod:`repro.kernels`) is float64 only, the staleness engine's one
precision.  All of them are built with the system C compiler into a
module cached under
``src/repro/kernels/_cache/`` (override with ``REPRO_KERNEL_CACHE``; a
temp directory is the fallback when the package directory is read-only).
The module name carries a hash of the source and flags, so editing the
kernels or changing compilers never loads a stale extension.

Compilation flags: ``-O3`` with ``-ffp-contract=off`` — fused
multiply-adds would change results at the ulp level and break the
bit-identity contract with the numpy tier (``-ffast-math`` is out of the
question for the same reason).  ``-fopenmp`` is attempted and dropped if
the toolchain lacks it; the parallel pragmas are over edges/nodes with
static schedules, so thread count never affects results (each iteration
owns its output row).  The record walk (``record_walk``) and the
staleness round are serial, so their sums keep one fixed order and the
link drops draw in one fixed order.  The staleness row loops use only
selects between operands loaded up front, which GCC vectorises; a select
it would have to evaluate conditionally stays a branch, and on the
round's near-random zero/non-zero amounts those branches made its two
entry points two to four times as slow.

No flag picks the instruction set.  On x86-64 glibc every kernel carries
``target_clones("arch=x86-64-v3", "default")``, so it is built twice, for
AVX2 and for the baseline, and the loader picks one per CPU; elsewhere
(and with a compiler that lacks the attribute or that target) the
baseline alone is built.
The clones run the same IEEE operations in the same order (no FMA: the
flag above), so they agree bit for bit.  There is no ``x86-64-v4``
(AVX-512) clone: on a 2-vCPU AVX-512 Xeon it made ``excess_counts`` at
``n = 10^6, B = 4`` about twice as slow (47 against 24 ms a call, one
thread).  The hot loops call no libm function: ``trunc`` and ``ceil``
are exact branchless code (see ``trunc_*`` and ``excess_counts``), which
both clones vectorise.  The dispatch draws each token's uniform through
numpy's public ``bitgen_t`` of the replica's generator, as numpy's own
``Generator.random`` fills do, so both tiers leave every stream in the
same state.

Arguments cross into C as ``ffi.from_buffer`` views of the numpy arrays
(no pointer arithmetic, no ``ctypes``).  Those views carry raw bytes, so
:class:`CffiKernels` guards every array argument of every entry point —
dtype and C-contiguity — and checks by extent, comparing shapes and
sizes only (no scan of the elements):

* ``round_edges``: ``flows``, ``act`` and ``fsg`` share one ``(m, B)``
  shape with ``m`` the size of ``eu`` and ``ev``; ``load`` has ``B``
  columns and ``speeds`` one entry per load row; the ``alpha``, ``beta``
  and ``bm1`` strides stay inside their rows.  ``fsg`` is ``flows``
  itself or overlaps neither it nor ``act`` nor ``load``, and ``act``
  overlaps neither ``flows`` nor ``load`` (memory bounds only);
* ``excess_counts`` and ``excess_dispatch``: ``counts`` is ``(n, B)``,
  the padded adjacency holds ``n * dmax`` slots, ``fsg`` (and the
  dispatch's ``act``, which must not overlap it) is ``(m, B)``, and
  ``totals`` has ``B`` entries;
* ``apply_flows`` and ``record_walk`` (whose ``targets`` broadcast as a
  ``(1, B)`` row, an ``(n, 1)`` column or an ``(n, B)`` plane), the
  dispatch scratch and the staleness round;

and the generators of ``excess_dispatch`` and of the staleness link
drops (one ``numpy.random.Generator`` per replica, no two on one bit
generator), raising ``ValueError("cffi kernel argument: ...")`` before
any C code runs.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
import sys
import tempfile
from typing import Optional

import numpy as np

_DECL_TEMPLATE = """
void round_edges_@S@(
    long long m, long long B, const int *eu, const int *ev,
    const @R@ *load, const @R@ *speeds, const @R@ *flows,
    @R@ *act, @R@ *fsg,
    const @R@ *alpha, long long ar, long long ac,
    const @R@ *beta, const @R@ *bm1, long long bs, int mode,
    const @R@ *consts);
void excess_counts_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *fsg, int *counts, long long *totals,
    const @R@ *consts);
void excess_dispatch_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *fsg, const int *counts, const uintptr_t *gens,
    @R@ *act, @R@ *cums, const @R@ *consts);
void apply_flows_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *act, @R@ *load);
void record_walk_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs, const int *eu,
    const @R@ *act, @R@ *load, const @R@ *targets, long long trow,
    long long tcol, long long tile, int metrics, int mld, @R@ *info,
    @R@ *out, const @R@ *consts);
"""

_BODY_TEMPLATE = r"""
/* trunc without libm: below 2^(mantissa bits), adding and removing that
   power rounds |s| to an integer, which steps down by one where it
   rounded up; at or above it (and for inf and NaN) |s| is its own trunc.
   Every step is exact and branchless, so the loops around it vectorise. */
static inline @R@ trunc_@S@(@R@ s, @R@ zero, @R@ one)
{
    const @R@ mag = @FABS@(s);
    const @R@ big = (mag < @BIG@) ? @BIG@ : zero;
    const @R@ r = (mag + big) - big;
    return @COPYSIGN@(r + ((r > mag) ? -one : zero), s);
}

/* One edge of round_edges: the schedule s of its mode, then the signed
   base act = trunc(s) and the fractional part s - act.  fl is the edge's
   flow row on entry and its fraction row on exit: each flow is read
   before its slot is written.  The rows are restrict (act overlaps no
   input, fl only itself), so each mode's loop vectorises without
   run-time alias checks. */
static inline void edge_row_@S@(
    long long B, int mode, const @R@ *restrict nu, const @R@ *restrict nv,
    const @R@ *restrict alpha, long long ac,
    const @R@ *restrict beta, const @R@ *restrict bm1, long long bs,
    @R@ *restrict act, @R@ *restrict fl, @R@ zero, @R@ one)
{
    long long b;
    if (mode == 2) {
        /* fused operators: flows*bm1, then +c*nu, then +(-c)*nv — the
           csr_matvecs accumulation over interleaved data */
        for (b = 0; b < B; b++) {
            const @R@ c = alpha[b * ac];
            @R@ s = fl[b] * bm1[b * bs];
            s = s + c * nu[b];
            s = s + (-c) * nv[b];
            const @R@ a = trunc_@S@(s, zero, one);
            act[b] = a;
            fl[b] = s - a;
        }
    } else if (mode == 1) {
        for (b = 0; b < B; b++) {
            @R@ d = (nu[b] - nv[b]) * alpha[b * ac];
            d = d * beta[b * bs];
            const @R@ s = fl[b] * bm1[b * bs] + d;
            const @R@ a = trunc_@S@(s, zero, one);
            act[b] = a;
            fl[b] = s - a;
        }
    } else {
        for (b = 0; b < B; b++) {
            const @R@ s = (nu[b] - nv[b]) * alpha[b * ac];  /* FOS opener */
            const @R@ a = trunc_@S@(s, zero, one);
            act[b] = a;
            fl[b] = s - a;
        }
    }
}

KERNEL void round_edges_@S@(
    long long m, long long B, const int *eu, const int *ev,
    const @R@ *load, const @R@ *speeds, const @R@ *flows,
    @R@ *act, @R@ *fsg,
    const @R@ *alpha, long long ar, long long ac,
    const @R@ *beta, const @R@ *bm1, long long bs, int mode,
    const @R@ *consts)
{
    /* fsg is flows itself (each row read, then overwritten with its
       fractions) or a plane of its own, which takes a copy of the row */
    long long e;
    #pragma omp parallel for schedule(static)
    for (e = 0; e < m; e++) {
        const long long u = eu[e];
        const long long v = ev[e];
        const @R@ *nu = load + u * B;
        const @R@ *nv = load + v * B;
        @R@ *fl = fsg + e * B;
        @R@ su[B > 0 ? B : 1], sv[B > 0 ? B : 1];
        long long b;
        if (fsg != flows) {
            for (b = 0; b < B; b++) {
                fl[b] = flows[e * B + b];
            }
        }
        if (speeds) {
            for (b = 0; b < B; b++) {
                su[b] = nu[b] / speeds[u];
                sv[b] = nv[b] / speeds[v];
            }
            nu = su;
            nv = sv;
        }
        edge_row_@S@(
            B, mode, nu, nv, alpha + e * ar, ac, beta, bm1, bs,
            act + e * B, fl, consts[0], consts[1]);
    }
}

KERNEL void excess_counts_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *fsg, int *counts, long long *totals,
    const @R@ *consts)
{
    const @R@ zero = consts[0];
    const @R@ tol = consts[2];
    long long i, b;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; i++) {
        /* replica-inner: each slot contributes one contiguous fsg row,
           and per (i, b) the slots still accumulate in ascending order —
           the exact summation chain of the numpy tier */
        @R@ cum[B > 0 ? B : 1];
        long long j, bb;
        for (bb = 0; bb < B; bb++) {
            cum[bb] = zero;
        }
        for (j = 0; j < dmax; j++) {
            const long long e = adj_edges[i * dmax + j];
            if (e == m) {
                continue;  /* padding slot: adds exactly zero */
            }
            const @R@ *row = fsg + e * B;
            if (adj_signs[i * dmax + j] > 0) {
                for (bb = 0; bb < B; bb++) {
                    const @R@ f = row[bb];
                    cum[bb] = cum[bb] + ((f > zero) ? f : zero);
                }
            } else {
                for (bb = 0; bb < B; bb++) {
                    const @R@ f = row[bb];
                    @R@ p = (f > zero) ? f : zero;
                    p = p - f;
                    cum[bb] = cum[bb] + p;
                }
            }
        }
        for (bb = 0; bb < B; bb++) {
            /* ceil without libm: the budget is below dmax, so the int
               budget plane holds it; truncate, then step up where that
               cut a fraction off (a budget in (-1, 0] truncates to 0) */
            const @R@ x = cum[bb] - tol;
            const int k = (int)x;
            counts[i * B + bb] = k + (x > (@R@)k);
        }
    }
    /* per-replica token totals, reduced here so the caller learns
       without an extra numpy pass over (n, B) whether any token moves */
    for (b = 0; b < B; b++) {
        totals[b] = 0;
    }
    for (i = 0; i < n; i++) {
        for (b = 0; b < B; b++) {
            totals[b] += counts[i * B + b];
        }
    }
}

KERNEL void excess_dispatch_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *fsg, const int *counts, const uintptr_t *gens,
    @R@ *act, @R@ *cums, const @R@ *consts)
{
    /* cums: caller-owned (dmax, B) scratch — dmax * B values overflow the
       C stack on a hub node with a wide batch */
    const @R@ zero = consts[0];
    long long b, i;
    /* serial, node-major for locality.  Replica b's tokens draw from its
       own generator gens[b], node after node, so each stream is consumed
       node-ascending — exactly the numpy tier's order for that stream,
       whatever the interleaving of the replicas here. */
    for (i = 0; i < n; i++) {
        long long rowtot = 0;
        for (b = 0; b < B; b++) {
            rowtot += counts[i * B + b];
        }
        if (rowtot == 0) {
            continue;
        }
        /* cumulative slot fractions for every replica of this node at
           once: each slot reads one contiguous fsg row, and per (i, b)
           the slots accumulate in ascending order — the chain that
           excess_counts rounded to this node's budgets */
        long long j;
        for (j = 0; j < dmax; j++) {
            const long long e = adj_edges[i * dmax + j];
            @R@ *row = cums + j * B;
            const @R@ *prev = row - B;
            if (e == m) {
                for (b = 0; b < B; b++) {
                    row[b] = j ? prev[b] : zero;
                }
            } else if (adj_signs[i * dmax + j] > 0) {
                const @R@ *frow = fsg + e * B;
                for (b = 0; b < B; b++) {
                    const @R@ f = frow[b];
                    row[b] = (j ? prev[b] : zero) + ((f > zero) ? f : zero);
                }
            } else {
                const @R@ *frow = fsg + e * B;
                for (b = 0; b < B; b++) {
                    const @R@ f = frow[b];
                    @R@ p = (f > zero) ? f : zero;
                    p = p - f;
                    row[b] = (j ? prev[b] : zero) + p;
                }
            }
        }
        for (b = 0; b < B; b++) {
            const long long k = counts[i * B + b];
            if (k <= 0) {
                continue;
            }
            bitgen_t *gen = (bitgen_t *)gens[b];
            const @R@ *cb = cums + b;
            const @R@ c = (@R@)k;  /* ceil(surplus - tol), exactly */
            long long t;
            for (t = 0; t < k; t++) {
                const @R@ target = uniform_@S@(gen) * c;
                /* slot = #(cumulative fractions <= target); branchless
                   count — the running sum is non-decreasing, so the
                   count equals the first-crossing position without the
                   mispredicted early exit */
                long long pos = 0;
                for (j = 0; j < dmax; j++) {
                    pos += (cb[j * B] <= target);
                }
                /* a token past the last slot stays home: it adds -0.0
                   (x + -0.0 is x for every float x) to slot 0, a real
                   edge of any node with a budget (padding trails).  The
                   landing is integer arithmetic, negated twice so home
                   gives -0.0: a select here compiles to a branch that
                   mispredicts on about every other token. */
                const long long moved = pos < dmax;
                const long long sl = i * dmax + pos * moved;
                act[adj_edges[sl] * B + b] += -(@R@)(-adj_signs[sl] * moved);
            }
        }
    }
}

/* The apply passes walk the padded adjacency, whose rows are the
   incidence CSR rows in order with the padding (e == m) trailing: the
   incidence sign of slot j is -adj_signs[j] (-1 where the node is the
   edge's u endpoint, +1 where it is v). */

KERNEL void apply_flows_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *act, @R@ *load)
{
    long long i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; i++) {
        /* replica-inner: each incident edge contributes one contiguous
           act row; per (i, b) the edges still add in CSR order */
        @R@ acc[B > 0 ? B : 1];
        long long b, j;
        for (b = 0; b < B; b++) {
            acc[b] = load[i * B + b];
        }
        for (j = 0; j < dmax; j++) {
            const long long e = adj_edges[i * dmax + j];
            if (e == m) {
                break;  /* padding: the node's edges are done */
            }
            const @R@ s = -(@R@)adj_signs[i * dmax + j];
            const @R@ *row = act + e * B;
            for (b = 0; b < B; b++) {
                acc[b] = acc[b] + s * row[b];
            }
        }
        for (b = 0; b < B; b++) {
            load[i * B + b] = acc[b];
        }
    }
}

/* The record walk, serial so that every sum adds in node (or edge) order
   in the array dtype, numpy's order for an axis-0 reduction over a
   C-contiguous (rows, B > 1) plane.  Node by node: with act, the apply
   (delta, outgoing from zero in CSR order; the transient
   load - (outgoing - delta) * 0.5; load + delta) and |act| at its u slots
   into the traffic, which come in edge order (edges sorted by (u, v),
   rows by neighbour); then, from its new load, its tile's partial node
   metrics, folded into out at the tile's end, and |x_u - x_i| at its v
   slots, where u < i already holds its final load.  info: min transient,
   traffic; out: max dev, min dev, sum dev^2, min load, total, max local
   difference.  The running minimum, traffic and max local difference
   are local rows, copied out at the end: stores into info or out may
   alias the rows the loops read, and cost ~10% at n = 10^6, B = 4. */

KERNEL void record_walk_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs, const int *eu,
    const @R@ *act, @R@ *load, const @R@ *targets, long long trow,
    long long tcol, long long tile, int metrics, int mld, @R@ *info,
    @R@ *out, const @R@ *consts)
{
    const @R@ zero = consts[0];
    const @R@ half = consts[3];
    @R@ delta[B > 0 ? B : 1], outg[B > 0 ? B : 1];
    @R@ pmx[B > 0 ? B : 1], pmn[B > 0 ? B : 1], psq[B > 0 ? B : 1];
    @R@ pml[B > 0 ? B : 1], ptot[B > 0 ? B : 1];
    @R@ tmin[B > 0 ? B : 1], traffic[B > 0 ? B : 1], mldr[B > 0 ? B : 1];
    @R@ *mx = out, *mn = out + B, *sq = out + 2 * B;
    @R@ *ml = out + 3 * B, *tot = out + 4 * B;
    long long lo, hi, i, j, b;
    for (b = 0; b < B; b++) {
        traffic[b] = zero;
        mldr[b] = zero;  /* every |x_u - x_v| is >= +0.0 */
    }
    for (lo = 0; lo < n; lo = hi) {
        hi = (n - lo > tile) ? lo + tile : n;
        for (i = lo; i < hi; i++) {
            const int *edges = adj_edges + i * dmax;
            const signed char *signs = adj_signs + i * dmax;
            @R@ *x = load + i * B;
            if (act) {
                for (b = 0; b < B; b++) {
                    delta[b] = zero;
                    outg[b] = zero;
                }
                for (j = 0; j < dmax && edges[j] != m; j++) {
                    const @R@ s = -(@R@)signs[j];
                    const @R@ *row = act + (long long)edges[j] * B;
                    if (signs[j] > 0) {
                        for (b = 0; b < B; b++) {
                            const @R@ a = @FABS@(row[b]);
                            delta[b] = delta[b] + s * row[b];
                            outg[b] = outg[b] + a;
                            traffic[b] = traffic[b] + a;
                        }
                    } else {
                        for (b = 0; b < B; b++) {
                            delta[b] = delta[b] + s * row[b];
                            outg[b] = outg[b] + @FABS@(row[b]);
                        }
                    }
                }
                for (b = 0; b < B; b++) {
                    const @R@ t = x[b] - (outg[b] - delta[b]) * half;
                    tmin[b] = (i == 0 || t < tmin[b]) ? t : tmin[b];
                    x[b] = x[b] + delta[b];
                }
            }
            if (metrics) {
                const @R@ *t = targets + i * trow;
                const int first = i == lo;  /* the tile's partial starts */
                for (b = 0; b < B; b++) {
                    const @R@ v = x[b];
                    const @R@ d = v - t[b * tcol];
                    pmx[b] = (first || d > pmx[b]) ? d : pmx[b];
                    pmn[b] = (first || d < pmn[b]) ? d : pmn[b];
                    psq[b] = (first ? zero : psq[b]) + d * d;
                    pml[b] = (first || v < pml[b]) ? v : pml[b];
                    ptot[b] = (first ? zero : ptot[b]) + v;
                }
            }
            if (mld) {
                for (j = 0; j < dmax && edges[j] != m; j++) {
                    if (signs[j] > 0) {
                        continue;  /* i is u: its neighbour is still to come */
                    }
                    const @R@ *xu = load + (long long)eu[edges[j]] * B;
                    for (b = 0; b < B; b++) {
                        const @R@ a = @FABS@(xu[b] - x[b]);
                        mldr[b] = (a > mldr[b]) ? a : mldr[b];
                    }
                }
            }
        }
        if (!metrics) {
            continue;
        }
        /* the tile's partial into the running rows: the first tile's as
           it is, later ones as numpy's maximum / minimum / add combine
           two rows (a tie or a NaN in the second operand takes it) */
        for (b = 0; b < B; b++) {
            mx[b] = (lo && (mx[b] > pmx[b] || mx[b] != mx[b])) ? mx[b] : pmx[b];
            mn[b] = (lo && (mn[b] < pmn[b] || mn[b] != mn[b])) ? mn[b] : pmn[b];
            sq[b] = lo ? sq[b] + psq[b] : psq[b];
            ml[b] = (lo && (ml[b] < pml[b] || ml[b] != ml[b])) ? ml[b] : pml[b];
            tot[b] = lo ? tot[b] + ptot[b] : ptot[b];
        }
    }
    for (b = 0; b < B; b++) {
        if (act) {
            info[b] = tmin[b];
            info[B + b] = traffic[b];
        }
        if (mld) {
            out[5 * B + b] = mldr[b];
        }
    }
}
"""

_VARIANTS = {
    "f64": {
        "@R@": "double", "@BIG@": "0x1p52", "@FABS@": "fabs",
        "@COPYSIGN@": "copysign",
    },
    "f32": {
        "@R@": "float", "@BIG@": "0x1p23f", "@FABS@": "fabsf",
        "@COPYSIGN@": "copysignf",
    },
}


def _instantiate(template: str) -> str:
    parts = []
    for suffix, subs in _VARIANTS.items():
        text = template.replace("@S@", suffix)
        for key, value in subs.items():
            text = text.replace(key, value)
        parts.append(text)
    return "\n".join(parts)


_STALE_DECL = """
void stale_schedule(
    long long n, long long B, long long slot,
    const double *load, const double *speeds, double *ring,
    const long long *view_rows, const long long *indptr,
    const double *alpha, const double *prev, const double *beta,
    const double *bm1, const double *sos_cols,
    double *flow, double *base, double *frac, int *counts,
    long long *totals, const double *consts);
void stale_ship(
    long long n, long long B, long long na, long long m, long long slot_b,
    double *load, const double *flow, const double *amt, double *prev,
    double *edge, double *ship, const long long *ship_rows, double *arrive,
    double *bounce, const long long *bounce_land, long long *pending,
    const long long *indptr, const long long *arc_edge, const long long *rev,
    const long long *arc_of_lo, const long long *arc_of_hi,
    const uintptr_t *gens, double p, int *picks, double *gather,
    double *in_flight, long long *messages, long long *delivered,
    long long *bounced, const double *consts);
"""

_STALE_BODY = r"""
/* The staleness engine's round around the excess dispatch (float64 only,
   the engine's one precision).  Serial: every sum adds in arc order from
   zero, the numpy tier's order, and the drop draws consume each replica's
   fault stream arc-ascending. */

/* The staleness kernels' row loops use only double selects between
   operands loaded up front (counters are doubles, converted once per
   call): gcc vectorises those, and keeps a select whose operand it would
   have to load or compute conditionally as a branch. */

/* One arc of stale_schedule: the schedule (x_src - view) * w, on SOS
   columns prev * (beta - 1) + that * beta (a select, never a blend), then
   its positive part max(F, 0) + 0.0 floored into base, the rest in frac. */
static inline void stale_row(
    long long B, const double *restrict x, const double *restrict v,
    double w, const double *restrict prev, const double *restrict beta,
    const double *restrict bm1, const double *restrict sos,
    double *restrict flow, double *restrict base, double *restrict frac,
    double zero, double one)
{
    long long b;
    if (sos) {
        for (b = 0; b < B; b++) {
            const double f = (x[b] - v[b]) * w;
            const double g = prev[b] * bm1[b] + f * beta[b];
            flow[b] = (sos[b] != zero) ? g : f;
        }
    } else {
        for (b = 0; b < B; b++) {
            flow[b] = (x[b] - v[b]) * w;
        }
    }
    for (b = 0; b < B; b++) {
        const double f = flow[b];
        const double pos = ((f > zero) ? f : zero) + zero;
        const double fl = trunc_f64(pos, zero, one);  /* pos >= +0 */
        base[b] = fl;
        frac[b] = pos - fl;
    }
}

KERNEL void stale_schedule(
    long long n, long long B, long long slot,
    const double *load, const double *speeds, double *ring,
    const long long *view_rows, const long long *indptr,
    const double *alpha, const double *prev, const double *beta,
    const double *bm1, const double *sos_cols,
    double *flow, double *base, double *frac, int *counts,
    long long *totals, const double *consts)
{
    /* announce into ring slot `slot`, then per node stale_row for each of
       its arcs (in CSR order: indptr) on the views view_rows name, and
       the node's token budgets ceil(sum frac - tol) — excess_counts'
       summation chain on the arc layout, folded in here because its
       OpenMP region left a spinning team that slowed the serial kernels
       after it several times over on 2 vCPUs.  sos_cols (1.0 on an SOS
       column) is NULL on FOS rounds. */
    const double zero = consts[0];
    const double tol = consts[2];
    double *ann = ring + slot * n * B;
    double cum[B > 0 ? B : 1];
    long long i, a, b;
    for (i = 0; i < n; i++) {
        const double s = speeds[i];
        for (b = 0; b < B; b++) {
            ann[i * B + b] = load[i * B + b] / s;
        }
    }
    for (b = 0; b < B; b++) {
        totals[b] = 0;
    }
    for (i = 0; i < n; i++) {
        for (b = 0; b < B; b++) {
            cum[b] = zero;
        }
        for (a = indptr[i]; a < indptr[i + 1]; a++) {
            stale_row(
                B, ann + i * B, ring + view_rows[a] * B, alpha[a],
                prev + a * B, beta, bm1, sos_cols, flow + a * B,
                base + a * B, frac + a * B, zero, consts[1]);
            const double *f = frac + a * B;
            for (b = 0; b < B; b++) {
                cum[b] = cum[b] + ((f[b] > zero) ? f[b] : zero);
            }
        }
        for (b = 0; b < B; b++) {
            const double x = cum[b] - tol;
            const int k = (int)x;
            counts[i * B + b] = k + (x > (double)k);
            totals[b] += counts[i * B + b];
        }
    }
}

/* numpy's pairwise summation of n doubles at stride (its add.reduce
   inner loop).  negzero is -0.0. */
static double stale_pairwise(
    const double *a, long long n, long long stride, double negzero)
{
    long long i, j;
    if (n < 8) {
        double res = negzero;
        for (i = 0; i < n; i++) {
            res = res + a[i * stride];
        }
        return res;
    }
    if (n <= 128) {
        double r[8], res;
        for (j = 0; j < 8; j++) {
            r[j] = a[j * stride];
        }
        for (i = 8; i < n - (n % 8); i += 8) {
            for (j = 0; j < 8; j++) {
                r[j] = r[j] + a[(i + j) * stride];
            }
        }
        res = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; i++) {
            res = res + a[i * stride];
        }
        return res;
    }
    long long n2 = n / 2;
    n2 -= n2 % 8;
    return stale_pairwise(a, n2, stride, negzero)
           + stale_pairwise(a + n2 * stride, n - n2, stride, negzero);
}

/* A node's sum over its deg arc rows x (contiguous, (deg, B)) in the
   order of np.add.reduceat: x[0] + pairwise(x[1:]) per replica column.
   Below 8 rest rows the pairwise sum runs left to right from -0.0, so
   with amounts >= +0.0 it is first + rest, the caller's running sums from
   +0.0 (a node without arcs sums to 0.0). */
static inline void stale_node_sum(
    long long B, const double *x, long long deg,
    const double *restrict first, const double *restrict rest,
    double *restrict out, double zero)
{
    long long b;
    if (deg > 8) {
        for (b = 0; b < B; b++) {
            out[b] = x[b] + stale_pairwise(x + B + b, deg - 1, B, -zero);
        }
        return;
    }
    for (b = 0; b < B; b++) {
        out[b] = first[b] + rest[b];
    }
}

/* stale_ship's per-row steps, one loop over the replicas each, every
   operand loaded before its select.  Every amount is finite and >= +0.0,
   so a select of x or +0.0 is the numpy tier's x * 1.0 or x * 0.0. */
static inline void stale_edge_row(
    long long B, const double *restrict alo, const double *restrict ahi,
    const double *restrict flo, const double *restrict fhi,
    double *restrict edge, double zero)
{
    /* the closed form of the per-edge flow record (see _StalenessCore) */
    long long b;
    for (b = 0; b < B; b++) {
        const double al = alo[b], fh = fhi[b], ed = edge[b];
        const double val = ((fh < zero) ? al : zero) + ahi[b];
        const double nf = zero - fh;
        const double c = copysign(val, nf);
        const double keep = (flo[b] >= zero) ? c : ed;
        edge[b] = (nf <= zero) ? c : keep;
    }
}

static inline void stale_send_row(
    long long B, const double *restrict amt, double *restrict dst,
    double *restrict prev, double *restrict acc, double *restrict tot,
    double *restrict cnt, double zero, double one)
{
    long long b;
    for (b = 0; b < B; b++) {
        const double x = amt[b];
        acc[b] = acc[b] + x;
        tot[b] = tot[b] + x;
        cnt[b] = cnt[b] + ((x != zero) ? one : zero);
        dst[b] = x;
        prev[b] = x;
    }
}

static inline void stale_bounce_row(
    long long B, double *restrict row, double *restrict prev,
    double *restrict edge, double *restrict acc, double *restrict tot,
    double *restrict cnt, double zero, double one)
{
    /* a due bounce is the only non-zero entry; adding the zeros changes
       no sum (each runs from +0.0 over non-negative amounts) */
    long long b;
    for (b = 0; b < B; b++) {
        const double x = row[b], pr = prev[b], ed = edge[b];
        acc[b] = acc[b] + x;
        tot[b] = tot[b] + x;
        cnt[b] = cnt[b] + ((x != zero) ? one : zero);
        row[b] = zero;
        prev[b] = (x != zero) ? zero : pr;
        edge[b] = (x != zero) ? zero : ed;
    }
}

static inline void stale_deliver_row(
    long long B, double *restrict in, double *restrict prev,
    double *restrict acc, double *restrict cnt, double zero, double one)
{
    /* two loops: gcc vectorises each alone, not the two fused; the
       second also consumes the shipment */
    long long b;
    for (b = 0; b < B; b++) {
        const double x = in[b];
        acc[b] = acc[b] + x;
        cnt[b] = cnt[b] + ((x != zero) ? one : zero);
    }
    for (b = 0; b < B; b++) {
        const double x = in[b], pr = prev[b];
        prev[b] = ((x != zero) ? zero : pr) - x;
        in[b] = zero;
    }
}

KERNEL void stale_ship(
    long long n, long long B, long long na, long long m, long long slot_b,
    double *load, const double *flow, const double *amt, double *prev,
    double *edge, double *ship, const long long *ship_rows, double *arrive,
    double *bounce, const long long *bounce_land, long long *pending,
    const long long *indptr, const long long *arc_edge, const long long *rev,
    const long long *arc_of_lo, const long long *arc_of_hi,
    const uintptr_t *gens, double p, int *picks, double *gather,
    double *in_flight, long long *messages, long long *delivered,
    long long *bounced, const double *consts)
{
    /* One round's traffic, in the numpy tier's phase order: the per-edge
       flow record, the send deduction and in-flight ledger, the shipment
       ring and P = amt, the link drops onto the bounce ring (bounce NULL:
       no faults; gens NULL: no draws; picks: (B, na) scratch), the due
       bounces, then the deliveries out of `arrive` (the ring slot landing
       this round).  Every sum adds in the numpy tier's order (see
       stale_node_sum; gather: (na, B) scratch for nodes past 8 arcs). */
    const double zero = consts[0];
    const double one = consts[1];
    double acc[B > 0 ? B : 1], tot[B > 0 ? B : 1], cnt[B > 0 ? B : 1];
    double first[B > 0 ? B : 1], sum[B > 0 ? B : 1];
    long long i, a, b, e;

    for (e = 0; e < m; e++) {
        /* the higher endpoint computes later in node order, so it wins */
        stale_edge_row(
            B, amt + arc_of_lo[e] * B, amt + arc_of_hi[e] * B,
            flow + arc_of_lo[e] * B, flow + arc_of_hi[e] * B, edge + e * B,
            zero);
    }

    for (b = 0; b < B; b++) {
        tot[b] = zero;
        cnt[b] = zero;
    }
    for (i = 0; i < n; i++) {
        for (b = 0; b < B; b++) {
            first[b] = zero;
            acc[b] = zero;
        }
        for (a = indptr[i]; a < indptr[i + 1]; a++) {
            stale_send_row(
                B, amt + a * B, ship + ship_rows[a] * B, prev + a * B,
                (a == indptr[i]) ? first : acc, tot, cnt, zero, one);
        }
        stale_node_sum(B, amt + indptr[i] * B, indptr[i + 1] - indptr[i],
                       first, acc, sum, zero);
        for (b = 0; b < B; b++) {
            load[i * B + b] = load[i * B + b] - sum[b];
        }
    }
    if (B == 1) {
        tot[0] = stale_pairwise(amt, na, 1, -zero);  /* amt.sum(axis=0) */
    }
    for (b = 0; b < B; b++) {
        in_flight[b] = in_flight[b] + tot[b];
        messages[b] += (long long)cnt[b];
    }

    if (bounce && gens && p != zero) {
        /* one uniform per emitted shipment, each replica's own stream
           arc-ascending: the numpy tier's rng.random(k) < p.  One pass
           lists every replica's emitted arcs in picks[b * na ...] without
           a branch on the amounts. */
        long long k[B > 0 ? B : 1], t;
        for (b = 0; b < B; b++) {
            k[b] = 0;
        }
        for (a = 0; a < na; a++) {
            const double *row = amt + a * B;
            for (b = 0; b < B; b++) {
                picks[b * na + k[b]] = (int)a;
                k[b] += (row[b] != zero);
            }
        }
        for (b = 0; b < B; b++) {
            bitgen_t *gen = (bitgen_t *)gens[b];
            for (t = 0; t < k[b]; t++) {
                if (!(uniform_f64(gen) < p)) {
                    continue;
                }
                a = picks[b * na + t];
                const long long land = bounce_land[a];
                ship[ship_rows[a] * B + b] = zero;
                bounce[(land * na + a) * B + b] = amt[a * B + b];
                pending[land] += 1;
            }
        }
    }

    if (bounce && pending[slot_b]) {
        /* bounces first: they carry earlier event seqs than this round's
           deliveries, which overwrite their zeroed P below */
        double *ring = bounce + slot_b * na * B;
        for (b = 0; b < B; b++) {
            tot[b] = zero;
            cnt[b] = zero;
        }
        for (i = 0; i < n; i++) {
            for (b = 0; b < B; b++) {
                acc[b] = zero;
            }
            for (a = indptr[i]; a < indptr[i + 1]; a++) {
                stale_bounce_row(
                    B, ring + a * B, prev + a * B, edge + arc_edge[a] * B,
                    acc, tot, cnt, zero, one);
            }
            for (b = 0; b < B; b++) {
                load[i * B + b] = load[i * B + b] + acc[b];
            }
        }
        pending[slot_b] = 0;
        for (b = 0; b < B; b++) {
            bounced[b] += (long long)cnt[b];
            messages[b] -= (long long)cnt[b];
            in_flight[b] = in_flight[b] - tot[b];
        }
    }

    /* the per-replica totals landing this round (each from +0.0 in arc
       order); the amounts are >= +0.0, so all-zero totals mean nothing
       lands and the numpy tier skips the delivery */
    long long any = 0;
    for (b = 0; b < B; b++) {
        tot[b] = zero;
        cnt[b] = zero;
    }
    for (a = 0; a < na; a++) {
        for (b = 0; b < B; b++) {
            tot[b] = tot[b] + arrive[a * B + b];
        }
    }
    for (b = 0; b < B; b++) {
        any |= (tot[b] != zero);
    }
    if (!any) {
        return;
    }
    if (B == 1) {
        tot[0] = stale_pairwise(arrive, na, 1, -zero);  /* arr.sum(axis=0) */
    }
    for (i = 0; i < n; i++) {
        /* arc a's delivery is its reverse arc's shipment, credited to a's
           source, which remembers it as a negative flow */
        const long long lo = indptr[i], deg = indptr[i + 1] - lo;
        for (b = 0; b < B; b++) {
            first[b] = zero;
            acc[b] = zero;
        }
        if (deg > 8) {
            /* the pairwise node sum reads the rows in arc order (the
               numpy tier's arr_rev): gather them, before the rows below
               consume the shipments */
            for (a = lo; a < lo + deg; a++) {
                for (b = 0; b < B; b++) {
                    gather[a * B + b] = arrive[rev[a] * B + b];
                }
            }
        }
        for (a = lo; a < lo + deg; a++) {
            stale_deliver_row(B, arrive + rev[a] * B, prev + a * B,
                              (a == lo) ? first : acc, cnt, zero, one);
        }
        stale_node_sum(B, gather + lo * B, deg, first, acc, sum, zero);
        for (b = 0; b < B; b++) {
            load[i * B + b] = load[i * B + b] + sum[b];
        }
    }
    for (b = 0; b < B; b++) {
        delivered[b] += (long long)cnt[b];
        messages[b] -= (long long)cnt[b];
        in_flight[b] = in_flight[b] - tot[b];
    }
}
"""

_THREADS_DECL = """
int limit_threads(int k);
"""

_THREADS_BODY = r"""
#ifdef _OPENMP
#include <omp.h>
#endif

/* Cap the OpenMP team of this thread's later parallel regions at k
   (a lower runtime default or OMP_NUM_THREADS stays); returns the team
   size now in force.  Without OpenMP every loop is serial. */
int limit_threads(int k)
{
#ifdef _OPENMP
    if (k >= 1 && k < omp_get_max_threads()) {
        omp_set_num_threads(k);
    }
    return omp_get_max_threads();
#else
    (void)k;
    return 1;
#endif
}
"""

#: The clone attribute every kernel carries where the compiler supports it.
_CLONES = '__attribute__((target_clones("arch=x86-64-v3", "default")))'

_PREAMBLE = r"""
#include <math.h>
#include <stdint.h>

/* numpy's public bit generator interface (numpy/random/bitgen.h): the
   excess dispatch draws each token's uniform through it, as numpy's own
   Generator.random fills do. */
typedef struct bitgen {
    void *state;
    uint64_t (*next_uint64)(void *st);
    uint32_t (*next_uint32)(void *st);
    double (*next_double)(void *st);
    uint64_t (*next_raw)(void *st);
} bitgen_t;

static inline double uniform_f64(bitgen_t *gen)
{
    return gen->next_double(gen->state);
}

static inline float uniform_f32(bitgen_t *gen)
{
    return (gen->next_uint32(gen->state) >> 8) * (1.0f / 16777216.0f);
}

/* Every kernel is built twice, for x86-64-v3 (AVX2) and the baseline,
   and the loader picks one per CPU (an ifunc: x86-64 glibc only). */
#if defined(__x86_64__) && defined(__GLIBC__) && defined(__has_attribute)
#if __has_attribute(target_clones)
#define KERNEL @CLONES@
#endif
#endif
#ifndef KERNEL
#define KERNEL
#endif
""".replace("@CLONES@", _CLONES)

_CDEF = _instantiate(_DECL_TEMPLATE) + _STALE_DECL + _THREADS_DECL
_SOURCE = (
    _PREAMBLE + _instantiate(_BODY_TEMPLATE) + _STALE_BODY + _THREADS_BODY
)

_BASE_FLAGS = ["-O3", "-ffp-contract=off"]


def _cache_dir() -> str:
    """Writable build/cache directory for the compiled extension."""
    candidates = [
        os.environ.get("REPRO_KERNEL_CACHE"),
        os.path.join(os.path.dirname(os.path.abspath(__file__)), "_cache"),
        os.path.join(tempfile.gettempdir(), "repro-kernel-cache"),
    ]
    for cand in candidates:
        if not cand:
            continue
        try:
            os.makedirs(cand, exist_ok=True)
            # A private probe name: processes probing one directory at
            # once must not remove each other's probe.
            with tempfile.TemporaryFile(dir=cand):
                pass
            return cand
        except OSError:
            continue
    raise OSError("no writable kernel cache directory")


def _load_or_build(source: str = _SOURCE, cache: Optional[str] = None):
    """The compiled module of ``source``, built into ``cache`` (default
    :func:`_cache_dir`) on the first call."""
    key = hashlib.sha1(
        (source + _CDEF + " ".join(_BASE_FLAGS)).encode()
    ).hexdigest()[:16]
    modname = f"_repro_kern_{key}"
    cache = cache or _cache_dir()
    if cache not in sys.path:
        sys.path.insert(0, cache)
    try:
        return importlib.import_module(modname)
    except ImportError:
        pass
    import cffi

    # Build in a private directory and rename the finished module into
    # the shared cache: processes starting cold at once then import either
    # nothing or a complete extension, never a half-written one.
    build = tempfile.mkdtemp(prefix=".build-", dir=cache)
    # A compiler that has the clone attribute but not the x86-64-v3
    # target (GCC before 11) builds the baseline alone.
    attempts = [
        (text, openmp)
        for text in dict.fromkeys((source, source.replace(_CLONES, "")))
        for openmp in (True, False)
    ]
    try:
        last_error = None
        for text, openmp in attempts:
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            args = _BASE_FLAGS + (["-fopenmp"] if openmp else [])
            ffi.set_source(
                modname, text,
                extra_compile_args=args,
                extra_link_args=["-fopenmp"] if openmp else [],
            )
            try:
                built = ffi.compile(tmpdir=build, verbose=False)
                break
            except Exception as exc:  # pragma: no cover - toolchain dependent
                last_error = exc
        else:  # pragma: no cover - toolchain dependent
            raise RuntimeError(f"cffi kernel build failed: {last_error}")
        os.replace(built, os.path.join(cache, os.path.basename(built)))
    finally:
        shutil.rmtree(build, ignore_errors=True)
    importlib.invalidate_caches()
    return importlib.import_module(modname)


#: (dtype, cffi array type) of every integer buffer kind the kernels take
_INT8 = (np.dtype(np.int8), "signed char[]")
_INT32 = (np.dtype(np.int32), "int[]")
_INT64 = (np.dtype(np.int64), "long long[]")
_UINTP = (np.dtype(np.uintp), "uintptr_t[]")
#: dtype char -> (symbol suffix, (dtype, cffi array type)) of the reals
_REALS = {
    "d": ("f64", (np.dtype(np.float64), "double[]")),
    "f": ("f32", (np.dtype(np.float32), "float[]")),
}
#: the staleness round's reals (float64 only)
_F64 = _REALS["d"][1]
_STEMS = (
    "round_edges", "excess_counts", "excess_dispatch", "apply_flows",
    "record_walk",
)


def _apart(a, b) -> bool:
    """Whether the memory bounds of ``a`` and ``b`` are disjoint (no scan
    of their elements)."""
    return not np.may_share_memory(a, b)


class Generators(tuple):
    """The replicas' rounding generators, and the address of each one's
    numpy ``bitgen_t`` in ``plane`` (one per replica, for
    ``excess_dispatch``).  The tuple holds the generators, so every
    address stays valid while it lives."""

    def __new__(cls, rngs):
        rngs = super().__new__(cls, rngs)
        if not all(isinstance(g, np.random.Generator) for g in rngs):
            raise ValueError(
                "cffi kernel argument: rngs must be numpy Generators"
            )
        rngs.plane = np.array(
            [g.bit_generator.ctypes.bit_generator.value for g in rngs],
            dtype=np.uintp,
        )
        # (a set: np.unique would import numpy.ma into a process that
        # has not loaded it yet)
        if len(set(rngs.plane.tolist())) != rngs.plane.size:
            # one stream drawn node-major for two replicas would not be
            # the replica-major order the numpy tier draws it in
            raise ValueError(
                "cffi kernel argument: one bit generator per replica"
            )
        return rngs


class CffiKernels:
    """Thin buffer-marshalling wrapper around the compiled extension.

    Every array argument reaches C through :meth:`_p`, which checks its
    dtype and C-contiguity, then hands over ``ffi.from_buffer`` (a view
    of the array's own bytes that keeps the array alive for the call).
    ``from_buffer`` sees raw bytes only, so this guard is what stops a
    float32 plane being read as ``double *`` or a strided view as a dense
    one; its error message is built only when a check fails.  Extent
    and overlap checks (:meth:`_check`, listed in the module docstring)
    guard every entry point.  The entry points of both precisions are
    resolved once, here.
    """

    name = "cffi"
    compiled = True

    def __init__(self, mod):
        self._ffi = mod.ffi
        self._lib = mod.lib
        self._from_buffer = mod.ffi.from_buffer
        self._fns = {
            (stem, char): (getattr(mod.lib, f"{stem}_{suffix}"), real)
            for char, (suffix, real) in _REALS.items()
            for stem in _STEMS
        }

    # ------------------------------------------------------------------
    def _fn(self, stem: str, dtype):
        """The ``stem`` entry point for real ``dtype`` and that dtype's
        buffer kind for :meth:`_p`."""
        try:
            return self._fns[stem, dtype.char]
        except KeyError:
            raise ValueError(
                f"cffi kernel argument: no {stem} kernel for dtype {dtype}"
            ) from None

    def _p(self, arr, kind):
        """``arr`` as a C array of ``kind`` (``None`` -> ``NULL``)."""
        if arr is None:
            return self._ffi.NULL
        dtype, ctype = kind
        if arr.dtype != dtype or not arr.flags.c_contiguous:
            raise ValueError(
                f"cffi kernel argument: arrays must be C-contiguous {dtype}"
            )
        return self._from_buffer(ctype, arr)

    def limit_threads(self, k: int) -> int:
        """Cap the OpenMP team of later calls from this thread at ``k``;
        returns the team size in force (1 without OpenMP)."""
        return int(self._lib.limit_threads(int(k)))

    # ------------------------------------------------------------------
    def round_edges(
        self, eu, ev, load, speeds, flows, act, fsg,
        alpha, ar, ac, beta, bm1, bs, mode, consts,
    ):
        fn, r = self._fn("round_edges", act.dtype)
        p = self._p
        m, B = act.shape
        # one expression: this guard runs every round
        self._check(
            flows.shape == fsg.shape == (m, B) and eu.size == ev.size == m
            and load.ndim == 2 and load.shape[1] == B
            and (speeds is None or speeds.size == load.shape[0])
            and alpha.size > (m - 1) * ar + (B - 1) * ac
            and beta.size > (B - 1) * bs and bm1.size > (B - 1) * bs
            and consts.size >= 2
            and _apart(act, flows) and _apart(act, load)
            and (fsg is flows or _apart(fsg, flows) and _apart(fsg, act)
                 and _apart(fsg, load)),
            "round_edges extents, or an output overlapping an input "
            "(fsg may be flows itself)",
        )
        fn(
            m, B, p(eu, _INT32), p(ev, _INT32),
            p(load, r), p(speeds, r), p(flows, r), p(act, r), p(fsg, r),
            p(alpha, r), int(ar), int(ac),
            p(beta, r), p(bm1, r), int(bs), int(mode), p(consts, r),
        )
        return act

    def excess_counts(
        self, adj_edges, adj_signs, dmax, m, fsg, counts, totals, consts,
    ):
        fn, r = self._fn("excess_counts", fsg.dtype)
        p = self._p
        n, B = counts.shape
        self._check_adjacency(adj_edges, adj_signs, dmax, m, fsg, n, B)
        self._check(totals.size == B and consts.size >= 3,
                    "totals/consts size")
        fn(
            n, B, int(m), int(dmax), p(adj_edges, _INT32),
            p(adj_signs, _INT8), p(fsg, r), p(counts, _INT32),
            p(totals, _INT64), p(consts, r),
        )
        return counts

    @staticmethod
    def bind_generators(rngs) -> Generators:
        """``rngs`` with their bit generators' addresses, for
        :meth:`excess_dispatch` (bind once per batch, not per round)."""
        return Generators(rngs)

    def excess_dispatch(
        self, adj_edges, adj_signs, dmax, m, fsg, counts, rngs, act, cums,
        consts,
    ):
        fn, r = self._fn("excess_dispatch", fsg.dtype)
        p = self._p
        n, B = counts.shape
        self._check_adjacency(adj_edges, adj_signs, dmax, m, fsg, n, B)
        self._check(act.shape == fsg.shape and _apart(act, fsg),
                    "act shape / act must not overlap fsg")
        if type(rngs) is not Generators:
            rngs = Generators(rngs)
        self._check(len(rngs) == B, "one generator per replica")
        self._check(cums.size >= max(dmax, 1) * max(B, 1), "cums size")
        fn(
            n, B, int(m), int(dmax), p(adj_edges, _INT32),
            p(adj_signs, _INT8), p(fsg, r), p(counts, _INT32),
            p(rngs.plane, _UINTP), p(act, r), p(cums, r), p(consts, r),
        )
        return act

    def apply_flows(self, adj_edges, adj_signs, dmax, m, act, load):
        fn, r = self._fn("apply_flows", load.dtype)
        p = self._p
        n, B = load.shape
        self._check_adjacency(adj_edges, adj_signs, dmax, m, act, n, B)
        fn(
            n, B, int(m), int(dmax), p(adj_edges, _INT32),
            p(adj_signs, _INT8), p(act, r), p(load, r),
        )
        return load

    def record_walk(
        self, adj_edges, adj_signs, dmax, eu, act, load, targets, tile,
        metrics, mld, info, out, consts,
    ):
        fn, r = self._fn("record_walk", load.dtype)
        p = self._p
        n, B = load.shape
        m = eu.size
        rows, cols = targets.shape
        self._check(
            adj_edges.size == adj_signs.size == n * dmax
            and (act is None or act.shape == (m, B) and _apart(act, load)
                 and info.shape == (2, B))
            and rows in (1, n) and cols in (1, B) and out.shape == (6, B)
            and consts.size >= 4 and tile >= 1,
            "record walk extents (padded adjacency, act, targets, info, "
            "out, consts, tile), or act overlapping load",
        )
        fn(
            n, B, m, int(dmax), p(adj_edges, _INT32), p(adj_signs, _INT8),
            p(eu, _INT32), p(act, r), p(load, r), p(targets, r),
            cols if rows > 1 else 0, 1 if cols > 1 else 0, int(tile),
            int(bool(metrics)), int(bool(mld)), p(info, r), p(out, r),
            p(consts, r),
        )
        return out

    @staticmethod
    def _check(ok: bool, what: str) -> None:
        """Refuse a buffer the C side would index out of bounds."""
        if not ok:
            raise ValueError(f"cffi kernel argument: {what}")

    def _check_adjacency(self, adj_edges, adj_signs, dmax, m, plane, n, B):
        """The padded adjacency of ``n`` nodes and an ``(m, B)`` edge
        plane."""
        self._check(
            adj_edges.size == adj_signs.size == n * dmax
            and plane.shape == (m, B),
            "padded adjacency / (m, B) plane shape",
        )

    def stale_schedule(
        self, ring, slot, load, speeds, view_rows, indptr, alpha, prev,
        beta, bm1, sos_cols, flow, base, frac, counts, totals, consts,
    ):
        p = self._p
        n, B = load.shape
        na = flow.shape[0]
        La = ring.shape[0]
        self._check(
            ring.shape[1:] == (n, B) and 0 <= slot < La
            and view_rows.size == alpha.size == na
            and indptr.size == n + 1 and indptr[-1] == na
            and prev.shape == base.shape == frac.shape == (na, B)
            and counts.shape == (n, B) and totals.size == B
            and speeds.size == n and beta.size == bm1.size == B
            and (sos_cols is None or sos_cols.size == B)
            and consts.size >= 3,
            "staleness schedule shapes",
        )
        self._lib.stale_schedule(
            n, B, int(slot), p(load, _F64), p(speeds, _F64),
            p(ring, _F64), p(view_rows, _INT64), p(indptr, _INT64),
            p(alpha, _F64), p(prev, _F64), p(beta, _F64), p(bm1, _F64),
            p(sos_cols, _F64), p(flow, _F64), p(base, _F64), p(frac, _F64),
            p(counts, _INT32), p(totals, _INT64), p(consts, _F64),
        )
        return base

    def stale_ship(
        self, slot_b, load, flow, amt, prev, edge, ship, ship_rows, arrive,
        bounce, bounce_land, pending, indptr, arc_edge, rev, arc_of_lo,
        arc_of_hi, gens, p_drop, picks, gather, in_flight, messages,
        delivered, bounced, consts,
    ):
        p = self._p
        n, B = load.shape
        na = amt.shape[0]
        m = edge.shape[0]
        self._check(
            amt.shape == flow.shape == prev.shape == arrive.shape == (na, B)
            and gather.size >= na * B and ship.shape[1] == edge.shape[1] == B
            and ship_rows.size == arc_edge.size == rev.size == na
            and arc_of_lo.size == arc_of_hi.size == m
            and indptr.size == n + 1 and 0 <= slot_b < pending.size
            and in_flight.size == messages.size == delivered.size
            == bounced.size == B
            and consts.size >= 2
            and (bounce is None or bounce.shape[1:] == (na, B)
                 and bounce_land.size == na
                 and pending.size == bounce.shape[0]),
            "staleness ship shapes",
        )
        if gens is not None:
            if type(gens) is not Generators:
                gens = Generators(gens)
            self._check(
                len(gens) == B and bounce is not None
                and picks.size >= na * B,
                "one fault generator per replica, bounce ring, picks size",
            )
        self._lib.stale_ship(
            n, B, na, m, int(slot_b), p(load, _F64), p(flow, _F64),
            p(amt, _F64), p(prev, _F64), p(edge, _F64), p(ship, _F64),
            p(ship_rows, _INT64), p(arrive, _F64), p(bounce, _F64),
            p(bounce_land, _INT64), p(pending, _INT64), p(indptr, _INT64),
            p(arc_edge, _INT64), p(rev, _INT64), p(arc_of_lo, _INT64),
            p(arc_of_hi, _INT64),
            p(gens.plane if gens is not None else None, _UINTP),
            float(p_drop), p(picks, _INT32), p(gather, _F64),
            p(in_flight, _F64),
            p(messages, _INT64), p(delivered, _INT64), p(bounced, _INT64),
            p(consts, _F64),
        )
        return load

def make_provider() -> CffiKernels:
    return CffiKernels(_load_or_build())
