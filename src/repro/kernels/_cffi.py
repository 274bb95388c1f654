"""C provider of the kernel API, compiled once through cffi.

The kernels are instantiated for float64 and float32 from one
template and built with the system C compiler into a module cached under
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
owns its output row).  The record-round reductions (``record_metrics``,
``apply_info``) are serial, so their sums keep one fixed order.

Arguments cross into C as ``ffi.from_buffer`` views of the numpy arrays
(no pointer arithmetic, no ``ctypes``).  Those views carry raw bytes, so
:class:`CffiKernels` guards every array argument of every entry point —
dtype and C-contiguity — and the record passes and the dispatch scratch
also by extent, raising ``ValueError("cffi kernel argument: ...")``
before any C code runs.
"""

from __future__ import annotations

import hashlib
import importlib
import os
import shutil
import sys
import tempfile

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
    const @R@ *fsg, long long *counts, long long *totals,
    const @R@ *consts);
void excess_dispatch_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *fsg, const long long *counts,
    const @R@ *uni, const long long *uoff,
    @R@ *act, @R@ *cums, const @R@ *consts);
void apply_flows_@S@(
    long long n, long long B, const long long *indptr,
    const int *edges, const @R@ *signs,
    const @R@ *act, @R@ *load);
void record_metrics_@S@(
    long long B, const @R@ *load, const @R@ *targets, long long trow,
    long long tcol, long long lo, long long hi, const int *eu, const int *ev,
    long long elo, long long ehi, @R@ *out, const @R@ *consts);
void apply_info_@S@(
    long long n, long long B, long long m, const long long *indptr,
    const int *edges, const @R@ *signs,
    const @R@ *act, @R@ *load, @R@ *info, const @R@ *consts);
"""

_BODY_TEMPLATE = r"""
void round_edges_@S@(
    long long m, long long B, const int *eu, const int *ev,
    const @R@ *load, const @R@ *speeds, const @R@ *flows,
    @R@ *act, @R@ *fsg,
    const @R@ *alpha, long long ar, long long ac,
    const @R@ *beta, const @R@ *bm1, long long bs, int mode,
    const @R@ *consts)
{
    long long e;
    #pragma omp parallel for schedule(static)
    for (e = 0; e < m; e++) {
        const long long u = eu[e];
        const long long v = ev[e];
        long long b;
        for (b = 0; b < B; b++) {
            @R@ nu = load[u * B + b];
            @R@ nv = load[v * B + b];
            @R@ s, a;
            if (speeds) {
                nu = nu / speeds[u];
                nv = nv / speeds[v];
            }
            if (mode == 2) {
                /* fused operators: flows*bm1, then +c*nu, then +(-c)*nv —
                   the csr_matvecs accumulation over interleaved data */
                const @R@ c = alpha[e * ar + b * ac];
                s = flows[e * B + b] * bm1[b * bs];
                s = s + c * nu;
                s = s + (-c) * nv;
            } else {
                @R@ d = (nu - nv) * alpha[e * ar + b * ac];
                if (mode == 1) {
                    d = d * beta[b * bs];
                    s = flows[e * B + b] * bm1[b * bs] + d;
                } else {
                    s = d;  /* round-0 FOS opener */
                }
            }
            /* randomized-excess: signed base + fractional part */
            a = @TRUNC@(s);
            act[e * B + b] = a;
            fsg[e * B + b] = s - a;
        }
    }
}

void excess_counts_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *fsg, long long *counts, long long *totals,
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
            counts[i * B + bb] = (long long)@CEIL@(cum[bb] - tol);
        }
    }
    /* per-replica token totals, reduced here so the caller sizes the
       uniform stream without an extra numpy pass over (n, B) */
    for (b = 0; b < B; b++) {
        totals[b] = 0;
    }
    for (i = 0; i < n; i++) {
        for (b = 0; b < B; b++) {
            totals[b] += counts[i * B + b];
        }
    }
}

void excess_dispatch_@S@(
    long long n, long long B, long long m, long long dmax,
    const int *adj_edges, const signed char *adj_signs,
    const @R@ *fsg, const long long *counts,
    const @R@ *uni, const long long *uoff,
    @R@ *act, @R@ *cums, const @R@ *consts)
{
    /* cums: caller-owned (dmax, B) scratch — dmax * B values overflow the
       C stack on a hub node with a wide batch */
    const @R@ zero = consts[0];
    const @R@ tol = consts[2];
    long long off[B > 0 ? B : 1];  /* next unread uniform per replica */
    long long b, i;
    for (b = 0; b < B; b++) {
        off[b] = uoff[b];
    }
    /* serial, node-major for locality.  A token's uniform is addressed by
       (replica, rank-within-replica) via the off counters, and within a
       replica the node order is preserved — so the values consumed are
       exactly the replica-major / node-ascending stream order of the
       numpy tier, whatever the visit order here. */
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
           the slots accumulate in ascending order — the exact summation
           chain of the numpy tier */
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
            if (k == 0) {
                continue;
            }
            const @R@ *cb = cums + b;
            const @R@ c = @CEIL@(cb[(dmax - 1) * B] - tol);
            long long t;
            for (t = 0; t < k; t++) {
                const @R@ target = uni[off[b] + t] * c;
                /* slot = #(cumulative fractions <= target); branchless
                   count — the running sum is non-decreasing, so the
                   count equals the first-crossing position without the
                   mispredicted early exit */
                long long pos = 0;
                for (j = 0; j < dmax; j++) {
                    pos += (cb[j * B] <= target);
                }
                if (pos < dmax) {  /* otherwise the token stays home */
                    const long long sl = i * dmax + pos;
                    act[adj_edges[sl] * B + b] += (@R@)adj_signs[sl];
                }
            }
            off[b] += k;
        }
    }
}

void apply_flows_@S@(
    long long n, long long B, const long long *indptr,
    const int *edges, const @R@ *signs,
    const @R@ *act, @R@ *load)
{
    long long i;
    #pragma omp parallel for schedule(static)
    for (i = 0; i < n; i++) {
        const long long lo = indptr[i];
        const long long hi = indptr[i + 1];
        /* replica-inner: each incident edge contributes one contiguous
           act row; per (i, b) the edges still add in CSR order */
        @R@ acc[B > 0 ? B : 1];
        long long b, j;
        for (b = 0; b < B; b++) {
            acc[b] = load[i * B + b];
        }
        for (j = lo; j < hi; j++) {
            const @R@ s = signs[j];
            const @R@ *row = act + edges[j] * B;
            for (b = 0; b < B; b++) {
                acc[b] = acc[b] + s * row[b];
            }
        }
        for (b = 0; b < B; b++) {
            load[i * B + b] = acc[b];
        }
    }
}

/* Record-round reductions.  Serial on purpose: every sum accumulates in
   node (or edge) order in the array dtype — the order of numpy's axis-0
   reductions over a C-contiguous (rows, B > 1) plane — so thread count
   can never change a recorded value. */

void record_metrics_@S@(
    long long B, const @R@ *load, const @R@ *targets, long long trow,
    long long tcol, long long lo, long long hi, const int *eu, const int *ev,
    long long elo, long long ehi, @R@ *out, const @R@ *consts)
{
    /* out rows: max dev, min dev, sum dev^2, min load, total over nodes
       [lo, hi); max |x_u - x_v| over edges [elo, ehi).  An empty range
       leaves its rows untouched. */
    const @R@ zero = consts[0];
    @R@ *mx = out, *mn = out + B, *sq = out + 2 * B;
    @R@ *ml = out + 3 * B, *tot = out + 4 * B, *mld = out + 5 * B;
    long long i, e, b;
    if (hi > lo) {
        for (b = 0; b < B; b++) {
            const @R@ d = load[lo * B + b] - targets[lo * trow + b * tcol];
            mx[b] = d;
            mn[b] = d;
            sq[b] = zero;
            ml[b] = load[lo * B + b];
            tot[b] = zero;
        }
        for (i = lo; i < hi; i++) {
            const @R@ *x = load + i * B;
            const @R@ *t = targets + i * trow;
            for (b = 0; b < B; b++) {
                const @R@ v = x[b];
                const @R@ d = v - t[b * tcol];
                mx[b] = (d > mx[b]) ? d : mx[b];
                mn[b] = (d < mn[b]) ? d : mn[b];
                sq[b] = sq[b] + d * d;
                ml[b] = (v < ml[b]) ? v : ml[b];
                tot[b] = tot[b] + v;
            }
        }
    }
    if (ehi > elo) {
        for (b = 0; b < B; b++) {
            mld[b] = @FABS@(load[(long long)eu[elo] * B + b]
                            - load[(long long)ev[elo] * B + b]);
        }
        for (e = elo; e < ehi; e++) {
            const @R@ *xu = load + (long long)eu[e] * B;
            const @R@ *xv = load + (long long)ev[e] * B;
            for (b = 0; b < B; b++) {
                const @R@ a = @FABS@(xu[b] - xv[b]);
                mld[b] = (a > mld[b]) ? a : mld[b];
            }
        }
    }
}

void apply_info_@S@(
    long long n, long long B, long long m, const long long *indptr,
    const int *edges, const @R@ *signs,
    const @R@ *act, @R@ *load, @R@ *info, const @R@ *consts)
{
    /* info rows: min transient load - (sum|act| - delta) * 0.5 over nodes,
       traffic sum|act| over edges.  delta and sum|act| start from zero and
       add in CSR order, as the numpy tier's D @ act and W @ |act| do, and
       the load then takes load + delta. */
    const @R@ zero = consts[0];
    const @R@ half = consts[3];
    @R@ delta[B > 0 ? B : 1];
    @R@ outg[B > 0 ? B : 1];
    @R@ *mn = info, *traffic = info + B;
    long long i, j, e, b;
    for (i = 0; i < n; i++) {
        for (b = 0; b < B; b++) {
            delta[b] = zero;
            outg[b] = zero;
        }
        for (j = indptr[i]; j < indptr[i + 1]; j++) {
            const @R@ s = signs[j];
            const @R@ *row = act + (long long)edges[j] * B;
            for (b = 0; b < B; b++) {
                delta[b] = delta[b] + s * row[b];
                outg[b] = outg[b] + @FABS@(row[b]);
            }
        }
        for (b = 0; b < B; b++) {
            const @R@ x = load[i * B + b];
            const @R@ t = x - (outg[b] - delta[b]) * half;
            mn[b] = (i == 0 || t < mn[b]) ? t : mn[b];
            load[i * B + b] = x + delta[b];
        }
    }
    for (b = 0; b < B; b++) {
        traffic[b] = zero;
    }
    for (e = 0; e < m; e++) {
        const @R@ *row = act + e * B;
        for (b = 0; b < B; b++) {
            traffic[b] = traffic[b] + @FABS@(row[b]);
        }
    }
}
"""

_VARIANTS = {
    "f64": {
        "@R@": "double", "@TRUNC@": "trunc", "@CEIL@": "ceil",
        "@FABS@": "fabs",
    },
    "f32": {
        "@R@": "float", "@TRUNC@": "truncf", "@CEIL@": "ceilf",
        "@FABS@": "fabsf",
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

_CDEF = _instantiate(_DECL_TEMPLATE) + _THREADS_DECL
_SOURCE = (
    "#include <math.h>\n" + _instantiate(_BODY_TEMPLATE) + _THREADS_BODY
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


def _load_or_build():
    key = hashlib.sha1(
        (_SOURCE + _CDEF + " ".join(_BASE_FLAGS)).encode()
    ).hexdigest()[:16]
    modname = f"_repro_kern_{key}"
    cache = _cache_dir()
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
    try:
        last_error = None
        for openmp in (True, False):
            ffi = cffi.FFI()
            ffi.cdef(_CDEF)
            args = _BASE_FLAGS + (["-fopenmp"] if openmp else [])
            ffi.set_source(
                modname, _SOURCE,
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
#: dtype char -> (symbol suffix, (dtype, cffi array type)) of the reals
_REALS = {
    "d": ("f64", (np.dtype(np.float64), "double[]")),
    "f": ("f32", (np.dtype(np.float32), "float[]")),
}
_STEMS = (
    "round_edges", "excess_counts", "excess_dispatch", "apply_flows",
    "record_metrics", "apply_info",
)


class CffiKernels:
    """Thin buffer-marshalling wrapper around the compiled extension.

    Every array argument reaches C through :meth:`_p`, which checks its
    dtype and C-contiguity, then hands over ``ffi.from_buffer`` (a view
    of the array's own bytes that keeps the array alive for the call).
    ``from_buffer`` sees raw bytes only, so this guard is what stops a
    float32 plane being read as ``double *`` or a strided view as a dense
    one; its error message is built only when a check fails.  Extent
    checks (:meth:`_check`) guard the record passes and the dispatch
    scratch.  The entry points of both precisions are resolved once, here.
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
        fn(
            n, B, int(m), int(dmax), p(adj_edges, _INT32),
            p(adj_signs, _INT8), p(fsg, r), p(counts, _INT64),
            p(totals, _INT64), p(consts, r),
        )
        return counts

    def excess_dispatch(
        self, adj_edges, adj_signs, dmax, m, fsg, counts, uni, uoff, act,
        cums, consts,
    ):
        fn, r = self._fn("excess_dispatch", fsg.dtype)
        p = self._p
        n, B = counts.shape
        self._check(cums.size >= max(dmax, 1) * max(B, 1), "cums size")
        fn(
            n, B, int(m), int(dmax), p(adj_edges, _INT32),
            p(adj_signs, _INT8), p(fsg, r), p(counts, _INT64),
            p(uni, r), p(uoff, _INT64), p(act, r), p(cums, r), p(consts, r),
        )
        return act

    def apply_flows(self, indptr, edges, signs, act, load):
        fn, r = self._fn("apply_flows", load.dtype)
        p = self._p
        n, B = load.shape
        fn(
            n, B, p(indptr, _INT64), p(edges, _INT32), p(signs, r),
            p(act, r), p(load, r),
        )
        return load

    @staticmethod
    def _check(ok: bool, what: str) -> None:
        """Refuse a buffer the C side would index out of bounds."""
        if not ok:
            raise ValueError(f"cffi kernel argument: {what}")

    def record_metrics(
        self, load, targets, lo, hi, eu, ev, elo, ehi, out, consts,
    ):
        fn, r = self._fn("record_metrics", load.dtype)
        p = self._p
        n, B = load.shape
        rows, cols = targets.shape
        self._check(rows in (1, n) and cols in (1, B), "targets shape")
        self._check(out.shape == (6, B) and consts.size >= 4, "out/consts shape")
        self._check(0 <= lo <= hi <= n, "node range")
        self._check(0 <= elo <= ehi <= min(eu.size, ev.size), "edge range")
        fn(
            B, p(load, r), p(targets, r),
            cols if rows > 1 else 0, 1 if cols > 1 else 0, int(lo), int(hi),
            p(eu, _INT32), p(ev, _INT32), int(elo), int(ehi),
            p(out, r), p(consts, r),
        )
        return out

    def apply_info(self, indptr, edges, signs, act, load, info, consts):
        fn, r = self._fn("apply_info", load.dtype)
        p = self._p
        n, B = load.shape
        self._check(
            indptr.dtype == np.int64 and indptr.size == n + 1
            and edges.size == signs.size == indptr[-1],
            "incidence CSR shape",
        )
        self._check(act.shape[1] == B and info.shape == (2, B)
                    and consts.size >= 4, "act/info/consts shape")
        fn(
            n, B, act.shape[0], p(indptr, _INT64), p(edges, _INT32),
            p(signs, r), p(act, r), p(load, r), p(info, r), p(consts, r),
        )
        return load


def make_provider() -> CffiKernels:
    return CffiKernels(_load_or_build())
