"""Pure numpy/python provider of the kernel API (reference tier).

Exists so the kernel orchestration — mode/coefficient resolution, the
per-replica stream each token draws from (node-ascending within a
replica), the padded-adjacency token walk, the sequential apply order —
can be validated on any machine with no compiler and no optional
dependency.  Every expression mirrors the C provider operation for
operation, so it is bit-identical to it and to the engine's own numpy
tier (for which it is *not* a speedup: the token/apply loops are plain
python, fine at test sizes only).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided


class PythonKernels:
    """Array-at-a-time reference implementation of the provider API."""

    name = "python"
    compiled = False

    # ------------------------------------------------------------------
    def round_edges(
        self, eu, ev, load, speeds, flows, act, fsg,
        alpha, ar, ac, beta, bm1, bs, mode, consts,
    ):
        m, B = act.shape
        it = alpha.dtype.itemsize
        av = as_strided(alpha, shape=(m, B), strides=(ar * it, ac * it))
        bit = beta.dtype.itemsize
        bv = as_strided(beta, shape=(B,), strides=(bs * bit,))
        bm1v = as_strided(bm1, shape=(B,), strides=(bs * bit,))
        nu = load[eu]
        nv = load[ev]
        if speeds is not None and speeds.size:
            nu = nu / speeds[eu][:, None]
            nv = nv / speeds[ev][:, None]
        if mode == 2:
            # Fused-operator order: acc = flows*bm1, then +c*nu, then +(-c)*nv
            # — exactly the csr_matvecs accumulation over E_alpha[_beta],
            # whose row e holds (+c_e, -c_e).
            s = flows * bm1v
            s = s + av * nu
            s = s + (-av) * nv
        else:
            d = (nu - nv) * av
            if mode == 1:
                d = d * bv
                s = flows * bm1v + d
            else:
                s = d
        # randomized-excess: signed base + fractional parts (s is a fresh
        # array, so fsg may be flows)
        np.trunc(s, out=act)
        np.subtract(s, act, out=fsg)
        return act

    # ------------------------------------------------------------------
    @staticmethod
    def _slot_fractions(adj_edges, adj_signs, dmax, m, fsg):
        """Per-slot outgoing fractions ``p`` of the padded adjacency.

        ``p = max(fsg, 0)`` when the node is the edge's u endpoint,
        ``max(fsg, 0) - fsg`` when it is v, ``0`` on padding — the exact
        P/N-block values the numpy tier gathers from its ``pn`` planes.
        """
        n = adj_edges.size // dmax
        B = fsg.shape[1]
        dtype = fsg.dtype
        sl_e = adj_edges.reshape(n, dmax)
        sl_s = adj_signs.reshape(n, dmax)
        fsg_pad = np.concatenate([fsg, np.zeros((1, B), dtype=dtype)], axis=0)
        f = fsg_pad[sl_e]  # (n, dmax, B); the padding slot e == m reads 0.0
        p = np.maximum(f, dtype.type(0.0))
        neg = sl_s < 0
        p[neg] = p[neg] - f[neg]
        return p

    def excess_counts(
        self, adj_edges, adj_signs, dmax, m, fsg, counts, totals, consts,
    ):
        n, B = counts.shape
        dtype = fsg.dtype
        p = self._slot_fractions(adj_edges, adj_signs, dmax, m, fsg)
        # Explicit slot loop: the surplus accumulates in ascending slot
        # order (padding adds +0.0 — value-identical to skipping it).
        cum = np.zeros((n, B), dtype=dtype)
        for j in range(dmax):
            np.add(cum, p[:, j], out=cum)
        c = np.ceil(cum - consts[2])
        counts[...] = c.astype(np.int32)
        totals[...] = counts.sum(axis=0, dtype=np.int64)
        return counts

    @staticmethod
    def bind_generators(rngs):
        return tuple(rngs)

    def excess_dispatch(
        self, adj_edges, adj_signs, dmax, m, fsg, counts, rngs, act, cums,
        consts,
    ):
        n, B = counts.shape
        dtype = fsg.dtype
        sl_e = adj_edges.reshape(n, dmax)
        sl_s = adj_signs.reshape(n, dmax)
        p = self._slot_fractions(adj_edges, adj_signs, dmax, m, fsg)
        for b in range(B):
            for i in range(n):
                k = int(counts[i, b])
                if k <= 0:
                    continue
                cums = np.empty(dmax, dtype=dtype)
                cum = dtype.type(0.0)
                for j in range(dmax):
                    cum = cum + p[i, j, b]
                    cums[j] = cum
                c = dtype.type(k)  # ceil(cum - tol), as excess_counts rounded it
                # the node's k uniforms, next in replica b's own stream
                for u in rngs[b].random(k, dtype=dtype):
                    target = u * c
                    pos = int(np.count_nonzero(cums <= target))
                    if pos < dmax:  # otherwise the token stays home
                        act[sl_e[i, pos], b] += dtype.type(sl_s[i, pos])
        return act

    # ------------------------------------------------------------------
    @staticmethod
    def _incidences(adj_edges, adj_signs, dmax, m, i, dtype):
        """Node ``i``'s ``(edge, incidence sign)`` pairs in CSR order: its
        padded slots up to the trailing padding (``e == m``), each signed
        ``-adj_sign`` (``-1`` at the edge's u endpoint, ``+1`` at v)."""
        for j in range(i * dmax, (i + 1) * dmax):
            e = int(adj_edges[j])
            if e == m:
                return
            yield e, -dtype.type(adj_signs[j])

    def apply_flows(self, adj_edges, adj_signs, dmax, m, act, load):
        n = load.shape[0]
        walk = (adj_edges, adj_signs, dmax, m)
        for i in range(n):
            acc = load[i].copy()
            for e, s in self._incidences(*walk, i, load.dtype):
                acc += s * act[e]
            load[i] = acc
        return load

    # ------------------------------------------------------------------
    @staticmethod
    def _running_sum(x, zero):
        """Per-column sum of ``x`` added row by row from ``zero`` — the
        compiled providers' order (``np.add.accumulate`` is sequential,
        where ``x.sum(axis=0)`` goes pairwise for a single column)."""
        head = np.full((1, x.shape[1]), zero, dtype=x.dtype)
        return np.add.accumulate(np.concatenate([head, x]), axis=0)[-1]

    def record_metrics(
        self, load, targets, lo, hi, eu, ev, elo, ehi, out, consts,
    ):
        if hi > lo:
            x = load[lo:hi]
            dev = x - (targets[lo:hi] if targets.shape[0] > 1 else targets)
            out[0] = dev.max(axis=0)
            out[1] = dev.min(axis=0)
            out[2] = self._running_sum(dev * dev, consts[0])
            out[3] = x.min(axis=0)
            out[4] = self._running_sum(x, consts[0])
        if ehi > elo:
            diff = load[eu[elo:ehi]] - load[ev[elo:ehi]]
            out[5] = np.abs(diff).max(axis=0)
        return out

    def apply_info(
        self, adj_edges, adj_signs, dmax, m, act, load, info, consts,
    ):
        n, B = load.shape
        walk = (adj_edges, adj_signs, dmax, m)
        delta = np.empty_like(load)
        outgoing = np.empty_like(load)
        absf = np.abs(act)
        for i in range(n):
            d = np.full(B, consts[0], dtype=load.dtype)
            o = d.copy()
            for e, s in self._incidences(*walk, i, load.dtype):
                d = d + s * act[e]
                o = o + absf[e]
            delta[i] = d
            outgoing[i] = o
        info[0] = (load - (outgoing - delta) * consts[3]).min(axis=0)
        info[1] = self._running_sum(absf, consts[0])
        np.add(load, delta, out=load)
        return load


def make_provider() -> PythonKernels:
    return PythonKernels()
