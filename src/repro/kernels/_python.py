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
    def _slots(adj_edges, adj_signs, dmax, act):
        """Per slot ``j`` of the padded adjacency, every node's incidence
        sign ``-adj_signs`` (an ``(n, 1)`` column) and ``act`` row; a
        padding slot pairs -0.0 with a zero row, which adds -0.0 and
        changes no sum.  Summed slot by slot, each node's rows add in CSR
        order."""
        n = adj_edges.size // dmax
        pad = np.concatenate([act, np.zeros((1, act.shape[1]), act.dtype)])
        edges = adj_edges.reshape(n, dmax)
        signs = adj_signs.reshape(n, dmax)
        for j in range(dmax):
            yield -signs[:, j, None].astype(act.dtype), pad[edges[:, j]]

    def apply_flows(self, adj_edges, adj_signs, dmax, m, act, load):
        acc = load
        for s, rows in self._slots(adj_edges, adj_signs, dmax, act):
            acc = acc + s * rows
        load[...] = acc
        return load

    # ------------------------------------------------------------------
    @staticmethod
    def _running_sum(x, zero):
        """Per-column sum of ``x`` added row by row from ``zero`` — the
        compiled providers' order (``np.add.accumulate`` is sequential,
        where ``x.sum(axis=0)`` goes pairwise for a single column)."""
        head = np.full((1, x.shape[1]), zero, dtype=x.dtype)
        return np.add.accumulate(np.concatenate([head, x]), axis=0)[-1]

    def record_walk(
        self, adj_edges, adj_signs, dmax, eu, act, load, targets, tile,
        metrics, mld, info, out, consts,
    ):
        n = load.shape[0]
        zero = consts[0]
        if act is not None:
            # delta = D @ act and outgoing = W @ |act|, each from zero
            delta = outgoing = np.full_like(load, zero)
            for s, rows in self._slots(adj_edges, adj_signs, dmax, act):
                delta = delta + s * rows
                outgoing = outgoing + np.abs(rows)
            info[0] = (load - (outgoing - delta) * consts[3]).min(axis=0)
            info[1] = self._running_sum(np.abs(act), zero)
            np.add(load, delta, out=load)
        if metrics:
            for lo in range(0, n, tile):
                x = load[lo:lo + tile]
                dev = x - (targets[lo:lo + tile] if targets.shape[0] > 1
                           else targets)
                part = (
                    dev.max(axis=0), dev.min(axis=0),
                    self._running_sum(dev * dev, zero), x.min(axis=0),
                    self._running_sum(x, zero),
                )
                if lo == 0:
                    out[:5] = part
                    continue
                np.maximum(out[0], part[0], out=out[0])
                np.minimum(out[1], part[1], out=out[1])
                np.add(out[2], part[2], out=out[2])
                np.minimum(out[3], part[3], out=out[3])
                np.add(out[4], part[4], out=out[4])
        if mld:
            # each edge at its v endpoint: |x_u - x_v|
            v, j = np.nonzero(adj_signs.reshape(n, dmax) < 0)
            diff = load[eu[adj_edges.reshape(n, dmax)[v, j]]] - load[v]
            out[5] = np.abs(diff).max(axis=0, initial=zero)
        return out


def make_provider() -> PythonKernels:
    return PythonKernels()
