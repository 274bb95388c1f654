"""Vectorised batched-replica engine: ``B`` independent runs per numpy step.

The engine keeps the whole ensemble as two matrices — loads ``(n, B)`` and
oriented edge flows ``(m, B)``, one replica per column — and advances every
replica simultaneously with CSR edge-wise kernels:

* the per-edge load difference ``x_u - x_v`` is one sparse matmul
  ``E @ load`` with ``E[k] = +1 at edge_u[k], -1 at edge_v[k]`` (bit-exact
  with the gather/subtract formulation because ``edge_u < edge_v`` keeps the
  CSR accumulation in the same order),
* applying flows is ``load += D @ act`` with ``D = +1 at (edge_v, k),
  -1 at (edge_u, k)``,
* per-node outgoing totals (negative-load tracking, Section V) come from the
  identity ``outgoing = (W @ |act| - D @ act) / 2`` with ``W`` the unsigned
  incidence operator — no extra scatter pass.

FOS, SOS, rounding, per-replica hybrid switching and the Section VI metrics
are all vectorised across the batch.  Hybrid switching uses the algebraic
fact that FOS is SOS with ``beta = 1`` (``(1-1)*y + 1*gradient`` is exactly
the gradient in IEEE arithmetic), so a per-replica beta row vector lets
individual replicas switch mid-run without masking.

For the deterministic roundings (floor / nearest / ceil) every elementwise
operation reproduces the reference engine's expression tree, so integral
traces agree *bit for bit* — the cross-engine equivalence suite enforces
this.  Randomised roundings draw from the same distributions (Observation 1
of the paper) but consume per-replica spawned streams
(:func:`~repro.engines.base.rounding_stream`, keyed by the replica's
``replica_keys`` identity, default its global batch index), so they match
the reference statistically, not stream for stream — while every replica's
trajectory is independent of the batch composition, which is what lets the
engine split a batch across worker processes (``config.workers`` /
``config.pool``) bit-identically.
"""

from __future__ import annotations

import logging
import math

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional

import numpy as np

from ..exceptions import ConfigurationError, SchemeError, SimulationError
from ..core.alphas import resolve_alphas
from ..core.churn import (
    apply_handoffs,
    masked_dynamic_values,
    masked_static_values,
    remap_flows,
    resolve_churn,
)
from ..core.records import (
    DYNAMIC_FLOAT_FIELDS,
    FLOAT_FIELDS,
    StreamingStats,
)
from ..core.rounding import _FRAC_TOL, make_rounding
from ..core.spectral import (
    fwht,
    hypercube_wht_eigenvalues,
    torus_rfft_eigenvalues,
)
from ..graphs.speeds import uniform_speeds, validate_speeds
from ..graphs.topology import Topology
from ..kernels import ensure_warm, resolve_kernel

from .base import (
    ArrivalBatch,
    Engine,
    EngineConfig,
    RecordBatch,
    ResolvedReplicaParams,
    StepBatch,
    apply_load_scales,
    as_load_batch,
    check_in_process,
    check_regime,
    register_engine,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_record_fields,
    resolve_replica_params,
    resolve_rounding_rngs,
    resolve_tile_size,
    uniform_plane_value,
)
from .capabilities import check_config

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = ["BatchedVectorEngine"]

logger = logging.getLogger(__name__)

#: Fields whose per-round computation needs the full transient/traffic pass.
_INFO_FIELDS = ("min_transient", "round_traffic")


def _tiles(total: int, tile: int) -> List[tuple]:
    """Half-open ``[a, b)`` ranges covering ``0..total`` in ``tile`` steps."""
    return [(a, min(a + tile, total)) for a in range(0, max(total, 0), tile)]


def _small_uint(limit: int):
    """The narrowest unsigned dtype holding ``0..limit`` (int64 past uint16)."""
    for dtype in (np.uint8, np.uint16):
        if limit <= np.iinfo(dtype).max:
            return dtype
    return np.int64


class _TokenScratch:
    """Token-sized buffers, grown on demand and reused across rounds.

    A fresh per-round temporary of a few hundred KiB is returned to the
    OS when freed and faulted in again next round; a reused buffer is
    faulted in once.  Buffers carry 25% slack, so a round only slightly
    larger than the last one reuses them too.
    """

    def __init__(self) -> None:
        self._bufs: Dict[str, np.ndarray] = {}

    def get(self, name: str, size: int, dtype) -> np.ndarray:
        buf = self._bufs.get(name)
        if buf is None or buf.size < size:
            buf = self._bufs[name] = np.empty(size + size // 4 + 64, dtype=dtype)
        return buf[:size]

    def arange(self, size: int) -> np.ndarray:
        buf = self._bufs.get("arange")
        if buf is None or buf.size < size:
            buf = self._bufs["arange"] = np.arange(size)
        return buf[:size]


def _draw_grouped(rngs: List[np.random.Generator], counts, out: np.ndarray) -> None:
    """Fill ``out`` replica after replica with ``counts[b]`` uniforms of
    ``rngs[b]``.  A zero count draws nothing, so every stream advances by
    exactly its own replica's token count, whatever the batch around it."""
    off = 0
    for rng, cnt in zip(rngs, counts):
        cnt = int(cnt)
        if cnt:
            rng.random(dtype=out.dtype, out=out[off : off + cnt])
            off += cnt


def _excess_token_slots(
    src: np.ndarray,
    slot_take,
    tiles: List[tuple],
    planes: np.ndarray,
    rngs: List[np.random.Generator],
    frac_tol: float,
    scratch: _TokenScratch,
) -> Optional[tuple]:
    """Dispatch the excess tokens of every sender (Observation 1).

    ``src`` is a ``(rows, B)`` outgoing-fraction plane whose padding rows
    are zero; ``slot_take[j][i]`` is the row of node ``i``'s ``j``-th
    outgoing slot (a padding row past its degree).  Per node tile, the
    slot fractions are gathered into ``dmax`` cumulative planes (``planes``
    holds ``(dmax, >= tile, B)``), whose last plane is the surplus ``r``;
    each sender emits ``c = ceil(r - frac_tol)`` tokens, and each token
    draws one uniform scaled to ``[0, c)`` and lands on the first slot
    whose cumulative fraction exceeds it, or stays home past ``r``.  A
    zero-width slot can never strictly contain a draw, so sub-tolerance
    fuzz needs no cleanup.

    Replica ``b``'s tokens draw from ``rngs[b]`` in node order, tile after
    tile, so the tile split and the batch around a replica never change
    its stream.  Returns each moved token's padded slot ``node * dmax + j``
    and its replica column, node-major, or None when no token moved; the
    caller maps slots onto its edges or arcs.
    """
    dmax = len(slot_take)
    B = src.shape[1]
    dtype = src.dtype
    pos_dtype = _small_uint(dmax)
    slots: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    # Every gather index is in range; mode="clip" keeps np.take from
    # buffering ``out`` as the default mode="raise" does.
    for a, b in tiles:
        k = b - a
        pl = planes[:, :k]
        np.take(src, slot_take[0][a:b], axis=0, out=pl[0], mode="clip")
        for j in range(1, dmax):
            np.take(src, slot_take[j][a:b], axis=0, out=pl[j], mode="clip")
            np.add(pl[j], pl[j - 1], out=pl[j])
        # c is exactly 0 (well, -0.0) for senders with no surplus.
        c = scratch.get("budget", k * B, dtype)
        np.subtract(pl[dmax - 1].ravel(), frac_tol, out=c)
        np.ceil(c, out=c)
        counts = scratch.get("counts", k * B, np.int64)
        np.copyto(counts, c, casting="unsafe")
        tok = np.repeat(scratch.arange(k * B), counts)
        T = tok.size
        if T == 0:
            continue
        target = scratch.get("target", T, dtype)
        gather = scratch.get("gather", T, dtype)
        key = scratch.get("key", T, _small_uint(B - 1))  # replica column
        np.remainder(tok, B, out=key, casting="unsafe")
        if B == 1:
            _draw_grouped(rngs, (T,), target)
        else:
            # Tokens are node-major; a stable sort on the small column key
            # (a radix sort for 8/16-bit keys) groups them by replica with
            # node order kept, and each replica's uniforms land there.
            order = np.argsort(key, kind="stable")
            _draw_grouped(rngs, counts.reshape(k, B).sum(axis=0), gather)
            target[order] = gather
        np.multiply(target, np.take(c, tok, out=gather, mode="clip"), out=target)
        # slot index = number of cumulative planes <= target
        pos = scratch.get("pos", T, pos_dtype)
        np.less_equal(
            np.take(pl[0].ravel(), tok, out=gather, mode="clip"), target, out=pos
        )
        le = scratch.get("le", T, np.bool_)
        for j in range(1, dmax):
            np.take(pl[j].ravel(), tok, out=gather, mode="clip")
            np.add(pos, np.less_equal(gather, target, out=le), out=pos)
        moved = np.flatnonzero(np.less(pos, dmax, out=le))  # the rest stay home
        if moved.size:
            node = tok[moved]
            np.floor_divide(node, B, out=node)
            node += a
            node *= dmax
            node += pos[moved]
            slots.append(node)
            cols.append(key[moved])
    if not slots:
        return None
    if len(slots) == 1:
        return slots[0], cols[0]
    return np.concatenate(slots), np.concatenate(cols)


#: Roundings that act on each scheduled flow alone (see _round_elementwise).
_ELEMENTWISE_ROUNDINGS = ("floor", "nearest", "ceil", "unbiased-edge")


def _round_elementwise(
    rounding: str,
    sched: np.ndarray,
    out: np.ndarray,
    scratch: np.ndarray,
    rngs: List[np.random.Generator],
) -> np.ndarray:
    """Round a ``(rows, B)`` schedule plane flow by flow into ``out``.

    One of :data:`_ELEMENTWISE_ROUNDINGS`; each acts on ``|x|`` and puts
    the sign back, so a flow and its reverse round alike: floor is
    ``trunc``, nearest is ``rint`` (symmetric), ceil is
    ``copysign(ceil|x|, x)``, and ``unbiased-edge`` adds one to
    ``floor|x|`` with probability ``{|x|}``, drawing ``rows`` uniforms from
    ``rngs[b]`` for column ``b``.  ``scratch`` is a free plane of the same
    shape; ``out`` may be ``sched`` itself when ``sched >= +0.0``.
    """
    if rounding == "floor":
        return np.trunc(sched, out=out)
    if rounding == "nearest":
        return np.rint(sched, out=out)
    absf = np.abs(sched, out=scratch)
    if rounding == "ceil":
        np.ceil(absf, out=absf)
        return np.copysign(absf, sched, out=out)
    np.floor(absf, out=out)
    np.subtract(absf, out, out=absf)  # fractional parts
    rows = sched.shape[0]
    for b, rng in enumerate(rngs):  # one stream per replica
        col = absf[:, b]
        np.less(rng.random(rows, dtype=out.dtype), col, out=col)
    np.add(out, absf, out=out)  # absf now holds the 0/1 up-steps
    return np.copysign(out, sched, out=out)


def _incidence_dirs(topo: Topology) -> np.ndarray:
    """Per CSR incidence of ``topo`` (int8): ``+1`` when the node is its
    edge's ``u`` endpoint (below its neighbour), ``-1`` when it is ``v``."""
    node = np.repeat(np.arange(topo.n), topo.degrees)
    return np.where(node < topo.adj_indices, 1, -1).astype(np.int8)


def _padded_adjacency(topo: Topology, dirs: Optional[np.ndarray] = None) -> tuple:
    """``(dmax, adj_edges, adj_signs)``: node ``i``'s ``j``-th incident edge
    (int32, ``m`` past its degree) and its direction (int8: +1 when ``i`` is
    the edge's ``u`` endpoint, -1 when it is ``v``, 0 for padding), both
    ``(n, dmax)``.  Row ``i`` is CSR row ``i`` in order, padding trailing;
    ``dirs`` are :func:`_incidence_dirs` of ``topo`` when the caller has
    them."""
    n, m = topo.n, topo.m_edges
    dmax = int(topo.degrees.max())
    filled = np.arange(dmax) < topo.degrees[:, None]  # row-major = CSR order
    adj_edges = np.full((n, dmax), m, dtype=np.int32)
    adj_signs = np.zeros((n, dmax), dtype=np.int8)
    adj_edges[filled] = topo.adj_edge_ids
    adj_signs[filled] = _incidence_dirs(topo) if dirs is None else dirs
    return dmax, adj_edges, adj_signs


def _cached(cache: Optional[Dict], key, build, slot=None):
    """``cache[key]``, built by ``build()`` on a miss (afresh, and not
    kept, without a cache or with a ``None`` key).  With a ``slot`` the
    value lives at ``cache[slot]`` and a key miss replaces it, so a sweep
    over the key keeps one entry, not one per key."""
    if cache is None or key is None:
        return build()
    if slot is None:
        if key not in cache:
            cache[key] = build()
        return cache[key]
    held = cache.get(slot)
    if held is None or held[0] != key:
        held = cache[slot] = (key, build())
    return held[1]


def _slot_take(adj_edges: np.ndarray, adj_signs: np.ndarray, m: int) -> list:
    """Outgoing-fraction gather rows per slot plane (int64): a slot routes
    to the P block (positive fsg) when the node is the edge's u endpoint,
    to the N block (negative fsg) when it is v, and to the always-zero
    padding row otherwise."""
    edges = adj_edges.astype(np.int64)
    return [
        np.where(
            adj_signs[:, j] > 0,
            edges[:, j],
            np.where(adj_signs[:, j] < 0, edges[:, j] + (m + 1), m),
        )
        for j in range(adj_edges.shape[1])
    ]


def _node_metrics(
    load: np.ndarray,
    targets: np.ndarray,
    fields,
    scratch: np.ndarray,
    node_tiles: List[tuple],
) -> tuple:
    """Requested node-space record metrics plus the per-replica totals.

    The reductions stream over node tiles with ``scratch`` bounded to
    ``(tile, B)``; a dense run is the one tile ``[(0, n)]``.  Min/max
    reductions decompose over tiles exactly.  Sums add per-tile partials
    into a running total, which regroups the additions: the result equals
    the one-tile sum exactly only while every partial sum is exactly
    representable — integral loads under a discrete rounding, with totals
    below ``2**53`` (``2**24`` in float32).  The potential
    ``(x - target)**2`` is non-integral whenever a target is fractional
    (a non-divisible total, non-uniform speeds, ``config.targets``), and
    so are the loads of the continuous ``identity`` process; those sums
    agree across tile widths to accumulation accuracy only.  Totals are
    always computed — they feed the conservation check — but stored only
    when requested.
    """
    n = load.shape[0]
    B = load.shape[1]
    dtype = load.dtype
    broadcast_targets = targets.shape[0] != n
    mx = np.full(B, -np.inf, dtype=dtype)
    mn = np.full(B, np.inf, dtype=dtype)
    pot = np.zeros(B, dtype=dtype)
    mload = np.full(B, np.inf, dtype=dtype)
    totals = np.zeros(B, dtype=dtype)
    want_dev = any(
        f in fields for f in ("max_minus_avg", "min_minus_avg", "potential_per_node")
    )
    for a, b in node_tiles:
        k = b - a
        tile_load = load[a:b]
        if want_dev:
            t = targets if broadcast_targets else targets[a:b]
            dev = np.subtract(tile_load, t, out=scratch[:k])
            if "max_minus_avg" in fields:
                np.maximum(mx, dev.max(axis=0), out=mx)
            if "min_minus_avg" in fields:
                np.minimum(mn, dev.min(axis=0), out=mn)
            if "potential_per_node" in fields:
                np.multiply(dev, dev, out=dev)
                pot += dev.sum(axis=0)
        if "min_load" in fields:
            np.minimum(mload, tile_load.min(axis=0), out=mload)
        totals += tile_load.sum(axis=0)
    return _metric_values(fields, n, mx, mn, pot, mload, totals)


def _metric_values(fields, n: int, mx, mn, pot, mload, totals) -> tuple:
    """The requested node metrics from their per-replica reductions
    (``pot`` is the sum of squared deviations), plus the totals."""
    reduced = {
        "max_minus_avg": mx,
        "min_minus_avg": mn,
        "potential_per_node": pot / n,
        "min_load": mload,
        "total_load": totals,
    }
    return {k: v for k, v in reduced.items() if k in fields}, totals

#: scipy's ``csr_matvecs``, resolved by the first :func:`_csr_dot` call;
#: ``False`` when scipy's internals have moved.
_csr_matvecs = None


def _csr_dot(
    matrix: sp.csr_matrix,
    x: np.ndarray,
    out: np.ndarray,
    accumulate: bool = False,
    rows: Optional[tuple] = None,
) -> np.ndarray:
    """``out [+]= matrix[a:b] @ x`` for the row block ``rows = (a, b)``
    (every row by default), without allocating the result or copying
    the block: each row accumulates exactly as in the whole product."""
    global _csr_matvecs
    if _csr_matvecs is None:
        try:
            from scipy.sparse._sparsetools import csr_matvecs as _csr_matvecs
        except ImportError:  # pragma: no cover - scipy internals moved
            _csr_matvecs = False
    a, b = rows if rows is not None else (0, matrix.shape[0])
    if not _csr_matvecs:  # pragma: no cover - scipy internals moved
        block = matrix if rows is None else matrix[a:b]
        if accumulate:
            out += block @ x
        else:
            out[...] = block @ x
        return out
    if not accumulate:
        out.fill(0.0)
    _csr_matvecs(
        b - a,
        matrix.shape[1],
        x.shape[1],
        matrix.indptr[a : b + 1],
        matrix.indices,
        matrix.data,
        x.ravel(),
        out.ravel(),
    )
    return out


def _max_local_diff(
    E: sp.csr_matrix, load: np.ndarray, edge_tiles: List[tuple], scratch
) -> np.ndarray:
    """Per-replica max local load difference ``max |E @ load|``.

    One CSR row block of ``E`` per edge tile, written into ``scratch``
    (at least the widest tile's rows).  Row ``k`` computes
    ``(+1 * x_u) + (-1 * x_v)``, exactly ``x_u - x_v`` in IEEE arithmetic,
    and max decomposes over tiles exactly, so every tiling gives the same
    bits.
    """
    mx = np.full(load.shape[1], -np.inf, dtype=load.dtype)
    for a, b in edge_tiles:
        diff = _csr_dot(E, load, scratch[: b - a], rows=(a, b))
        np.abs(diff, out=diff)
        np.maximum(mx, diff.max(axis=0), out=mx)
    return mx


def _difference_operator(topo: Topology, dtype) -> sp.csr_matrix:
    """``E``: the per-edge difference, entries ordered (+1 @ eu, -1 @ ev)."""
    import scipy.sparse as sp

    m = topo.m_edges
    return sp.csr_matrix(
        (
            np.tile(np.array([1.0, -1.0], dtype=dtype), m),
            np.column_stack([topo.edge_u, topo.edge_v]).ravel()
            if m else np.empty(0, np.int64),
            2 * np.arange(m + 1),
        ),
        shape=(m, topo.n),
    )


def _scaled_difference(E: sp.csr_matrix, coef: np.ndarray) -> sp.csr_matrix:
    """``E`` with row ``k`` scaled by ``coef[k]`` (a one-entry ``coef``
    scales every row): entries ``(+c @ eu, -c @ ev)`` on ``E``'s own index
    arrays."""
    import scipy.sparse as sp

    data = np.empty_like(E.data)
    data[0::2] = coef
    data[1::2] = np.negative(data[0::2])
    return sp.csr_matrix((data, E.indices, E.indptr), shape=E.shape)


def _fused_coef(alphas, scale: float, dtype) -> np.ndarray:
    """The fused schedule's per-edge coefficients ``alpha_e * scale``,
    multiplied in float64 and then cast to ``dtype``: one entry for a
    scalar alpha, else one per edge."""
    coef = np.multiply(alphas, scale, dtype=np.float64)
    return np.atleast_1d(coef).astype(dtype)


def _incidence_operators(
    topo: Topology, dtype, dirs: Optional[np.ndarray] = None
) -> tuple:
    """``(D, W)``: the signed incidence (``-1`` at ``(edge_u, k)``, ``+1``
    at ``(edge_v, k)``) and its unsigned twin, both ``(n, m)`` CSR on the
    topology's own CSR adjacency (its rows list edge ids in ascending
    order, so no COO assembly or index sort is needed).  ``dirs`` are
    :func:`_incidence_dirs` of ``topo`` when the caller has them."""
    import scipy.sparse as sp

    shape = (topo.n, topo.m_edges)
    if dirs is None:
        dirs = _incidence_dirs(topo)
    sign = np.negative(dirs).astype(dtype)
    D = sp.csr_matrix((sign, topo.adj_edge_ids, topo.adj_indptr), shape=shape)
    W = sp.csr_matrix((np.ones_like(sign), D.indices, D.indptr), shape=shape)
    return D, W


def _assemble_diffusion(
    topo: Topology, alphas: np.ndarray, speeds: np.ndarray, dtype,
    with_identity: bool,
) -> sp.csr_matrix:
    """Shared CSR assembly of the diffusion operator family.

    Off-diagonal ``+alpha_uv/s_v`` per neighbour; diagonal
    ``with_identity - sum(alpha_k)/s_u`` over incident edges — ``1`` for
    the folded diffusion matrix ``M``, ``0`` for the increment operator
    ``K = M - I``.
    """
    import scipy.sparse as sp

    n, m = topo.n, topo.m_edges
    eu, ev = topo.edge_u, topo.edge_v
    alpha_edge = np.asarray(alphas, dtype=np.float64)
    if alpha_edge.ndim == 0:
        alpha_edge = np.full(m, float(alpha_edge))
    incident = np.bincount(eu, weights=alpha_edge, minlength=n) + np.bincount(
        ev, weights=alpha_edge, minlength=n
    )
    diag = (1.0 if with_identity else 0.0) - incident / speeds
    rows = np.concatenate([eu, ev, np.arange(n)])
    cols = np.concatenate([ev, eu, np.arange(n)])
    data = np.concatenate([alpha_edge / speeds[ev], alpha_edge / speeds[eu], diag])
    matrix = sp.coo_matrix((data, (rows, cols)), shape=(n, n)).tocsr()
    matrix.sort_indices()
    return matrix.astype(dtype)


def _diffusion_matrix(
    topo: Topology, alphas: np.ndarray, speeds: np.ndarray, dtype
) -> sp.csr_matrix:
    """The folded diffusion matrix ``M = I + D A E S^{-1}`` as one CSR —
    the whole identity-rounding round ``x <- x + D @ (A E S^{-1} x)`` is
    a single ``(n, B)`` matmul."""
    return _assemble_diffusion(topo, alphas, speeds, dtype, with_identity=True)


def _gradient_matrix(
    topo: Topology, alphas: np.ndarray, speeds: np.ndarray, dtype
) -> sp.csr_matrix:
    """The balancing increment operator ``K = D A E S^{-1}`` as one CSR.

    ``K x`` is the per-round load *delta* of the continuous process
    (``M = I + K``), which is what lets per-replica alpha scales blend
    ``x + c_b * (K x)`` with a single shared matmul instead of one folded
    diffusion matrix per replica.
    """
    return _assemble_diffusion(topo, alphas, speeds, dtype, with_identity=False)


def _check_conserved(totals, expected, tol, round_index: int) -> None:
    """Raise :class:`SimulationError` when a replica's total load drifted.

    A replica fails when ``|totals - expected| > tol * max(1, |expected|)``;
    the message names the first failing replica and the round.
    """
    drift = np.abs(totals - expected)
    bad = drift > tol * np.maximum(1.0, np.abs(expected))
    if bad.any():
        b = int(np.argmax(bad))
        raise SimulationError(
            f"load not conserved in replica {b} by round {round_index}: "
            f"expected {expected[b]}, got {totals[b]}"
        )


def _record_targets(config, totals, speeds, dtype) -> np.ndarray:
    """Static record targets: ``config.targets``, else each replica's
    ``totals * s / sum(s)`` as a node plane.  With equal speeds every
    node's target is bitwise the same number: one shared row, no
    ``(n, B)`` plane."""
    if config.targets is not None:
        return np.asarray(config.targets, dtype=dtype)[:, None]
    rows = 1 if np.all(speeds == speeds[0]) else speeds.size
    s = speeds[:rows, None].astype(dtype)
    return ((totals[None, :] * s) / speeds.sum()).astype(dtype, copy=False)


def _width_plane(arr: np.ndarray, axis: int, width: int, cap: int, buf=None):
    """An uninitialised plane shaped like ``arr`` with ``width`` entries
    along ``axis``, carved from ``buf`` when it holds ``cap`` of them (a
    fresh buffer of that size otherwise), so a batch that widens step by
    step reuses one block instead of fragmenting the heap."""
    shape = list(arr.shape)
    shape[axis] = cap
    full = math.prod(shape)
    if buf is None or buf.size < full:
        buf = np.empty(full, dtype=arr.dtype)
    shape[axis] = width
    return buf.reshape(-1)[: full // cap * width].reshape(shape)


def _take_plane(arr: np.ndarray, idx: np.ndarray, axis: int, cap: int):
    """``arr`` re-indexed along ``axis`` by the in-range ``idx``, in a
    fresh :func:`_width_plane` buffer."""
    out = _width_plane(arr, axis, idx.size, cap)
    return np.take(arr, idx, axis=axis, out=out, mode="clip")


class _RecordStore:
    """Record storage of one run in the columnar :class:`RecordBatch`
    layout, shared by the batched engine (edge-wise and closed-form) and
    the staleness engine.

    A static store keeps the :data:`FLOAT_FIELDS` columns plus one scheme
    code per row and replica, a dynamic one the
    :data:`DYNAMIC_FLOAT_FIELDS`; either as dense ``(rows, B)`` float64
    columns (columns outside ``record_fields`` stay NaN) or, under
    ``record_mode="summary"``, as :class:`StreamingStats`.  Static stores
    also keep the ``keep_loads`` snapshots.
    """

    def __init__(self, config: EngineConfig, width: int, dynamic: bool):
        self.dynamic = dynamic
        names = DYNAMIC_FLOAT_FIELDS if dynamic else FLOAT_FIELDS
        #: the columns actually recorded
        self.fields = (
            names if dynamic else resolve_record_fields(config.record_fields)
        )
        self.count = 0
        self.stats: Optional[StreamingStats] = None
        if config.record_mode == "summary":
            self.stats = StreamingStats(self.fields, width)
        else:
            # config.rounds sizes the first allocation; the prepare()/step()
            # protocol may advance past it (see _next_row).
            rows = (
                config.rounds if dynamic
                else config.rounds // config.record_every + 2
            )
            self.rounds = np.empty(rows, dtype=np.int64)
            self.schemes = (
                None if dynamic else np.empty((rows, width), dtype=np.uint8)
            )
            self.cols: Dict[str, np.ndarray] = {}
            for name in names:
                col = np.empty((rows, width))
                if name not in self.fields:
                    col.fill(np.nan)
                self.cols[name] = col
        self.loads_history: Optional[List[np.ndarray]] = (
            [] if config.keep_loads and not dynamic else None
        )

    def _next_row(self) -> int:
        """Index of the next dense row, doubling the storage when full."""
        i = self.count
        if i < self.rounds.shape[0]:
            return i
        size = max(2 * i, 1)

        def grow(a: np.ndarray) -> np.ndarray:
            # np.resize repeats the old rows, so all-NaN (excluded)
            # columns stay all-NaN.
            return np.resize(a, (size,) + a.shape[1:])

        self.rounds = grow(self.rounds)
        if self.schemes is not None:
            self.schemes = grow(self.schemes)
        self.cols = {k: grow(v) for k, v in self.cols.items()}
        return i

    def append(self, round_index: int, values, scheme=None, loads=None) -> None:
        """Record one round: ``values[name]`` is the ``(B,)`` row of every
        recorded field, ``scheme`` the static row's per-replica (or one)
        scheme code and ``loads`` the ``(B, n)`` loads, copied under
        ``keep_loads``."""
        if self.stats is not None:
            self.stats.update(round_index, values)
        else:
            i = self._next_row()
            for name, value in values.items():
                self.cols[name][i] = value
            self.rounds[i] = round_index
            if self.schemes is not None:
                self.schemes[i] = scheme
        self.count += 1
        if self.loads_history is not None:
            self.loads_history.append(loads.copy())

    def take(self, idx: np.ndarray, cap: int) -> None:
        """Re-index the records so far along the replica axis (see
        :meth:`_BatchedHandle.take_columns`)."""
        if self.stats is not None:
            self.stats = self.stats.take(idx)
        else:
            self.cols = {
                k: _take_plane(v, idx, 1, cap) for k, v in self.cols.items()
            }
            self.schemes = _take_plane(self.schemes, idx, 1, cap)
        if self.loads_history is not None:
            self.loads_history = [x[idx] for x in self.loads_history]

    def batch(self, views: bool, scheme_last=None, **finals) -> RecordBatch:
        """The records as a :class:`RecordBatch` with the final state
        ``finals`` attached: views of the storage when ``views`` (the run
        ends with the call), copies otherwise.  ``scheme_last`` is the
        static summary's per-replica scheme code."""
        if self.dynamic:
            if self.stats is not None:
                return RecordBatch(dynamic_summary_stats=self.stats, **finals)
            return RecordBatch(
                dynamic_round_index=self._rows(self.rounds, views),
                dynamic_columns={
                    k: self._rows(v, views) for k, v in self.cols.items()
                },
                **finals,
            )
        if self.stats is not None:
            return RecordBatch(
                summary_stats=self.stats,
                scheme_last=scheme_last,
                loads_history=self.loads_history,
                **finals,
            )
        return RecordBatch(
            round_index=self._rows(self.rounds, views),
            scheme_codes=self._rows(self.schemes, views),
            columns={k: self._rows(v, views) for k, v in self.cols.items()},
            loads_history=self.loads_history,
            **finals,
        )

    def _rows(self, arr: np.ndarray, views: bool) -> np.ndarray:
        rows = arr[: self.count]
        return rows if views else rows.copy()


@dataclass
class _SwitchState:
    """Vectorised hybrid-switch policy state."""

    kind: Optional[str] = None
    args: tuple = ()
    phi_hist: Optional[np.ndarray] = None  # (window, B) ring buffer
    phi_count: int = 0


class _BatchedHandle:
    """All state of one batched run: replicas, operators, scratch buffers."""

    def __init__(
        self,
        topo: Topology,
        config: EngineConfig,
        loads: np.ndarray,
        params: Optional[ResolvedReplicaParams] = None,
        churn_plan=None,
        op_cache: Optional[Dict] = None,
    ):
        n, m = topo.n, topo.m_edges
        # Pool workers hand in a per-topology operator cache so repeated
        # calls on the same graph skip the CSR/adjacency builds.  The
        # cached operators are never written to after construction; churn
        # runs rebuild operators mid-run and skip the cache entirely.
        if churn_plan is not None:
            op_cache = None
        B = loads.shape[0]
        self.config = config
        self.n_replicas = B
        #: the widest batch so far (take_columns sizes its buffers to it)
        self.width_cap = B
        self.round_index = 0
        #: whether metrics() may hand out views of the final planes (set
        #: by the fused loops, whose handle dies with the call)
        self.final_views = False
        dtype = np.float32 if config.precision == "float32" else np.float64
        self.dtype = dtype
        #: churn run state: the resolved plan, the live-node mask of the
        #: current topology segment, and the last round whose patch lookup
        #: already happened (patches apply before that round's arrivals).
        self.churn_plan = churn_plan
        if churn_plan is not None:
            self.churn_active = churn_plan.active0
            self.churn_active_idx = churn_plan.active0_idx
            self.churn_patched_through = 0
        #: fuzz tolerance for the excess-token machinery, precision-scaled
        self.frac_tol = _FRAC_TOL if dtype == np.float64 else 1e-5
        #: relative conservation tolerance (float32 accumulates more drift)
        self.conserve_tol = 1e-6 if dtype == np.float64 else 1e-4
        #: compiled kernel provider of the discrete hot loop (None = the
        #: numpy tier), resolved for this batch's shape (a shard worker's
        #: own columns); warmed here so JIT/compile cost lands in
        #: prepare(), never inside a measured round.  Churn runs pin the
        #: numpy tier without loading a provider: the compiled providers
        #: bake the edge arrays in at warm time.
        self.kernel = (
            None if churn_plan is not None else resolve_kernel(config, n, m, B)
        )
        if self.kernel is not None:
            ensure_warm(self.kernel)
        #: record rounds (metrics, transients, traffic) through the
        #: provider too.  Single-replica runs stay on numpy: numpy sums a
        #: single (rows, 1) column pairwise, the providers row by row.
        self.kern_records = self.kernel is not None and B > 1
        #: static record columns actually computed (dynamic runs ignore this)
        self.fields = resolve_record_fields(config.record_fields)
        #: whether any record round needs the transient/traffic pass
        self.info_fields = any(f in self.fields for f in _INFO_FIELDS)
        #: node-tile width of the streaming kernels (None = dense)
        excess_planes = (
            int(topo.degrees.max()) if config.rounding == "randomized-excess" and m
            else 0
        )
        self.tile = resolve_tile_size(
            config, n, B, np.dtype(dtype).itemsize, planes=excess_planes
        )
        #: rows of every node and edge tile: the tile width, or n — a
        #: dense run is one tile covering every node
        self.tile_rows = self.tile or n
        self.node_tiles = _tiles(n, self.tile_rows)
        # Unconditional copy: for B=1 a transposed (n, 1) view is still
        # flagged contiguous, and the engine must never mutate caller data.
        self.load = np.asarray(loads.T, dtype=dtype).copy(order="C")  # (n, B)
        self.flows = np.zeros((m, B), dtype=dtype)

        # -- substrate -------------------------------------------------
        speeds = validate_speeds(
            config.speeds if config.speeds is not None else uniform_speeds(n), n
        )
        self.uniform_speeds = bool(np.all(speeds == 1.0))
        #: the speed column of the non-uniform paths (None when uniform)
        self.speeds_col = (
            None if self.uniform_speeds else speeds[:, None].astype(dtype)
        )
        # -- per-replica parameter planes --------------------------------
        alpha_scales = params.alpha_scales if params is not None else None
        betas = params.betas if params is not None else None
        switch_rounds = params.switch_rounds if params is not None else None
        #: whether alphas / targets carry a replica axis (the column
        #: re-indexing must follow it)
        self.alpha_per_replica = alpha_scales is not None and m > 0
        self.targets_per_replica = config.targets is None
        self.scalar_beta = (
            config.switch is None
            and switch_rounds is None
            and (betas is None or bool(np.all(betas == betas[0])))
        )
        if betas is not None:
            self.beta_row = betas[None, :].astype(dtype).copy()
        else:
            self.beta_row = np.full(
                (1, B), config.beta if config.scheme == "sos" else 1.0,
                dtype=dtype,
            )
        self.sos_active = np.full(B, config.scheme == "sos")
        self.switched_at = np.full(B, -1, dtype=np.int64)
        self.last_switched = np.zeros(B, dtype=bool)

        self._build_operators(topo, speeds, alpha_scales, op_cache)
        if self.kernel is not None:
            # Flat buffers of the compiled provider: edge endpoints (the
            # padded adjacency carries the apply's incidence walk), per-node
            # speeds, and the dtype-pinned constants [0, 1, frac_tol, 0.5]
            # so no float literal enters the kernels at a foreign precision.
            self.kern_eu, self.kern_ev = _cached(
                op_cache, "kern_edges",
                lambda: (
                    np.ascontiguousarray(topo.edge_u, dtype=np.int32),
                    np.ascontiguousarray(topo.edge_v, dtype=np.int32),
                ),
            )
            self.kern_speeds = (
                None if self.uniform_speeds
                else np.ascontiguousarray(self.speeds_col.ravel())
            )
            self.kern_consts = np.array(
                [0.0, 1.0, self.frac_tol, 0.5], dtype=dtype
            )
            # Record-walk outputs (see repro.kernels): the metric rows and
            # the info rows.
            self.kern_rec = np.empty((6, B), dtype=dtype)
            self.kern_info = np.empty((2, B), dtype=dtype)
            self.kern_beta = np.ones(B, dtype=dtype)
            self.kern_bm1 = np.zeros(B, dtype=dtype)
            self._set_kern_alpha()

        # -- targets ----------------------------------------------------
        self.totals0 = self.load.sum(axis=0)  # (B,)
        self.targets = _record_targets(config, self.totals0, speeds, dtype)

        # -- switch policy ----------------------------------------------
        self.switch = _SwitchState()
        if config.switch is not None:
            kind, *args = config.switch
            self.switch = _SwitchState(kind=kind, args=tuple(args))
            if kind == "plateau":
                window = int(args[0]) if args else 50
                self.switch.phi_hist = np.zeros((window, B))
        elif switch_rounds is not None:
            # Per-replica fixed switch rounds: one column vector joining the
            # beta row — replica b compares its own round threshold (< 0
            # means "never"), exactly a per-column FixedRoundSwitch.
            self.switch = _SwitchState(kind="fixed-vec", args=(switch_rounds,))

        self.records = _RecordStore(config, B, config.arrivals is not None)
        self.last_recorded_round = -1

        # -- node-space scratch: one (tile rows, B) bank, all n rows in a
        #    dense run, read by the numpy step info and node metrics, the
        #    dynamic records and the arrival clamp ----------------------
        need_ts = not self.kern_records or config.arrivals is not None
        self.ts1, self.ts2, self.ts3 = (
            np.empty((self.tile_rows, B), dtype=dtype) if need_ts else None
            for _ in range(3)
        )
        # Full-width node scratch only where a kernel is not tileable:
        # the speed-normalised gradient input and the plateau policy.
        need_nb1 = not self.uniform_speeds or (
            config.switch is not None and config.switch[0] == "plateau"
        )
        self.nb1 = np.empty((n, B), dtype=dtype) if need_nb1 else None
        #: token-sized scratch of the numpy tier's excess dispatch, reused
        #: across rounds
        self.tokens = _TokenScratch()
        # One spawned rounding stream per replica, keyed by the replica's
        # identity (config.replica_keys, default its global batch index) —
        # trajectories never depend on the batch composition.
        self.rngs = resolve_rounding_rngs(config, B)
        if self.kernel is not None:
            # the streams as the compiled dispatch draws from them
            self.kern_rngs = self.kernel.bind_generators(self.rngs)

        #: round 0's is the loads' own minimum: over the live nodes under
        #: churn, else taken by the round-0 record (see _record_current)
        self.last_min_transient = (
            self.load[churn_plan.active0_idx].min(axis=0)
            if churn_plan is not None
            else None
        )
        self.last_traffic = np.zeros(B)
        self.last_mld: Optional[np.ndarray] = None

        # -- dynamic workload (per-round arrival hook) -------------------
        self.arrival_models = resolve_arrival_models(config.arrivals, B)
        #: per-replica arrival-rate scale row ((1, B), or None): multiplies
        #: the sampled delta plane before clamping — the same elementwise
        #: product the per-replica backends apply via ScaledArrivals.
        self.arrival_scale_row: Optional[np.ndarray] = None
        if params is not None and params.arrival_scales is not None:
            self.arrival_scale_row = params.arrival_scales[None, :].astype(dtype)
        if self.arrival_models is not None:
            if config.arrival_sampling == "batch":
                from ..core.dynamic import batch_arrival_stream

                if any(m_ is not self.arrival_models[0] for m_ in self.arrival_models):
                    raise ConfigurationError(
                        "arrival_sampling='batch' needs one shared arrival "
                        "model (per-replica model sequences sample per "
                        "replica by definition)"
                    )
                if config.arrival_seeds is not None:
                    raise ConfigurationError(
                        "arrival_seeds pin per-replica streams, which "
                        "arrival_sampling='batch' replaces with one shared "
                        "batch stream"
                    )
                self.arrival_rngs = None
                self.arrival_batch_rng = batch_arrival_stream(config.seed)
            else:
                self.arrival_rngs = resolve_arrival_rngs(config, B)
                self.arrival_batch_rng = None
            self.arrivals_applied = False
            self.last_arrival: Optional[ArrivalBatch] = None
            #: exact expected totals, advanced by every arrival application
            #: (token counts are integral, so float64 sums stay exact)
            self.expected_totals = self.load.sum(axis=0, dtype=np.float64)
            # arrival scratch: the sampled deltas stay a full (n, B) plane
            # (the model API fills whole columns); the clamping runs in the
            # tile bank.
            self.arr_deltas = np.empty((n, B), dtype=dtype)

    def _build_operators(
        self,
        topo: Topology,
        speeds: np.ndarray,
        alpha_scales: Optional[np.ndarray] = None,
        op_cache: Optional[Dict] = None,
    ) -> None:
        """Build the topology-shaped state of ``topo``: edge alphas, the
        fused schedule's coefficients, the excess-token adjacency and the
        edge scratch.  The CSR operators ``E``/``D``/``W`` are built on
        first use (:meth:`_operator`): only the numpy tier and
        single-replica compiled record rounds read them.

        ``__init__`` builds it for the run's topology; a churn patch
        rebuilds it for each new segment (churn runs use no operator
        cache, no replica planes and uniform speeds, and keep their
        node-space planes at the fixed universe size).
        """
        config, dtype, B = self.config, self.dtype, self.n_replicas
        n, m = topo.n, topo.m_edges
        self.topo = topo
        self.op_cache = op_cache
        #: this segment's values built on first use (see _operator)
        self.lazy: Dict[str, object] = {}
        self.edge_tiles = _tiles(m, self.tile_rows)
        # Cache key of the resolved alphas: the alpha spec under default
        # speeds; caller arrays, callables and speeds are never cached.
        spec = config.alphas
        akey = ("alphas", spec) if config.speeds is None and (
            spec is None or isinstance(spec, (str, int, float))
        ) else None

        def edge_alphas():
            # one alpha for every edge keeps only that one value
            a = resolve_alphas(config.alphas, topo, speeds)
            one = m == 0 or bool(np.all(a == a[0]))
            return (a[:1].copy() if one else a), one

        alphas, one_alpha = _cached(op_cache, akey, edge_alphas)
        if one_alpha:
            self.alphas = float(alphas[0]) if m else 1.0
        else:
            self.alphas = alphas[:, None].astype(dtype)
        if alpha_scales is not None and m:
            # Fold the per-replica scale into an alpha row/plane: the float64
            # product ``alpha_k * scale_b`` is exactly what the reference
            # engine's per-replica scheme computes, and multiplication
            # commutes bit for bit, so ``diff * (alpha * scale)`` matches
            # ``(alpha * scale) * diff`` replica for replica.
            if np.isscalar(self.alphas):
                self.alphas = (self.alphas * alpha_scales[None, :]).astype(dtype)
            else:
                self.alphas = (alphas[:, None] * alpha_scales[None, :]).astype(
                    dtype
                )

        # Fused schedule: the edge weights folded into the gradient — a
        # float-reassociation shortcut, used only where bitwise fidelity to
        # the reference is not part of the contract (statistical roundings,
        # the continuous identity process, and float32 mode).  The numpy
        # tier folds ``alpha_e * scale`` into ``E``'s data, the compiled
        # tier reads the same coefficients as a row (one entry under
        # uniform alphas); scale 1 opens the run, scale beta follows.
        self.fused_sched = m > 0 and alpha_scales is None and (
            dtype == np.float32
            or config.rounding in ("randomized-excess", "unbiased-edge", "identity")
        )
        if self.fused_sched:
            alpha_edge = self.alphas if np.isscalar(self.alphas) else alphas
            compiled = self.kernel is not None
            form = "alpha_coef" if compiled else "E_alpha"

            def build(scale):
                coef = _fused_coef(alpha_edge, scale, dtype)
                return coef if compiled else _scaled_difference(self.E, coef)

            ekey = None if akey is None else (form, np.dtype(dtype).char, spec)
            self.fused = [_cached(op_cache, ekey, lambda: build(1.0)), None]
            if self.scalar_beta:  # the only runs that read the beta form
                beta = float(self.beta_row[0, 0])
                self.fused[1] = _cached(
                    op_cache, None if ekey is None else ekey + (beta,),
                    lambda: build(beta), slot="E_alpha_beta",
                )

        # -- padded adjacency for the excess-token machinery (the compiled
        #    apply walks it too) ----------------------------------------
        if config.rounding == "randomized-excess" and m:
            dmax, adj_edges, adj_signs = _cached(
                op_cache, "adj",
                lambda: _padded_adjacency(topo, self._segment_dirs()),
            )
            self.dmax = dmax
            self.adj_edges = adj_edges.ravel()
            self.adj_signs = adj_signs.ravel()
            if self.kernel is not None:
                # Compiled excess path: the token-count buffers replace the
                # numpy tier's P/N blocks and cumulative planes — the
                # dominant scratch allocation of large-n discrete runs
                # disappears entirely.
                # A budget is below dmax: int32 holds it.
                self.kern_counts = np.empty((n, B), dtype=np.int32)
                self.kern_totals = np.empty(B, dtype=np.int64)
                # The dispatch's cumulative slot fractions of one node,
                # every replica: heap scratch, since dmax * B of them
                # overflow a C stack on a hub node with a wide batch.
                self.kern_cums = np.empty((dmax, B), dtype=dtype)
            else:
                self.slot_take = _cached(
                    op_cache, "slot_take",
                    lambda: _slot_take(adj_edges, adj_signs, m),
                )
                # P/N blocks: rows [0, m) positive parts, row m zero padding,
                # rows [m+1, 2m+1) negative parts, row 2m+1 zero padding.
                self.pn = np.zeros((2 * (m + 1), B), dtype=dtype)
                # cumulative outgoing fractions per slot plane, one node
                # tile at a time: (dmax, tile rows, B) — the dominant
                # scratch allocation of large-n discrete runs.
                self.cum_planes = np.empty(
                    (dmax, self.tile_rows, B), dtype=dtype
                )
        if self.kern_records:
            self.lazy.pop("dirs", None)  # no D will be built from them

        # -- edge-space scratch: inherent state of the discrete process
        #    (the flow history and per-edge actuals), plus the planes of
        #    the numpy schedule (mb1) and of the numpy step info, the
        #    elementwise roundings and the excess fractions (mb2).  The
        #    compiled round writes its fractions over the spent flows. ----
        self.mb1 = np.empty((m, B), dtype=dtype) if self.kernel is None else None
        self.mb2 = None if self.kern_records else np.empty((m, B), dtype=dtype)
        self.act = np.empty((m, B), dtype=dtype)

    def _operator(self, name: str, build, cached: bool = True):
        """This segment's ``name``, built by ``build()`` on first use — taken
        from the operator cache under ``(name, dtype)`` when ``cached`` —
        and kept until the next :meth:`_build_operators`."""
        if name not in self.lazy:
            key = (name, np.dtype(self.dtype).char) if cached else None
            self.lazy[name] = _cached(self.op_cache, key, build)
        return self.lazy[name]

    def _segment_dirs(self) -> np.ndarray:
        """:func:`_incidence_dirs` of the segment, computed once for the
        padded adjacency and ``D`` alike."""
        return self._operator(
            "dirs", lambda: _incidence_dirs(self.topo), cached=False
        )

    @property
    def E(self) -> sp.csr_matrix:
        """The per-edge difference operator (see :func:`_difference_operator`)."""
        return self._operator(
            "E", lambda: _difference_operator(self.topo, self.dtype)
        )

    @property
    def D(self) -> sp.csr_matrix:
        """The signed incidence (see :func:`_incidence_operators`)."""
        return self._incidence_pair()[0]

    @property
    def W(self) -> sp.csr_matrix:
        """The unsigned incidence (see :func:`_incidence_operators`)."""
        return self._incidence_pair()[1]

    def _incidence_pair(self) -> tuple:
        return self._operator(
            "DW",
            lambda: _incidence_operators(
                self.topo, self.dtype, self._segment_dirs()
            ),
        )

    def _set_kern_alpha(self) -> None:
        """The compiled tier's flat alpha buffer and its element strides."""
        if np.isscalar(self.alphas):
            self.kern_alpha = (np.full(1, self.alphas, dtype=self.dtype), 0, 0)
        else:
            # alphas is (m, 1), (1, B) or (m, B); element strides mirror
            # the numpy broadcast: alpha[e, b] = flat[e * ar + b * ac].
            rows, cols = self.alphas.shape
            flat = np.ascontiguousarray(self.alphas, dtype=self.dtype).ravel()
            self.kern_alpha = (
                flat, cols if rows > 1 else 0, 1 if cols > 1 else 0
            )

    #: per-replica state, copied column by column: attribute -> replica axis
    _STATE_AXES = {
        "load": 1, "flows": 1, "beta_row": 1,
        "sos_active": 0, "switched_at": 0, "last_switched": 0, "totals0": 0,
        "last_min_transient": 0, "last_traffic": 0, "last_mld": 0,
    }
    #: per-replica scratch, re-shaped at the new width
    _SCRATCH_AXES = {
        "mb1": 1, "mb2": 1, "act": 1,
        "nb1": 1, "ts1": 1, "ts2": 1, "ts3": 1,
        "pn": 1, "cum_planes": 2, "kern_rec": 1, "kern_info": 1,
        "kern_beta": 0, "kern_bm1": 0, "kern_counts": 1,
        "kern_totals": 0, "kern_cums": 1,
    }

    def take_columns(self, idx) -> None:
        """Re-index every per-replica array along its replica axis.

        Column ``j`` of the result is column ``idx[j]`` now: loads, flows,
        switch state, rounding generator (a repeated column gets a clone of
        its generator, so the copies draw the same stream independently)
        and the records so far.  Scratch is re-shaped at the new width.
        Static runs without churn only.

        Every plane sits in a buffer sized for the widest batch so far:
        scratch keeps its buffer, and state is gathered into a buffer of
        that one size, so a run that widens step by step reuses freed
        blocks instead of fragmenting the heap.
        """
        if self.arrival_models is not None or self.churn_plan is not None:
            raise SimulationError(
                "take_columns needs a static run without churn"
            )
        idx = np.asarray(idx, dtype=np.int64)
        # The gathers below clip (no buffered copy), so check the range here.
        if idx.ndim != 1 or idx.size == 0 or not (
            0 <= idx.min() and idx.max() < self.n_replicas
        ):
            raise SimulationError(
                f"take_columns needs column indices in [0, {self.n_replicas})"
            )
        B = idx.size
        cap = self.width_cap = max(self.width_cap, B)

        def gather(arr, axis):
            return _take_plane(arr, idx, axis, cap)

        for name, axis in self._STATE_AXES.items():
            arr = getattr(self, name, None)
            if arr is not None:
                setattr(self, name, gather(arr, axis))
        for name, axis in self._SCRATCH_AXES.items():
            arr = getattr(self, name, None)
            if arr is not None:
                owner = arr if arr.base is None else arr.base
                setattr(self, name, _width_plane(arr, axis, B, cap, owner))
        if getattr(self, "pn", None) is not None:
            self.pn.fill(0.0)  # the P/N block's padding rows must read zero
        if self.alpha_per_replica:
            self.alphas = gather(self.alphas, 1)
            if self.kernel is not None:
                self._set_kern_alpha()
        if self.targets_per_replica:
            self.targets = gather(self.targets, 1)
        self.records.take(idx, cap)
        sw = self.switch
        if sw.kind == "fixed-vec":
            sw.args = (sw.args[0][idx],)
        if sw.phi_hist is not None:
            sw.phi_hist = gather(sw.phi_hist, 1)
        seen = set()
        rngs = []
        for i in idx.tolist():
            rngs.append(_clone_rng(self.rngs[i]) if i in seen else self.rngs[i])
            seen.add(i)
        self.rngs = rngs
        if self.kernel is not None:
            self.kern_rngs = self.kernel.bind_generators(rngs)
        self.n_replicas = B


#: Seeds the throwaway initial state of a cloned bit generator.
_CLONE_SEED = np.random.SeedSequence(0)


def _clone_rng(rng: np.random.Generator) -> np.random.Generator:
    """An independent generator at ``rng``'s current state: it draws what
    ``rng`` would draw next.  Copies the bit generator's state, about five
    times cheaper than ``copy.deepcopy``, which pickles the generator."""
    bit_generator = type(rng.bit_generator)(_CLONE_SEED)
    bit_generator.state = rng.bit_generator.state
    return np.random.Generator(bit_generator)


def _same_column(plane: np.ndarray, a: int, b: int) -> bool:
    """Whether columns ``a`` and ``b`` of ``plane`` are equal bit for bit
    (so -0.0 and 0.0 differ, as they may in a trajectory)."""
    return plane[:, a].tobytes() == plane[:, b].tobytes()


class _TwinPlan:
    """Step each twin group of a switch sweep once.

    Twins are columns with the same rounding-stream key, initial load
    column, beta and alpha scale, differing only in their fixed switch
    round: until a column's switch fires they are one trajectory bit for
    bit.  A group runs as one leader column (the one switching last, or
    never); every other switch round of the group forks off the leader
    just before the round whose switch check fires it, and columns that
    fire in the same round (or never) share one column for the whole run.
    :meth:`finish` puts the columns back in caller order.
    """

    def __init__(self, plane, rep_of, start, forks):
        #: the caller's switch-round plane
        self.plane = plane
        #: caller column -> the caller column whose trajectory it shares
        self.rep_of = rep_of
        self.start_cols = start
        #: round -> [(leader, follower)] caller columns forked before it
        self.forks = forks
        #: caller column -> its live column (representatives only)
        self.pos: Dict[int, int] = {}

    def start(self, h: _BatchedHandle) -> None:
        h.take_columns(self.start_cols)
        for j, c in enumerate(self.start_cols):
            self.pos.setdefault(c, j)

    def before_round(self, h: _BatchedHandle, r: int) -> None:
        pairs = self.forks.get(r)
        if not pairs:
            return
        w = h.n_replicas
        h.take_columns(
            list(range(w)) + [self.pos[leader] for leader, _ in pairs]
        )
        for j, (_, follower) in enumerate(pairs):
            h.switch.args[0][w + j] = self.plane[follower]
            self.pos[follower] = w + j

    def finish(self, h: _BatchedHandle) -> None:
        h.take_columns([self.pos[c] for c in self.rep_of])
        h.switch.args = (self.plane,)


def _plan_twins(h: _BatchedHandle, config: EngineConfig) -> Optional[_TwinPlan]:
    """The twin plan of a prepared run, or None when no column has a twin
    (or the run keeps per-round loads: those are never shared)."""
    keys = config.replica_keys
    if (
        keys is None  # the default keys are the distinct batch positions
        or h.switch.kind != "fixed-vec"
        or h.records.loads_history is not None
        or h.churn_plan is not None
        or h.arrival_models is not None
        or len(set(int(k) for k in keys)) == len(keys)
    ):
        return None
    B, rounds = h.n_replicas, config.rounds
    plane = h.switch.args[0]
    # The round whose switch check fires a column (rounds + 1: none does).
    # The check runs after every round, so switch round 0 fires after 1.
    if config.scheme == "sos":
        fire = np.where(
            (plane >= 0) & (plane <= rounds), np.maximum(plane, 1), rounds + 1
        ).tolist()
    else:
        fire = [rounds + 1] * B
    betas = h.beta_row[0]
    firsts: List[int] = []  # first caller column of each group
    reps: List[Dict[int, int]] = []  # per group: fire round -> column
    by_sig: Dict[tuple, List[int]] = {}
    rep_of = []
    for b in range(B):
        sig = (int(keys[b]), betas[b].tobytes())
        for g in by_sig.get(sig, ()):
            a = firsts[g]
            if _same_column(h.load, a, b) and (
                not h.alpha_per_replica or _same_column(h.alphas, a, b)
            ):
                break
        else:
            g = len(firsts)
            firsts.append(b)
            reps.append({})
            by_sig.setdefault(sig, []).append(g)
        rep_of.append(reps[g].setdefault(fire[b], b))
    if len(firsts) == B:
        return None
    start: List[int] = []
    forks: Dict[int, List[tuple]] = {}
    for group in reps:
        members = sorted(group.items())
        leader = members[-1][1]
        start.append(leader)
        for f, c in members[:-1]:
            if f <= 1:
                start.append(c)
            else:
                forks.setdefault(f, []).append((leader, c))
    if len(start) < 2:
        # A lone column would change numpy's reductions (one contiguous
        # column sums pairwise, wider planes row by row): keep two.
        if forks:
            first = min(forks)
            start.append(forks[first].pop(0)[1])
            if not forks[first]:
                del forks[first]
        else:
            start.append(start[0])
    return _TwinPlan(plane, rep_of, start, forks)


@register_engine
class BatchedVectorEngine(Engine):
    """All replicas at once through CSR edge-wise numpy kernels.

    With an ``operator_cache`` (an ordinary dict; pool workers and
    ``perfbench`` set one) a warm call reuses the CSR operators, padded
    adjacency, resolved alphas, fused ``E_alpha`` (compiled tier: its
    coefficient row) and compiled edge arrays, keyed by dtype and alpha
    spec, and the beta-scaled fused form from one slot keyed by beta too;
    explicit alpha/speed arrays, callables and churn are never cached.
    A compiled batch of two or more replicas builds no CSR operator at
    all.  Load, flow and scratch planes, rng streams and targets are built
    per call.
    """

    name = "batched"

    def prepare(self, topo, config, initial_loads) -> _BatchedHandle:
        config.validate()
        check_config(config, self.name)
        if config.scheme == "sos" and not 0.0 < config.beta < 2.0:
            raise SchemeError(f"beta must be in (0, 2), got {config.beta}")
        make_rounding(config.rounding)  # validate the key early
        if config.fast_path in ("matmul", "spectral"):
            # The closed-form tiers live in the fused run() loop; a forced
            # fast path through the step-by-step protocol would silently run
            # edge-wise, so refuse it here (fast_path="auto" steps edge-wise
            # by design).
            raise ConfigurationError(
                f"fast_path={config.fast_path!r} runs through engine.run(); "
                "the prepare()/step() protocol is always edge-wise"
            )
        loads = as_load_batch(initial_loads, topo.n)
        check_in_process(config, loads.shape[0], self.name)
        params = resolve_replica_params(config.replica_params, loads.shape[0])
        loads = apply_load_scales(loads, params)
        plan = resolve_churn(topo, config)
        if plan is not None:
            if config.kernel not in ("auto", "numpy"):
                raise ConfigurationError(
                    f"kernel={config.kernel!r} does not support churn (the "
                    "compiled providers bake the edge arrays in at warm "
                    "time); use kernel='auto' or 'numpy'"
                )
            loads_univ = np.zeros((loads.shape[0], plan.n_univ))
            loads_univ[:, : topo.n] = loads
            h = _BatchedHandle(
                plan.topo0, config, loads_univ, None, churn_plan=plan
            )
        else:
            h = _BatchedHandle(
                topo, config, loads, params, op_cache=self.operator_cache
            )
        if h.arrival_models is None:
            self._record_current(h)
        return h

    # ==================================================================
    # topology churn
    # ==================================================================
    def _maybe_churn(self, h: _BatchedHandle) -> None:
        """Apply the pending topology patch for the upcoming round, once.

        Mirrors the reference engine exactly: handoffs first (still on the
        outgoing topology's node set), then the flow remap (new edges start
        with zero flow memory), then the operator rebuild against the new
        live topology.  Idempotent per round — ``arrive()`` and the
        advance loop may both call it.
        """
        plan = h.churn_plan
        if plan is None:
            return
        r = h.round_index + 1
        if h.churn_patched_through >= r:
            return
        h.churn_patched_through = r
        patch = plan.patch_at(r)
        if patch is None:
            return
        apply_handoffs(h.load, patch.handoffs)
        h.flows = remap_flows(h.flows, patch.edge_map)
        h.churn_active = patch.active
        h.churn_active_idx = patch.active_idx
        h._build_operators(patch.topo, uniform_speeds(patch.topo.n))

    # ==================================================================
    # per-round kernel
    # ==================================================================
    def _advance(self, h: _BatchedHandle, want_info: bool) -> None:
        """One synchronous round for every replica.

        ``want_info`` additionally computes the round's per-replica transient
        minima and traffic (needed on record rounds, the final round, and
        protocol-level ``step()`` calls); the fused ensemble loop skips them
        elsewhere, exactly like the classic simulator discards unrecorded
        step info.
        """
        config = h.config
        self._maybe_churn(h)
        load, flows = h.load, h.flows

        # -- dynamic arrivals (auto-applied when the hook wasn't called) ---
        if h.arrival_models is not None and not h.arrivals_applied:
            self._apply_arrivals(h)

        # -- scheduled flows (Yhat) + rounding -----------------------------
        if h.kernel is not None:
            # Compiled tier: one fused pass does schedule + rounding without
            # materialising the intermediate (m, B) planes; bit-identical to
            # the numpy branches below (see _kernel_round).
            act = self._kernel_round(h)
        else:
            if h.uniform_speeds:
                norm = load
            else:
                norm = np.divide(load, h.speeds_col, out=h.nb1)
            if h.fused_sched and (h.round_index == 0 or h.scalar_beta):
                # Fused form: scale flows in place, then accumulate the
                # weighted gradient straight out of the CSR operator.
                # Bitwise this reorders the float products, which only
                # statistical roundings may do; round 0 uses the
                # plain-alpha operator (FOS opener).
                if h.round_index == 0:
                    _csr_dot(h.fused[0], norm, flows, accumulate=True)
                else:
                    beta = float(h.beta_row[0, 0])
                    np.multiply(flows, beta - 1.0, out=flows)
                    _csr_dot(h.fused[1], norm, flows, accumulate=True)
                sched = flows
            else:
                diff = _csr_dot(h.E, norm, h.mb1)  # x_u/s_u - x_v/s_v per edge
                np.multiply(diff, h.alphas, out=diff)  # gradient
                if h.round_index == 0:
                    # Both schemes open with a plain FOS round.
                    sched = diff
                elif h.scalar_beta:
                    beta = float(h.beta_row[0, 0])
                    np.multiply(diff, beta, out=diff)
                    np.multiply(flows, beta - 1.0, out=flows)
                    np.add(flows, diff, out=flows)
                    sched = flows
                else:
                    np.multiply(diff, h.beta_row, out=diff)
                    np.multiply(flows, h.beta_row - 1.0, out=flows)
                    np.add(flows, diff, out=flows)
                    sched = flows

            # -- rounding --------------------------------------------------
            act = self._round_flows(h, sched)

        # -- step info (transients / traffic), then apply ------------------
        record = (
            h.arrival_models is None
            and (h.round_index + 1) % config.record_every == 0
        )
        walked = h.kern_records and (want_info or record)
        if walked:
            # One serial walk of the padded adjacency: the apply, the step
            # info and a record round's metrics, bit-identical to the
            # numpy passes below and _record_current's.
            self._walk(h, act, record, record and "max_local_diff" in h.fields)
            if want_info:
                h.last_min_transient = h.kern_info[0].copy()
                h.last_traffic = h.kern_info[1].copy()
        elif want_info:
            absf = np.abs(act, out=h.mb2)
            h.last_traffic = absf.sum(axis=0)
            mins = np.full(h.n_replicas, np.inf, dtype=h.dtype)
            for a, b in h.node_tiles:
                k = b - a
                delta = _csr_dot(h.D, act, h.ts1[:k], rows=(a, b))
                outgoing = _csr_dot(h.W, absf, h.ts2[:k], rows=(a, b))
                np.subtract(outgoing, delta, out=outgoing)
                np.multiply(outgoing, 0.5, out=outgoing)
                transient = np.subtract(load[a:b], outgoing, out=outgoing)
                if h.churn_plan is not None:  # churn never tiles
                    transient = transient[h.churn_active_idx]
                np.minimum(mins, transient.min(axis=0), out=mins)
                np.add(load[a:b], delta, out=load[a:b])
            h.last_min_transient = mins
        elif h.kernel is not None:
            # Compiled apply over the padded adjacency, whose rows are D's
            # CSR rows in order: the same per-row sequential accumulation
            # as csr_matvecs — bit-identical, without scipy's per-call
            # overhead.
            h.kernel.apply_flows(
                h.adj_edges, h.adj_signs, h.dmax, h.topo.m_edges, act, load
            )
        else:
            for a, b in h.node_tiles:
                _csr_dot(h.D, act, load[a:b], accumulate=True, rows=(a, b))
        h.round_index += 1
        if act is h.act:
            h.flows, h.act = h.act, h.flows
        # (identity rounding leaves act aliased to sched == flows: no swap)

        # -- record --------------------------------------------------------
        if h.arrival_models is not None:
            self._record_dynamic(h)
            h.arrivals_applied = False
        elif record:
            self._record_current(h, walked)

        # -- hybrid switch (checked after recording, like the simulator) ---
        if h.switch.kind is not None:
            self._check_switch(h)

    def _kernel_round(self, h: _BatchedHandle) -> np.ndarray:
        """One randomized-excess round through the compiled provider.

        Resolves the round's schedule mode and coefficient strides exactly
        like the numpy branches in :meth:`_advance` (fused-operator form,
        scalar/vector beta, the round-0 FOS opener) and hands flat buffers
        and the per-replica streams to the provider, whose dispatch draws
        each token's uniform from its replica's stream in the numpy tier's
        order — bit-identical to the numpy tier by construction.  The
        actuals land in ``h.act`` and the caller's swap makes them the next
        round's flow state, exactly like the numpy path.  ``h.flows`` is
        spent once ``round_edges`` has read it, so that kernel writes the
        fractional parts over it, row by row, for the token passes (the
        numpy path's in-place ``flows`` writes are discarded scratch after
        the swap too).
        """
        kern = h.kernel
        m = h.topo.m_edges
        if h.fused_sched and (h.round_index == 0 or h.scalar_beta):
            # Fused-operator schedule: the coefficients alpha_e * scale the
            # numpy tier folds into E_alpha[_beta] (stride 0 when one
            # coefficient serves every edge), with flows scaled by beta-1
            # (round 0: by 1 — the flows are +0.0, matching the
            # accumulate-into-zeros opener bit for bit).
            mode = 2
            if h.round_index == 0:
                alpha = h.fused[0]
                h.kern_bm1[0] = 1.0
            else:
                alpha = h.fused[1]
                h.kern_bm1[0] = float(h.beta_row[0, 0]) - 1.0
            ar, ac, bs = int(alpha.size > 1), 0, 0
        else:
            alpha, ar, ac = h.kern_alpha
            if h.round_index == 0:
                mode, bs = 0, 0  # plain FOS opener: beta/bm1 unused
            elif h.scalar_beta:
                mode, bs = 1, 0
                beta = float(h.beta_row[0, 0])
                h.kern_beta[0] = beta
                h.kern_bm1[0] = beta - 1.0
            else:
                mode, bs = 1, 1
                np.copyto(h.kern_beta, h.beta_row[0])
                np.subtract(h.beta_row[0], 1.0, out=h.kern_bm1)
        fsg = h.flows  # the fractional parts replace the flows they came from
        kern.round_edges(
            h.kern_eu, h.kern_ev, h.load, h.kern_speeds, h.flows, h.act,
            fsg, alpha, ar, ac, h.kern_beta, h.kern_bm1, bs, mode,
            h.kern_consts,
        )
        # Token budgets first; then each token draws its uniform from its
        # replica's stream, node-ascending — the numpy tier's order.
        kern.excess_counts(
            h.adj_edges, h.adj_signs, h.dmax, m, fsg,
            h.kern_counts, h.kern_totals, h.kern_consts,
        )
        if h.kern_totals.any():
            kern.excess_dispatch(
                h.adj_edges, h.adj_signs, h.dmax, m, fsg,
                h.kern_counts, h.kern_rngs, h.act, h.kern_cums,
                h.kern_consts,
            )
        return h.act

    def _round_flows(self, h: _BatchedHandle, sched: np.ndarray) -> np.ndarray:
        """Vectorised rounding of the scheduled flows; returns the actuals."""
        rounding = h.config.rounding
        act = h.act
        if rounding == "identity":
            # The actual flows *are* the scheduled ones; keep them as the
            # new flow state (round 0 schedules out of a scratch buffer).
            if sched is not h.flows:
                np.copyto(h.flows, sched)
            return h.flows
        if rounding in _ELEMENTWISE_ROUNDINGS:
            return _round_elementwise(rounding, sched, act, h.mb2, h.rngs)
        if rounding == "randomized-excess":
            return self._randomized_excess(h, sched)
        raise ConfigurationError(f"unsupported rounding {rounding!r}")

    def _randomized_excess(self, h: _BatchedHandle, sched: np.ndarray) -> np.ndarray:
        """The paper's excess-token rounding, vectorised across the batch.

        Floor every flow, pool each sender's fractional parts ``r``, then
        dispatch ``ceil(r)`` excess tokens, each landing on outgoing edge
        ``j`` with probability ``{Yhat_j} / ceil(r)`` and staying home
        otherwise (Observation 1).  The signed fractional parts are routed
        through the topology's fixed padded adjacency; the one dispatch
        (:func:`_excess_token_slots`) sorts only the round's tokens, by
        replica, on a small integer key.  ``c`` uses the same tolerance as
        the reference rounding.

        The joint token-count distribution is the reference scheme's
        multinomial exactly; only the generator's consumption order differs.
        """
        act = h.act
        B = h.n_replicas
        m = h.topo.m_edges
        if m == 0:
            return np.multiply(sched, 1.0, out=act)
        # Signed base and fractional parts in two passes:
        # trunc(x) == sign(x) * floor(|x|), and fsg = sched - trunc(sched).
        np.trunc(sched, out=act)
        # mb2 stays free until the step info, and the caller's sched is
        # left untouched
        fsg = np.subtract(sched, act, out=h.mb2)
        # Split into positive / negative outgoing-fraction blocks so a slot's
        # outgoing fraction is a single gather: P = max(fsg, 0), N = P - fsg.
        pn = h.pn
        p_block = pn[:m]
        np.maximum(fsg, 0.0, out=p_block)
        np.subtract(p_block, fsg, out=pn[m + 1 : 2 * m + 1])
        moved = _excess_token_slots(
            pn, h.slot_take, h.node_tiles, h.cum_planes,
            h.rngs, h.frac_tol, h.tokens,
        )
        if moved is not None:
            slot, col = moved
            cells = np.multiply(h.adj_edges[slot], B, dtype=np.int64)
            cells += col
            extra = np.bincount(
                cells, weights=h.adj_signs[slot], minlength=m * B
            )
            np.add(act, extra.reshape(m, B), out=act)
        return act

    # ------------------------------------------------------------------
    # dynamic workloads
    # ------------------------------------------------------------------
    def _apply_arrivals(self, h: _BatchedHandle) -> ArrivalBatch:
        """Sample and apply one round of per-replica workload deltas.

        Counts are drawn per replica from its own spawned stream (the price
        of bit-exactness with the reference engine and ``DynamicSimulator``);
        clamping and application are vectorised across the whole ``(n, B)``
        batch.  The elementwise expression tree mirrors
        ``DynamicSimulator.inject`` exactly, so B=1 float64 runs agree bit
        for bit for deterministic roundings.
        """
        if h.arrivals_applied:
            raise SimulationError(
                f"arrivals already applied for round {h.round_index}"
            )
        topo, t = h.topo, h.round_index
        deltas = h.arr_deltas
        if h.arrival_batch_rng is not None:
            # Batch-wide sampling: one vectorised draw for every replica from
            # the shared batch stream (the opt-out of stream-for-stream
            # cross-engine exactness; counts keep the exact per-replica
            # distribution).
            deltas[...] = h.arrival_models[0].batch_deltas(
                topo, t, h.arrival_batch_rng, h.n_replicas
            )
        else:
            for b, (model, rng) in enumerate(
                zip(h.arrival_models, h.arrival_rngs)
            ):
                deltas[:, b] = model.deltas(topo, t, rng)
        if h.arrival_scale_row is not None:
            # Per-replica arrival-rate scale, applied to the sampled plane
            # before clamping.  Sampling above consumed exactly the unscaled
            # streams, so scaled replicas stay stream-compatible with their
            # unscaled selves; the elementwise product matches the
            # per-replica backends' ScaledArrivals wrapper bit for bit.
            np.multiply(deltas, h.arrival_scale_row, out=deltas)
        if h.churn_plan is not None:
            # Dead and unborn nodes take no workload: zero their rows after
            # sampling, so the streams consume exactly the no-churn draws
            # (the reference engine masks the same way).
            deltas[~h.churn_active] = 0.0
        if not deltas.any():
            # Quiet round (e.g. a burst model between bursts): the RNG
            # streams were already consumed above, and applying all-zero
            # deltas is the identity, so skip the clamping passes.
            zeros = np.zeros(h.n_replicas)
            h.arrivals_applied = True
            h.last_arrival = ArrivalBatch(
                round_index=t, arrived=zeros, departed=zeros.copy(),
                clamped=zeros.copy(),
            )
            return h.last_arrival
        arrived = np.zeros(h.n_replicas)
        departed = np.zeros(h.n_replicas)
        clamped = np.zeros(h.n_replicas)
        for a, b in h.node_tiles:
            k = b - a
            d_t = deltas[a:b]
            pos = np.maximum(d_t, 0.0, out=h.ts1[:k])
            want = np.negative(d_t, out=h.ts2[:k])
            np.maximum(want, 0.0, out=want)
            # Consume at most the non-negative part of the current load.
            relu_load = np.maximum(h.load[a:b], 0.0, out=h.ts3[:k])
            actual = np.minimum(want, relu_load, out=relu_load)
            np.add(h.load[a:b], pos, out=h.load[a:b])
            np.subtract(h.load[a:b], actual, out=h.load[a:b])
            arrived += pos.sum(axis=0, dtype=np.float64)
            departed += actual.sum(axis=0, dtype=np.float64)
            np.subtract(want, actual, out=want)
            clamped += want.sum(axis=0, dtype=np.float64)
        h.expected_totals += arrived
        h.expected_totals -= departed
        h.arrivals_applied = True
        h.last_arrival = ArrivalBatch(
            round_index=t, arrived=arrived, departed=departed, clamped=clamped
        )
        return h.last_arrival

    @staticmethod
    def _masked_values(h: _BatchedHandle, masked) -> Dict[str, np.ndarray]:
        """Churn records: ``masked(topo, column, live)`` of every replica
        as ``(B,)`` rows.  Each column reduces a contiguous copy — the same
        operations, on the same memory layout, as the reference engine's
        per-replica loop, keeping the deterministic-rounding traces
        bit-identical."""
        B = h.n_replicas
        rows: Dict[str, np.ndarray] = {}
        for b in range(B):
            col = np.ascontiguousarray(h.load[:, b])
            for name, value in masked(h.topo, col, h.churn_active_idx).items():
                rows.setdefault(name, np.empty(B))[b] = value
        return rows

    def _record_dynamic(self, h: _BatchedHandle) -> None:
        """Append this round's dynamic metrics (targets move with the
        total; under churn, masked to the live nodes)."""
        arrival = h.last_arrival
        if h.churn_plan is not None:
            values = self._masked_values(h, masked_dynamic_values)
            totals = values["total_load"]
        else:
            load = h.load
            B = h.n_replicas
            totals = np.zeros(B)
            maxs = np.full(B, -np.inf, dtype=h.dtype)
            for a, b in h.node_tiles:
                totals += load[a:b].sum(axis=0, dtype=np.float64)
                np.maximum(maxs, load[a:b].max(axis=0), out=maxs)
            mean = totals / h.topo.n
            mean_t = mean.astype(h.dtype, copy=False)
            pot = np.zeros(B)
            for a, b in h.node_tiles:
                dev = np.subtract(load[a:b], mean_t, out=h.ts1[: b - a])
                np.multiply(dev, dev, out=dev)
                pot += dev.sum(axis=0, dtype=np.float64)
            values = {
                "max_minus_avg": maxs - mean,
                "potential_per_node": pot / h.topo.n,
                "total_load": totals,
                "max_local_diff": self._mld(h),
            }
        values["arrived"] = arrival.arrived
        values["departed"] = arrival.departed
        values["clamped"] = arrival.clamped
        h.records.append(h.round_index, values)
        _check_conserved(
            totals, h.expected_totals, h.conserve_tol, h.round_index
        )

    def arrive(self, h: _BatchedHandle) -> ArrivalBatch:
        if h.arrival_models is None:
            raise ConfigurationError(
                "arrive() needs a dynamic run (config.arrivals was None)"
            )
        self._maybe_churn(h)
        return self._apply_arrivals(h)

    # ------------------------------------------------------------------
    def _mld(self, h: _BatchedHandle) -> np.ndarray:
        """Per-replica max local load difference of the current loads."""
        if h.topo.m_edges == 0:
            return np.zeros(h.n_replicas)
        if h.kernel is not None:
            return self._walk(h, None, False, True)[5].copy()
        return _max_local_diff(h.E, h.load, h.edge_tiles, h.ts1)

    @staticmethod
    def _walk(h: _BatchedHandle, act, metrics: bool, mld: bool) -> np.ndarray:
        """The provider's record walk of ``h``'s loads in its node tiles
        (``act=None``: no apply and no step info); returns the metric
        rows ``h.kern_rec``, of which it fills rows 0-4 with ``metrics``
        and row 5 with ``mld``."""
        return h.kernel.record_walk(
            h.adj_edges, h.adj_signs, h.dmax, h.kern_eu, act, h.load,
            h.targets, h.tile_rows, metrics, mld, h.kern_info, h.kern_rec,
            h.kern_consts,
        )

    def _record_current(self, h: _BatchedHandle, walked: bool = False) -> None:
        """Append the requested Section VI metrics of the current state
        (``walked``: this round's record walk already reduced them).

        Churn runs mask them to the live nodes and reject
        ``record_mode='summary'`` and trimmed ``record_fields``, so they
        always fill every dense column.
        """
        if h.churn_plan is not None:
            values = self._masked_values(h, masked_static_values)
            values["min_transient"] = h.last_min_transient
            values["round_traffic"] = h.last_traffic
            totals = values["total_load"]
        else:
            values, totals = self._static_values(h, walked)
        h.records.append(h.round_index, values, h.sos_active, h.load.T)
        h.last_recorded_round = h.round_index
        _check_conserved(totals, h.totals0, h.conserve_tol, h.round_index)

    def _static_values(self, h: _BatchedHandle, walked: bool) -> tuple:
        """The requested record metrics of the current loads, and the
        per-replica totals (``walked``: read them off this round's record
        walk)."""
        load = h.load
        fields = h.fields
        want_mld = "max_local_diff" in fields
        if h.kern_records:
            rec = h.kern_rec if walked else self._walk(h, None, True, want_mld)
            values, totals = _metric_values(fields, h.topo.n, *rec[:5].copy())
            mld = rec[5].copy() if want_mld else None
        else:
            values, totals = _node_metrics(
                load, h.targets, fields, h.ts1, h.node_tiles
            )
            mld = self._mld(h) if want_mld else None
        if "min_transient" in fields:
            if h.last_min_transient is None:  # round 0: a min is exact,
                # so the record pass's min_load equals a separate reduction
                h.last_min_transient = (
                    values["min_load"] if "min_load" in fields
                    else load.min(axis=0)
                )
            values["min_transient"] = h.last_min_transient
        if "round_traffic" in fields:
            values["round_traffic"] = h.last_traffic
        if want_mld:
            h.last_mld = mld
            values["max_local_diff"] = mld
        return values, totals

    # ------------------------------------------------------------------
    def _check_switch(self, h: _BatchedHandle) -> None:
        """Vectorised hybrid SOS -> FOS policies (per replica)."""
        sw = h.switch
        t = h.round_index
        none = None
        if sw.kind == "fixed":
            newly = h.sos_active & (t >= int(sw.args[0]))
        elif sw.kind == "fixed-vec":
            # Per-replica fixed rounds (replica_params.switch_rounds):
            # column b fires at its own round; negative entries never do.
            rounds_vec = sw.args[0]
            newly = h.sos_active & (rounds_vec >= 0) & (t >= rounds_vec)
        elif sw.kind == "local-diff":
            threshold = float(sw.args[0]) if sw.args else 10.0
            min_rounds = int(sw.args[1]) if len(sw.args) > 1 else 1
            if t < min_rounds:
                newly = none
            else:
                fresh = (
                    h.last_recorded_round == t
                    and "max_local_diff" in h.fields
                )
                mld = h.last_mld if fresh else self._mld(h)
                newly = h.sos_active & (mld <= threshold)
        elif sw.kind == "plateau":
            window = int(sw.args[0]) if sw.args else 50
            min_drop = float(sw.args[1]) if len(sw.args) > 1 else 0.2
            min_rounds = int(sw.args[2]) if len(sw.args) > 2 else 10
            mean = h.load.mean(axis=0)
            dev = np.subtract(h.load, mean, out=h.nb1)
            np.multiply(dev, dev, out=dev)
            phi = dev.sum(axis=0)
            hist = sw.phi_hist
            hist[sw.phi_count % window] = phi
            sw.phi_count += 1
            if t < min_rounds or sw.phi_count < window:
                newly = none
            else:
                oldest = hist[sw.phi_count % window]
                plateaued = (oldest <= 0.0) | (phi > (1.0 - min_drop) * oldest)
                newly = h.sos_active & plateaued
        else:
            raise ConfigurationError(f"unknown switch kind {sw.kind!r}")
        if newly is none:
            h.last_switched = np.zeros(h.n_replicas, dtype=bool)
            return
        h.last_switched = newly
        if newly.any():
            h.beta_row[0, newly] = 1.0
            h.sos_active[newly] = False
            h.switched_at[newly] = t

    # ==================================================================
    # protocol surface
    # ==================================================================
    def step(self, h: _BatchedHandle) -> StepBatch:
        self._advance(h, want_info=True)
        return StepBatch(
            round_index=h.round_index,
            loads=h.load.T.copy(),
            flows=h.flows.T.copy(),
            min_transient=h.last_min_transient.copy(),
            traffic=h.last_traffic.copy(),
            switched=h.last_switched.copy(),
        )

    def metrics(self, h: _BatchedHandle) -> RecordBatch:
        if h.arrival_models is None and h.last_recorded_round != h.round_index:
            self._record_current(h)
        loads, flows = h.load.T, h.flows.T
        if not h.final_views:  # the handle lives on: copy its planes
            loads, flows = loads.copy(), flows.copy()
        return h.records.batch(
            h.final_views,
            scheme_last=h.sos_active.astype(np.uint8),
            final_loads=loads,
            final_flows=flows,
            switched_at=h.switched_at.copy(),
        )

    def run_batch(self, topo, config, initial_loads) -> RecordBatch:
        """Fused ensemble loop returning the whole columnar record batch.

        Transient/traffic info is computed only where recorded *and*
        requested; dispatches to the closed-form continuous fast path when
        the config is eligible (see :meth:`_fast_path_mode`).  A config
        with ``workers`` or ``pool`` runs in column shards on worker
        processes, which call this again per shard, so shards stay
        columnar until the final merge; :meth:`run` is the per-replica
        wrapper.
        """
        check_regime(config, dynamic=False)
        config.validate()
        # Checked here as well as in prepare(): the closed-form fast path
        # never reaches prepare().
        check_config(config, self.name)
        if config.workers is not None or config.pool:
            return self._run_sharded(topo, config, initial_loads, dynamic=False)
        if config.scheme == "sos" and not 0.0 < config.beta < 2.0:
            # prepare() enforces this for the edge-wise path; the fast path
            # never reaches prepare(), and a beta outside (0, 2) makes the
            # recurrence divergent rather than merely wrong.
            raise SchemeError(f"beta must be in (0, 2), got {config.beta}")
        loads = as_load_batch(initial_loads, topo.n)
        if config.kernel not in ("numpy", "auto"):
            # A forced kernel provider must be resolvable (and discrete)
            # even when the closed-form fast path would bypass the
            # edge-wise loop entirely — silently ignoring it would lie
            # about what ran.
            resolve_kernel(config, topo.n, topo.m_edges, loads.shape[0])
        params = resolve_replica_params(config.replica_params, loads.shape[0])
        mode = self._fast_path_mode(topo, config, params)
        if mode is not None:
            return self._run_fast(topo, config, loads, mode, params)
        h = self.prepare(topo, config, initial_loads)
        # Prepared at full width, so the kernel tier, tile width and
        # schedule mode are the full batch's; twins then share columns.
        twins = _plan_twins(h, config)
        if twins is not None:
            twins.start(h)
        record_every = config.record_every
        for r in range(1, config.rounds + 1):
            if twins is not None:
                twins.before_round(h, r)
            record = r % record_every == 0 or r == config.rounds
            self._advance(h, want_info=record and h.info_fields)
        if twins is not None:
            twins.finish(h)
        h.final_views = True
        return self.metrics(h)

    # ==================================================================
    # closed-form continuous fast path
    # ==================================================================
    def _fast_path_mode(
        self, topo, config, params: Optional[ResolvedReplicaParams] = None
    ) -> Optional[str]:
        """``None`` (edge-wise), ``"matmul"`` or ``"spectral"``.

        Eligibility: ``identity`` rounding, no switch policy (global or
        per-replica), no arrivals, and ``record_fields`` excluding the
        transient/traffic columns — those are the only quantities whose
        definition needs edge space.  ``"auto"`` prefers the closed-form
        spectral kernel on graphs advertising one (full-wrap tori via
        ``grid_shape``, hypercubes via ``cube_dim`` — uniform speeds and
        alphas, and per-replica betas/alpha scales only when uniform, since
        the mode recurrence is replica-independent) and the
        one-matmul-per-round CSR kernel otherwise (which *does* take
        per-replica betas, alpha scales and load scales); forcing a tier
        raises when the run is not eligible for it.
        """
        if config.fast_path == "never":
            return None
        forced = config.fast_path in ("matmul", "spectral")
        fields = resolve_record_fields(config.record_fields)
        blockers = []
        if config.rounding != "identity":
            blockers.append(f"rounding {config.rounding!r} (needs 'identity')")
        if config.switch is not None:
            blockers.append("a hybrid switch policy")
        if params is not None and params.switch_rounds is not None:
            blockers.append("per-replica switch rounds")
        if any(f in fields for f in _INFO_FIELDS):
            blockers.append(
                "record_fields requesting min_transient/round_traffic"
            )
        if config.churn is not None:
            # The closed-form tiers assume a frozen operator (the spectral
            # kernel additionally a frozen structured topology); churn
            # invalidates both on the first mutation, so the run falls back
            # to the edge-wise loop — once, with a log, never mid-run.
            if not forced and not blockers:
                logger.info(
                    "churn: topology mutates mid-run, invalidating the "
                    "closed-form fast path%s; falling back to the "
                    "edge-wise loop",
                    ""
                    if self._spectral_blocker(topo, config, params)
                    else " (spectral hints included)",
                )
            blockers.append("a churn schedule (the topology mutates mid-run)")
        if blockers:
            if forced:
                raise ConfigurationError(
                    f"fast_path={config.fast_path!r} is blocked by "
                    + " and ".join(blockers)
                )
            return None
        spectral_reason = self._spectral_blocker(topo, config, params)
        if config.fast_path == "spectral":
            if spectral_reason:
                raise ConfigurationError(
                    f"fast_path='spectral' unavailable: {spectral_reason}"
                )
            return "spectral"
        if config.fast_path == "matmul":
            return "matmul"
        return "matmul" if spectral_reason else "spectral"

    def _spectral_blocker(
        self, topo, config, params: Optional[ResolvedReplicaParams] = None
    ) -> Optional[str]:
        """Why the spectral kernel cannot run (None when it can)."""
        if topo.grid_shape is None and topo.cube_dim is None:
            return (
                "the topology advertises no torus grid_shape (or hypercube "
                "cube_dim)"
            )
        speeds = (
            config.speeds if config.speeds is not None else uniform_speeds(topo.n)
        )
        speeds = validate_speeds(speeds, topo.n)
        if not np.all(speeds == speeds[0]):
            return "node speeds are heterogeneous"
        alphas = resolve_alphas(config.alphas, topo, speeds)
        if alphas.size and not np.all(alphas == alphas[0]):
            return "edge alphas are heterogeneous"
        if params is not None:
            # The mode recurrence is one scalar sequence per eigenvalue,
            # independent of the replica count — a replica-varying beta or
            # alpha scale would need one recurrence per replica, which is
            # the matmul tier's job.
            if uniform_plane_value(params.betas) is None and params.betas is not None:
                return "per-replica betas vary across the batch"
            if (
                params.alpha_scales is not None
                and uniform_plane_value(params.alpha_scales) is None
            ):
                return "per-replica alpha scales vary across the batch"
        return None

    @staticmethod
    def _fast_records(topo, config, x0: np.ndarray, speeds) -> tuple:
        """``(record, finish)`` of a closed-form run from ``x0``.

        ``record(r, x)`` stores round ``r``'s metrics of the node plane
        ``x`` and checks conservation: the node reductions run in the
        run's node tiles, and with no edge-space state the local
        difference runs the difference operator in edge tiles as wide,
        through the same ``(tile, B)`` scratch.  ``finish(x)`` is the
        :class:`RecordBatch` with final loads ``x`` and zero flows.
        """
        n, B = x0.shape
        m = topo.m_edges
        dtype = x0.dtype.type
        store = _RecordStore(config, B, dynamic=False)
        fields = store.fields
        rows = resolve_tile_size(config, n, B, x0.itemsize) or n
        node_tiles = _tiles(n, rows)
        scratch = np.empty((rows, B), dtype=dtype)
        totals0 = x0.sum(axis=0)
        targets = _record_targets(config, totals0, speeds, dtype)
        conserve_tol = 1e-6 if dtype == np.float64 else 1e-4
        if "max_local_diff" in fields and m:
            E = _difference_operator(topo, dtype)
            edge_tiles = _tiles(m, rows)
        scheme = 1 if config.scheme == "sos" else 0

        def record(r: int, x: np.ndarray) -> None:
            values, totals = _node_metrics(
                x, targets, fields, scratch, node_tiles
            )
            if "max_local_diff" in fields:
                values["max_local_diff"] = (
                    _max_local_diff(E, x, edge_tiles, scratch) if m
                    else np.zeros(B)
                )
            store.append(r, values, scheme, x.T)
            _check_conserved(totals, totals0, conserve_tol, r)

        def finish(x: np.ndarray) -> RecordBatch:
            return store.batch(
                True,
                scheme_last=np.full(B, scheme, dtype=np.uint8),
                final_loads=x.T.astype(np.float64, copy=True),
                final_flows=np.broadcast_to(np.zeros(m), (B, m)),
                switched_at=np.full(B, -1, dtype=np.int64),
            )

        return record, finish

    def _run_fast(
        self,
        topo,
        config,
        loads,
        mode: str,
        params: Optional[ResolvedReplicaParams] = None,
    ) -> RecordBatch:
        """Advance the continuous (identity-rounding) process in closed form.

        ``"matmul"``: the SOS recurrence ``x(t+1) = beta M x(t) +
        (1-beta) x(t-1)`` — algebraically identical to the edge-wise update
        with identity rounding — advanced with a single ``(n, B)`` CSR
        matmul per round, bypassing edge space entirely.  With a uniform
        batch the matmul hits the folded diffusion matrix
        ``M = I + D A E S^{-1}``; per-replica betas/alpha scales instead
        share one increment operator ``K = M - I`` and blend
        ``beta_b (x + c_b K x) + (1 - beta_b) x(t-1)`` per column.

        ``"spectral"``: the same recurrence per *eigenmode* of a structured
        graph — the ``rfftn`` Fourier basis of a full-wrap torus, or the
        Walsh basis of a hypercube (one FWHT of the initial loads): a
        scalar three-term recurrence on the ``O(n)`` mode multipliers per
        round (independent of the replica count), and one inverse
        transform per record round to materialise node space.

        All tiers agree with the edge-wise identity path to float
        accumulation accuracy; records carry NaN for the excluded
        transient/traffic columns and zero flows in the final state (the
        continuous scheduled flows are never materialised).
        """
        loads = apply_load_scales(loads, params)
        n = topo.n
        B = loads.shape[0]
        dtype = np.float32 if config.precision == "float32" else np.float64
        x = np.asarray(loads.T, dtype=dtype).copy(order="C")
        speeds = validate_speeds(
            config.speeds if config.speeds is not None else uniform_speeds(n), n
        )
        alphas = resolve_alphas(config.alphas, topo, speeds)
        beta = float(config.beta) if config.scheme == "sos" else 1.0
        # Per-replica planes: uniform planes fold into the scalar kernels,
        # varying ones stay as row vectors for the generalized matmul tier
        # (the spectral blocker already rejected them there).
        beta_vec = params.betas if params is not None else None
        scale_vec = params.alpha_scales if params is not None else None
        u_beta = uniform_plane_value(beta_vec)
        if u_beta is not None:
            beta, beta_vec = u_beta, None
        u_scale = uniform_plane_value(scale_vec)
        if u_scale is not None:
            alphas, scale_vec = alphas * u_scale, None
        record, finish = self._fast_records(topo, config, x, speeds)
        record(0, x)
        rounds = config.rounds
        record_every = config.record_every
        if rounds == 0:
            return finish(x)

        if mode == "spectral":
            alpha_eff = (float(alphas[0]) if alphas.size else 0.0) / float(
                speeds[0]
            )
            if topo.grid_shape is not None:
                shape = topo.grid_shape
                axes = tuple(range(len(shape)))
                mu = torus_rfft_eigenvalues(shape, alpha_eff)
                coeff0 = np.fft.rfftn(x.reshape(*shape, B), axes=axes)

                def materialize(g):
                    coeff = coeff0 * g[..., None]
                    out = np.fft.irfftn(coeff, s=shape, axes=axes)
                    return np.ascontiguousarray(out.reshape(n, B), dtype=dtype)

            else:
                # Hypercube: the Walsh characters diagonalise the cube's
                # Laplacian; mode s has eigenvalue 1 - 2 alpha popcount(s).
                # n = 2**k, so the 1/n of the inverse FWHT is an exact
                # power-of-two scale.
                mu = hypercube_wht_eigenvalues(topo.cube_dim, alpha_eff)
                coeff0 = fwht(x)
                inv_n = 1.0 / n

                def materialize(g):
                    out = fwht(coeff0 * g[:, None])
                    out *= inv_n
                    return np.ascontiguousarray(out, dtype=dtype)

            if dtype == np.float32:
                mu = mu.astype(np.float32)
            g_prev = np.ones_like(mu)
            g_cur = mu.copy()
            g_next = np.empty_like(mu)
            one_minus_beta = 1.0 - beta

            x_t = x
            for r in range(1, rounds + 1):
                if r >= 2:
                    np.multiply(g_prev, one_minus_beta, out=g_prev)
                    np.multiply(mu, g_cur, out=g_next)
                    np.multiply(g_next, beta, out=g_next)
                    np.add(g_next, g_prev, out=g_next)
                    g_prev, g_cur, g_next = g_cur, g_next, g_prev
                if r % record_every == 0 or r == rounds:
                    x_t = materialize(g_cur)
                    record(r, x_t)
            return finish(x_t)

        if beta_vec is not None or scale_vec is not None:
            return self._run_fast_matmul_planes(
                topo, config, record, finish, x, speeds, alphas, beta,
                beta_vec, scale_vec, dtype,
            )

        import scipy.sparse as sp

        m1 = _diffusion_matrix(topo, alphas, speeds, dtype)
        mb = sp.csr_matrix(
            ((m1.data * dtype(beta)), m1.indices, m1.indptr), shape=m1.shape
        )
        cur = np.empty_like(x)
        scratch = np.empty_like(x)
        _csr_dot(m1, x, cur)  # round 1: both schemes open with FOS
        prev = x
        if 1 % record_every == 0 or rounds == 1:
            record(1, cur)
        one_minus_beta = dtype(1.0 - beta)
        for r in range(2, rounds + 1):
            if beta == 1.0:
                _csr_dot(m1, cur, scratch)
            else:
                np.multiply(prev, one_minus_beta, out=scratch)
                _csr_dot(mb, cur, scratch, accumulate=True)
            prev, cur, scratch = cur, scratch, prev
            if r % record_every == 0 or r == rounds:
                record(r, cur)
        return finish(cur)

    def _run_fast_matmul_planes(
        self, topo, config, record, finish, x, speeds, alphas, beta,
        beta_vec, scale_vec, dtype,
    ) -> RecordBatch:
        """The matmul tier with per-replica beta/alpha-scale row vectors.

        One shared CSR matmul against the increment operator ``K`` per
        round; the per-replica parameters enter as elementwise row
        blends: ``M_b x = x + c_b (K x)`` and
        ``x(t+1) = beta_b (M_b x(t)) + (1 - beta_b) x(t-1)``.
        """
        B = x.shape[1]
        rounds = config.rounds
        record_every = config.record_every
        kmat = _gradient_matrix(topo, alphas, speeds, dtype)
        c_row = (
            scale_vec[None, :].astype(dtype) if scale_vec is not None else None
        )
        if beta_vec is not None:
            beta_row = beta_vec[None, :].astype(dtype)
        else:
            beta_row = np.full((1, B), beta, dtype=dtype)
        omb_row = (1.0 - beta_row).astype(dtype)

        def apply_m(src, out):
            _csr_dot(kmat, src, out)
            if c_row is not None:
                np.multiply(out, c_row, out=out)
            np.add(out, src, out=out)

        cur = np.empty_like(x)
        scratch = np.empty_like(x)
        apply_m(x, cur)  # round 1: both schemes open with FOS
        prev = x
        if 1 % record_every == 0 or rounds == 1:
            record(1, cur)
        for r in range(2, rounds + 1):
            apply_m(cur, scratch)
            np.multiply(scratch, beta_row, out=scratch)
            np.multiply(prev, omb_row, out=prev)  # prev is rotated out below
            np.add(scratch, prev, out=scratch)
            prev, cur, scratch = cur, scratch, prev
            if r % record_every == 0 or r == rounds:
                record(r, cur)
        return finish(cur)

    def run_dynamic_batch(self, topo, config, initial_loads) -> RecordBatch:
        """Fused dynamic ensemble loop returning the columnar record batch.

        Arrivals + balancing, all replicas per vectorised step;
        transient/traffic info is never materialised (dynamic records do
        not carry it, exactly like ``DynamicSimulator``).  A config with
        ``workers`` or ``pool`` runs in column shards on worker processes,
        which call this again per shard; :meth:`run_dynamic` is the
        per-replica wrapper.
        """
        check_regime(config, dynamic=True)
        if config.workers is not None or config.pool:
            return self._run_sharded(topo, config, initial_loads, dynamic=True)
        h = self.prepare(topo, config, initial_loads)
        for _ in range(config.rounds):
            self._advance(h, want_info=False)
        h.final_views = True
        return self.metrics(h)
