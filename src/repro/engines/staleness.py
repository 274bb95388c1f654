"""Vectorised bounded-staleness engine: the async regime without the event
queue.

:class:`StalenessEngine` replays the event-driven
:class:`~repro.network.async_engine.AsyncNetwork` as a *round-synchronous*
vectorised process.  Per-link latencies are quantised into integer round
buckets (:func:`quantize_link_latency`), and the whole ``(n, B)`` replica
ensemble advances with delayed-view planes: a circular ring of the last
``D + 1`` announce planes (``D`` = deepest bucket), gathered per *arc* so
each node computes on neighbour loads exactly ``d`` rounds stale; shipped
tokens ride a second ring of bucketed shipment planes and land ``d``
rounds later; dropped shipments ride a third (bounce) ring back to their
sender after ``2 d`` rounds.  The ``max_skew`` gate becomes a vectorised
clamp on bucket depth (``d_eff = min(d, max_skew + 1)``), which is what
the gate enforces on view staleness in the event-driven engine.

Bit-identity contract
---------------------
The engine is **bit-identical to** :class:`AsyncNetwork` — same recorded
trajectories, flows, staleness statistics and conservation ledger — when
the event queue itself stays in per-round lockstep:

* every per-link latency is a non-negative **integer** number of rounds
  (so quantisation is a no-op — ``latency_buckets="exact"`` asserts it),
* ``max_skew`` is ``None``, or every bucket is ``<= max_skew`` (the gate
  then never fires, because a node has always heard round ``r - d`` from
  a ``d``-bucket neighbour by the end of round ``r``),
* the rounding is deterministic (``floor`` / ``nearest`` / ``ceil``).
  The stochastic roundings consume per-replica streams
  (:func:`~repro.engines.base.rounding_stream` — the batched engine's
  layout) instead of the per-node streams the network engines use, so
  they agree in distribution, not bit for bit.

Under those conditions every event of the queue lands at an integer
timestamp whose phase ordering this engine replays plane for plane:
announce (ring snapshot), compute (delayed-view gather + rounding),
deliver (shipment/bounce ring reads *after* the compute, matching the
event queue's ``PH_DELIVER > PH_COMPUTE`` phase order), finish (zeroing
remembered flows on quiet incoming arcs).  Fractional latencies or
buckets beyond the gate bound leave lockstep — there the engine is the
documented quantised approximation (``mean_staleness`` /
``max_staleness`` still track the bucket depths, and
``max_staleness <= max_skew + 1`` always holds).

Faults compose: per-message drops are taken out of the bucketed
shipment planes by index, consuming each replica's fault stream
(``default_rng([seed + key_b, FAULT_STREAM_KEY])``) in exactly the event
queue's arc order, so fault schedules match the async engine message for
message.  Token conservation is exact under any schedule:
``loads.sum() + in_flight_amount`` is constant (static) or moves only by
the injected arrival/departure totals (dynamic).

The engine accepts ``tile_size`` (bounding the excess-token dispatch
scratch exactly like the batched engine — tiled runs are bit-identical
to dense runs) and ``replica_keys`` (pinning fault/rounding streams to
replica identities), which is what lets it split a batch into column
shards on worker processes (``workers`` / ``pool``) bit-identically.

The engine honours ``kernel`` like the batched engine: a
``randomized-excess`` batch that :func:`~repro.kernels.compiled_pays`
gives to the compiled tier (or a forced ``kernel="cffi"``) runs each
round through the cffi provider's staleness round, bit-identical to the
numpy step below, which stays the reference tier and serves every other
rounding, ``LinkOutage`` and custom fault models, and a fault model with
one generator shared by every replica
(:func:`~repro.kernels.kernel_blockers`).

Records go into the batched engine's columnar record store, one
``(B,)`` row per field and recorded round, computed by ``(B, n)`` row
reductions that equal the per-replica metric helpers bit for bit.
:meth:`StalenessEngine.metrics` therefore returns the batched engine's
:class:`~repro.engines.base.RecordBatch` layout, static and dynamic, and
the worker pool writes staleness shards straight into its shared blocks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..core.dynamic import ArrivalModel, ScaledArrivals
from ..core.rounding import _FRAC_TOL
# transient_loads and the three metric helpers are what the vectorised
# record pass reproduces; they stay importable from this module.
from ..core.state import transient_loads
from ..core.metrics import (
    max_local_difference,
    max_minus_average,
    normalized_potential,
    target_loads,
)
from ..graphs.speeds import uniform_speeds, validate_speeds
from ..graphs.topology import Topology
from ..kernels import ensure_warm, resolve_kernel
from ..network.engine import FAULT_STREAM_KEY
from ..network.faults import LinkOutage, NoFaults, RandomLinkDrop
from ..network.messages import TokenTransfer

from .async_net import resolve_link_latency
from .base import (
    ArrivalBatch,
    Engine,
    EngineConfig,
    RecordBatch,
    StepBatch,
    apply_load_scales,
    as_load_batch,
    check_in_process,
    parse_faults_spec,
    register_engine,
    replica_beta,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_replica_keys,
    resolve_replica_params,
    resolve_rounding_rngs,
    resolve_tile_size,
)
from .batched import (
    _ELEMENTWISE_ROUNDINGS,
    _RecordStore,
    _TokenScratch,
    _excess_token_slots,
    _round_elementwise,
    _tiles,
)
from .capabilities import check_config

__all__ = ["StalenessEngine", "quantize_link_latency"]

_STOCHASTIC_ROUNDINGS = ("unbiased-edge", "randomized-excess")
_KNOWN_ROUNDINGS = (
    "identity",
    "floor",
    "nearest",
    "ceil",
    "unbiased-edge",
    "randomized-excess",
)


def quantize_link_latency(latency, policy: str, m_edges: int) -> np.ndarray:
    """Quantise per-edge latencies into integer round buckets.

    ``latency`` is ``None`` (zero latency everywhere), a scalar or an
    ``(m_edges,)`` array of non-negative rounds.  ``policy`` maps
    fractional latencies onto buckets: ``"ceil"`` (first round the
    message is fully delivered — the event queue's first-usable round),
    ``"floor"``, ``"nearest"``, or ``"exact"`` (refuse fractional
    latencies outright: the bit-identity contract vs the async engine
    only holds where quantisation is a no-op).  Returns an int64 bucket
    array.
    """
    if latency is None:
        return np.zeros(m_edges, dtype=np.int64)
    arr = np.broadcast_to(np.asarray(latency, dtype=np.float64), (m_edges,))
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError("link latency must be finite")
    if arr.size and np.any(arr < 0.0):
        raise ConfigurationError("link latency must be >= 0")
    if policy == "exact":
        buckets = np.rint(arr)
        if np.any(arr != buckets):
            raise ConfigurationError(
                "latency_buckets='exact' requires integer link latencies "
                "(the bit-identity regime); got fractional values — use "
                "'ceil', 'floor' or 'nearest' to quantise them"
            )
    elif policy == "ceil":
        buckets = np.ceil(arr)
    elif policy == "floor":
        buckets = np.floor(arr)
    elif policy == "nearest":
        buckets = np.rint(arr)
    else:
        raise ConfigurationError(
            "latency_buckets must be 'ceil', 'floor', 'nearest' or "
            f"'exact', got {policy!r}"
        )
    return buckets.astype(np.int64)


class _StalenessCore:
    """The ``(n, B)`` delayed-plane state machine (one step per round).

    All arrays are arc-major: arc ``a`` is the directed half-edge
    ``arc_src[a] -> arc_dst[a]``, sorted by ``(src, dst)`` (the CSR
    order), which is exactly the order the event queue processes
    per-node neighbour work in — node-ascending computes, sorted
    neighbours within each node.

    A round is whole-plane arithmetic on scratch planes, no masked
    passes: ``F`` is never NaN, so the queue's conditional writes have
    closed forms.  The remembered flow ``P`` (``prev_flow``) never keeps
    its old value: it becomes ``where(arr_rev != 0, -arr_rev,
    where(bounced, 0, amt))``, where ``amt`` is +0.0 for a schedule
    ``<= 0`` (the finish reset).  The edge flow ``E`` keeps its old value
    only where ``F_lo`` and ``F_hi`` are both negative; elsewhere the later
    writer leaves ``|amt_lo * (F_hi < 0) + amt_hi|`` signed like
    ``0.0 - F_hi`` (-0.0 for a positive schedule rounded to nothing), and
    a bounce zeroes it.  Dropped shipments sit in the dense bounce ring
    (the ledger's storage), and their ``arc * B + replica`` keys in a list
    per landing slot: a delivery sorts the due keys by arc and sums them
    into their senders with one ``bincount``.
    """

    def __init__(
        self,
        topo: Topology,
        speeds: np.ndarray,
        loads: np.ndarray,  # (n, B) float64, C-contiguous, owned
        scheme: str,
        betas: np.ndarray,  # (B,)
        switch_rounds: np.ndarray,  # (B,) int64, -1 = never
        rounding: str,
        d_edge: np.ndarray,  # (m,) int64 buckets, already skew-clamped
        fault_models: Optional[List] = None,
        rngs: Optional[List[np.random.Generator]] = None,
        tile: Optional[int] = None,
        kernel=None,
    ):
        if rounding not in _KNOWN_ROUNDINGS:
            raise ConfigurationError(f"unknown rounding {rounding!r}")
        self.n = topo.n
        self.m = topo.m_edges
        self.B = loads.shape[1]
        self.speeds = np.asarray(speeds, dtype=np.float64)
        self.loads = loads
        self.scheme = scheme
        self.betas = np.asarray(betas, dtype=np.float64)
        self.bm1 = self.betas - 1.0
        self.switch_rounds = np.asarray(switch_rounds, dtype=np.int64)
        self.rounding = rounding
        self.fault_models = fault_models
        self.rngs = rngs

        # -- arc structure out of the CSR adjacency --------------------
        n, B = self.n, self.B
        degrees = np.asarray(topo.degrees, dtype=np.int64)
        self.indptr = np.asarray(topo.adj_indptr, dtype=np.int64)
        self.arc_src = np.repeat(np.arange(n, dtype=np.int64), degrees)
        self.arc_dst = np.asarray(topo.adj_indices, dtype=np.int64)
        self.arc_edge = np.asarray(topo.adj_edge_ids, dtype=np.int64)
        self.n_arcs = int(self.arc_src.shape[0])
        na = self.n_arcs
        # Reverse-arc permutation: the arc with the k-th smallest
        # (dst, src) pair is the reverse of arc k, so one lexsort is the
        # whole involution.
        self.rev = np.lexsort((self.arc_src, self.arc_dst))
        # Per-edge arc ids for the engine-side flow record: the lower
        # endpoint's arc writes first, the higher endpoint's compute runs
        # later in node order and overwrites (the event queue's seq
        # ordering at one timestamp).
        is_lo = self.arc_src < self.arc_dst
        self.arc_of_lo = np.empty(self.m, dtype=np.int64)
        self.arc_of_hi = np.empty(self.m, dtype=np.int64)
        self.arc_of_lo[self.arc_edge[is_lo]] = np.flatnonzero(is_lo)
        self.arc_of_hi[self.arc_edge[~is_lo]] = np.flatnonzero(~is_lo)
        # The diffusion weight per arc — matches BalancerNode.receive_hello.
        self.alpha_arc = np.minimum(
            self.speeds[self.arc_src], self.speeds[self.arc_dst]
        ) / (np.maximum(degrees[self.arc_src], degrees[self.arc_dst]) + 1.0)

        # -- delay buckets and modular slot tables ---------------------
        self.d_edge = np.asarray(d_edge, dtype=np.int64)
        self.d_arc = self.d_edge[self.arc_edge] if na else np.zeros(0, np.int64)
        self.D = int(self.d_arc.max()) if na else 0
        La = self.D + 1
        Lb = 2 * self.D + 1
        self.La, self.Lb = La, Lb
        rows_a = np.arange(La, dtype=np.int64)[:, None]
        #: Row of the flat ``(La * n, B)`` announce ring each arc reads at
        #: round ``r`` (row ``r % La``): its neighbour's plane d rounds ago.
        self._view_rows = (rows_a - self.d_arc[None, :]) % La * n + self.arc_dst
        #: Row of the flat ``(La * n_arcs, B)`` shipment ring each arc's
        #: round-``r`` shipment lands in: d rounds out.
        self._ship_rows = (rows_a + self.d_arc[None, :]) % La * na + np.arange(na)
        rows_b = np.arange(Lb, dtype=np.int64)[:, None]
        self.bounce_slot = (rows_b + 2 * self.d_arc[None, :]) % Lb

        # -- state planes ----------------------------------------------
        #: Announce ring: A[r % La] is round r's normalised-load plane.
        #: Every slot starts as the setup Hello exchange's bootstrap view:
        #: a d-bucket view read before round d hits slot (r - d) % La > r,
        #: not yet overwritten — the event engine's view bootstrap.
        self._speed_col = self.speeds[:, None]
        self.A = np.empty((La, n, B), dtype=np.float64)
        self.A[:] = self.loads / self._speed_col
        #: Shipment ring: S[r % La, a] holds the tokens arriving on arc
        #: ``a`` at round r (written once per arc per round — slots are
        #: provably consumed and zeroed before reuse).
        self.S = np.zeros((La, na, B), dtype=np.float64)
        #: Bounce ring (faulted shipments, 2d round trip); only faults
        #: populate it, so fault-free runs skip the allocation.
        self.bounce = (
            np.zeros((Lb, na, B), dtype=np.float64)
            if fault_models is not None
            else None
        )
        #: Per bounce slot, the flat ``arc * B + replica`` keys of the
        #: shipments dropped into it, so deliveries never scan the plane.
        self._bounce_due: List[List[np.ndarray]] = [[] for _ in range(Lb)]
        #: Per-arc remembered flow — BalancerNode.prev_flow, arc-major.
        self.P = np.zeros((na, B), dtype=np.float64)
        #: Engine-side per-edge flow record (edge_u -> edge_v positive).
        self.E = np.zeros((self.m, B), dtype=np.float64)
        # Arc- and edge-plane scratch, reused every round.
        self._view, self._flow, self._amt = np.empty((3, na, B))
        self._edge = np.empty((3, self.m, B))
        # Segment-sum plumbing (arc -> source-node reduction).
        self._red_idx = np.minimum(self.indptr[:-1], max(na - 1, 0))
        empty = np.flatnonzero(degrees == 0)
        self._empty_rows = empty if empty.size else None
        #: Edge -> endpoint ``bincount`` keys (``u`` side, ``v`` side) of
        #: the flat ``(m, B)`` edge plane, ``edge_end * B + b``: each node
        #: adds its edges in edge order from +0.0, the order of a
        #: per-replica ``bincount`` over the edge list.
        reps = np.arange(B, dtype=np.int64)
        self.send_keys = tuple(
            (np.asarray(ends, dtype=np.int64)[:, None] * B + reps).ravel()
            for ends in (topo.edge_u, topo.edge_v)
        )

        self.round_index = 0
        # Conservation ledger + observability counters (per replica).
        self.in_flight_amount = np.zeros(B, dtype=np.float64)
        self.in_flight_messages = np.zeros(B, dtype=np.int64)
        self.delivered_count = np.zeros(B, dtype=np.int64)
        self.bounced_count = np.zeros(B, dtype=np.int64)
        # Staleness statistics are replica-independent under lockstep
        # (s = min(d, r + 1)), so scalars suffice and equal every
        # replica's event-engine counters.
        self._stale_sum = 0
        self._stale_count = 0
        self.max_staleness = 0

        #: compiled provider of the round (None: the numpy step below);
        #: the engine hands one over only for randomized-excess with arcs
        #: and RandomLinkDrop faults on per-replica streams, if any
        self.kernel = kernel
        # -- excess-token dispatch tables ------------------------------
        if rounding == "randomized-excess" and na:
            self.dmax = int(degrees.max())
            j_rows = np.arange(self.dmax, dtype=np.int64)[:, None]
            # Node-local slot j -> arc id, with a zero sentinel row (na)
            # for slots beyond the node's degree.
            self.slot_take = np.where(
                j_rows < degrees[None, :], self.indptr[:-1][None, :] + j_rows, na
            )
            self._frac_ext = np.zeros((na + 1, B), dtype=np.float64)
            if kernel is None:
                #: padded slot ``node * dmax + j`` -> arc id
                self._slot_arc = self.slot_take.T.ravel()
                rows = min(tile, n) if tile else n
                self.node_tiles = _tiles(n, rows)
                self._planes = np.empty((self.dmax, rows, B), dtype=np.float64)
                self._tokens = _TokenScratch()
            else:
                # The compiled dispatch on the arc layout: node i's slots
                # are its outgoing arcs (padding na), every sign +1.
                self.kern_adj = np.ascontiguousarray(
                    self.slot_take.T, dtype=np.int32
                )
                self.kern_signs = np.ones(self.kern_adj.shape, dtype=np.int8)
                self.kern_counts = np.empty((n, B), dtype=np.int32)
                self.kern_totals = np.empty(B, dtype=np.int64)
                self.kern_cums = np.empty((self.dmax, B), dtype=np.float64)
                self.kern_consts = np.array([0.0, 1.0, _FRAC_TOL, 0.5])
                self.kern_rngs = kernel.bind_generators(rngs)
                #: drops waiting in each bounce slot (the compiled round
                #: scans a slot's plane only when some are due)
                self.kern_pending = np.zeros(Lb, dtype=np.int64)
                self.kern_p = fault_models[0].p if fault_models else 0.0
                self.kern_faults = self.kern_picks = None
                if self.kern_p:
                    self.kern_faults = kernel.bind_generators(
                        [f.rng for f in fault_models]
                    )
                    self.kern_picks = np.empty((B, na), dtype=np.int32)
        # Per-replica LinkOutage arc masks, built lazily per model.
        self._outage_masks: dict = {}

    # ------------------------------------------------------------------
    def send_sums(self) -> np.ndarray:
        """The ``(n, B)`` tokens each node sent over its edges in the last
        round, from the edge flow record: one flat ``bincount`` per edge
        side over :attr:`send_keys`."""
        size = self.n * self.B
        keys_u, keys_v = self.send_keys
        sent = np.bincount(keys_u, np.maximum(self.E, 0.0).ravel(), size)
        sent += np.bincount(keys_v, np.maximum(-self.E, 0.0).ravel(), size)
        return sent.reshape(self.n, self.B)

    # ------------------------------------------------------------------
    def _segment_sum(self, x: np.ndarray) -> np.ndarray:
        """Sum arc values into their source node: ``out[i] = sum over
        node i's outgoing arcs`` in one ``reduceat``, which adds
        ``x0 + (x1 + ... + xk)``, the bracket pairwise when ``B == 1``
        (the compiled round's ``stale_node_sum`` replays that order)."""
        out = np.add.reduceat(x, self._red_idx, axis=0)
        if self._empty_rows is not None:
            out[self._empty_rows] = 0.0
        return out

    # ------------------------------------------------------------------
    def _round_positive(self, F: np.ndarray) -> np.ndarray:
        """Round the positive scheduled flows to shipped amounts.

        Returns an ``(n_arcs, B)`` plane (the core's ``_amt`` scratch)
        that is +0.0 wherever ``F <= 0`` (only the positive endpoint of an
        arc is a sender).  The deterministic branches are bit-identical to
        the node-local ``math.floor``/``np.rint``/``math.ceil`` on positive
        floats (on a plane ``>= +0.0`` the shared rounding's ``trunc`` is
        ``floor`` and its sign restore is a no-op).
        """
        pos = np.maximum(F, 0.0, out=self._amt)
        pos += 0.0  # np.maximum keeps a -0.0 schedule; ship +0.0
        if self.rounding == "identity":
            return pos
        if self.rounding in _ELEMENTWISE_ROUNDINGS:
            # The view plane is free once F is scheduled.
            return _round_elementwise(
                self.rounding, pos, pos, self._view, self.rngs
            )
        return self._randomized_excess(pos)

    def _randomized_excess(self, pos: np.ndarray) -> np.ndarray:
        """The paper's excess-token rounding over the outgoing arcs.

        Floor every positive flow, pool each sender's fractional parts
        ``r``, dispatch ``ceil(r - tol)`` tokens, each landing on
        outgoing arc ``j`` with probability ``{Yhat_j} / c`` and staying
        home otherwise — the batched engine's padded-adjacency dispatch
        (:func:`~repro.engines.batched._excess_token_slots`) re-indexed
        onto arcs.  Per-replica uniforms are consumed in node-ascending
        order, so tiled and dense dispatches are bit-identical for any
        tile size.  Rounds ``pos`` in place.
        """
        if self.n_arcs == 0:
            return np.floor(pos, out=pos)
        B, na = self.B, self.n_arcs
        frac = self._frac_ext[:na]
        np.floor(pos, out=frac)
        np.subtract(pos, frac, out=frac)
        base = np.floor(pos, out=pos)
        moved = _excess_token_slots(
            self._frac_ext, self.slot_take, self.node_tiles, self._planes,
            self.rngs, _FRAC_TOL, self._tokens,
        )
        if moved is not None:
            slot, col = moved
            cells = self._slot_arc[slot]
            cells *= B
            cells += col
            extra = np.bincount(cells, minlength=na * B)
            np.add(base, extra.reshape(na, B), out=base)
        return base

    # ------------------------------------------------------------------
    def _outage_arc_mask(self, model: LinkOutage) -> np.ndarray:
        mask = self._outage_masks.get(id(model))
        if mask is None:
            mask = np.fromiter(
                (
                    (
                        min(int(u), int(v)),
                        max(int(u), int(v)),
                    )
                    in model.links
                    for u, v in zip(self.arc_src, self.arc_dst)
                ),
                dtype=bool,
                count=self.n_arcs,
            )
            self._outage_masks[id(model)] = mask
        return mask

    def _fault_dropped(
        self, r: int, amt: np.ndarray, emitted: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(arcs, replicas)`` of this round's dropped shipments,
        consuming each replica's fault stream in the event queue's
        per-message order (senders ascending, neighbours ascending within
        each sender)."""
        rows = [np.zeros(0, dtype=np.int64)]
        cols = [np.zeros(0, dtype=np.int64)]
        for b, model in enumerate(self.fault_models):
            if isinstance(model, NoFaults):
                continue
            col = emitted[:, b]
            if isinstance(model, RandomLinkDrop):
                if model.p == 0.0:
                    continue
                idx = np.flatnonzero(col)
                if idx.size:
                    idx = idx[model.rng.random(idx.size) < model.p]
            elif isinstance(model, LinkOutage):
                if not model._active(r):
                    continue
                idx = np.flatnonzero(col & self._outage_arc_mask(model))
            else:
                idx = np.flatnonzero(col)
                hit = [
                    model.drops(
                        TokenTransfer(
                            sender=int(self.arc_src[a]),
                            receiver=int(self.arc_dst[a]),
                            round_index=r,
                            amount=float(amt[a, b]),
                        ),
                        r,
                    )
                    for a in idx
                ]
                idx = idx[np.asarray(hit, dtype=bool)]
            rows.append(idx)
            cols.append(np.full(idx.size, b, dtype=np.int64))
        return np.concatenate(rows), np.concatenate(cols)

    # ------------------------------------------------------------------
    def inject(self, deltas: np.ndarray) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Apply per-node workload deltas (dynamic regime), clamped at
        each node's available non-negative load — the elementwise tree of
        ``BalancerNode.receive_work``.  Returns per-replica
        ``(arrived, departed, clamped)`` totals."""
        pos = np.maximum(deltas, 0.0)
        want = np.maximum(-deltas, 0.0)
        consumed = np.minimum(want, np.maximum(self.loads, 0.0))
        np.add(self.loads, pos, out=self.loads)
        np.subtract(self.loads, consumed, out=self.loads)
        arrived = pos.sum(axis=0)
        departed = consumed.sum(axis=0)
        clamped = want.sum(axis=0) - departed
        return arrived, departed, clamped

    # ------------------------------------------------------------------
    def step(self) -> None:
        """One global round, phase for phase with the lockstep event
        queue: announce snapshot, delayed-view compute, send deduction,
        faults onto the shipment/bounce rings, then the round's bounce
        and shipment deliveries (*after* the computes — the queue's
        ``PH_DELIVER > PH_COMPUTE``), then finish."""
        r = self.round_index
        B, na = self.B, self.n_arcs
        slot = r % self.La
        if self.kernel is not None:
            self._count_staleness(r)
            self._step_compiled(r, slot)
            self.round_index = r + 1
            return

        # Phase 0 — announce: snapshot this round's normalised loads.
        xn = np.divide(self.loads, self._speed_col, out=self.A[slot])

        if na == 0:
            self.round_index = r + 1
            return

        # Phase 2 — compute, on views exactly d rounds stale.  Every
        # gather index is in range; mode="clip" keeps np.take from
        # buffering ``out``.
        V = np.take(
            self.A.reshape(-1, B), self._view_rows[slot], axis=0,
            out=self._view, mode="clip",
        )
        self._count_staleness(r)

        F = np.take(xn, self.arc_src, axis=0, out=self._flow, mode="clip")
        F -= V
        F *= self.alpha_arc[:, None]
        if self.scheme == "sos" and r > 0:
            sos_cols = (self.switch_rounds < 0) | (r < self.switch_rounds)
            if sos_cols.any():
                sos = np.multiply(self.P, self.bm1, out=V)
                sos += np.multiply(F, self.betas, out=self._amt)
                # Select whole expressions per column (never blend with a
                # beta of 1.0 — 0.0 * P + G can flip signed zeros).
                np.copyto(F, sos, where=sos_cols)

        amt = self._round_positive(F)
        emitted = amt != 0.0

        # Engine-side per-edge flow record (closed form: class docstring);
        # the higher endpoint computes later in node order, so it wins.
        val, f_hi, other = self._edge
        np.take(amt, self.arc_of_lo, axis=0, out=val, mode="clip")
        np.take(F, self.arc_of_hi, axis=0, out=f_hi, mode="clip")
        val *= f_hi < 0.0
        val += np.take(amt, self.arc_of_hi, axis=0, out=other, mode="clip")
        np.subtract(0.0, f_hi, out=f_hi)
        np.copysign(val, f_hi, out=val)
        f_lo = np.take(F, self.arc_of_lo, axis=0, out=other, mode="clip")
        np.copyto(self.E, val, where=(f_lo >= 0.0) | (f_hi <= 0.0))

        # Send phase: each sender deducts its round total in one subtract.
        np.subtract(self.loads, self._segment_sum(amt), out=self.loads)
        self.in_flight_amount += amt.sum(axis=0)
        self.in_flight_messages += emitted.sum(axis=0)

        # Ship: each arc's tokens land d rounds out (d = 0 lands in this
        # round's slot, read below — after the computes, like the queue).
        S_rows = self.S.reshape(-1, B)
        ship_rows = self._ship_rows[slot]
        S_rows[ship_rows] = amt
        # Faults: dropped shipments leave the shipment ring for the
        # bounce ring (a 2d round trip back to the sender).
        if self.fault_models is not None:
            rows, cols = self._fault_dropped(r, amt, emitted)
            if rows.size:
                S_rows[ship_rows[rows], cols] = 0.0
                land = self.bounce_slot[r % self.Lb, rows]
                self.bounce[land, rows, cols] = amt[rows, cols]
                keys = rows * B + cols
                # the landing slots in ascending order (np.unique would
                # import numpy.ma on its first call in a process)
                for s_b in np.flatnonzero(np.bincount(land)):
                    self._bounce_due[s_b].append(keys[land == s_b])

        # Phase 3 — deliveries due this round; with phase 4 (finish) they
        # leave P in its closed form (class docstring).
        P = self.P
        P[...] = amt
        slot_b = r % self.Lb
        due = self._bounce_due[slot_b]
        if due:
            # Bounces first: they were pushed in earlier rounds, so they
            # carry earlier event seqs than this round's deliveries (a
            # same-edge reverse delivery overwrites the bounce's zero
            # below, matching the queue).  Sorted by arc, each node adds
            # its bounces in arc order (exact for integral amounts).
            keys = np.sort(np.concatenate(due))
            due.clear()
            rows, cols = np.divmod(keys, B)
            ring = self.bounce[slot_b]
            vals = ring[rows, cols]
            ring[rows, cols] = 0.0
            back = np.bincount(self.arc_src[rows] * B + cols, vals, self.n * B)
            np.add(self.loads, back.reshape(self.n, B), out=self.loads)
            P[rows, cols] = 0.0
            self.E[self.arc_edge[rows], cols] = 0.0
            counts = np.bincount(cols, minlength=B)
            self.bounced_count += counts
            self.in_flight_messages -= counts
            self.in_flight_amount -= np.bincount(cols, vals, B)

        arr = self.S[slot]
        if arr.any():
            # Delivery: arc (j -> i) credits i — which is the source of
            # the reverse arc — and i remembers the edge's flow as
            # negative-received.  The view plane is free by now.
            arr_rev = np.take(arr, self.rev, axis=0, out=V, mode="clip")
            np.add(self.loads, self._segment_sum(arr_rev), out=self.loads)
            quiet = arr_rev == 0.0
            P *= quiet
            P -= arr_rev
            counts = na - quiet.sum(axis=0)
            self.delivered_count += counts
            self.in_flight_messages -= counts
            self.in_flight_amount -= arr.sum(axis=0)
            arr[...] = 0.0
        self.round_index = r + 1

    def _count_staleness(self, r: int) -> None:
        s = np.minimum(self.d_arc, r + 1) if r < self.D else self.d_arc
        self._stale_sum += int(s.sum())
        self._stale_count += self.n_arcs
        self.max_staleness = max(self.max_staleness, int(s.max()))

    def _step_compiled(self, r: int, slot: int) -> None:
        """The round of :meth:`step` through the compiled provider:
        ``stale_schedule`` (announce, delayed views, schedule, floor and
        fractional planes, token budgets), ``excess_dispatch`` on the arc
        layout, then ``stale_ship`` (edge record, send, ledger, shipment
        ring, link drops, bounces, deliveries and ``P``), bit for bit.
        No OpenMP region runs in the round."""
        kern, na = self.kernel, self.n_arcs
        sos = None
        if self.scheme == "sos" and r > 0:
            cols = (self.switch_rounds < 0) | (r < self.switch_rounds)
            if cols.any():
                sos = cols.astype(np.float64)
        frac = self._frac_ext[:na]
        # The schedule also leaves the token budgets; then each token
        # draws its uniform from its replica's stream, node-ascending —
        # the numpy dispatch's order.
        kern.stale_schedule(
            self.A, slot, self.loads, self.speeds, self._view_rows[slot],
            self.indptr, self.alpha_arc, self.P, self.betas, self.bm1, sos,
            self._flow, self._amt, frac, self.kern_counts, self.kern_totals,
            self.kern_consts,
        )
        if self.kern_totals.any():
            kern.excess_dispatch(
                self.kern_adj, self.kern_signs, self.dmax, na, frac,
                self.kern_counts, self.kern_rngs, self._amt, self.kern_cums,
                self.kern_consts,
            )
        slot_b = r % self.Lb
        # The view plane, free in this round, is stale_ship's gather
        # scratch.
        kern.stale_ship(
            slot_b, self.loads, self._flow, self._amt, self.P, self.E,
            self.S.reshape(-1, self.B), self._ship_rows[slot], self.S[slot],
            self.bounce, self.bounce_slot[slot_b], self.kern_pending,
            self.indptr, self.arc_edge, self.rev, self.arc_of_lo,
            self.arc_of_hi, self.kern_faults, self.kern_p, self.kern_picks,
            self._view, self.in_flight_amount, self.in_flight_messages,
            self.delivered_count, self.bounced_count, self.kern_consts,
        )

    # ------------------------------------------------------------------
    def total_load(self) -> np.ndarray:
        """Per-replica total including in-flight tokens (conserved)."""
        return self.loads.sum(axis=0) + self.in_flight_amount

    @property
    def mean_staleness(self) -> float:
        """Mean age, in rounds, of the neighbour views used by computes —
        every replica's event-engine counter under lockstep."""
        if self._stale_count == 0:
            return 0.0
        return self._stale_sum / self._stale_count


def _local_diff_rows(topo: Topology, loads: np.ndarray) -> np.ndarray:
    """:func:`max_local_difference` of every ``(B, n)`` load row (a max,
    so the gather order cannot change it)."""
    if not topo.m_edges:
        return np.zeros(loads.shape[0])
    diff = np.take(loads, topo.edge_u, axis=1)
    diff -= np.take(loads, topo.edge_v, axis=1)
    return np.abs(diff, out=diff).max(axis=1)


def _potential_rows(dev: np.ndarray) -> np.ndarray:
    """:func:`normalized_potential` of every ``(B, n)`` deviation row: one
    ``dev @ dev`` dot per row, like the helper's."""
    return np.array([row @ row for row in dev]) / dev.shape[1]


@dataclass
class _StalenessHandle:
    topo: Topology
    config: EngineConfig
    core: _StalenessCore
    records: _RecordStore
    #: static record targets, ``(B, n)`` (or one ``(1, n)`` row of
    #: ``config.targets``): those of the initial totals
    targets: np.ndarray
    last_min_transient: np.ndarray
    last_traffic: np.ndarray
    last_recorded_round: int = -1


@dataclass
class _DynamicStalenessHandle:
    topo: Topology
    config: EngineConfig
    core: _StalenessCore
    models: List[ArrivalModel]
    rngs: List[np.random.Generator]
    records: _RecordStore
    pending: Tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        default_factory=lambda: (np.zeros(0), np.zeros(0), np.zeros(0))
    )
    injected: bool = False


@register_engine
class StalenessEngine(Engine):
    """Delay-bucketed vectorised replay of the bounded-staleness regime."""

    name = "staleness"

    # ------------------------------------------------------------------
    def prepare(self, topo, config, initial_loads):
        config.validate()
        check_config(config, self.name)
        loads = as_load_batch(initial_loads, topo.n)
        B = loads.shape[0]
        check_in_process(config, B, self.name)
        params = resolve_replica_params(config.replica_params, B)
        loads = apply_load_scales(loads, params)
        if topo.link_bandwidth is not None:
            raise ConfigurationError(
                "the staleness engine does not support stamped "
                "link_bandwidth: size-dependent delivery delays cannot be "
                "quantised into fixed round buckets (use the async engine)"
            )
        speeds = validate_speeds(
            np.asarray(config.speeds, dtype=np.float64)
            if config.speeds is not None
            else uniform_speeds(topo.n),
            topo.n,
        )

        latency = resolve_link_latency(topo, config)
        if latency is None:
            latency = topo.link_latency
        d_edge = quantize_link_latency(
            latency, config.latency_buckets, topo.m_edges
        )
        if config.max_skew is not None:
            # The gate clamp: a view can never be more than
            # max_skew + 1 rounds stale.
            np.minimum(d_edge, config.max_skew + 1, out=d_edge)

        # The capability table admits ("fixed", round) switches only.
        switch_round = (
            int(config.switch[1]) if config.switch is not None else None
        )

        betas = np.array(
            [replica_beta(config, params, b) for b in range(B)], dtype=np.float64
        )
        if params is not None and params.switch_rounds is not None:
            switch_plane = np.maximum(params.switch_rounds, -1)
        else:
            switch_plane = np.full(
                B, -1 if switch_round is None else switch_round, dtype=np.int64
            )

        parsed = parse_faults_spec(config.faults)
        fault_models = None
        if parsed is not None and not isinstance(parsed, NoFaults):
            fault_models = [
                parsed.with_rng(
                    np.random.default_rng(
                        [config.seed + key, FAULT_STREAM_KEY]
                    )
                )
                for key in resolve_replica_keys(config, B)
            ]

        rngs = (
            resolve_rounding_rngs(config, B)
            if config.rounding in _STOCHASTIC_ROUNDINGS
            else None
        )
        planes = (
            int(np.asarray(topo.degrees).max())
            if topo.n and config.rounding == "randomized-excess"
            else 0
        )
        tile = resolve_tile_size(config, topo.n, B, 8, planes=planes)
        kernel = resolve_kernel(config, topo.n, topo.m_edges, B)
        if kernel is not None:
            ensure_warm(kernel)

        core = _StalenessCore(
            topo,
            speeds,
            # Always a fresh C-order copy: a (1, n) batch's transpose is
            # already contiguous, and the core mutates its loads in place.
            loads.T.copy(),
            scheme=config.scheme,
            betas=betas,
            switch_rounds=switch_plane,
            rounding=config.rounding,
            d_edge=d_edge,
            fault_models=fault_models,
            rngs=rngs,
            tile=tile,
            kernel=kernel,
        )

        records = _RecordStore(config, B, config.arrivals is not None)
        if config.arrivals is not None:
            models = resolve_arrival_models(config.arrivals, B)
            if params is not None and params.arrival_scales is not None:
                models = [
                    ScaledArrivals(m, float(params.arrival_scales[b]))
                    for b, m in enumerate(models)
                ]
            return _DynamicStalenessHandle(
                topo=topo,
                config=config,
                core=core,
                models=models,
                rngs=resolve_arrival_rngs(config, B),
                records=records,
            )

        rows = core.loads.T.copy()
        targets = (
            np.asarray(config.targets, dtype=np.float64)[None, :]
            if config.targets is not None
            else target_loads(rows.sum(axis=1)[:, None], speeds)
        )
        handle = _StalenessHandle(
            topo=topo,
            config=config,
            core=core,
            records=records,
            targets=targets,
            last_min_transient=rows.min(axis=1),
            last_traffic=np.zeros(B, dtype=np.float64),
        )
        self._record_static(handle, rows)
        return handle

    @staticmethod
    def _record_static(handle: _StalenessHandle, loads: np.ndarray) -> None:
        """Record the current round from the ``(B, n)`` load rows.

        Row reductions of a C-contiguous plane (and one dot per row)
        equal :func:`~repro.core.simulator.record_round`'s per-replica
        helpers bit for bit.  A replica runs SOS until the round after
        its switch round.
        """
        r = handle.core.round_index
        dev = loads - handle.targets
        values = {
            "max_minus_avg": dev.max(axis=1),
            "min_minus_avg": dev.min(axis=1),
            "max_local_diff": _local_diff_rows(handle.topo, loads),
            "potential_per_node": _potential_rows(dev),
            "min_load": loads.min(axis=1),
            "min_transient": handle.last_min_transient,
            "total_load": loads.sum(axis=1),
            "round_traffic": handle.last_traffic,
        }
        sw = handle.core.switch_rounds
        scheme = (handle.config.scheme == "sos") & ~((sw >= 0) & (r > sw))
        handle.records.append(r, values, scheme, loads)
        handle.last_recorded_round = r

    # ------------------------------------------------------------------
    def _inject(self, handle: _DynamicStalenessHandle):
        if handle.injected:
            raise SimulationError(
                f"arrivals already applied for round {handle.core.round_index}"
            )
        core = handle.core
        deltas = np.empty((handle.topo.n, core.B), dtype=np.float64)
        for b, (model, rng) in enumerate(zip(handle.models, handle.rngs)):
            deltas[:, b] = model.deltas(handle.topo, core.round_index, rng)
        handle.pending = core.inject(deltas)
        handle.injected = True
        return handle.pending

    def arrive(self, handle) -> ArrivalBatch:
        if not isinstance(handle, _DynamicStalenessHandle):
            raise ConfigurationError(
                "arrive() needs a dynamic run (config.arrivals was None)"
            )
        arrived, departed, clamped = self._inject(handle)
        return ArrivalBatch(
            round_index=handle.core.round_index,
            arrived=arrived,
            departed=departed,
            clamped=clamped,
        )

    # ------------------------------------------------------------------
    @staticmethod
    def _advance(core: _StalenessCore):
        """Step ``core`` once; return the ``(B, n)`` loads, the ``(B, m)``
        flows and every replica's ``min(transient_loads(...))`` and
        ``abs(flows).sum()`` for the round.  Each send-side ``bincount``
        adds a node's edges in edge order from +0.0 (the helper's
        per-replica sums), and contiguous row sums are pairwise like a
        lone vector's, so both equal the per-replica helpers bit for bit."""
        before = core.loads.copy()
        core.step()
        loads, flows = core.loads.T.copy(), core.E.T.copy()
        transient = np.subtract(before, core.send_sums(), out=before)
        return loads, flows, transient.min(axis=0), np.abs(flows).sum(axis=1)

    def step(self, handle) -> StepBatch:
        if isinstance(handle, _DynamicStalenessHandle):
            return self._step_dynamic(handle)
        core = handle.core
        loads, flows, min_transient, traffic = self._advance(core)
        r = core.round_index
        handle.last_min_transient[:] = min_transient
        handle.last_traffic[:] = traffic
        if r % handle.config.record_every == 0:
            self._record_static(handle, loads)
        return StepBatch(
            round_index=r,
            loads=loads,
            flows=flows,
            min_transient=min_transient,
            traffic=traffic,
            switched=(handle.config.scheme == "sos") & (core.switch_rounds == r),
        )

    def _step_dynamic(self, handle: _DynamicStalenessHandle) -> StepBatch:
        if not handle.injected:
            self._inject(handle)
        core = handle.core
        loads, flows, min_transient, traffic = self._advance(core)
        # The Section VI metrics of every replica in one pass over the
        # (B, n) rows: max_minus_average, max_local_difference and
        # normalized_potential, reduction for reduction.
        mean = loads.mean(axis=1)
        arrived, departed, clamped = handle.pending
        handle.records.append(core.round_index, {
            "total_load": loads.sum(axis=1),
            "arrived": arrived,
            "departed": departed,
            "clamped": clamped,
            "max_minus_avg": loads.max(axis=1) - mean,
            "max_local_diff": _local_diff_rows(handle.topo, loads),
            "potential_per_node": _potential_rows(loads - mean[:, None]),
        })
        handle.injected = False
        return StepBatch(
            round_index=core.round_index,
            loads=loads,
            flows=flows,
            min_transient=min_transient,
            traffic=traffic,
            switched=np.zeros(core.B, dtype=bool),
        )

    # ------------------------------------------------------------------
    def metrics(self, handle) -> RecordBatch:
        core = handle.core
        r = core.round_index
        if (
            isinstance(handle, _StalenessHandle)
            and handle.last_recorded_round != r
        ):
            self._record_static(handle, core.loads.T.copy())
        sw = core.switch_rounds
        fired = (handle.config.scheme == "sos") & (sw >= 0) & (sw <= r)
        return handle.records.batch(
            False,
            final_loads=core.loads.T.copy(),
            final_flows=core.E.T.copy(),
            switched_at=np.where(fired, sw, -1),
        )
