"""Execution-engine protocol: one abstraction, many backends.

An :class:`Engine` runs a *batch* of independent replicas of the same
workload (topology + scheme + rounding) and produces one
:class:`~repro.core.simulator.SimulationResult` per replica.  The protocol
is deliberately tiny::

    handle = engine.prepare(topo, config, initial_loads)
    for _ in range(config.rounds):
        batch = engine.step(handle)        # StepBatch: loads/flows/transients
    results = engine.metrics(handle).results()

``engine.run(topo, config, initial_loads)`` wraps the loop (backends
override it with fused fast paths).  Five backends ship with the library:

* ``reference`` (:class:`~repro.engines.reference.ReferenceEngine`) — loops
  replicas through the incremental :class:`~repro.core.simulator.Simulator`
  core, one round at a time.  Semantics by definition.
* ``batched`` (:class:`~repro.engines.batched.BatchedVectorEngine`) — runs
  the whole ``(B, n)`` load matrix through CSR edge-wise numpy kernels; one
  vectorised step advances every replica at once.
* ``network`` (:class:`~repro.engines.network.NetworkEngine`) — adapts the
  message-passing :class:`~repro.network.engine.SyncNetwork` to the same
  protocol.
* ``async`` (:class:`~repro.engines.async_net.AsyncNetworkEngine`) — the
  event-driven :class:`~repro.network.async_engine.AsyncNetwork`, with
  per-link latency and bandwidth and no global round barrier.
* ``staleness`` (:class:`~repro.engines.staleness.StalenessEngine`) — the
  async regime vectorised: integer round buckets per link and delayed-view
  planes over the whole ensemble.

The two vectorised backends also split a batch over worker *processes*
(``EngineConfig.workers`` / ``pool``, see :mod:`repro.engines.sharded`),
bit-identically for any worker count; ``make_engine("sharded")`` is the
batched engine with ``workers="auto"``.

See ``docs/engines.md`` for the backend guide and ``docs/architecture.md``
for the batching model and how to add a backend.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple, Type

import numpy as np

from ..exceptions import ConfigurationError
from ..graphs.topology import Topology
from ..kernels import KERNEL_CHOICES
from ..core.hybrid import (
    FixedRoundSwitch,
    LocalDifferenceSwitch,
    PotentialPlateauSwitch,
    SwitchPolicy,
)
from ..core.simulator import SimulationResult

__all__ = [
    "EngineConfig",
    "ReplicaParams",
    "ResolvedReplicaParams",
    "StepBatch",
    "ArrivalBatch",
    "RecordBatch",
    "Engine",
    "ENGINES",
    "make_engine",
    "register_engine",
    "replica_beta",
    "make_switch_policy",
    "apply_load_scales",
    "as_load_batch",
    "merge_record_batches",
    "parse_faults_spec",
    "parse_latency_spec",
    "plan_shards",
    "resolve_arrival_models",
    "resolve_arrival_rngs",
    "resolve_record_fields",
    "resolve_replica_keys",
    "resolve_replica_params",
    "resolve_rounding_rngs",
    "resolve_tile_size",
    "resolve_workers",
    "rounding_stream",
    "uniform_plane_value",
]

#: Scheme-name strings recorded in result tables, indexed by scheme code
#: (0 = first order, 1 = second order) — matching ``type(scheme).__name__``
#: of the matrix engine's scheme classes.
SCHEME_NAMES = np.array(["FirstOrderScheme", "SecondOrderScheme"], dtype="<U32")

#: The per-replica parameter planes a :class:`ReplicaParams` block carries.
REPLICA_PARAM_FIELDS = (
    "switch_rounds",
    "betas",
    "alpha_scales",
    "load_scales",
    "arrival_scales",
)


@dataclass
class ReplicaParams:
    """Per-replica parameter *planes*: one sweep value per replica column.

    Each field is ``None`` (every replica inherits the config-level value),
    a scalar (broadcast to the whole batch), or a length-``B`` sequence
    giving replica ``b`` its own value.  This is what turns a parameter
    sweep into a single engine call: the sweep axis becomes a plane that
    the vectorised backends fold into their kernels, the per-replica
    backends unfold into one simulator configuration per replica, and
    worker shards slice with their columns — all of them produce the same
    per-replica results.

    * ``switch_rounds`` — per-replica fixed SOS -> FOS switch round (the
      fig08 sweep axis); negative entries (or ``None`` entries in a
      sequence) mean "never switch".  Mutually exclusive with
      ``config.switch`` and with dynamic runs.
    * ``betas`` — per-replica SOS ``beta`` override (beta-sensitivity
      sweeps); every entry must lie in ``(0, 2)``.  Requires
      ``scheme="sos"``; ``beta = 1.0`` runs that replica as plain FOS.
    * ``alpha_scales`` — per-replica multiplier on the resolved per-edge
      alphas (diffusion-rate sensitivity); must be positive and finite.
    * ``load_scales`` — per-replica multiplier on the replica's initial
      load row, so one base load yields a whole initial-load family; must
      be finite.
    * ``arrival_scales`` — per-replica multiplier applied to the sampled
      workload deltas *before* clamping (arrival-rate sensitivity); must
      be ``>= 0``.  Requires ``config.arrivals``.
    """

    switch_rounds: Any = None
    betas: Any = None
    alpha_scales: Any = None
    load_scales: Any = None
    arrival_scales: Any = None


@dataclass(frozen=True)
class ResolvedReplicaParams:
    """A :class:`ReplicaParams` spec broadcast to concrete length-``B``
    planes (``None`` per field when that parameter does not vary)."""

    switch_rounds: Optional[np.ndarray] = None
    betas: Optional[np.ndarray] = None
    alpha_scales: Optional[np.ndarray] = None
    load_scales: Optional[np.ndarray] = None
    arrival_scales: Optional[np.ndarray] = None

    def shard(self, lo: int, hi: int) -> ReplicaParams:
        """The columns ``[lo, hi)`` of every plane, as a fresh spec.

        This is how the shard planner hands each worker its slice of the
        parameter planes: resolved arrays are themselves valid specs.
        """
        return ReplicaParams(
            **{
                name: (
                    getattr(self, name)[lo:hi].copy()
                    if getattr(self, name) is not None
                    else None
                )
                for name in REPLICA_PARAM_FIELDS
            }
        )


def _switch_round_plane(value, n_replicas: Optional[int]) -> np.ndarray:
    """Broadcast a ``switch_rounds`` spec to an int64 plane (``-1`` = never)."""
    if np.ndim(value) == 0:
        entries = [value] * (n_replicas if n_replicas is not None else 1)
    else:
        entries = list(value)
        if n_replicas is not None and len(entries) != n_replicas:
            raise ConfigurationError(
                f"{len(entries)} replica_params.switch_rounds for "
                f"{n_replicas} replicas"
            )
    try:
        return np.array(
            [-1 if e is None else int(e) for e in entries], dtype=np.int64
        )
    except (TypeError, ValueError) as exc:
        raise ConfigurationError(
            f"replica_params.switch_rounds must be integers or None, "
            f"got {value!r}: {exc}"
        ) from None


def _float_plane(value, n_replicas: Optional[int], name: str) -> np.ndarray:
    """Broadcast a float-valued replica plane, checking shape and finiteness."""
    if np.ndim(value) == 0:
        arr = np.full(
            n_replicas if n_replicas is not None else 1,
            float(value),
            dtype=np.float64,
        )
    else:
        arr = np.array(value, dtype=np.float64)
        if arr.ndim != 1:
            raise ConfigurationError(
                f"replica_params.{name} must be a scalar or a flat "
                f"per-replica sequence, got shape {arr.shape}"
            )
        if n_replicas is not None and arr.size != n_replicas:
            raise ConfigurationError(
                f"{arr.size} replica_params.{name} for {n_replicas} replicas"
            )
    if not np.all(np.isfinite(arr)):
        raise ConfigurationError(f"replica_params.{name} must be finite")
    return arr


def resolve_replica_params(
    spec, n_replicas: Optional[int] = None
) -> Optional[ResolvedReplicaParams]:
    """Normalise a config ``replica_params`` value to concrete planes.

    ``spec`` is ``None``, a :class:`ReplicaParams`, or a dict of its
    fields.  With ``n_replicas=None`` the spec is only parsed and
    range-checked (scalars validate as length-1 planes); with a batch size
    every plane is broadcast to length ``B``, and a sequence of any other
    length is rejected.  Returns ``None`` when no parameter varies.
    """
    if spec is None:
        return None
    if isinstance(spec, ResolvedReplicaParams):
        spec = ReplicaParams(
            **{name: getattr(spec, name) for name in REPLICA_PARAM_FIELDS}
        )
    elif isinstance(spec, dict):
        unknown = set(spec) - set(REPLICA_PARAM_FIELDS)
        if unknown:
            raise ConfigurationError(
                f"unknown replica_params fields {sorted(unknown)}; "
                f"known: {REPLICA_PARAM_FIELDS}"
            )
        spec = ReplicaParams(**spec)
    if not isinstance(spec, ReplicaParams):
        raise ConfigurationError(
            f"cannot interpret replica_params {spec!r}; pass a "
            "ReplicaParams or a dict of its fields"
        )
    planes: Dict[str, Optional[np.ndarray]] = {}
    planes["switch_rounds"] = (
        _switch_round_plane(spec.switch_rounds, n_replicas)
        if spec.switch_rounds is not None
        else None
    )
    for name in ("betas", "alpha_scales", "load_scales", "arrival_scales"):
        value = getattr(spec, name)
        planes[name] = (
            _float_plane(value, n_replicas, name) if value is not None else None
        )
    betas = planes["betas"]
    if betas is not None and not np.all((betas > 0.0) & (betas < 2.0)):
        raise ConfigurationError(
            f"replica_params.betas must lie in (0, 2), got {betas}"
        )
    alpha_scales = planes["alpha_scales"]
    if alpha_scales is not None and not np.all(alpha_scales > 0.0):
        raise ConfigurationError(
            "replica_params.alpha_scales must be positive"
        )
    arrival_scales = planes["arrival_scales"]
    if arrival_scales is not None and not np.all(arrival_scales >= 0.0):
        raise ConfigurationError(
            "replica_params.arrival_scales must be >= 0"
        )
    if all(v is None for v in planes.values()):
        return None
    return ResolvedReplicaParams(**planes)


def uniform_plane_value(arr: Optional[np.ndarray]) -> Optional[float]:
    """The single value of an all-equal plane; ``None`` if absent or varying."""
    if arr is None or arr.size == 0:
        return None
    if np.all(arr == arr[0]):
        return arr[0].item()
    return None


def apply_load_scales(
    loads: np.ndarray, params: Optional[ResolvedReplicaParams]
) -> np.ndarray:
    """Scale each replica's initial-load row by its ``load_scales`` entry.

    Every backend applies this to the same float64 ``(B, n)`` batch before
    any precision cast, so the scaled rows are bit-identical across
    engines.  Returns the input unchanged (not a copy) when no scales are
    set.
    """
    if params is None or params.load_scales is None:
        return loads
    return loads * params.load_scales[:, None]


@dataclass
class EngineConfig:
    """Workload description shared by every engine backend.

    Parameters mirror the classic ``LoadBalancingProcess`` + ``Simulator``
    stack: ``scheme`` is ``"fos"`` or ``"sos"`` (with ``beta``), ``rounding``
    is a :func:`repro.core.rounding.make_rounding` key, and ``switch``
    optionally describes the hybrid SOS -> FOS policy as a tuple:

    * ``("fixed", round)`` — every replica switches after ``round``,
    * ``("local-diff", threshold, min_rounds)`` — each replica switches once
      its own max local load difference drops to the threshold,
    * ``("plateau", window, min_drop, min_rounds)`` — each replica switches
      once its potential stops improving.

    ``seed`` is a base seed; replica ``b`` derives an independent stream
    from it, so runs are reproducible for any batch size.

    Which engines honour each non-default knob is declared once, in
    :mod:`repro.engines.capabilities`; an engine refuses the knobs its
    column does not list.
    """

    scheme: str = "sos"
    beta: float = 1.0
    rounding: str = "randomized-excess"
    rounds: int = 100
    record_every: int = 1
    seed: int = 0
    speeds: Optional[np.ndarray] = None
    alphas: Any = None
    switch: Optional[Tuple] = None
    targets: Optional[np.ndarray] = None
    keep_loads: bool = False
    #: ``"float64"`` (default, bit-exact with the reference engine for
    #: deterministic roundings) or ``"float32"`` — the batched engine's
    #: ensemble-throughput mode.  Token counts and integral loads stay exact
    #: below 2**24; scheme coefficients are quantised at ~1e-7 relative, so
    #: float32 traces are a valid discrete process of the same family but
    #: not bit-identical to the float64 ones.
    precision: str = "float64"
    #: Dynamic-workload arrival hook: ``None`` (static run), one
    #: :class:`~repro.core.dynamic.ArrivalModel` (or spec string, see
    #: :func:`~repro.core.dynamic.make_arrival_model`) shared by every
    #: replica, or a sequence with one model/spec per replica.  A config
    #: with arrivals runs through :meth:`Engine.run_dynamic`; each round the
    #: engine applies clamped arrivals/departures before the balancing step
    #: and records the dynamic metric columns (every round — dynamic runs
    #: ignore ``record_every``).
    arrivals: Any = None
    #: Per-replica arrival stream keys: replica ``b`` draws arrivals from
    #: ``arrival_stream(seed, arrival_seeds[b])`` (default key: ``b``).
    #: Lets sweeps pin streams to seed *values* so a replica's trajectory
    #: does not depend on its batch position.
    arrival_seeds: Optional[Sequence[int]] = None
    #: Arrival-count sampling discipline of the batched engine: ``"stream"``
    #: (default) draws each replica's per-round counts from its own spawned
    #: stream — the cross-engine bit-exactness contract — while ``"batch"``
    #: draws the whole ``(n, B)`` count plane in one vectorised call from a
    #: dedicated batch stream.  Batch sampling lifts the per-node-Poisson
    #: sampling ceiling (~3x at B=128) at the documented price of replica
    #: trajectories that no longer match the reference engine stream for
    #: stream (they stay exactly distributed and reproducible per seed).
    #: Requires one shared arrival model.
    arrival_sampling: str = "stream"
    #: Static-run record columns to compute, as a subset of
    #: :data:`~repro.core.records.FLOAT_FIELDS`; ``None`` means all of them.
    #: Excluded columns are stored as NaN.  Dropping ``min_transient`` and
    #: ``round_traffic`` lets the batched engine skip the per-round
    #: transient/traffic kernels — and is the precondition for the
    #: closed-form ``identity``-rounding fast path.
    record_fields: Optional[Sequence[str]] = None
    #: Closed-form continuous fast path of the batched engine: ``"auto"``
    #: (default) engages it whenever eligible — ``identity`` rounding, no
    #: switch policy, no arrivals, and ``record_fields`` excluding
    #: ``min_transient``/``round_traffic`` — preferring the Fourier kernel
    #: on graphs that advertise one (full-wrap tori) and the one-matmul-
    #: per-round CSR kernel otherwise.  ``"never"`` disables it;
    #: ``"matmul"`` / ``"spectral"`` force a tier (raising when the config
    #: or graph is not eligible).
    fast_path: str = "auto"
    #: Kernel tier of the batched engine's discrete hot loop: ``"auto"``
    #: (default) runs the cffi provider where
    #: :func:`repro.kernels.compiled_pays` says it pays
    #: (``randomized-excess``, ``B >= 2``, ``n * B >= 1024``, judged per
    #: shard in multi-worker runs) and the numpy tier everywhere else, with a
    #: one-time ``repro.kernels`` log line only when cffi is unavailable.
    #: ``"numpy"`` forces the vectorised numpy kernels; ``"cffi"``
    #: forces the compiled provider from :mod:`repro.kernels` and
    #: ``"python"`` the pure-python reference provider (a test oracle).
    #: The providers cover ``randomized-excess`` only: a forced one raises
    #: a ``ConfigurationError`` on any other rounding, and names the
    #: ``[compiled]`` pip extra when cffi is unavailable.  Every provider
    #: is bit-identical to the numpy tier (the token scatter consumes the
    #: same per-replica RNG streams in the same order).  Engines without
    #: a kernel tier accept ``"auto"`` and ``"numpy"``.
    kernel: str = "auto"
    #: Node-tile width of the batched engine's streaming kernels: ``None``
    #: (default) keeps the dense whole-``(n, B)`` scratch planes, an ``int``
    #: processes loads/arrivals/metric reductions and the excess-token
    #: planes in tiles of that many nodes, and ``"auto"`` derives the tile
    #: from ``memory_budget_mb``.  Tiled runs are bit-identical to dense
    #: runs whenever the summed quantities are integral (every discrete
    #: rounding); the continuous ``identity`` process agrees to accumulation
    #: accuracy.
    tile_size: Any = None
    #: Memory budget (MiB) for the *tiled scratch planes* when
    #: ``tile_size="auto"`` — the bound covers the per-tile node scratch and
    #: excess-token planes, not the O(n + m) state and operators.
    memory_budget_mb: float = 256.0
    #: ``"table"`` (default) stores every recorded round in dense columns;
    #: ``"summary"`` streams records through running min/max/sum/last
    #: aggregates (O(fields x B) memory regardless of round count) and
    #: returns single-row tables whose ``summary()`` carries the
    #: aggregates.
    record_mode: str = "table"
    #: Per-replica *rounding* stream keys of the vectorised backends:
    #: replica ``b`` draws its rounding randomness from
    #: ``rounding_stream(seed, replica_keys[b])`` (default key: ``b``).
    #: Like ``arrival_seeds``, this pins streams to key *values*, so a
    #: replica's trajectory does not depend on its batch position — the
    #: property worker shards use to stay bit-identical to the
    #: single-process run for any shard assignment.
    replica_keys: Optional[Sequence[int]] = None
    #: Worker processes of the batched and staleness engines: ``None``
    #: (default) runs the batch in this process, ``"auto"`` splits it into
    #: one column shard per usable CPU (capped at the replica count), an
    #: int pins the shard count.  Results are bit-identical for any count.
    workers: Any = None
    #: Persistent worker pool of the batched and staleness engines:
    #: ``None``/``False`` (default) runs each multi-shard call on a fresh
    #: :class:`~repro.engines.pool.ShardedWorkerPool` that the call opens
    #: and closes, ``True`` runs it on the process-wide default pool, and
    #: a :class:`ShardedWorkerPool` instance pins that pool (whose worker
    #: count then sets the shards).  A persistent pool keeps its workers,
    #: their topologies and prepared operators across calls.  Results are
    #: bit-identical either way.
    pool: Any = None
    #: Per-replica parameter planes (:class:`ReplicaParams`, or a dict of
    #: its fields): switch round, beta, alpha scale, initial-load scale
    #: and arrival-rate scale per replica column.  This is the sweep
    #: surface — a whole fig08-style parameter sweep becomes *one* engine
    #: call whose replicas each carry their own sweep point.  The
    #: vectorised engines fold the planes into their kernels (and worker
    #: shards slice them with their columns, bit-identity preserved); the
    #: per-replica backends configure each replica from
    #: its plane entries.
    replica_params: Any = None
    #: Link-latency model of the async engine: ``None`` (default) reads the
    #: topology's stamped ``link_latency``/``link_bandwidth`` attributes
    #: (falling back to the synchronous 0-latency regime when unstamped), a
    #: scalar forces that latency in rounds on every link, and a spec string
    #: draws per-link latencies from a distribution seeded by ``seed`` —
    #: ``"fixed:X"``, ``"uniform:LO,HI"`` or ``"exp:MEAN"`` (see
    #: :func:`parse_latency_spec`).
    latency_model: Any = None
    #: Bounded-staleness gate of the async engine: a node may not start
    #: round ``r`` until every neighbour's last heard-from round is at least
    #: ``r - 1 - max_skew``.  ``None`` (default) means unbounded skew; ``0``
    #: recovers lockstep neighbourhood synchrony.
    max_skew: Optional[int] = None
    #: Latency-quantisation policy of the staleness engine: how fractional
    #: per-link latencies map onto the integer round buckets that index its
    #: delayed-view planes.  ``"ceil"`` (default) rounds delays up (a
    #: message is visible only once fully delivered — matches the event
    #: queue's first-usable round for every latency), ``"floor"`` and
    #: ``"nearest"`` round down / to the closest bucket, ``"exact"``
    #: refuses non-integer latencies outright (the bit-identity contract
    #: vs the async engine only holds where quantisation is a no-op).
    latency_buckets: str = "ceil"
    #: Fault model applied to token transfers
    #: (:class:`~repro.network.faults.FaultModel`): drops bounce the tokens
    #: back to the sender, so load is conserved.  The engine binds any
    #: unseeded model to a generator derived from ``seed``, so fault
    #: schedules reproduce run-to-run.
    faults: Any = None
    #: Topology-churn schedule (:class:`~repro.core.churn.ChurnSchedule`,
    #: a spec string — see :func:`~repro.core.churn.parse_churn_spec` —
    #: or ``None``): timed node crash/recovery, join/leave and edge
    #: add/remove events applied at the start of their round.  Crashing
    #: nodes hand their tokens to surviving neighbours (or freeze them
    #: until recovery, per the schedule's policy), so ``sum(loads)`` is
    #: conserved over the full node universe under any schedule.
    #: Requires default speeds/alphas/targets and is mutually exclusive
    #: with switch policies, replica_params, float32, tiling, streaming
    #: summaries and trimmed record fields.
    churn: Any = None

    def validate(self) -> "EngineConfig":
        """Check every field combination, raising ``ConfigurationError``
        on the first invalid one; returns ``self`` so call sites can chain
        (``config.validate()`` is the first thing every backend's
        ``prepare``/``run`` does)."""
        if self.scheme not in ("fos", "sos"):
            raise ConfigurationError(
                f"scheme must be 'fos' or 'sos', got {self.scheme!r}"
            )
        if self.precision not in ("float64", "float32"):
            raise ConfigurationError(
                f"precision must be 'float64' or 'float32', got {self.precision!r}"
            )
        if self.rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {self.rounds}")
        if self.record_every < 1:
            raise ConfigurationError(
                f"record_every must be >= 1, got {self.record_every}"
            )
        if self.switch is not None:
            make_switch_policy(self.switch)  # raises on malformed specs
        if self.arrivals is not None:
            resolve_arrival_models(self.arrivals)  # raises on malformed specs
            if self.switch is not None:
                raise ConfigurationError(
                    "dynamic runs (config.arrivals) do not support hybrid "
                    "switch specs"
                )
        elif self.arrival_seeds is not None:
            raise ConfigurationError(
                "arrival_seeds only applies to dynamic runs (set arrivals)"
            )
        if self.arrival_sampling not in ("stream", "batch"):
            raise ConfigurationError(
                "arrival_sampling must be 'stream' or 'batch', "
                f"got {self.arrival_sampling!r}"
            )
        if self.fast_path not in ("auto", "never", "matmul", "spectral"):
            raise ConfigurationError(
                "fast_path must be 'auto', 'never', 'matmul' or 'spectral', "
                f"got {self.fast_path!r}"
            )
        if self.kernel not in KERNEL_CHOICES:
            raise ConfigurationError(
                f"kernel must be one of {KERNEL_CHOICES}, got {self.kernel!r}"
            )
        resolve_record_fields(self.record_fields)  # raises on unknown fields
        if self.record_fields is not None and self.arrivals is not None:
            raise ConfigurationError(
                "record_fields applies to static runs only (dynamic runs "
                "record the fixed dynamic column set)"
            )
        if self.tile_size is not None and self.tile_size != "auto":
            if not isinstance(self.tile_size, (int, np.integer)) or self.tile_size < 1:
                raise ConfigurationError(
                    f"tile_size must be None, 'auto' or an int >= 1, "
                    f"got {self.tile_size!r}"
                )
        if not self.memory_budget_mb > 0:
            raise ConfigurationError(
                f"memory_budget_mb must be > 0, got {self.memory_budget_mb}"
            )
        if self.record_mode not in ("table", "summary"):
            raise ConfigurationError(
                f"record_mode must be 'table' or 'summary', got {self.record_mode!r}"
            )
        if self.workers is not None and self.workers != "auto":
            if not isinstance(self.workers, (int, np.integer)) or self.workers < 1:
                raise ConfigurationError(
                    f"workers must be None, 'auto' or an int >= 1, "
                    f"got {self.workers!r}"
                )
        if self.pool is not None and not isinstance(self.pool, bool):
            # Duck-typed so this module never imports the pool machinery:
            # any object exposing the pool's run surface qualifies.
            if not hasattr(self.pool, "run_batch"):
                raise ConfigurationError(
                    "pool must be None, a bool or a "
                    f"ShardedWorkerPool instance, got {self.pool!r}"
                )
        params = resolve_replica_params(self.replica_params)  # raises on bad specs
        if params is not None:
            if params.switch_rounds is not None:
                if self.switch is not None:
                    raise ConfigurationError(
                        "replica_params.switch_rounds and config.switch are "
                        "mutually exclusive (the per-replica rounds replace "
                        "the global policy)"
                    )
                if self.arrivals is not None:
                    raise ConfigurationError(
                        "dynamic runs (config.arrivals) do not support "
                        "per-replica switch rounds"
                    )
            if params.betas is not None and self.scheme != "sos":
                raise ConfigurationError(
                    "replica_params.betas needs scheme='sos' (beta is the "
                    "SOS momentum parameter; use beta=1.0 entries for FOS "
                    "replicas)"
                )
            if params.arrival_scales is not None and self.arrivals is None:
                raise ConfigurationError(
                    "replica_params.arrival_scales only applies to dynamic "
                    "runs (set arrivals)"
                )
        parse_latency_spec(self.latency_model)  # raises on malformed specs
        if self.max_skew is not None:
            if not isinstance(self.max_skew, (int, np.integer)) or self.max_skew < 0:
                raise ConfigurationError(
                    f"max_skew must be None or an int >= 0, got {self.max_skew!r}"
                )
        if self.latency_buckets not in ("ceil", "floor", "nearest", "exact"):
            raise ConfigurationError(
                "latency_buckets must be 'ceil', 'floor', 'nearest' or "
                f"'exact', got {self.latency_buckets!r}"
            )
        parse_faults_spec(self.faults)  # raises on malformed specs
        if self.churn is not None:
            from ..core.churn import parse_churn_spec

            parse_churn_spec(self.churn)  # raises on malformed specs
            offending = []
            if self.speeds is not None:
                offending.append("speeds")
            if self.alphas is not None:
                offending.append("alphas")
            if self.targets is not None:
                offending.append("targets")
            if self.switch is not None:
                offending.append("switch")
            if self.replica_params is not None:
                offending.append("replica_params")
            if self.precision != "float64":
                offending.append(f"precision={self.precision!r}")
            if self.tile_size is not None:
                offending.append("tile_size")
            if self.record_mode != "table":
                offending.append(f"record_mode={self.record_mode!r}")
            if self.record_fields is not None:
                offending.append("record_fields")
            if offending:
                raise ConfigurationError(
                    "churn runs need uniform speeds/alphas, moving active-"
                    "average targets and the dense float64 record path; "
                    "not supported with " + ", ".join(offending)
                )
        return self


def make_switch_policy(spec) -> Optional[SwitchPolicy]:
    """Build a fresh :class:`SwitchPolicy` from a config switch spec.

    Only declarative specs are accepted — each replica must get its own
    policy instance (stateful policies like the plateau window would
    otherwise interleave every replica's history through one object).
    """
    if spec is None:
        return None
    if isinstance(spec, SwitchPolicy):
        raise ConfigurationError(
            "pass a switch spec tuple (e.g. ('fixed', 500)) instead of a "
            "SwitchPolicy instance, so every replica gets an independent policy"
        )
    if not isinstance(spec, (tuple, list)) or not spec:
        raise ConfigurationError(f"cannot interpret switch spec {spec!r}")
    kind, *args = spec
    if kind == "fixed":
        return FixedRoundSwitch(*args)
    if kind == "local-diff":
        return LocalDifferenceSwitch(*args)
    if kind == "plateau":
        return PotentialPlateauSwitch(*args)
    raise ConfigurationError(
        f"unknown switch kind {kind!r}; known: fixed, local-diff, plateau"
    )


def resolve_arrival_models(spec, n_replicas: Optional[int] = None) -> Optional[List]:
    """Normalise a config ``arrivals`` value to one model per replica.

    ``spec`` is ``None``, one :class:`~repro.core.dynamic.ArrivalModel` (or
    spec string) shared by every replica, or a sequence with one entry per
    replica.  With ``n_replicas=None`` the spec is only parsed/validated.
    Arrival models are stateless (all randomness flows through the per-call
    generator), so sharing one instance across replicas is sound.
    """
    from ..core.dynamic import ArrivalModel, make_arrival_model

    if spec is None:
        return None
    if isinstance(spec, (str, ArrivalModel)):
        model = make_arrival_model(spec)
        return [model] * n_replicas if n_replicas is not None else [model]
    if not isinstance(spec, (list, tuple)):
        raise ConfigurationError(
            f"cannot interpret arrivals {spec!r}; pass an ArrivalModel, a "
            "spec string, or a per-replica sequence of either"
        )
    models = [make_arrival_model(entry) for entry in spec]
    if not models:
        raise ConfigurationError("arrivals sequence must not be empty")
    if n_replicas is not None and len(models) != n_replicas:
        if len(models) == 1:
            return models * n_replicas
        raise ConfigurationError(
            f"{len(models)} arrival models for {n_replicas} replicas"
        )
    return models


def resolve_arrival_rngs(
    config: "EngineConfig", n_replicas: int
) -> List[np.random.Generator]:
    """Per-replica arrival generators following the engine stream layout.

    Replica ``b`` draws from ``arrival_stream(config.seed, key_b)`` with
    ``key_b = config.arrival_seeds[b]`` (default ``b``) — independent of the
    rounding streams and of the batch size.
    """
    from ..core.dynamic import arrival_streams

    keys = config.arrival_seeds
    if keys is None:
        return arrival_streams(config.seed, n_replicas)
    keys = [int(k) for k in keys]
    if len(keys) != n_replicas:
        raise ConfigurationError(
            f"{len(keys)} arrival_seeds for {n_replicas} replicas"
        )
    return arrival_streams(config.seed, keys)


def rounding_stream(seed: int, replica: int = 0) -> np.random.Generator:
    """Replica ``replica``'s rounding generator of the vectorised backends.

    ``default_rng(SeedSequence(seed, spawn_key=(replica, 1)))`` — the same
    spawn-key layout as :func:`~repro.core.dynamic.arrival_stream`, suffixed
    with ``1`` so rounding streams can never collide with arrival streams
    (one-element keys) or the batch arrival stream (``(0, 0)``).  Because
    the key is the replica's *identity* rather than its batch position, a
    replica draws the same stream in any batch composition — the invariant
    behind both batch-size-independent batched traces and the bit-identity
    of worker shards to the unsharded run.
    """
    return np.random.default_rng(
        np.random.SeedSequence(int(seed), spawn_key=(int(replica), 1))
    )


def resolve_rounding_rngs(
    config: "EngineConfig", n_replicas: int
) -> List[np.random.Generator]:
    """Per-replica rounding generators following the engine stream layout.

    Replica ``b`` draws from ``rounding_stream(config.seed, key_b)`` with
    ``key_b = config.replica_keys[b]`` (default ``b``) — independent of the
    arrival streams and of the batch size.
    """
    return [
        rounding_stream(config.seed, k)
        for k in resolve_replica_keys(config, n_replicas)
    ]


def resolve_replica_keys(config: "EngineConfig", n_replicas: int) -> List[int]:
    """Per-replica stream keys: ``config.replica_keys`` (checked against
    the batch size), or the batch index ``0 .. B-1`` by default."""
    if config.replica_keys is None:
        return list(range(n_replicas))
    keys = [int(k) for k in config.replica_keys]
    if len(keys) != n_replicas:
        raise ConfigurationError(
            f"{len(keys)} replica_keys for {n_replicas} replicas"
        )
    return keys


def replica_beta(
    config: "EngineConfig", params: Optional[ResolvedReplicaParams], b: int
) -> float:
    """Replica ``b``'s SOS ``beta``: its ``replica_params.betas`` entry,
    else ``config.beta``; FOS runs as ``beta = 1``."""
    if config.scheme != "sos":
        return 1.0
    if params is not None and params.betas is not None:
        return float(params.betas[b])
    return config.beta


def resolve_record_fields(spec) -> Tuple[str, ...]:
    """Normalise a config ``record_fields`` value to an ordered field tuple.

    ``None`` means every float record field.  Order follows the canonical
    :data:`~repro.core.records.FLOAT_FIELDS` order regardless of the spec's.
    """
    from ..core.records import FLOAT_FIELDS

    if spec is None:
        return tuple(FLOAT_FIELDS)
    wanted = set(spec)
    unknown = wanted - set(FLOAT_FIELDS)
    if unknown:
        raise ConfigurationError(
            f"unknown record fields {sorted(unknown)}; known: {FLOAT_FIELDS}"
        )
    if not wanted:
        raise ConfigurationError("record_fields must name at least one field")
    return tuple(f for f in FLOAT_FIELDS if f in wanted)


def resolve_tile_size(
    config: "EngineConfig",
    n: int,
    n_replicas: int,
    itemsize: int,
    planes: int = 0,
) -> Optional[int]:
    """Resolve a config ``tile_size`` to ``None`` (dense) or a node count.

    ``"auto"`` sizes the tile so the per-tile scratch — about four node-space
    planes plus ``planes`` excess-token planes, each ``tile x B x itemsize``
    bytes — fits the config's ``memory_budget_mb``.  The result is clamped to
    ``[1, n]``; a budget generous enough for the whole graph resolves to
    ``None``: dense, which the engines run as one tile covering every node.
    """
    spec = config.tile_size
    if spec is None:
        return None
    if spec == "auto":
        per_node = (4 + planes) * n_replicas * itemsize
        tile = int(config.memory_budget_mb * 2**20) // max(per_node, 1)
        if tile >= n:
            return None
        return max(1, tile)
    return min(int(spec), n) if int(spec) < n else None


def parse_latency_spec(spec):
    """Normalise a ``latency_model`` value; raises on malformed specs.

    Returns ``None``, ``("fixed", x)``, ``("uniform", lo, hi)`` or
    ``("exp", mean)``.  Accepted inputs: ``None``, a non-negative scalar,
    or the spec strings ``"fixed:X"`` / ``"uniform:LO,HI"`` / ``"exp:MEAN"``
    (a bare numeric string counts as fixed).
    """
    accepted = "'fixed:X', 'uniform:LO,HI' or 'exp:MEAN'"
    if spec is None:
        return None
    if isinstance(spec, (int, float, np.integer, np.floating)):
        x = float(spec)
        if not np.isfinite(x) or x < 0.0:
            raise ConfigurationError(
                f"latency must be finite and >= 0, got {spec!r} "
                f"(accepted forms: a non-negative scalar, {accepted})"
            )
        return ("fixed", x)
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"latency_model must be None, a non-negative scalar or one of "
            f"the spec strings {accepted}, got {spec!r}"
        )
    kind, _, rest = spec.partition(":")
    try:
        if not _ and kind:  # bare number: "0.5"
            return parse_latency_spec(float(kind))
        if kind == "fixed":
            return parse_latency_spec(float(rest))
        if kind == "uniform":
            lo_s, _, hi_s = rest.partition(",")
            lo, hi = float(lo_s), float(hi_s)
            if not (0.0 <= lo <= hi and np.isfinite(hi)):
                raise ConfigurationError(
                    f"uniform latency needs 0 <= LO <= HI, got {spec!r} "
                    f"(accepted forms: {accepted})"
                )
            return ("uniform", lo, hi)
        if kind == "exp":
            mean = float(rest)
            if not (np.isfinite(mean) and mean >= 0.0):
                raise ConfigurationError(
                    f"exp latency needs MEAN >= 0, got {spec!r} "
                    f"(accepted forms: {accepted})"
                )
            return ("exp", mean)
    except ValueError:
        pass  # float() parse failures fall through to the catch-all below
    raise ConfigurationError(
        f"cannot interpret latency spec {spec!r}; accepted forms: "
        f"{accepted} (or a bare non-negative number)"
    )


def parse_faults_spec(spec):
    """Build a :class:`~repro.network.faults.FaultModel` from a CLI-style
    spec string; raises on malformed specs.

    Accepted inputs (a :class:`FaultModel` instance and ``None`` pass
    through):

    * ``"none"`` — :class:`~repro.network.faults.NoFaults`,
    * ``"drop:P"`` — :class:`~repro.network.faults.RandomLinkDrop` with
      per-message drop probability ``P``,
    * ``"outage:U:V:START[:END]"`` — :class:`~repro.network.faults.LinkOutage`
      taking link ``{U, V}`` down from round ``START`` (inclusive) to
      ``END`` (exclusive; omitted = forever).
    """
    if spec is None:
        return None
    from ..network.faults import (
        FaultModel,
        LinkOutage,
        NoFaults,
        RandomLinkDrop,
    )

    if isinstance(spec, FaultModel):
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"faults must be None, a FaultModel or a spec string "
            f"(none | drop:P | outage:U:V:START[:END]), got {spec!r}"
        )
    kind, _, rest = spec.strip().partition(":")
    kind = kind.strip().lower()
    try:
        if kind == "none":
            return NoFaults()
        if kind == "drop":
            return RandomLinkDrop(float(rest))
        if kind == "outage":
            parts = rest.split(":")
            if len(parts) not in (3, 4):
                raise ConfigurationError(
                    f"outage spec is outage:U:V:START[:END], got {spec!r}"
                )
            end = int(parts[3]) if len(parts) == 4 else None
            return LinkOutage(
                [(int(parts[0]), int(parts[1]))], start=int(parts[2]), end=end
            )
    except ValueError as exc:  # int()/float() parse failures
        raise ConfigurationError(f"bad faults spec {spec!r}: {exc}") from None
    raise ConfigurationError(
        f"unknown faults spec {spec!r}; known: none, drop:P, "
        f"outage:U:V:START[:END]"
    )


def usable_cpus() -> int:
    """CPUs this process may run on: the scheduling affinity mask where
    the platform exposes one (so container CPU limits are respected)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux platforms
        return os.cpu_count() or 1


def resolve_workers(spec, n_replicas: int) -> int:
    """Resolve a config ``workers`` value to a concrete process count.

    ``None`` / ``"auto"`` takes the usable CPU count (the scheduling
    affinity mask where the platform exposes one, so container CPU limits
    are respected); the result is always capped at the replica count —
    an empty shard would do no work — and floored at 1.
    """
    if spec is None or spec == "auto":
        workers = usable_cpus()
    else:
        workers = int(spec)
        if workers < 1:
            raise ConfigurationError(f"workers must be >= 1, got {spec!r}")
    return max(1, min(workers, int(n_replicas)))


def shard_count(workers, n_replicas: int) -> int:
    """Column shards of an ``n_replicas`` batch under a ``workers`` spec.

    Shards keep >= 2 columns whenever the batch has >= 2: numpy sums a
    single-column plane through its contiguous pairwise kernel, whose
    *fractional* reductions differ at the ulp level from the strided
    row-pairwise kernel every width >= 2 goes through — a width-1 shard
    of a wider batch would break bit-identity for the continuous identity
    process and the fractional dynamic/plateau reductions.
    """
    return max(1, min(resolve_workers(workers, n_replicas), n_replicas // 2 or 1))


def check_in_process(config: "EngineConfig", n_replicas: int, engine: str) -> None:
    """Refuse the ``prepare()``/``step()`` protocol on a config that runs
    on worker processes: a pool, or ``workers`` planning more than one
    shard of the ``n_replicas`` batch.  Per-round IPC would cost more than
    it parallelises; the whole-batch entry points shard instead."""
    if config.pool or (
        config.workers is not None and shard_count(config.workers, n_replicas) > 1
    ):
        raise ConfigurationError(
            f"the {engine} engine's prepare()/step() protocol runs in this "
            f"process, but pool={config.pool!r}, workers={config.workers!r} "
            f"runs {n_replicas} replicas on worker processes; run whole "
            "batches through run()/run_dynamic(), or drop workers/pool for "
            "step-level access (the traces are identical)"
        )


def check_regime(config: "EngineConfig", dynamic: bool) -> None:
    """Refuse a static entry point on a config with arrivals, and a
    dynamic one on a config without."""
    if dynamic and config.arrivals is None:
        raise ConfigurationError(
            "run_dynamic() needs arrival models (set config.arrivals)"
        )
    if not dynamic and config.arrivals is not None:
        raise ConfigurationError(
            "config has arrival models; dynamic workloads run through "
            "run_dynamic()"
        )


def plan_shards(n_replicas: int, n_shards: int) -> List[Tuple[int, int]]:
    """Contiguous near-equal column shards ``[lo, hi)`` covering a batch.

    The first ``n_replicas % n_shards`` shards take one extra replica, so
    shard sizes differ by at most one; shard boundaries carry no semantic
    weight (per-replica streams are keyed by global replica index, so any
    split yields identical trajectories).
    """
    if n_replicas < 1:
        raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
    if not 1 <= n_shards <= n_replicas:
        raise ConfigurationError(
            f"n_shards must be in [1, {n_replicas}], got {n_shards}"
        )
    base, extra = divmod(n_replicas, n_shards)
    bounds: List[Tuple[int, int]] = []
    lo = 0
    for i in range(n_shards):
        hi = lo + base + (1 if i < extra else 0)
        bounds.append((lo, hi))
        lo = hi
    return bounds


def as_load_batch(initial_loads: np.ndarray, n: int) -> np.ndarray:
    """Normalise initial loads to a ``(B, n)`` float64 matrix."""
    loads = np.asarray(initial_loads, dtype=np.float64)
    if loads.ndim == 1:
        loads = loads[None, :]
    if loads.ndim != 2 or loads.shape[1] != n:
        raise ConfigurationError(
            f"initial loads have shape {np.shape(initial_loads)}, "
            f"expected (n,) or (B, n) with n={n}"
        )
    return loads


@dataclass(frozen=True)
class StepBatch:
    """Everything that happened in one synchronous round, batch-wide.

    ``loads``/``flows`` are ``(B, n)`` / ``(B, m)`` snapshots *after* the
    round; ``min_transient`` and ``traffic`` are per-replica scalars for the
    round itself.  ``switched`` flags replicas whose hybrid policy fired at
    this round.
    """

    round_index: int
    loads: np.ndarray
    flows: np.ndarray
    min_transient: np.ndarray
    traffic: np.ndarray
    switched: np.ndarray


@dataclass(frozen=True)
class ArrivalBatch:
    """What the per-round arrival hook did, batch-wide.

    ``round_index`` is the (pre-step) round the arrivals precede;
    ``arrived`` / ``departed`` / ``clamped`` are per-replica token totals —
    created tokens, actually consumed tokens, and the requested consumption
    refused because the node had no non-negative load left.
    """

    round_index: int
    arrived: np.ndarray
    departed: np.ndarray
    clamped: np.ndarray


@dataclass
class RecordBatch:
    """Recorded metric columns of a finished batch run.

    ``columns`` maps each float record field to a ``(rounds_recorded, B)``
    array; ``round_index`` is shared across replicas, ``scheme_codes``
    indexes :data:`SCHEME_NAMES` per record per replica.  ``results()``
    slices the batch into per-replica
    :class:`~repro.core.simulator.SimulationResult` objects backed by
    columnar :class:`~repro.core.records.RecordTable` storage — or returns
    pre-built results directly when a backend supplies them.
    """

    round_index: Optional[np.ndarray] = None
    scheme_codes: Optional[np.ndarray] = None
    columns: Optional[Dict[str, np.ndarray]] = None
    final_loads: Optional[np.ndarray] = None
    final_flows: Optional[np.ndarray] = None
    switched_at: Optional[np.ndarray] = None
    loads_history: Optional[List[np.ndarray]] = None
    prebuilt: Optional[List[SimulationResult]] = None
    #: Streaming-summary storage (``record_mode="summary"``): running
    #: aggregates instead of dense columns, plus the last scheme codes.
    summary_stats: Optional[object] = None
    scheme_last: Optional[np.ndarray] = None
    #: Dynamic-run storage: per-round index plus ``(rounds, B)`` dynamic
    #: metric columns (batched backend), or pre-built per-replica results.
    dynamic_round_index: Optional[np.ndarray] = None
    dynamic_columns: Optional[Dict[str, np.ndarray]] = None
    dynamic_summary_stats: Optional[object] = None
    prebuilt_dynamic: Optional[List] = None

    def dynamic_results(self) -> List:
        """Per-replica :class:`~repro.core.dynamic.DynamicResult` objects."""
        if self.prebuilt_dynamic is not None:
            return self.prebuilt_dynamic
        from ..core.dynamic import DynamicResult
        from ..core.records import DYNAMIC_FLOAT_FIELDS, DynamicRecordTable
        from ..core.state import LoadState

        if self.dynamic_summary_stats is not None:
            stats = self.dynamic_summary_stats
            rounds = max(stats.last_round, 0)
            return [
                DynamicResult(
                    table=DynamicRecordTable.from_summary(
                        stats.last_round,
                        {f: stats.last[f][b] for f in stats.fields},
                        stats.replica_summary(b, DYNAMIC_FLOAT_FIELDS),
                    ),
                    final_state=LoadState(
                        load=self.final_loads[b],
                        flows=self.final_flows[b],
                        round_index=rounds,
                    ),
                )
                for b in range(self.final_loads.shape[0])
            ]
        if self.dynamic_columns is None:
            raise ConfigurationError(
                "this run recorded no dynamic columns (config.arrivals was "
                "None); use results() for static runs"
            )
        n_replicas = self.final_loads.shape[0]
        rounds = (
            int(self.dynamic_round_index[-1])
            if self.dynamic_round_index.size
            else 0
        )
        out: List[DynamicResult] = []
        for b in range(n_replicas):
            table = DynamicRecordTable.from_columns(
                self.dynamic_round_index,
                {name: col[:, b] for name, col in self.dynamic_columns.items()},
            )
            out.append(
                DynamicResult(
                    table=table,
                    final_state=LoadState(
                        load=self.final_loads[b],
                        flows=self.final_flows[b],
                        round_index=rounds,
                    ),
                )
            )
        return out

    def results(self) -> List[SimulationResult]:
        """Per-replica :class:`~repro.core.simulator.SimulationResult`
        objects of a static run — sliced out of the columnar storage, or
        returned directly when a backend supplied pre-built results."""
        if self.prebuilt is not None:
            return self.prebuilt
        from ..core.records import RecordTable
        from ..core.state import LoadState

        if self.summary_stats is not None:
            return self._summary_results()
        n_replicas = self.final_loads.shape[0]
        rounds = int(self.round_index[-1]) if self.round_index.size else 0
        out: List[SimulationResult] = []
        for b in range(n_replicas):
            table = RecordTable.from_columns(
                self.round_index,
                SCHEME_NAMES[self.scheme_codes[:, b]],
                {name: col[:, b] for name, col in self.columns.items()},
            )
            switched = (
                int(self.switched_at[b]) if self.switched_at[b] >= 0 else None
            )
            history = (
                [snap[b] for snap in self.loads_history]
                if self.loads_history is not None
                else None
            )
            out.append(
                SimulationResult(
                    table=table,
                    final_state=LoadState(
                        load=self.final_loads[b],
                        flows=self.final_flows[b],
                        round_index=rounds,
                    ),
                    switched_at=switched,
                    loads_history=history,
                )
            )
        return out

    def _summary_results(self) -> List[SimulationResult]:
        """Streaming-mode results: single-row tables carrying the aggregates."""
        from ..core.records import FLOAT_FIELDS, RecordTable
        from ..core.state import LoadState

        stats = self.summary_stats
        rounds = max(stats.last_round, 0)
        out: List[SimulationResult] = []
        for b in range(self.final_loads.shape[0]):
            table = RecordTable.from_summary(
                stats.last_round,
                str(SCHEME_NAMES[self.scheme_last[b]]),
                {f: stats.last[f][b] for f in stats.fields},
                stats.replica_summary(b, FLOAT_FIELDS),
            )
            switched = (
                int(self.switched_at[b]) if self.switched_at[b] >= 0 else None
            )
            history = (
                [snap[b] for snap in self.loads_history]
                if self.loads_history is not None
                else None
            )
            out.append(
                SimulationResult(
                    table=table,
                    final_state=LoadState(
                        load=self.final_loads[b],
                        flows=self.final_flows[b],
                        round_index=rounds,
                    ),
                    switched_at=switched,
                    loads_history=history,
                )
            )
        return out


def _merge_columns(
    batches: Sequence["RecordBatch"], attr: str
) -> Optional[Dict[str, np.ndarray]]:
    """Width-concatenate one column-dict attribute across shard batches."""
    first = getattr(batches[0], attr)
    if first is None:
        return None
    return {
        name: np.hstack([getattr(b, attr)[name] for b in batches])
        for name in first
    }


def merge_record_batches(batches: Sequence["RecordBatch"]) -> "RecordBatch":
    """Merge per-shard :class:`RecordBatch` objects along the replica axis.

    The inverse of splitting a ``(B, n)`` batch into column shards: record
    columns ``(rounds, B_shard)`` are h-stacked, per-replica vectors and
    final states are concatenated, streaming summaries merge through
    :meth:`~repro.core.records.StreamingStats.concat`.  Every shard must
    come from the same workload (same rounds, same record grid) —
    mismatched record grids raise, because silently aligning them would
    fabricate data.  Only the vectorised engines' columnar batches merge;
    the per-replica engines' pre-built results are refused.
    """
    from ..core.records import StreamingStats

    batches = list(batches)
    if not batches:
        raise ConfigurationError("merge_record_batches needs at least one batch")
    if len(batches) == 1:
        return batches[0]
    if any(b.prebuilt is not None or b.prebuilt_dynamic is not None
           for b in batches):
        raise ConfigurationError(
            "cannot merge pre-built per-replica results; only the batched "
            "and staleness engines' columnar record batches shard"
        )
    first = batches[0]
    for attr in ("round_index", "dynamic_round_index"):
        grid = getattr(first, attr)
        for other in batches[1:]:
            if (grid is None) != (getattr(other, attr) is None) or (
                grid is not None
                and not np.array_equal(grid, getattr(other, attr))
            ):
                raise ConfigurationError(
                    f"cannot merge record batches with different {attr} "
                    "grids (shards must run the same workload)"
                )
    loads_history = None
    if first.loads_history is not None:
        loads_history = [
            np.vstack([b.loads_history[i] for b in batches])
            for i in range(len(first.loads_history))
        ]
    concat = np.concatenate
    return RecordBatch(
        round_index=first.round_index,
        scheme_codes=(
            np.hstack([b.scheme_codes for b in batches])
            if first.scheme_codes is not None
            else None
        ),
        columns=_merge_columns(batches, "columns"),
        final_loads=np.vstack([b.final_loads for b in batches]),
        final_flows=np.vstack([b.final_flows for b in batches]),
        switched_at=(
            concat([b.switched_at for b in batches])
            if first.switched_at is not None
            else None
        ),
        loads_history=loads_history,
        summary_stats=(
            StreamingStats.concat([b.summary_stats for b in batches])
            if first.summary_stats is not None
            else None
        ),
        scheme_last=(
            concat([b.scheme_last for b in batches])
            if first.scheme_last is not None
            else None
        ),
        dynamic_round_index=first.dynamic_round_index,
        dynamic_columns=_merge_columns(batches, "dynamic_columns"),
        dynamic_summary_stats=(
            StreamingStats.concat([b.dynamic_summary_stats for b in batches])
            if first.dynamic_summary_stats is not None
            else None
        ),
    )


class Engine:
    """Base class of every execution backend."""

    #: Registry key (``make_engine`` name).
    name: str = ""

    #: Per-topology cache a backend may fill with prepared operators and
    #: reuse across calls (pool workers keep one per graph); ``None``
    #: disables it, and backends with nothing to reuse ignore it.
    operator_cache: Optional[Dict] = None

    def prepare(self, topo: Topology, config: EngineConfig, initial_loads):
        """Build a run handle for a batch of replicas."""
        raise NotImplementedError

    def step(self, handle) -> StepBatch:
        """Advance every replica one synchronous round."""
        raise NotImplementedError

    def arrive(self, handle) -> ArrivalBatch:
        """Per-round arrival hook of dynamic runs (``config.arrivals``).

        Samples every replica's workload deltas for the upcoming round from
        its own arrival stream and applies them — arrivals added, departures
        clamped at the non-negative current load — returning the exact token
        accounting.  Call once before each :meth:`step`; engines inject
        automatically if a dynamic run steps without the hook, and raise on
        a second call in the same round.
        """
        raise NotImplementedError

    def metrics(self, handle) -> RecordBatch:
        """Seal the run and return the recorded metric batch."""
        raise NotImplementedError

    # ------------------------------------------------------------------
    def run(
        self,
        topo: Topology,
        config: EngineConfig,
        initial_loads: np.ndarray,
    ) -> List[SimulationResult]:
        """Run the batch: :meth:`run_batch`, one ``SimulationResult`` per
        replica."""
        return self.run_batch(topo, config, initial_loads).results()

    def run_dynamic(
        self,
        topo: Topology,
        config: EngineConfig,
        initial_loads: np.ndarray,
    ) -> List:
        """Run a dynamic workload: arrivals, then a balancing step, per round.

        Requires ``config.arrivals``; returns one
        :class:`~repro.core.dynamic.DynamicResult` per replica, recorded
        every round against the current (moving) average.
        """
        return self.run_dynamic_batch(topo, config, initial_loads).dynamic_results()

    def run_batch(self, topo: Topology, config: EngineConfig, initial_loads) -> RecordBatch:
        """Prepare, step ``config.rounds`` times, and seal the record batch.

        The protocol reference loop; backends override it (or :meth:`run`)
        with fused fast paths.  A config with ``workers`` or ``pool`` runs
        in column shards on worker processes instead
        (:func:`repro.engines.pool.run_sharded`), whose workers call this
        again per shard; the engines the capability table does not list
        for those knobs refuse them there.
        """
        return self._run_batch(topo, config, initial_loads, dynamic=False)

    def run_dynamic_batch(
        self, topo: Topology, config: EngineConfig, initial_loads
    ) -> RecordBatch:
        """:meth:`run_batch` for a dynamic workload (``config.arrivals``)."""
        return self._run_batch(topo, config, initial_loads, dynamic=True)

    def _run_batch(self, topo, config, initial_loads, dynamic: bool) -> RecordBatch:
        check_regime(config, dynamic)
        if config.workers is not None or config.pool:
            return self._run_sharded(topo, config, initial_loads, dynamic)
        handle = self.prepare(topo, config, initial_loads)
        for _ in range(config.rounds):
            if dynamic:
                self.arrive(handle)
            self.step(handle)
        return self.metrics(handle)

    def _run_sharded(self, topo, config, initial_loads, dynamic: bool) -> RecordBatch:
        """Run a ``workers``/``pool`` config in column shards of this engine."""
        from .pool import run_sharded  # the pool imports the engines

        return run_sharded(self.name, topo, config, initial_loads, dynamic)

    def __repr__(self) -> str:
        return f"{type(self).__name__}()"


#: Engine registry: name -> class.  Populated by ``register_engine``.
ENGINES: Dict[str, Type[Engine]] = {}


def register_engine(cls: Type[Engine]) -> Type[Engine]:
    """Class decorator adding an engine backend to the registry."""
    if not cls.name:
        raise ConfigurationError(f"engine {cls.__name__} has no name")
    ENGINES[cls.name] = cls
    return cls


def make_engine(name) -> Engine:
    """Instantiate an engine backend by registry name (or pass through)."""
    if isinstance(name, Engine):
        return name
    try:
        return ENGINES[name]()
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; known: {sorted(ENGINES)}"
        ) from None
