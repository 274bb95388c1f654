"""Pluggable execution engines for replica ensembles.

One protocol (:class:`~repro.engines.base.Engine`), five backends:

=========  ==================================================================
name       backend
=========  ==================================================================
reference  per-replica loop through the classic :class:`~repro.core.simulator.
           Simulator` core — the semantic ground truth
batched    :class:`~repro.engines.batched.BatchedVectorEngine` — a ``(B, n)``
           load matrix advanced by CSR edge-wise numpy kernels, every replica
           per step
network    :class:`~repro.engines.network.NetworkEngine` — the message-passing
           :class:`~repro.network.engine.SyncNetwork` behind the same protocol
async      :class:`~repro.engines.async_net.AsyncNetworkEngine` — event-driven
           :class:`~repro.network.async_engine.AsyncNetwork` with per-link
           latency/bandwidth and no global round barrier (bit-identical to
           ``network`` at zero latency)
staleness  :class:`~repro.engines.staleness.StalenessEngine` — the async
           regime vectorised: integer round buckets per link and delayed-view
           planes over the whole ``(n, B)`` ensemble (bit-identical to
           ``async`` for integer latencies under ``max_skew``)
=========  ==================================================================

``batched`` and ``staleness`` also split a batch into contiguous column
shards on worker *processes* (``EngineConfig.workers`` / ``pool``),
merged bit-identically to the single-process run;
``make_engine("sharded")`` (:class:`~repro.engines.sharded.ShardedEngine`)
is the batched engine with ``workers="auto"``.

Quickstart::

    from repro import torus_2d, point_load
    from repro.engines import EngineConfig, run_replicas

    topo = torus_2d(32, 32)
    config = EngineConfig(scheme="sos", beta=1.8, rounds=500, seed=0)
    loads = [point_load(topo, 1000 * topo.n) for _ in range(128)]
    results = run_replicas(topo, config, loads, engine="batched")
"""

from __future__ import annotations

from typing import List

import numpy as np

from ..core.simulator import SimulationResult
from ..graphs.topology import Topology

from .base import (
    ENGINES,
    ArrivalBatch,
    Engine,
    EngineConfig,
    RecordBatch,
    ReplicaParams,
    ResolvedReplicaParams,
    StepBatch,
    apply_load_scales,
    as_load_batch,
    make_engine,
    make_switch_policy,
    merge_record_batches,
    plan_shards,
    register_engine,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_record_fields,
    resolve_replica_params,
    resolve_rounding_rngs,
    resolve_tile_size,
    resolve_workers,
    rounding_stream,
    uniform_plane_value,
)
from .reference import ReferenceEngine
from .batched import BatchedVectorEngine
from .sharded import ShardedEngine
from .network import NetworkEngine
from .async_net import AsyncNetworkEngine
from .staleness import StalenessEngine
from .pool import ShardedWorkerPool, default_pool, topology_fingerprint
from .session import EngineSession

__all__ = [
    "ENGINES",
    "ArrivalBatch",
    "Engine",
    "EngineConfig",
    "RecordBatch",
    "ReplicaParams",
    "ResolvedReplicaParams",
    "StepBatch",
    "ReferenceEngine",
    "BatchedVectorEngine",
    "ShardedEngine",
    "NetworkEngine",
    "AsyncNetworkEngine",
    "StalenessEngine",
    "ShardedWorkerPool",
    "EngineSession",
    "default_pool",
    "topology_fingerprint",
    "apply_load_scales",
    "as_load_batch",
    "make_engine",
    "make_switch_policy",
    "merge_record_batches",
    "plan_shards",
    "register_engine",
    "resolve_arrival_models",
    "resolve_arrival_rngs",
    "resolve_record_fields",
    "resolve_replica_params",
    "resolve_rounding_rngs",
    "resolve_tile_size",
    "resolve_workers",
    "rounding_stream",
    "run_replicas",
    "run_dynamic_replicas",
    "uniform_plane_value",
]


def run_replicas(
    topo: Topology,
    config: EngineConfig,
    initial_loads: np.ndarray,
    engine: str = "batched",
) -> List[SimulationResult]:
    """Run a whole replica batch through the chosen engine backend.

    ``initial_loads`` is one load vector ``(n,)`` or a batch ``(B, n)``;
    one :class:`~repro.core.simulator.SimulationResult` per replica comes
    back, regardless of backend.
    """
    return make_engine(engine).run(topo, config, initial_loads)


def run_dynamic_replicas(
    topo: Topology,
    config: EngineConfig,
    initial_loads: np.ndarray,
    engine: str = "batched",
) -> List:
    """Run a dynamic-workload replica batch (``config.arrivals`` set).

    Every round each replica's arrivals are applied (departures clamped at
    the non-negative current load) before the balancing step; one
    :class:`~repro.core.dynamic.DynamicResult` per replica comes back,
    recorded every round against the current (moving) average.
    """
    return make_engine(engine).run_dynamic(topo, config, initial_loads)
