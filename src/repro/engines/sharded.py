"""Column shards of one replica batch: the shard planner and its workers.

Splitting a batch over processes is a *transport*, not a backend: the
``batched`` and ``staleness`` engines honour ``EngineConfig.workers`` and
``EngineConfig.pool`` themselves.  Their whole-batch entry points hand
such a config to :func:`repro.engines.pool.run_sharded`, which cuts the
``(B, n)`` batch into contiguous *column shards* (:func:`_shard_plan`),
runs each on the calling engine in a worker process (:func:`_run_shard`),
and merges the per-shard record batches into the exact batch a
single-process run would have produced.

The merge is **bit-identical** for every rounding, static and dynamic,
any worker count, because no random stream and no float expression
crosses a replica boundary:

* rounding, fault and arrival randomness come from per-replica streams
  keyed by the replica's *global* index — each shard config carries its
  slice of ``replica_keys`` and ``arrival_seeds``.
  ``arrival_sampling="batch"`` draws the whole batch from one shared
  stream and cannot shard, so the planner refuses it;
* every vectorised kernel is column-independent (CSR matvecs,
  delayed-view planes, reductions, clamping, switching), so a shard's
  columns equal the same columns of the full-batch run.  numpy reduces a
  *single*-column plane through a different kernel than any wider plane,
  so plans keep >= 2 columns per shard
  (:func:`~repro.engines.base.shard_count`);
* a churn schedule is drawn once, in the parent, and the compiled
  :class:`~repro.core.churn.ChurnPlan` is broadcast to every shard.

A single-shard plan without a pool runs inline, through the same plan
and :func:`_run_shard`.  Pool workers start with ``fork`` where
available, ``forkserver`` once this process has loaded a compiled kernel
provider (:func:`_start_method`), or what ``REPRO_SHARDED_START`` names.

``make_engine("sharded")`` (:class:`ShardedEngine`) is kept as an alias:
the batched engine with ``workers="auto"`` unless the config sets
``workers`` or ``pool``.
"""

from __future__ import annotations

import multiprocessing
import os
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..core.churn import resolve_churn
from ..exceptions import ConfigurationError
from ..graphs.topology import Topology
from ..kernels import fork_unsafe_loaded

from .base import (
    EngineConfig,
    RecordBatch,
    make_engine,
    plan_shards,
    register_engine,
    resolve_arrival_models,
    resolve_replica_keys,
    resolve_replica_params,
    shard_count,
    usable_cpus,
)
from .batched import BatchedVectorEngine
from .capabilities import check_config

__all__ = ["ShardedEngine"]

#: One shard of a call: its replica columns ``[lo, hi)`` and the config
#: the worker-side engine runs them under.
Shard = Tuple[int, int, EngineConfig]


#: Fallback start method: ``fork`` avoids the per-worker interpreter
#: restart and re-import cost where the platform offers it.
_DEFAULT_START = (
    "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
)


def _start_method() -> str:
    """Start method of the pool workers.

    ``REPRO_SHARDED_START`` wins.  Otherwise :data:`_DEFAULT_START`,
    except that ``fork`` becomes ``forkserver`` (``spawn`` where that is
    missing) once this process has loaded a compiled provider
    (:func:`repro.kernels.fork_unsafe_loaded`): a libgomp that has run a
    parallel region in the parent hangs the first one a forked child
    enters.  Processes that never load such a provider keep ``fork``.
    """
    known = multiprocessing.get_all_start_methods()
    method = os.environ.get("REPRO_SHARDED_START")
    if method is None:
        method = _DEFAULT_START
        if method == "fork" and fork_unsafe_loaded():
            method = "forkserver" if "forkserver" in known else "spawn"
    if method not in known:
        raise ConfigurationError(
            f"REPRO_SHARDED_START={method!r} is not available here; "
            f"known: {known}"
        )
    return method


#: What a forkserver imports once, before it forks any worker: the engines
#: with numpy, so each worker starts warm (no compiled provider loads with
#: them, and no scipy: a numpy-tier worker imports it on its first sparse
#: operator build).  ``__main__`` is multiprocessing's own default.
_FORKSERVER_PRELOAD = ["__main__", "repro.engines.pool"]


def _worker_context():
    """The multiprocessing context of pool workers."""
    method = _start_method()
    ctx = multiprocessing.get_context(method)
    if method == "forkserver":
        ctx.set_forkserver_preload(_FORKSERVER_PRELOAD)
    return ctx


def _worker_threads(n_workers: int) -> int:
    """Compiled-kernel threads of each of ``n_workers`` workers: their
    share of the usable CPUs, so the workers' OpenMP teams together never
    oversubscribe the machine."""
    return max(1, usable_cpus() // max(1, n_workers))


def _shard_plan(
    topo: Topology, config: EngineConfig, B: int, engine: str
) -> List[Shard]:
    """Validate the config for ``engine`` and cut a ``B``-replica batch
    into ``(lo, hi, config)`` shards, ``config.workers`` of them (capped
    by :func:`~repro.engines.base.shard_count`).

    The one compile step of a sharded call: the churn schedule draw, the
    replica keys, arrival seeds and parameter planes are resolved here,
    once, and every shard config carries its slice.
    """
    config.validate()
    # Checked here, in the parent, before any worker starts.
    check_config(config, engine)
    if config.arrival_sampling == "batch":
        raise ConfigurationError(
            "arrival_sampling='batch' draws the whole batch from one "
            "stream, so it cannot split into worker shards; use "
            "arrival_sampling='stream' or drop workers/pool"
        )
    # Churn shards bit-identically once every worker replays the *same*
    # compiled plan: the random schedule draw happens exactly once, here
    # in the parent (resolve_churn seeds its own stream), and the
    # resulting ChurnPlan is broadcast in the shard configs — workers
    # re-validate it via the ChurnPlan passthrough in parse_churn_spec
    # and apply identical patches at identical rounds.  The patch
    # machinery (handoffs, flow remap, operator rebuild) acts per
    # replica column, so the column-independence argument above holds
    # under churn too.
    churn_plan = resolve_churn(topo, config)
    replica_keys = resolve_replica_keys(config, B)
    params = resolve_replica_params(config.replica_params, B)
    arrival_seeds: Optional[Sequence[int]] = None
    arrival_models: Optional[Sequence] = None
    if config.arrivals is not None:
        arrival_models = resolve_arrival_models(config.arrivals, B)
        arrival_seeds = (
            [int(k) for k in config.arrival_seeds]
            if config.arrival_seeds is not None
            else range(B)
        )
        if len(arrival_seeds) != B:
            raise ConfigurationError(
                f"{len(arrival_seeds)} arrival_seeds for {B} replicas"
            )
    plan = []
    for lo, hi in plan_shards(B, shard_count(config.workers, B)):
        shard_config = replace(
            config,
            workers=None,  # the worker-side engine runs its shard alone
            pool=None,
            churn=churn_plan,  # precompiled plan, identical per shard
            replica_keys=replica_keys[lo:hi],
            arrival_seeds=(
                list(arrival_seeds[lo:hi])
                if arrival_seeds is not None
                else None
            ),
            arrivals=(
                list(arrival_models[lo:hi])
                if arrival_models is not None
                else None
            ),
            # The parameter planes shard with their columns: replica b
            # carries the same plane entries in any shard assignment,
            # so the merge stays bit-identical to the unsharded run.
            replica_params=(
                params.shard(lo, hi) if params is not None else None
            ),
        )
        plan.append((lo, hi, shard_config))
    return plan


def _run_shard(
    topo: Topology,
    config: EngineConfig,
    loads: np.ndarray,
    dynamic: bool,
    engine: str = "batched",
    operator_cache: Optional[Dict] = None,
) -> RecordBatch:
    """Run one column shard's ``loads`` under its shard ``config`` on the
    ``engine`` the call came from.

    Pool workers call it for every shard, and the parent inline for a
    single-shard plan.  The shard config already carries the global
    ``replica_keys`` / ``arrival_seeds`` and no ``workers``/``pool``, so
    the returned :class:`RecordBatch` holds exactly the full-batch run's
    columns for this shard's replicas.  ``operator_cache`` is a pool
    worker's per-graph cache.
    """
    backend = make_engine(engine)
    backend.operator_cache = operator_cache
    if dynamic:
        return backend.run_dynamic_batch(topo, config, loads)
    return backend.run_batch(topo, config, loads)


def _auto_workers(config: EngineConfig) -> EngineConfig:
    """``workers="auto"`` unless the config sets ``workers`` or a pool."""
    if config.workers is None and not config.pool:
        return replace(config, workers="auto")
    return config


@register_engine
class ShardedEngine(BatchedVectorEngine):
    """``make_engine("sharded")``: the batched engine, sharded over every
    usable CPU (``workers="auto"``) unless the config sets ``workers`` or
    ``pool``.  Bit-identical to ``batched`` for any worker count."""

    name = "sharded"

    def run(self, topo, config, initial_loads):
        return super().run(topo, _auto_workers(config), initial_loads)

    def run_dynamic(self, topo, config, initial_loads):
        return super().run_dynamic(topo, _auto_workers(config), initial_loads)
