"""Multiprocess sharded engine: column shards of one replica batch.

After the closed-form fast paths of PR 3 the batched engine is bound by a
single core; the remaining multiplicative speedup for seed-averaged
ensembles is process parallelism.  :class:`ShardedEngine` splits a
``(B, n)`` replica batch into contiguous *column shards*, runs one
:class:`~repro.engines.batched.BatchedVectorEngine` per worker process,
and merges the per-shard record batches
(:func:`~repro.engines.base.merge_record_batches`) into the exact batch a
single-process run would have produced.

Bit-identity contract
---------------------
The merge is **bit-identical** to the single-process batched engine for
every rounding, static and dynamic, any worker count, because no random
stream and no float expression ever crosses a replica boundary:

* rounding randomness comes from per-replica spawned streams
  (:func:`~repro.engines.base.rounding_stream`), keyed by the replica's
  *global* batch index — the shard passes ``replica_keys=range(lo, hi)``
  so replica ``b`` draws the same stream in any shard;
* arrival randomness is already per-replica
  (:func:`~repro.core.dynamic.arrival_stream`); the shard pins
  ``arrival_seeds`` the same way.  ``arrival_sampling="batch"`` draws the
  whole batch from one shared stream and therefore cannot shard
  bit-identically — the engine rejects it;
* every kernel of the batched engine is column-independent (CSR matvecs,
  reductions, clamping, switching all act per replica column), so a
  shard's columns equal the same columns of the full-batch run.  One
  subtlety: numpy reduces a *single*-column plane through a different
  (contiguous pairwise) kernel than any wider plane, so shard plans keep
  at least two columns per shard whenever the batch has two — otherwise
  the fractional reductions (continuous ``identity`` runs, the dynamic
  potential, plateau switching) would only agree to accumulation
  accuracy.

Topology churn shards too: the parent compiles the deterministic
:class:`~repro.core.churn.ChurnPlan` exactly once (the random schedule
draw happens before any shard exists) and broadcasts the plan in every
shard config, so workers replay identical patches at identical rounds
and the merge stays bit-identical to the batched engine under churn.

Worker lifecycle
----------------
Every multi-shard call runs on a
:class:`~repro.engines.pool.ShardedWorkerPool`: the one named by
``EngineConfig.pool`` (``True`` for the process-wide default, or an
explicit instance), else a fresh pool of one worker per shard that the
call opens and closes.  Either way the loads travel through shared
memory, dense table records come back zero-copy, and a failing worker
surfaces as a :class:`~repro.exceptions.ConfigurationError` naming its
replica range.  A persistent pool also keeps its workers, their imports
and their prepared operators across calls.  The start method defaults to
``fork`` where available (no interpreter restart), switches to
``forkserver`` once the process has loaded a compiled kernel provider
whose OpenMP runtime a forked child would deadlock in, and can be forced
with the ``REPRO_SHARDED_START`` environment variable (``spawn`` /
``forkserver`` / ``fork``).  A single-shard plan (one worker, or ``B <=
3`` — the >= 2-column shard floor caps the shard count at ``B // 2``)
without a pool runs inline in the parent: no process is started, but the
same shard plan and worker-side engine choice apply.

The engine implements the fused :meth:`run` / :meth:`run_dynamic` surface
only; the ``prepare()``/``step()`` protocol would need one IPC round trip
per simulated round and is deliberately refused (use the batched engine
for step-level access — the traces are identical).
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
    Engine,
    EngineConfig,
    RecordBatch,
    as_load_batch,
    plan_shards,
    register_engine,
    resolve_arrival_models,
    resolve_replica_keys,
    resolve_replica_params,
    resolve_workers,
    usable_cpus,
)
from .batched import BatchedVectorEngine
from .capabilities import check_config, routes_to_staleness
from .staleness import StalenessEngine

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
    """Start method of the sharded engine's pool workers.

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
#: with numpy and scipy, so each worker starts warm (no compiled provider
#: loads with them).  ``__main__`` is multiprocessing's own default.
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


def _shard_count(workers, n_replicas: int) -> int:
    """Shards of a ``n_replicas`` batch under a ``workers`` spec.

    Shards keep >= 2 columns whenever the batch has >= 2: numpy sums a
    single-column plane through its contiguous pairwise kernel, whose
    *fractional* reductions differ at the ulp level from the strided
    row-pairwise kernel every width >= 2 goes through — a width-1 shard
    of a wider batch would break bit-identity for the continuous identity
    process and the fractional dynamic/plateau reductions.
    """
    return max(1, min(resolve_workers(workers, n_replicas), n_replicas // 2 or 1))


def _shard_plan(topo: Topology, config: EngineConfig, B: int) -> List[Shard]:
    """Validate the config and cut a ``B``-replica batch into ``(lo, hi,
    config)`` shards, ``config.workers`` of them (capped by
    :func:`_shard_count`).

    The one compile step of a sharded call: the churn schedule draw, the
    replica keys, arrival seeds and parameter planes are resolved here,
    once, and every shard config carries its slice.
    """
    config.validate()
    # A config routed to staleness workers is checked against the
    # staleness column, here in the parent, before any worker starts.
    check_config(config, "sharded")
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
    for lo, hi in plan_shards(B, _shard_count(config.workers, B)):
        shard_config = replace(
            config,
            workers=None,  # the worker-side batched engine runs alone
            pool=None,  # pooling is a parent-side routing decision
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
            # so the merge stays bit-identical to the batched run.
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
    operator_cache: Optional[Dict] = None,
) -> RecordBatch:
    """Run one column shard's ``loads`` under its shard ``config``.

    The one worker-side engine choice: pool workers call it for every
    shard, and the parent inline for a single-shard plan.  The shard
    config already carries the global ``replica_keys`` /
    ``arrival_seeds``, so the returned :class:`RecordBatch` holds exactly
    the full-batch run's columns for this shard's replicas.
    ``operator_cache`` (a pool worker's per-graph cache) reaches the
    batched engine only.
    """
    if routes_to_staleness(config):
        # Its delayed-view planes slice by column exactly like the batched
        # kernels, so the shard/merge contract carries over unchanged.
        engine = StalenessEngine()
    else:
        engine = BatchedVectorEngine()
        engine.operator_cache = operator_cache
    if dynamic:
        return engine.run_dynamic_batch(topo, config, loads)
    return engine.run_batch(topo, config, loads)


@register_engine
class ShardedEngine(Engine):
    """Column shards of a replica batch across worker processes."""

    name = "sharded"

    # ------------------------------------------------------------------
    def _refuse_protocol(self, what: str):
        raise ConfigurationError(
            f"the sharded engine does not expose {what}; it runs whole "
            "batches through run()/run_dynamic() (per-round IPC would cost "
            "more than it parallelises — use the batched engine for "
            "step-level access, the traces are identical)"
        )

    def prepare(self, topo, config, initial_loads):
        self._refuse_protocol("prepare()")

    def step(self, handle):
        self._refuse_protocol("step()")

    def arrive(self, handle):
        self._refuse_protocol("arrive()")

    def metrics(self, handle):
        self._refuse_protocol("metrics()")

    # ------------------------------------------------------------------
    def _run(self, topo, config, initial_loads, dynamic: bool) -> RecordBatch:
        """Run the batch on ``config.pool``, on a fresh pool of one worker
        per shard, or inline when the plan has a single shard."""
        if (config.arrivals is not None) != dynamic:
            raise ConfigurationError(
                "run_dynamic() needs arrival models (set config.arrivals)"
                if dynamic
                else "config has arrival models; dynamic workloads run "
                "through run_dynamic()"
            )
        loads = as_load_batch(initial_loads, topo.n)
        config.validate()  # before the shard count reads config.workers
        from .pool import ShardedWorkerPool, default_pool  # pool imports us

        if config.pool is True:
            return default_pool().run_batch(topo, config, loads, dynamic)
        if config.pool:  # an explicit ShardedWorkerPool
            return config.pool.run_batch(topo, config, loads, dynamic)
        n_shards = _shard_count(config.workers, loads.shape[0])
        if n_shards > 1:
            with ShardedWorkerPool(workers=n_shards) as pool:
                return pool.run_batch(topo, config, loads, dynamic)
        [(_lo, _hi, shard_config)] = _shard_plan(topo, config, loads.shape[0])
        return _run_shard(topo, shard_config, loads, dynamic)

    def run(self, topo, config, initial_loads):
        """Shard the batch across workers; one ``SimulationResult`` per
        replica, bit-identical to the batched engine for any worker count.
        """
        return self._run(topo, config, initial_loads, dynamic=False).results()

    def run_dynamic(self, topo, config, initial_loads):
        """Shard a dynamic batch across workers; one ``DynamicResult`` per
        replica, bit-identical to the batched engine (stream sampling).
        """
        return self._run(
            topo, config, initial_loads, dynamic=True
        ).dynamic_results()
