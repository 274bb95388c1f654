"""Shared-memory worker pool: the process transport of the vectorised engines.

The ``batched`` and ``staleness`` engines hand a config with ``workers``
or ``pool`` to :func:`run_sharded`, and every multi-shard call runs on a
:class:`ShardedWorkerPool` — a persistent one named by
``EngineConfig.pool``, or a fresh one the call opens and closes.  Sweeps
and ensembles issue *many* calls on the *same* graph; a persistent pool
pays worker start-up, topology transfer and operator preparation once
for all of them:

* **Persistent workers.**  :class:`ShardedWorkerPool` owns long-lived
  worker processes connected by pipes.  A call ships one small task
  message per shard (the load plane travels through shared memory); the
  processes (and their warm imports) survive across calls.
* **Per-worker caches.**  Each worker caches every
  :class:`~repro.graphs.topology.Topology` it has seen, keyed by
  :func:`topology_fingerprint`, and keeps a per-graph operator cache that
  :class:`~repro.engines.batched.BatchedVectorEngine` fills with the
  prepared CSR operators (difference/incidence matrices, the padded
  excess adjacency, the slot gather indices).  Repeated calls on the
  same graph skip both the topology pickle and the operator builds.
* **Zero-copy records.**  For the common record path (dense float64
  table records, no churn, no ``keep_loads``) the parent allocates the
  merged result arrays in ``multiprocessing.shared_memory`` blocks and
  each worker writes its record *columns* directly into its
  ``[:, lo:hi]`` slice.  The parent's "merge" is then just a set of
  numpy views over the blocks — no result pickling, no h-stack copy.
  Batched shards (edge-wise or closed-form) and staleness shards all
  record into one columnar store, so each of them takes this path.
  Ineligible configs transparently fall back to pickled per-shard
  batches over the pipe (still pooled, still cached — only the
  zero-copy return is skipped).

Bit-identity
------------
A call compiles the shard plan (:func:`repro.engines.sharded._shard_plan`)
once, and every worker runs its ``(lo, hi, config)`` entry on the engine
the call names, through the same entry point
(:func:`repro.engines.sharded._run_shard`) an inline single-shard run
uses.  Per-replica stream keys travel in the shard configs, so the
merged columns are bit-identical to the unsharded run for every
rounding, static and dynamic, and for any worker count.

Teardown
--------
Shared blocks are unlinked in a ``finally`` — a worker raising mid-call
(or dying outright) cannot leak them.  Worker errors surface as
:class:`~repro.exceptions.ConfigurationError` naming the failing shard's
replica range; a dead worker resets the pool so the next call starts
from fresh processes.

The process-wide default pool (:func:`default_pool`) is what
``EngineConfig.pool=True`` / ``simulate --pool`` run on; it is created
on first use and closed at interpreter exit.
"""

from __future__ import annotations

import atexit
import hashlib
import os
import sys
from dataclasses import replace
from multiprocessing import resource_tracker, shared_memory
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..graphs.topology import Topology
from ..kernels import limit_threads

from .base import (
    EngineConfig,
    RecordBatch,
    as_load_batch,
    merge_record_batches,
    resolve_workers,
    shard_count,
)
from .sharded import (
    _run_shard,
    _shard_plan,
    _worker_context,
    _worker_threads,
)

import multiprocessing

__all__ = ["ShardedWorkerPool", "default_pool", "topology_fingerprint"]


def topology_fingerprint(topo: Topology) -> str:
    """Content hash of a topology: structure plus the engine-visible
    annotations (spectral hints, per-link latency/bandwidth planes).

    Two topologies with equal fingerprints prepare to identical operators,
    so pool workers key their topology and operator caches on it.
    """
    h = hashlib.sha1()
    h.update(str(topo.n).encode())
    h.update(topo.edge_u.tobytes())
    h.update(topo.edge_v.tobytes())
    h.update(repr(topo.grid_shape).encode())
    h.update(repr(topo.cube_dim).encode())
    for attr in ("link_latency", "link_bandwidth"):
        val = getattr(topo, attr, None)
        if val is None:
            h.update(b"none")
        else:
            h.update(np.ascontiguousarray(val).tobytes())
    return h.hexdigest()


# ======================================================================
# worker side
# ======================================================================
def _release_to_views(shm: shared_memory.SharedMemory) -> None:
    """Hand the block's mapping over to the numpy views created on it.

    A numpy array built on ``shm.buf`` keeps the *mmap object* as its
    ``base``, but ``SharedMemory.__del__`` force-closes that mmap even
    while views are alive — a GC'd handle would turn every escaped view
    (final states, record columns inside ``SimulationResult``) into a
    segfault.  Detaching the mmap from the handle instead leaves it
    referenced only by the views, so the memory unmaps exactly when the
    last view dies.  Call only after ``unlink()`` on an already-unlinked
    block.
    """
    try:
        if shm._buf is not None:
            shm._buf.release()
        shm._buf = None
        shm._mmap = None
    except (AttributeError, BufferError):  # pragma: no cover - defensive
        pass


def _attach_block(name: str) -> shared_memory.SharedMemory:
    """Attach to a parent-created block without claiming it.

    Python <= 3.12 registers every attach with the resource tracker, but
    the *parent* owns these blocks: its tracker already guarantees crash
    cleanup.  A worker-side claim is at best a duplicate and at worst a
    foreign tracker entry — a spawn worker's own tracker, or the private
    tracker a fork worker starts when the parent had none running at
    fork time, would "clean up" the parent's blocks at worker exit and
    warn about already-unlinked names.  Suppress the registration for
    the duration of the attach instead of unwinding it afterwards.
    """
    saved = resource_tracker.register
    resource_tracker.register = lambda *a, **k: None
    try:
        return shared_memory.SharedMemory(name=name)
    finally:
        resource_tracker.register = saved


def _write_block(name: str, shape: Tuple[int, ...], dtype, writer) -> None:
    """Attach a block, hand a numpy view to ``writer``, detach cleanly."""
    shm = _attach_block(name)
    try:
        view = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        writer(view)
        del view  # the mapped buffer must have no live views before close()
    finally:
        shm.close()


def _check_layout(cond: bool, what: str) -> None:
    if not cond:
        raise ConfigurationError(
            f"pool zero-copy layout mismatch ({what}); this is a bug in "
            "the parent's eligibility check, not in the workload"
        )


def _write_shared(
    batch: RecordBatch, spec: Dict[str, Any], lo: int, hi: int, write_grid: bool
) -> None:
    """Write one shard's record columns into the parent's shared blocks.

    The parent decided zero-copy eligibility before dispatch, so a layout
    mismatch here is a programming error — it raises loudly rather than
    silently falling back.
    """
    count, B = spec["count"], spec["B"]
    width = hi - lo
    if spec["dynamic"]:
        _check_layout(batch.dynamic_round_index is not None, "no dynamic grid")
        _check_layout(
            batch.dynamic_round_index.shape[0] == count, "dynamic grid length"
        )
        _check_layout(
            list(batch.dynamic_columns) == list(spec["fields"]),
            "dynamic column set",
        )
        if write_grid:
            _write_block(
                spec["round"], (count,), np.int64,
                lambda v: v.__setitem__(slice(None), batch.dynamic_round_index),
            )
        cols = batch.dynamic_columns
    else:
        _check_layout(batch.round_index is not None, "no static grid")
        _check_layout(batch.round_index.shape[0] == count, "record grid length")
        _check_layout(
            list(batch.columns) == list(spec["fields"]), "column set"
        )
        _check_layout(batch.loads_history is None, "loads_history present")
        if write_grid:
            _write_block(
                spec["round"], (count,), np.int64,
                lambda v: v.__setitem__(slice(None), batch.round_index),
            )
        _write_block(
            spec["scheme"], (count, B), np.uint8,
            lambda v: v.__setitem__((slice(None), slice(lo, hi)),
                                    batch.scheme_codes),
        )
        cols = batch.columns

    fields = spec["fields"]

    def _fill_cols(view: np.ndarray) -> None:
        for i, f in enumerate(fields):
            _check_layout(cols[f].shape == (count, width), f"column {f!r}")
            view[i, :, lo:hi] = cols[f]

    _write_block(spec["cols"], (len(fields), count, B), np.float64, _fill_cols)
    _check_layout(
        batch.final_loads.shape == (width, spec["n"])
        and batch.final_loads.dtype == np.float64,
        "final_loads",
    )
    _write_block(
        spec["final_loads"], (B, spec["n"]), np.float64,
        lambda v: v.__setitem__(slice(lo, hi), batch.final_loads),
    )
    _write_block(
        spec["final_flows"], (B, spec["m"]), np.float64,
        lambda v: v.__setitem__(slice(lo, hi), batch.final_flows),
    )
    _write_block(
        spec["switched"], (B,), np.int64,
        lambda v: v.__setitem__(slice(lo, hi), batch.switched_at),
    )


def _execute_task(
    task: Dict[str, Any],
    topo_cache: Dict[str, Topology],
    op_caches: Dict[str, Dict],
) -> Optional[RecordBatch]:
    """Run one shard task against the worker's warm caches.

    Pure function of ``(task, caches)`` so the worker body is testable
    in-process; returns the shard's :class:`RecordBatch` when the task
    has no shared result spec (pickle fallback) and ``None`` after a
    successful zero-copy write.
    """
    key = task["graph_key"]
    if task.get("topo") is not None:
        topo_cache[key] = task["topo"]
    try:
        topo = topo_cache[key]
    except KeyError:
        raise ConfigurationError(
            f"pool worker has no cached topology for key {key[:12]}... "
            "(parent/worker cache desync)"
        ) from None
    lo, hi = task["lo"], task["hi"]
    loads_shm = _attach_block(task["loads_name"])
    try:
        plane = np.ndarray(
            task["loads_shape"], dtype=np.float64, buffer=loads_shm.buf
        )
        loads = np.array(plane[lo:hi], copy=True)
        del plane
    finally:
        loads_shm.close()
    # Per-graph operator cache: the handle construction fills it on the
    # first call and reuses the CSR operators afterwards.
    batch = _run_shard(
        topo, task["config"], loads, task["dynamic"], task["engine"],
        operator_cache=op_caches.setdefault(key, {}),
    )
    spec = task.get("shared")
    if spec is None:
        return batch
    _write_shared(batch, spec, lo, hi, task["write_grid"])
    return None


def _pool_worker(conn, package_root: str, threads: int) -> None:
    """Worker main loop: receive tasks until the ``None`` sentinel.

    Runs in a child process.  ``package_root`` makes ``repro`` importable
    under spawn/forkserver starts (fork children inherit ``sys.path``);
    ``threads`` caps the worker's compiled-kernel threads (its share of
    the CPUs).  Replies are ``("ok", batch_or_None)`` or
    ``("error", exception)``.
    """
    if package_root not in sys.path:
        sys.path.insert(0, package_root)
    limit_threads(threads)
    topo_cache: Dict[str, Topology] = {}
    op_caches: Dict[str, Dict] = {}
    while True:
        try:
            task = conn.recv()
        except (EOFError, OSError):
            break
        if task is None:
            break
        try:
            reply = ("ok", _execute_task(task, topo_cache, op_caches))
        except Exception as exc:
            try:
                reply = ("error", exc)
                conn.send(reply)
            except Exception:
                # unpicklable exception: degrade to its repr
                conn.send(("error", ConfigurationError(repr(exc))))
            continue
        conn.send(reply)
    conn.close()


# ======================================================================
# parent side
# ======================================================================
class ShardedWorkerPool:
    """Long-lived worker processes running column shards of engine calls.

    ``pool.run_batch(topo, config, loads)`` returns the merged
    :class:`RecordBatch` (bit-identical to the unsharded run), and the
    workers, their imports, the transferred topologies and the prepared
    CSR operators all persist across calls.  Use ``EngineConfig.pool=True``
    (or ``simulate --pool``) to run on the process-wide
    :func:`default_pool`, or construct and pass an instance explicitly
    (``EngineConfig(pool=my_pool)``) to own the lifecycle — ``close()`` it
    when done, or use it as a context manager.  Without either, each
    multi-shard engine call runs on a fresh pool of its own.
    """

    def __init__(self, workers: Any = "auto"):
        #: worker count — resolved once, like a config's ``workers`` spec
        #: (the per-call shard floor of >= 2 columns still caps the number
        #: of shards actually dispatched for small batches).
        self.n_workers = resolve_workers(workers, 1 << 30)
        self._procs: List[multiprocessing.process.BaseProcess] = []
        self._conns: List[Any] = []
        #: per-worker set of topology fingerprints already shipped
        self._known: List[set] = []
        self._closed = False
        #: calls served since the last (re)spawn — exposed for tests and
        #: benchmarks to prove worker persistence.
        self.calls_served = 0

    # -- lifecycle -----------------------------------------------------
    def _ensure_workers(self) -> None:
        if self._closed:
            raise ConfigurationError("this ShardedWorkerPool is closed")
        if self._procs and not all(p.is_alive() for p in self._procs):
            self._reset()
        if self._procs:
            return
        ctx = _worker_context()
        package_root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        threads = _worker_threads(self.n_workers)
        for _ in range(self.n_workers):
            parent_conn, child_conn = ctx.Pipe(duplex=True)
            proc = ctx.Process(
                target=_pool_worker,
                args=(child_conn, package_root, threads),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._procs.append(proc)
            self._conns.append(parent_conn)
            self._known.append(set())

    def _reset(self) -> None:
        """Tear the workers down (after a death) so the next call respawns."""
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        for proc in self._procs:
            if proc.is_alive():
                proc.terminate()
            proc.join(timeout=2)
        self._procs, self._conns, self._known = [], [], []

    def close(self) -> None:
        """Shut the workers down; the pool cannot be used afterwards."""
        if self._closed:
            return
        self._closed = True
        for conn in self._conns:
            try:
                conn.send(None)
            except Exception:
                pass
        for proc in self._procs:
            proc.join(timeout=2)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=2)
        for conn in self._conns:
            try:
                conn.close()
            except Exception:
                pass
        self._procs, self._conns, self._known = [], [], []

    def __enter__(self) -> "ShardedWorkerPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- zero-copy eligibility ----------------------------------------
    @staticmethod
    def _static_record_count(config: EngineConfig) -> int:
        """Rows of the static record grid: round 0, every ``record_every``
        rounds, plus the forced terminal record."""
        R, e = config.rounds, config.record_every
        if R <= 0:
            return 1
        return 1 + R // e + (1 if R % e else 0)

    @staticmethod
    def _zero_copy_ok(config: EngineConfig) -> bool:
        """Whether every shard will produce the dense-table layout the
        shared blocks assume.  Batched shards (edge-wise or closed-form)
        and staleness shards all record into one columnar record store,
        whatever the graph, plan or regime, so the config alone decides:
        churn and ``keep_loads`` runs carry extras the blocks do not
        hold, and summaries and float32 runs another layout."""
        return (
            config.churn is None
            and config.record_mode == "table"
            and not config.keep_loads
            and config.precision == "float64"
        )

    # -- the call ------------------------------------------------------
    def run_batch(
        self,
        topo: Topology,
        config: EngineConfig,
        initial_loads,
        dynamic: bool = False,
        engine: str = "batched",
    ) -> RecordBatch:
        """Run one call of ``engine`` (``"batched"`` or ``"staleness"``, or
        the ``"sharded"`` alias) in column shards on the persistent workers.

        Returns the merged :class:`RecordBatch` — zero-copy views over
        shared blocks when the config is eligible, a pickled-and-merged
        batch otherwise.  Bit-identical to the unsharded run either way.
        The shard plan is compiled once, for this pool's worker count.
        """
        loads = as_load_batch(initial_loads, topo.n)
        B = loads.shape[0]
        plan = _shard_plan(
            topo, replace(config, workers=self.n_workers), B, engine
        )
        self._ensure_workers()
        key = topology_fingerprint(topo)
        zero_copy = self._zero_copy_ok(config)

        from ..core.records import DYNAMIC_FLOAT_FIELDS, FLOAT_FIELDS

        fields = tuple(DYNAMIC_FLOAT_FIELDS if dynamic else FLOAT_FIELDS)
        count = (
            config.rounds if dynamic else self._static_record_count(config)
        )
        n, m = topo.n, topo.m_edges

        blocks: List[shared_memory.SharedMemory] = []

        def _alloc(shape: Tuple[int, ...], dtype) -> shared_memory.SharedMemory:
            nbytes = max(1, int(np.prod(shape)) * np.dtype(dtype).itemsize)
            shm = shared_memory.SharedMemory(create=True, size=nbytes)
            blocks.append(shm)
            return shm

        keep_blocks = False
        try:
            loads_shm = _alloc((B, n), np.float64)
            np.ndarray((B, n), dtype=np.float64, buffer=loads_shm.buf)[:] = loads
            spec = None
            if zero_copy:
                spec = {
                    "dynamic": dynamic,
                    "count": count,
                    "B": B,
                    "n": n,
                    "m": m,
                    "fields": fields,
                    "round": _alloc((count,), np.int64).name,
                    "cols": _alloc((len(fields), count, B), np.float64).name,
                    "final_loads": _alloc((B, n), np.float64).name,
                    "final_flows": _alloc((B, m), np.float64).name,
                    "switched": _alloc((B,), np.int64).name,
                }
                if not dynamic:
                    spec["scheme"] = _alloc((count, B), np.uint8).name

            # -- dispatch ------------------------------------------------
            tasked: List[int] = []
            for i, (lo, hi, shard_config) in enumerate(plan):
                task = {
                    "engine": engine,
                    "graph_key": key,
                    "topo": topo if key not in self._known[i] else None,
                    "config": shard_config,
                    "lo": lo,
                    "hi": hi,
                    "dynamic": dynamic,
                    "loads_name": loads_shm.name,
                    "loads_shape": (B, n),
                    "shared": spec,
                    "write_grid": i == 0,
                }
                try:
                    self._conns[i].send(task)
                except (BrokenPipeError, OSError) as exc:
                    self._reset()
                    raise ConfigurationError(
                        f"pool worker for replicas [{lo}:{hi}) died before "
                        "accepting its shard"
                    ) from exc
                tasked.append(i)

            # -- collect (drain every tasked worker before raising) ------
            replies: List[Tuple[str, Any]] = []
            for i in tasked:
                try:
                    replies.append(self._conns[i].recv())
                except (EOFError, OSError):
                    replies.append(("died", None))
            failures = [
                (i, status, payload)
                for i, (status, payload) in zip(tasked, replies)
                if status != "ok"
            ]
            if failures:
                i, status, payload = failures[0]
                lo, hi, _ = plan[i]
                if any(status == "died" for _i, status, _p in failures):
                    self._reset()
                if status == "died":
                    raise ConfigurationError(
                        f"pool worker for replicas [{lo}:{hi}) died mid-run; "
                        "the pool has been reset (shared blocks unlinked)"
                    )
                raise ConfigurationError(
                    f"pool worker for replicas [{lo}:{hi}) failed: {payload}"
                ) from payload
            for i in tasked:
                self._known[i].add(key)
            self.calls_served += 1

            # -- merge ---------------------------------------------------
            if not zero_copy:
                return merge_record_batches([p for _s, p in replies])

            def _view(name_key: str, shape, dtype) -> np.ndarray:
                shm = next(b for b in blocks if b.name == spec[name_key])
                return np.ndarray(shape, dtype=dtype, buffer=shm.buf)

            cols_plane = _view("cols", (len(fields), count, B), np.float64)
            col_views = {f: cols_plane[i] for i, f in enumerate(fields)}
            if dynamic:
                batch = RecordBatch(
                    dynamic_round_index=_view("round", (count,), np.int64),
                    dynamic_columns=col_views,
                    final_loads=_view("final_loads", (B, n), np.float64),
                    final_flows=_view("final_flows", (B, m), np.float64),
                    switched_at=_view("switched", (B,), np.int64),
                )
            else:
                batch = RecordBatch(
                    round_index=_view("round", (count,), np.int64),
                    scheme_codes=_view("scheme", (count, B), np.uint8),
                    columns=col_views,
                    final_loads=_view("final_loads", (B, n), np.float64),
                    final_flows=_view("final_flows", (B, m), np.float64),
                    switched_at=_view("switched", (B,), np.int64),
                )
            # Unlink now (the name is no longer needed) and hand each
            # mapping over to the views: the memory stays valid for as
            # long as any escaped view lives and unmaps with the last.
            keep_blocks = True
            for shm in blocks:
                try:
                    shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass
                _release_to_views(shm)
            return batch
        finally:
            # Satellite contract: a shard raising mid-call must not leak
            # the blocks — unlink unconditionally (workers are done or
            # dead by the time we get here; POSIX keeps mapped memory
            # alive for live views, unlink just drops the name).
            if not keep_blocks:
                for shm in blocks:
                    try:
                        shm.close()
                    except BufferError:  # pragma: no cover - live view
                        pass
                    try:
                        shm.unlink()
                    except FileNotFoundError:  # pragma: no cover
                        pass


# ======================================================================
# process-wide default pool and the engines' entry point
# ======================================================================
_DEFAULT_POOL: Optional[ShardedWorkerPool] = None


def default_pool() -> ShardedWorkerPool:
    """The process-wide pool behind ``EngineConfig.pool=True``.

    Created on first use with ``workers="auto"`` and closed at
    interpreter exit.  Sweeps and ensembles that set ``pool=True`` on
    their configs therefore share one pool across all points without any
    plumbing.
    """
    global _DEFAULT_POOL
    if _DEFAULT_POOL is None or _DEFAULT_POOL._closed:
        _DEFAULT_POOL = ShardedWorkerPool()
        atexit.register(_DEFAULT_POOL.close)
    return _DEFAULT_POOL


def run_sharded(
    engine: str, topo: Topology, config: EngineConfig, initial_loads,
    dynamic: bool,
) -> RecordBatch:
    """Run a ``workers``/``pool`` call of ``engine`` in column shards.

    The one entry point of the vectorised engines' ``run_batch`` and
    ``run_dynamic_batch``: the batch runs on ``config.pool`` (``True``
    for :func:`default_pool`), on a fresh pool of one worker per shard,
    or inline in this process when the plan has a single shard.  The
    workers build ``engine`` by name.
    """
    loads = as_load_batch(initial_loads, topo.n)
    pool = default_pool() if config.pool is True else config.pool
    if pool:
        return pool.run_batch(topo, config, loads, dynamic, engine=engine)
    n_shards = shard_count(config.workers, loads.shape[0])
    if n_shards > 1:
        with ShardedWorkerPool(workers=n_shards) as fresh:
            return fresh.run_batch(topo, config, loads, dynamic, engine=engine)
    [(_lo, _hi, shard_config)] = _shard_plan(topo, config, loads.shape[0], engine)
    return _run_shard(topo, shard_config, loads, dynamic, engine)
