"""Persistent worker pool: bit-identity, reuse, teardown and zero-copy layout.

The pool's contract mirrors the sharded engine's — pooling must be
*invisible* in the results — plus three properties of its own: workers
(and their topology/operator caches) persist across calls, shared-memory
blocks never leak (success, worker error, or worker death), and worker
failures surface as :class:`ConfigurationError` naming the failing
shard's replica range.
"""

import glob
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from repro import ConfigurationError, kernels, point_load, random_load, torus_2d
from repro.core.dynamic import HotspotArrivals
from repro.engines import (
    EngineConfig,
    ShardedWorkerPool,
    default_pool,
    make_engine,
    topology_fingerprint,
)
from repro.engines import pool as pool_module, sharded
from repro.engines.batched import BatchedVectorEngine
from repro.engines.base import merge_record_batches
from repro.engines.pool import _execute_task, _write_shared
from repro.engines.staleness import StalenessEngine

# Every worker here runs the numpy tier: keep testing the fork start.
pytestmark = pytest.mark.usefixtures("fork_workers")

TOPO = torus_2d(6, 6)
ROUNDINGS = [
    "ceil", "floor", "identity", "nearest", "randomized-excess",
    "unbiased-edge",
]


def _loads(B=6, seed=3):
    rng = np.random.default_rng(seed)
    rows = [point_load(TOPO, 800 * TOPO.n)]
    rows += [random_load(TOPO, 500 * TOPO.n, rng=rng) for _ in range(B - 1)]
    return np.stack(rows)


def _config(**kw):
    base = dict(scheme="sos", beta=1.7, rounds=15, seed=5,
                rounding="randomized-excess", record_every=4, workers=2)
    base.update(kw)
    return EngineConfig(**base)


def _shm_names():
    return set(glob.glob("/dev/shm/psm_*"))


def _children():
    """Live worker processes (the default pool's may predate a test)."""
    return {proc.pid for proc in multiprocessing.active_children()}


def assert_static_identical(a, b):
    np.testing.assert_array_equal(a.final_state.load, b.final_state.load)
    np.testing.assert_array_equal(a.final_state.flows, b.final_state.flows)
    assert a.switched_at == b.switched_at
    np.testing.assert_array_equal(a.rounds, b.rounds)
    for name in (
        "max_minus_avg", "min_minus_avg", "max_local_diff",
        "potential_per_node", "min_load", "min_transient", "total_load",
        "round_traffic",
    ):
        np.testing.assert_array_equal(
            np.asarray(a.series(name)), np.asarray(b.series(name)),
            err_msg=name,
        )


def assert_dynamic_identical(a, b):
    np.testing.assert_array_equal(a.final_state.load, b.final_state.load)
    for name in (
        "round_index", "total_load", "arrived", "departed", "clamped",
        "max_minus_avg", "max_local_diff", "potential_per_node",
    ):
        np.testing.assert_array_equal(
            np.asarray(a.table.column(name)), np.asarray(b.table.column(name)),
            err_msg=name,
        )


@pytest.fixture
def pool():
    with ShardedWorkerPool(workers=2) as p:
        yield p


class TestBitIdentity:
    @pytest.mark.parametrize("rounding", ROUNDINGS)
    def test_static_every_rounding(self, pool, rounding):
        cfg = _config(rounding=rounding, switch=("fixed", 6))
        loads = _loads()
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        pooled = pool.run_batch(TOPO, cfg, loads).results()
        for a, b in zip(pooled, percall):
            assert_static_identical(a, b)

    def test_dynamic(self, pool):
        cfg = _config(arrivals="poisson:3,depart=1")
        loads = _loads()
        percall = make_engine("sharded").run_dynamic(TOPO, cfg, loads)
        pooled = pool.run_batch(TOPO, cfg, loads, dynamic=True).dynamic_results()
        for a, b in zip(pooled, percall):
            assert_dynamic_identical(a, b)

    def test_engine_routes_pool_instance(self, pool):
        cfg = _config()
        loads = _loads()
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        routed = make_engine("sharded").run(TOPO, replace(cfg, pool=pool), loads)
        for a, b in zip(routed, percall):
            assert_static_identical(a, b)
        assert pool.calls_served == 1

    def test_pool_true_routes_default_pool(self):
        cfg = _config(pool=True)
        loads = _loads(B=4)
        before = default_pool().calls_served
        results = make_engine("sharded").run(TOPO, cfg, loads)
        assert default_pool().calls_served == before + 1
        percall = make_engine("sharded").run(TOPO, replace(cfg, pool=None), loads)
        for a, b in zip(results, percall):
            assert_static_identical(a, b)


class TestPersistence:
    def test_workers_survive_across_calls(self, pool):
        cfg = _config()
        loads = _loads()
        pool.run_batch(TOPO, cfg, loads)
        pids = [p.pid for p in pool._procs]
        for _ in range(3):
            pool.run_batch(TOPO, cfg, loads)
        assert [p.pid for p in pool._procs] == pids
        assert pool.calls_served == 4
        # The topology shipped once; later tasks reuse the worker cache.
        key = topology_fingerprint(TOPO)
        assert all(key in known for known in pool._known)

    def test_fingerprint_distinguishes_topologies(self):
        assert topology_fingerprint(TOPO) == topology_fingerprint(torus_2d(6, 6))
        assert topology_fingerprint(TOPO) != topology_fingerprint(torus_2d(6, 7))

    def test_closed_pool_refuses(self):
        p = ShardedWorkerPool(workers=2)
        p.close()
        with pytest.raises(ConfigurationError, match="closed"):
            p.run_batch(TOPO, _config(), _loads())
        p.close()  # idempotent


class TestFallback:
    """Ineligible configs skip zero-copy but stay pooled and bit-identical."""

    @pytest.mark.parametrize(
        "kw",
        [
            dict(keep_loads=True),
            dict(churn="random:0.1"),
            dict(record_mode="summary"),
        ],
    )
    def test_pickle_fallback_matches_percall(self, pool, kw):
        cfg = _config(**kw)
        loads = _loads()
        assert not pool._zero_copy_ok(cfg)
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        pooled = make_engine("sharded").run(TOPO, replace(cfg, pool=pool), loads)
        for a, b in zip(pooled, percall):
            np.testing.assert_array_equal(
                a.final_state.load, b.final_state.load
            )
            np.testing.assert_array_equal(
                np.asarray(a.series("max_minus_avg")),
                np.asarray(b.series("max_minus_avg")),
            )

    def test_closed_form_pooled_matches_percall(self, pool):
        # identity rounding + trimmed node fields engages the closed-form
        # fast path inside the workers; pooled results equal per-call ones
        # (TestZeroCopyCoverage checks that this path returns zero-copy).
        cfg = _config(
            rounding="identity",
            record_fields=(
                "max_minus_avg", "min_minus_avg", "max_local_diff",
                "potential_per_node", "min_load", "total_load",
            ),
        )
        loads = _loads()
        percall = make_engine("sharded").run(TOPO, cfg, loads)
        pooled = make_engine("sharded").run(TOPO, replace(cfg, pool=pool), loads)
        for a, b in zip(pooled, percall):
            np.testing.assert_array_equal(
                np.asarray(a.series("max_minus_avg")),
                np.asarray(b.series("max_minus_avg")),
            )


class TestZeroCopyCoverage:
    """Staleness and closed-form shards record into the batched engine's
    columnar store, so they take the zero-copy return too."""

    NODE_FIELDS = (
        "max_minus_avg", "min_minus_avg", "max_local_diff",
        "potential_per_node", "min_load", "total_load",
    )

    @pytest.fixture
    def merges(self, monkeypatch):
        calls = []

        def spy(batches):
            calls.append(len(batches))
            return merge_record_batches(batches)

        monkeypatch.setattr(pool_module, "merge_record_batches", spy)
        return calls

    def test_staleness_static(self, pool, merges):
        cfg = _config(latency_model="fixed:1", faults="drop:0.2")
        loads = _loads()
        pooled = pool.run_batch(TOPO, cfg, loads, engine="staleness").results()
        want = StalenessEngine().run_batch(
            TOPO, replace(cfg, workers=None), loads
        ).results()
        for a, b in zip(pooled, want, strict=True):
            assert_static_identical(a, b)
        assert merges == []

    def test_staleness_dynamic(self, pool, merges):
        cfg = _config(
            latency_model="fixed:1", faults="drop:0.2",
            arrivals="poisson:3,depart=1",
        )
        loads = _loads()
        pooled = pool.run_batch(
            TOPO, cfg, loads, dynamic=True, engine="staleness"
        ).dynamic_results()
        want = StalenessEngine().run_dynamic_batch(
            TOPO, replace(cfg, workers=None), loads
        ).dynamic_results()
        for a, b in zip(pooled, want, strict=True):
            assert_dynamic_identical(a, b)
        assert merges == []

    def test_closed_form(self, pool, merges):
        cfg = _config(
            rounding="identity", fast_path="auto", record_fields=self.NODE_FIELDS
        )
        loads = _loads()
        pooled = pool.run_batch(TOPO, cfg, loads).results()
        want = BatchedVectorEngine().run_batch(
            TOPO, replace(cfg, workers=None), loads
        ).results()
        for a, b in zip(pooled, want, strict=True):
            assert_static_identical(a, b)
        assert merges == []


class TestTeardown:
    def test_no_shm_leak_on_success(self, pool):
        before = _shm_names()
        batch = pool.run_batch(TOPO, _config(), _loads())
        results = batch.results()
        assert _shm_names() - before == set()
        # The unlinked mappings stay readable through the escaped views.
        assert np.isfinite(results[0].final_state.load).all()
        assert np.isfinite(np.asarray(results[0].series("max_minus_avg"))).all()

    def test_worker_error_names_shard_and_leaks_nothing(self, pool):
        # Hotspot nodes outside the graph blow up inside the workers at
        # deltas() time — after dispatch, mid-run.
        cfg = _config(arrivals=HotspotArrivals(nodes=[TOPO.n + 5], rate=2))
        before = _shm_names()
        with pytest.raises(ConfigurationError, match=r"replicas \[\d+:\d+\)"):
            pool.run_batch(TOPO, cfg, _loads(), dynamic=True)
        assert _shm_names() - before == set()
        # The pool survives the error: workers still alive, next call runs.
        out = pool.run_batch(TOPO, _config(), _loads()).results()
        assert len(out) == 6

    def test_pool_close_leaves_no_processes(self):
        p = ShardedWorkerPool(workers=2)
        p.run_batch(TOPO, _config(), _loads())
        procs = list(p._procs)
        p.close()
        assert all(not proc.is_alive() for proc in procs)


class TestPerCallPool:
    """A multi-shard call without ``pool`` runs on a fresh pool of its own."""

    def test_worker_error_names_shard_and_leaks_nothing(self):
        cfg = _config(arrivals=HotspotArrivals(nodes=[TOPO.n + 5], rate=2))
        before, children = _shm_names(), _children()
        with pytest.raises(
            ConfigurationError, match=r"replicas \[\d+:\d+\)"
        ) as info:
            make_engine("sharded").run_dynamic(TOPO, cfg, _loads())
        cause = info.value.__cause__
        assert isinstance(cause, ConfigurationError)
        assert "hotspot" in str(cause) and str(cause) in str(info.value)
        assert _shm_names() - before == set()
        assert _children() - children == set()

    def test_success_leaks_nothing(self):
        before, children = _shm_names(), _children()
        results = make_engine("sharded").run(TOPO, _config(), _loads())
        assert _shm_names() - before == set()
        assert _children() - children == set()
        # The closed pool's unlinked blocks stay readable through the views.
        assert np.isfinite(results[0].final_state.load).all()
        assert np.isfinite(np.asarray(results[0].series("max_minus_avg"))).all()

    @pytest.mark.parametrize(
        "workers, pooled", [(2, True), (3, True), (1, False)]
    )
    def test_plan_compiled_once_per_call(self, monkeypatch, workers, pooled):
        # Churn included: the schedule draw happens once, in the parent.
        calls = {"plan": [], "churn": 0, "run_batch": 0}
        shard_plan, resolve_churn = sharded._shard_plan, sharded.resolve_churn
        run_batch = ShardedWorkerPool.run_batch

        def counting_plan(*args):
            plan = shard_plan(*args)
            calls["plan"].append(len(plan))
            return plan

        def churn_spy(*args):
            calls["churn"] += 1
            return resolve_churn(*args)

        def run_batch_spy(self, *args, **kw):
            calls["run_batch"] += 1
            return run_batch(self, *args, **kw)

        monkeypatch.setattr(sharded, "_shard_plan", counting_plan)
        monkeypatch.setattr(pool_module, "_shard_plan", counting_plan)
        monkeypatch.setattr(sharded, "resolve_churn", churn_spy)
        monkeypatch.setattr(ShardedWorkerPool, "run_batch", run_batch_spy)
        cfg = _config(workers=workers, churn="random:0.1")
        got = make_engine("sharded").run(TOPO, cfg, _loads())
        assert calls == {
            "plan": [workers], "churn": 1, "run_batch": int(pooled)
        }
        want = make_engine("batched").run(TOPO, replace(cfg, workers=None), _loads())
        for a, b in zip(got, want):
            assert_static_identical(a, b)


class TestSpawnStart:
    def test_spawn_start_method(self, pool, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDED_START", "spawn")
        cfg = _config(rounds=6)
        loads = _loads(B=4)
        with ShardedWorkerPool(workers=2) as spawned:
            pooled = spawned.run_batch(TOPO, cfg, loads).results()
        percall = make_engine("batched").run(TOPO, replace(cfg, workers=None), loads)
        for a, b in zip(pooled, percall):
            np.testing.assert_array_equal(
                a.final_state.load, b.final_state.load
            )


class TestWorkerBodyInProcess:
    """The forked worker body as pure functions, for coverage and layout."""

    def _task(self, cfg, loads, lo, hi, shared, loads_shm, topo=TOPO):
        return {
            "engine": "batched",
            "graph_key": topology_fingerprint(topo),
            "topo": topo,
            "config": cfg,
            "lo": lo,
            "hi": hi,
            "dynamic": cfg.arrivals is not None,
            "loads_name": loads_shm.name,
            "loads_shape": loads.shape,
            "shared": shared,
            "write_grid": True,
        }

    @pytest.fixture
    def loads_shm(self):
        from multiprocessing import shared_memory

        loads = _loads(B=4)
        shm = shared_memory.SharedMemory(create=True, size=loads.nbytes)
        np.ndarray(loads.shape, dtype=np.float64, buffer=shm.buf)[:] = loads
        yield loads, shm
        shm.close()
        shm.unlink()

    def test_execute_task_fills_operator_cache(self, loads_shm):
        loads, shm = loads_shm
        cfg = replace(_config(), workers=None)
        topo_cache, op_caches = {}, {}
        task = self._task(cfg, loads, 0, 4, None, shm)
        batch = _execute_task(task, topo_cache, op_caches)
        key = topology_fingerprint(TOPO)
        assert key in topo_cache and op_caches[key]  # CSR operators cached
        want = BatchedVectorEngine().run_batch(TOPO, cfg, loads)
        np.testing.assert_array_equal(batch.final_loads, want.final_loads)
        # Second call reuses the cached topology (task may omit it).
        task2 = dict(task, topo=None)
        batch2 = _execute_task(task2, topo_cache, op_caches)
        np.testing.assert_array_equal(batch2.final_loads, want.final_loads)

    def test_execute_task_cache_desync_raises(self, loads_shm):
        loads, shm = loads_shm
        cfg = replace(_config(), workers=None)
        task = self._task(cfg, loads, 0, 4, None, shm)
        task["topo"] = None  # parent thinks the worker knows the graph
        with pytest.raises(ConfigurationError, match="cache desync"):
            _execute_task(task, {}, {})

    def test_write_shared_rejects_layout_mismatch(self):
        cfg = replace(_config(), workers=None)
        batch = BatchedVectorEngine().run_batch(TOPO, cfg, _loads(B=4))
        spec = {
            "dynamic": False,
            "count": len(batch.round_index) + 1,  # wrong grid length
            "B": 4,
            "n": TOPO.n,
            "m": TOPO.m_edges,
            "fields": tuple(batch.columns),
        }
        with pytest.raises(ConfigurationError, match="layout mismatch"):
            _write_shared(batch, spec, 0, 4, True)


class TestConfigPlumbing:
    def test_validate_rejects_bogus_pool(self):
        for spec in ("bogus", "auto"):
            with pytest.raises(ConfigurationError, match="pool"):
                _config(pool=spec).validate()

    @pytest.mark.parametrize("engine", ["reference", "network", "async"])
    def test_per_replica_engines_reject_pool(self, engine):
        cfg = EngineConfig(scheme="sos", beta=1.7, rounds=5, pool=True)
        with pytest.raises(ConfigurationError, match="batched/staleness"):
            make_engine(engine).run(TOPO, cfg, _loads(B=2))

    def test_pool_refuses_what_the_named_engine_refuses(self, pool):
        """A task carries its engine's name: a latency config on the
        default (batched) engine fails in the parent, before dispatch."""
        cfg = _config(latency_model="fixed:1")
        with pytest.raises(ConfigurationError, match="the batched engine"):
            pool.run_batch(TOPO, cfg, _loads())
        assert pool.calls_served == 0


class TestForkWorkersPremise:
    """The ``fork_workers`` fixture keeps every worker on the numpy tier."""

    def test_auto_resolves_to_numpy(self):
        cfg = EngineConfig(rounding="randomized-excess")
        assert kernels.resolve_kernel(cfg, 10_000, 20_000, 64) is None

    @pytest.mark.skipif(
        kernels.get_provider("cffi") is None, reason="cffi unavailable"
    )
    def test_forced_compiled_provider_fails_fast(self, pool):
        with pytest.raises(ConfigurationError, match="fork_workers"):
            pool.run_batch(TOPO, _config(kernel="cffi", rounds=3), _loads())
