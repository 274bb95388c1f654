"""Worker shards: bit-identity to the unsharded run + merge correctness.

The contract of the ``workers``/``pool`` knobs is that splitting a replica
batch into per-worker column shards is *invisible* in the results: every
rounding, static and dynamic, B=1 and B>1, any worker count, on the
batched and the staleness engine (and the ``sharded`` alias of batched).
These tests enforce the contract trace for trace, exercise the merge
helpers (`merge_record_batches`, `StreamingStats.concat`) directly, and
pin the per-replica rounding-stream layout (`rounding_stream`) that makes
the whole thing possible — a replica's trajectory must not depend on its
batch position or shard assignment.
"""

import math
import multiprocessing
import os
import signal
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import repro
from repro import ConfigurationError, kernels, point_load, random_load, torus_2d
from repro.core.records import StreamingStats
from repro.engines import (
    EngineConfig,
    RecordBatch,
    ShardedWorkerPool,
    make_engine,
    merge_record_batches,
    plan_shards,
    resolve_rounding_rngs,
    resolve_workers,
    rounding_stream,
)
from repro.engines import pool as pool_module, sharded
from repro.engines.sharded import _run_shard, _start_method
from repro.graphs import random_regular_strict

# Every in-process worker here runs the numpy tier: keep testing the fork
# start (the compiled-provider case runs in its own subprocess below).
pytestmark = pytest.mark.usefixtures("fork_workers")

TORUS = torus_2d(8, 9)
RR = random_regular_strict(36, 4, rng=np.random.default_rng(7))


def _batch(topo, n_replicas=6):
    rng = np.random.default_rng(3)
    rows = [point_load(topo, 800 * topo.n)]
    rows += [
        random_load(topo, 500 * topo.n, rng=rng) for _ in range(n_replicas - 1)
    ]
    return np.stack(rows)


def assert_static_identical(a, b):
    """Two SimulationResults agree bit for bit (NaN columns included)."""
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
            np.asarray(a.series(name)), np.asarray(b.series(name))
        )
    sa, sb = a.table.summary(), b.table.summary()
    assert sa.keys() == sb.keys()
    for key, va in sa.items():
        vb = sb[key]
        if isinstance(va, float) and math.isnan(va):
            assert isinstance(vb, float) and math.isnan(vb)
        else:
            assert va == vb


def assert_dynamic_identical(a, b):
    """Two DynamicResults agree bit for bit."""
    np.testing.assert_array_equal(a.final_state.load, b.final_state.load)
    for name in (
        "total_load", "arrived", "departed", "clamped", "max_minus_avg",
        "max_local_diff", "potential_per_node",
    ):
        np.testing.assert_array_equal(
            np.asarray(a.series(name)), np.asarray(b.series(name))
        )
    assert a.table.summary() == b.table.summary()


class TestStaticEquivalence:
    @pytest.mark.parametrize("topo", [TORUS, RR], ids=["torus", "rr"])
    @pytest.mark.parametrize(
        "rounding",
        ["nearest", "floor", "ceil", "randomized-excess", "unbiased-edge",
         "identity"],
    )
    def test_bit_identical_all_roundings(self, topo, rounding):
        loads = _batch(topo)
        config = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=30,
            record_every=4, seed=11,
        )
        batched = make_engine("batched").run(topo, config, loads)
        for workers in (1, 2, 3, 6, "auto"):
            sharded = make_engine("sharded").run(
                topo, replace(config, workers=workers), loads
            )
            assert len(sharded) == len(batched)
            for a, b in zip(batched, sharded):
                assert_static_identical(a, b)

    def test_single_replica(self):
        load = point_load(TORUS, 500 * TORUS.n)
        config = EngineConfig(rounds=12, seed=2, workers=4)
        sharded = make_engine("sharded").run(TORUS, config, load)
        batched = make_engine("batched").run(
            TORUS, replace(config, workers=None), load
        )
        assert_static_identical(batched[0], sharded[0])

    def test_switch_policies_and_history(self):
        loads = _batch(TORUS)
        config = EngineConfig(
            scheme="sos", beta=1.8, rounding="nearest", rounds=60,
            switch=("local-diff", 12.0, 1), keep_loads=True, seed=5,
        )
        batched = make_engine("batched").run(TORUS, config, loads)
        sharded = make_engine("sharded").run(
            TORUS, replace(config, workers=3), loads
        )
        for a, b in zip(batched, sharded):
            assert_static_identical(a, b)
            assert len(a.loads_history) == len(b.loads_history)
            for x, y in zip(a.loads_history, b.loads_history):
                np.testing.assert_array_equal(x, y)

    def test_batched_only_knobs_pass_through(self):
        """tile_size / record_mode / float32 shard like anything else."""
        loads = _batch(TORUS)
        for kwargs in (
            {"tile_size": 13},
            {"record_mode": "summary"},
            {"precision": "float32"},
        ):
            config = EngineConfig(
                rounding="randomized-excess", rounds=20, seed=9, **kwargs
            )
            batched = make_engine("batched").run(TORUS, config, loads)
            sharded = make_engine("sharded").run(
                TORUS, replace(config, workers=2), loads
            )
            for a, b in zip(batched, sharded):
                np.testing.assert_array_equal(
                    a.final_state.load, b.final_state.load
                )
                assert a.table.summary() == b.table.summary()

    def test_fast_path_bit_identical(self):
        """The closed-form continuous tiers shard column-independently."""
        loads = _batch(TORUS)
        config = EngineConfig(
            scheme="sos", beta=1.7, rounding="identity", rounds=25,
            record_every=5, seed=1,
            record_fields=("max_minus_avg", "potential_per_node",
                           "max_local_diff", "total_load"),
        )
        batched = make_engine("batched").run(TORUS, config, loads)
        sharded = make_engine("sharded").run(
            TORUS, replace(config, workers=3), loads
        )
        for a, b in zip(batched, sharded):
            assert_static_identical(a, b)


class TestDynamicEquivalence:
    @pytest.mark.parametrize(
        "arrivals",
        ["poisson:2.0,depart=1.0", "burst:150/7", "hotspot:0,3:4"],
    )
    def test_bit_identical_dynamic(self, arrivals):
        loads = _batch(TORUS)
        config = EngineConfig(
            scheme="sos", beta=1.7, rounding="randomized-excess", rounds=25,
            seed=6, arrivals=arrivals,
        )
        batched = make_engine("batched").run_dynamic(TORUS, config, loads)
        for workers in (2, 5):
            sharded = make_engine("sharded").run_dynamic(
                TORUS, replace(config, workers=workers), loads
            )
            for a, b in zip(batched, sharded):
                assert_dynamic_identical(a, b)

    def test_per_replica_models_and_seeds(self):
        loads = _batch(TORUS, n_replicas=4)
        config = EngineConfig(
            rounding="nearest", rounds=15, seed=3,
            arrivals=["poisson:1.5", "burst:80/4", "hotspot:1:3", "none"],
            arrival_seeds=[13, 5, 21, 8],
        )
        batched = make_engine("batched").run_dynamic(TORUS, config, loads)
        sharded = make_engine("sharded").run_dynamic(
            TORUS, replace(config, workers=2), loads
        )
        for a, b in zip(batched, sharded):
            assert_dynamic_identical(a, b)

    def test_dynamic_summary_mode(self):
        loads = _batch(TORUS)
        config = EngineConfig(
            rounding="randomized-excess", rounds=20, seed=4,
            arrivals="poisson:2.0,depart=2.0", record_mode="summary",
        )
        batched = make_engine("batched").run_dynamic(TORUS, config, loads)
        sharded = make_engine("sharded").run_dynamic(
            TORUS, replace(config, workers=3), loads
        )
        for a, b in zip(batched, sharded):
            assert_dynamic_identical(a, b)


#: One config per vectorised engine and regime: the staleness ones carry
#: latency, skew and fault knobs, so their shards run delayed-view planes.
KNOB_CONFIGS = {
    "batched": EngineConfig(
        scheme="sos", beta=1.7, rounding="randomized-excess", rounds=20,
        record_every=3, seed=12,
    ),
    "staleness": EngineConfig(
        scheme="fos", rounding="randomized-excess", rounds=20, seed=12,
        latency_model="fixed:2", max_skew=1, faults="drop:0.2",
    ),
}


@pytest.fixture(scope="module")
def two_worker_pool():
    with ShardedWorkerPool(workers=2) as pool:
        yield pool


class TestWorkersAndPoolKnobs:
    """The supported cells of ``workers`` and ``pool``: each vectorised
    engine shards its own batches, bit-identically to its inline run."""

    @pytest.mark.parametrize("knob", ["workers", "pool"])
    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    @pytest.mark.parametrize("engine", ["batched", "staleness"])
    def test_sharded_equals_inline(self, engine, dynamic, knob, two_worker_pool):
        config = KNOB_CONFIGS[engine]
        if dynamic:
            config = replace(config, arrivals="poisson:2.0,depart=1.0")
        knobs = {"workers": 3} if knob == "workers" else {"pool": two_worker_pool}
        backend = make_engine(engine)
        run = backend.run_dynamic if dynamic else backend.run
        same = assert_dynamic_identical if dynamic else assert_static_identical
        loads = _batch(TORUS)
        inline = run(TORUS, config, loads)
        served = two_worker_pool.calls_served
        got = run(TORUS, replace(config, **knobs), loads)
        assert two_worker_pool.calls_served == served + (knob == "pool")
        assert len(got) == len(inline)
        for a, b in zip(inline, got):
            same(a, b)

    def test_sharded_alias_sets_auto_workers_only_when_unset(
        self, monkeypatch, two_worker_pool
    ):
        calls = []
        run_sharded = pool_module.run_sharded

        def spy(engine, topo, config, loads, dynamic):
            calls.append((engine, config.workers, config.pool))
            return run_sharded(engine, topo, config, loads, dynamic)

        monkeypatch.setattr(pool_module, "run_sharded", spy)
        config = EngineConfig(rounding="nearest", rounds=4, seed=3)
        loads = _batch(TORUS, 4)
        alias = make_engine("sharded")
        alias.run(TORUS, config, loads)
        alias.run(TORUS, replace(config, workers=1), loads)
        alias.run(TORUS, replace(config, pool=two_worker_pool), loads)
        make_engine("batched").run(TORUS, config, loads)  # inline
        assert calls == [
            ("sharded", "auto", None),
            ("sharded", 1, None),
            ("sharded", None, two_worker_pool),
        ]

    def test_run_shard_builds_the_named_engine(self):
        """The worker entry point reads no knob: the call names its
        engine, and a config that engine refuses fails in the shard."""
        config = replace(KNOB_CONFIGS["staleness"], replica_keys=[0, 1])
        loads = _batch(TORUS, 2)
        got = _run_shard(TORUS, config, loads, False, "staleness")
        want = make_engine("staleness").run_batch(TORUS, config, loads)
        np.testing.assert_array_equal(got.final_loads, want.final_loads)
        with pytest.raises(ConfigurationError, match="the batched engine"):
            _run_shard(TORUS, config, loads, False, "batched")

    @pytest.mark.parametrize(
        "knob",
        [{"latency_model": 1.0}, {"max_skew": 1},
         {"latency_buckets": "floor", "latency_model": 1.0},
         {"faults": "drop:0.1"}],
        ids=["latency_model", "max_skew", "latency_buckets", "faults"],
    )
    def test_sharded_alias_points_staleness_knobs_to_staleness(self, knob):
        config = EngineConfig(rounds=2, workers=2, **knob)
        with pytest.raises(
            ConfigurationError, match="engine='staleness' and workers"
        ) as info:
            make_engine("sharded").run(TORUS, config, _batch(TORUS, 4))
        assert "the sharded engine" in str(info.value)


class TestPositionIndependence:
    """The per-replica stream layout behind the sharding contract."""

    def test_rounding_stream_matches_spawn_key(self):
        direct = rounding_stream(42, 3)
        spawned = np.random.default_rng(
            np.random.SeedSequence(42, spawn_key=(3, 1))
        )
        np.testing.assert_array_equal(direct.random(8), spawned.random(8))

    @pytest.mark.parametrize("n_replicas", [5, 257])  # 257: past a uint8 key
    @pytest.mark.parametrize(
        "engine, knobs",
        [("batched", {}), ("batched", {"tile_size": 7}), ("staleness", {})],
        ids=["batched-dense", "batched-tiled", "staleness"],
    )
    def test_replica_trajectory_independent_of_batch_position(
        self, engine, knobs, n_replicas
    ):
        """Replica b alone (replica_keys=[b, pad]) equals replica b in the
        full batch — the rounding stream is keyed by identity, not index."""
        topo = torus_2d(4, 5)
        loads = _batch(topo, n_replicas=n_replicas)
        config = EngineConfig(
            rounding="randomized-excess", rounds=10, seed=7, **knobs
        )
        full = make_engine(engine).run(topo, config, loads)
        for b in (0, n_replicas // 2, n_replicas - 1):
            # width-2 sub-batch (numpy reduces width-1 planes through a
            # different kernel; the engine itself shards the same way)
            pair = make_engine(engine).run(
                topo,
                replace(config, replica_keys=[b, b + 1000]),
                np.stack([loads[b], loads[b]]),
            )
            np.testing.assert_array_equal(
                full[b].final_state.load, pair[0].final_state.load
            )

    def test_resolve_rounding_rngs_validates(self):
        config = EngineConfig(replica_keys=[1, 2])
        with pytest.raises(ConfigurationError, match="replica_keys"):
            resolve_rounding_rngs(config, 3)


class TestShardPlanning:
    def test_plan_shards_contiguous_cover(self):
        for B, k in ((1, 1), (7, 3), (8, 4), (128, 5)):
            bounds = plan_shards(B, k)
            assert bounds[0][0] == 0 and bounds[-1][1] == B
            widths = [hi - lo for lo, hi in bounds]
            assert all(
                a == b for (_, a), (b, _) in zip(bounds, bounds[1:])
            )
            assert max(widths) - min(widths) <= 1

    def test_plan_shards_rejects_bad_counts(self):
        with pytest.raises(ConfigurationError):
            plan_shards(4, 0)
        with pytest.raises(ConfigurationError):
            plan_shards(4, 5)

    def test_resolve_workers(self):
        assert resolve_workers(3, 128) == 3
        assert resolve_workers(64, 8) == 8  # capped at the replica count
        assert resolve_workers("auto", 4) >= 1
        assert resolve_workers(None, 1) == 1
        with pytest.raises(ConfigurationError):
            resolve_workers(0, 4)

    def test_workers_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(workers=0).validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(workers="half").validate()
        EngineConfig(workers="auto").validate()
        EngineConfig(workers=4).validate()


class TestRejections:
    def test_other_engines_reject_workers(self, small_torus):
        load = point_load(small_torus, 100)
        config = EngineConfig(rounding="nearest", rounds=2, workers=2)
        for name in ("reference", "network", "async"):
            with pytest.raises(ConfigurationError, match="workers"):
                make_engine(name).run(small_torus, config, load)

    def test_per_replica_engines_reject_replica_keys(self, small_torus):
        load = point_load(small_torus, 100)
        config = EngineConfig(rounding="nearest", rounds=2, replica_keys=[5])
        for name in ("reference", "network"):
            with pytest.raises(ConfigurationError, match="replica_keys"):
                make_engine(name).run(small_torus, config, load)

    def test_sharded_rejects_batch_sampling(self):
        config = EngineConfig(
            rounds=3, arrivals="poisson:1.0", arrival_sampling="batch",
            workers=2,
        )
        with pytest.raises(ConfigurationError, match="arrival_sampling"):
            make_engine("sharded").run_dynamic(
                TORUS, config, _batch(TORUS, 4)
            )

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    @pytest.mark.parametrize("engine", ["batched", "staleness", "sharded"])
    def test_step_protocol_refuses_multi_shard_configs(self, engine, dynamic):
        """prepare()/step() would need one IPC round trip per round: a
        config that plans worker shards (or names a pool) is refused at
        prepare(), while its single-shard twin prepares and steps."""
        backend = make_engine(engine)
        config = EngineConfig(
            rounds=2, arrivals="poisson:1.0" if dynamic else None
        )
        loads = _batch(TORUS, 4)
        with ShardedWorkerPool(workers=1) as pool:
            for knob in ({"workers": 2}, {"pool": pool}):
                with pytest.raises(ConfigurationError, match="run_dynamic"):
                    backend.prepare(TORUS, replace(config, **knob), loads)
        handle = backend.prepare(TORUS, replace(config, workers=1), loads)
        if dynamic:
            backend.arrive(handle)
        backend.step(handle)
        assert backend.metrics(handle).final_loads.shape == loads.shape

    @pytest.mark.parametrize("knob", ["workers", "pool"])
    def test_batch_sampling_refused_across_shards(self, knob):
        """One shared arrival stream cannot split into column shards: the
        shard planner refuses it before any worker starts."""
        config = EngineConfig(
            rounds=3, arrivals="poisson:1.0", arrival_sampling="batch",
        )
        with ShardedWorkerPool(workers=2) as pool:
            knobs = {"workers": 2} if knob == "workers" else {"pool": pool}
            with pytest.raises(ConfigurationError, match="arrival_sampling"):
                make_engine("batched").run_dynamic(
                    TORUS, replace(config, **knobs), _batch(TORUS, 4)
                )
            assert pool._procs == []  # refused in the parent

    def test_run_and_run_dynamic_refuse_wrong_regime(self):
        engine = make_engine("sharded")
        with pytest.raises(ConfigurationError, match="run_dynamic"):
            engine.run(
                TORUS,
                EngineConfig(rounds=2, arrivals="poisson:1.0"),
                _batch(TORUS, 2),
            )
        with pytest.raises(ConfigurationError, match="arrival"):
            engine.run_dynamic(
                TORUS, EngineConfig(rounds=2), _batch(TORUS, 2)
            )


class TestMergeHelpers:
    def _shard_batches(self, config, loads, bounds):
        """Run explicit column shards through the worker entry point."""
        plan = [
            (lo, hi, replace(config, replica_keys=list(range(lo, hi))))
            for lo, hi in bounds
        ]
        return [
            _run_shard(TORUS, shard_config, loads[lo:hi], False)
            for lo, hi, shard_config in plan
        ]

    def test_merge_reproduces_full_batch(self):
        loads = _batch(TORUS)
        config = EngineConfig(
            rounding="randomized-excess", rounds=15, record_every=2, seed=8
        )
        full = make_engine("batched").run_batch(TORUS, config, loads)
        merged = merge_record_batches(
            self._shard_batches(config, loads, [(0, 2), (2, 4), (4, 6)])
        )
        np.testing.assert_array_equal(full.round_index, merged.round_index)
        np.testing.assert_array_equal(full.final_loads, merged.final_loads)
        np.testing.assert_array_equal(full.scheme_codes, merged.scheme_codes)
        for name, col in full.columns.items():
            np.testing.assert_array_equal(col, merged.columns[name])

    def test_merge_single_batch_is_identity(self):
        loads = _batch(TORUS, 2)
        config = EngineConfig(rounding="nearest", rounds=5, seed=0)
        batch = make_engine("batched").run_batch(TORUS, config, loads)
        assert merge_record_batches([batch]) is batch

    def test_merge_rejects_empty_and_mismatched_grids(self):
        with pytest.raises(ConfigurationError):
            merge_record_batches([])
        loads = _batch(TORUS, 2)
        a = make_engine("batched").run_batch(
            TORUS, EngineConfig(rounding="nearest", rounds=4, seed=0), loads
        )
        b = make_engine("batched").run_batch(
            TORUS, EngineConfig(rounding="nearest", rounds=6, seed=0), loads
        )
        with pytest.raises(ConfigurationError, match="round_index"):
            merge_record_batches([a, b])

    def test_merge_refuses_prebuilt_results(self):
        """Only columnar batches shard; the per-replica engines' pre-built
        results are refused rather than chained."""
        loads = _batch(TORUS, 4)
        config = EngineConfig(rounding="nearest", rounds=4, seed=0)
        engine = make_engine("reference")
        handles = [
            engine.prepare(TORUS, config, loads[i : i + 2]) for i in (0, 2)
        ]
        batches = []
        for handle in handles:
            for _ in range(config.rounds):
                engine.step(handle)
            batches.append(engine.metrics(handle))
        assert all(len(b.results()) == 2 for b in batches)
        with pytest.raises(ConfigurationError, match="pre-built"):
            merge_record_batches(batches)

    def test_streaming_stats_concat(self):
        full = StreamingStats(("x", "y"), 5)
        parts = [StreamingStats(("x", "y"), 2), StreamingStats(("x", "y"), 3)]
        rng = np.random.default_rng(0)
        for round_index in (1, 2, 5):
            values = {"x": rng.random(5), "y": rng.random(5) * 100}
            full.update(round_index, values)
            parts[0].update(
                round_index, {k: v[:2] for k, v in values.items()}
            )
            parts[1].update(
                round_index, {k: v[2:] for k, v in values.items()}
            )
        merged = StreamingStats.concat(parts)
        assert merged.width == 5
        assert merged.count == full.count
        for b in range(5):
            assert merged.replica_summary(b) == full.replica_summary(b)

    def test_streaming_stats_concat_rejects_mismatch(self):
        a, b = StreamingStats(("x",), 2), StreamingStats(("y",), 2)
        with pytest.raises(ConfigurationError):
            StreamingStats.concat([a, b])
        with pytest.raises(ConfigurationError):
            StreamingStats.concat([])
        c = StreamingStats(("x",), 2)
        c.update(1, {"x": np.zeros(2)})
        d = StreamingStats(("x",), 2)
        with pytest.raises(ConfigurationError):
            StreamingStats.concat([c, d])


class TestStartMethods:
    def test_spawn_safe(self, monkeypatch):
        """The shard payloads pickle and the merge survives a spawn pool."""
        monkeypatch.setenv("REPRO_SHARDED_START", "spawn")
        loads = _batch(TORUS, 4)
        config = EngineConfig(
            rounding="randomized-excess", rounds=8, seed=1, workers=2
        )
        sharded = make_engine("sharded").run(TORUS, config, loads)
        batched = make_engine("batched").run(
            TORUS, replace(config, workers=None), loads
        )
        for a, b in zip(batched, sharded):
            assert_static_identical(a, b)

    def test_unknown_start_method_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_SHARDED_START", "teleport")
        with pytest.raises(ConfigurationError, match="teleport"):
            _start_method()

    def test_default_start_method_known(self):
        if "REPRO_SHARDED_START" not in os.environ:
            assert _start_method() in ("fork", "spawn")

    def test_fork_unsafe_provider_leaves_fork(self, monkeypatch):
        monkeypatch.delenv("REPRO_SHARDED_START", raising=False)
        monkeypatch.setattr(sharded, "fork_unsafe_loaded", lambda: True)
        assert _start_method() in ("forkserver", "spawn")

    def test_env_override_beats_provider_policy(self, monkeypatch):
        monkeypatch.setattr(sharded, "fork_unsafe_loaded", lambda: True)
        for method in ("spawn", "fork"):
            if method in multiprocessing.get_all_start_methods():
                monkeypatch.setenv("REPRO_SHARDED_START", method)
                assert _start_method() == method

    def test_fork_unsafe_loaded_reads_the_provider_cache(self, monkeypatch):
        class Fake:
            def __init__(self, compiled):
                self.compiled = compiled

        monkeypatch.setattr(kernels, "_PROVIDERS", {"cffi": None})
        assert not kernels.fork_unsafe_loaded()
        monkeypatch.setitem(kernels._PROVIDERS, "python", Fake(False))
        assert not kernels.fork_unsafe_loaded()
        monkeypatch.setitem(kernels._PROVIDERS, "cffi", Fake(True))
        assert kernels.fork_unsafe_loaded()

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods()
        or kernels.get_provider("cffi") is None,
        reason="needs fork and the cffi provider",
    )
    def test_workers_after_openmp_kernel_do_not_hang(self):
        """An OpenMP region in the parent, then sharded and pooled
        workers running the same kernels: forked children would hang in
        libgomp, so the run must pick another start method and finish."""
        script = textwrap.dedent("""
            from dataclasses import replace
            import numpy as np
            from repro import point_load, torus_2d
            from repro.engines import EngineConfig, ShardedWorkerPool, make_engine
            from repro.engines.sharded import _start_method

            topo = torus_2d(6, 6)
            loads = np.tile(point_load(topo, 3600.0), (4, 1))
            cfg = EngineConfig(
                rounding="randomized-excess", rounds=6, seed=1, kernel="cffi"
            )
            ref = make_engine("batched").run_batch(topo, cfg, loads)
            assert _start_method() != "fork", _start_method()

            def same(results):
                got = np.stack([r.final_state.load for r in results])
                assert np.array_equal(ref.final_loads, got)

            sharded = make_engine("sharded")
            same(sharded.run(topo, replace(cfg, workers=2), loads))
            with ShardedWorkerPool(workers=2) as pool:
                same(sharded.run(topo, replace(cfg, workers=2, pool=pool), loads))
            print("ok")
        """)
        env = dict(os.environ)
        env.pop("REPRO_SHARDED_START", None)
        env["OMP_NUM_THREADS"] = "2"  # a real thread team, even on one core
        src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        # Own session, so a timeout can kill the hung workers as well.
        proc = subprocess.Popen(
            [sys.executable, "-c", script], env=env, start_new_session=True,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        try:
            out, err = proc.communicate(timeout=120)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            pytest.fail("sharded/pooled workers hung after an OpenMP kernel")
        assert proc.returncode == 0, err
        assert out.strip().endswith("ok")


class TestEnsembleIntegration:
    def test_replica_ensemble_sharded_matches_batched(self):
        from repro.experiments import replica_ensemble

        config = EngineConfig(
            scheme="sos", beta=1.7, rounding="randomized-excess", rounds=40,
            record_every=5, seed=0,
        )
        batched = replica_ensemble(
            TORUS, config, n_replicas=6, engine="batched"
        )
        sharded = replica_ensemble(
            TORUS, replace(config, workers=2), n_replicas=6, engine="sharded"
        )
        assert batched.stats == sharded.stats

    def test_dynamic_replica_ensemble_sharded(self):
        from repro.experiments import dynamic_replica_ensemble

        config = EngineConfig(
            rounding="randomized-excess", rounds=20, seed=0
        )
        batched = dynamic_replica_ensemble(
            TORUS, config, ["poisson:1.5,depart=1.5", "burst:60/5"],
            seeds=(0, 1, 2), engine="batched",
        )
        sharded = dynamic_replica_ensemble(
            TORUS, replace(config, workers=3),
            ["poisson:1.5,depart=1.5", "burst:60/5"],
            seeds=(0, 1, 2), engine="sharded",
        )
        assert batched.stats == sharded.stats
        assert batched.labels == sharded.labels
