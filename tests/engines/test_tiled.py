"""Tiled streaming mode: bit-identical to dense mode at every tile size.

A dense run is one tile covering every node, so the tiled kernels
(apply/transient loops over CSR row blocks, per-tile metric reductions,
local differences over CSR row blocks of the difference operator, lazy
excess-token planes, tiled arrival clamping) must give the one-tile
results bit for bit whenever the summed quantities are integral — which
is every discrete rounding — including tile_size=1 and tile sizes past n
(which resolve to dense).  The fractional loads of ``identity`` keep
every elementwise and max/min result bitwise too; only its sum columns
regroup.  Streaming-summary records must reduce to exactly the dense
table's aggregates.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro import ConfigurationError, point_load, random_load, torus_2d
from repro.core.records import DynamicRecordTable, RecordTable, StreamingStats
from repro.engines import EngineConfig, make_engine, resolve_tile_size
from repro.graphs import random_regular_strict

TORUS = torus_2d(9, 11)
RR = random_regular_strict(40, 4, rng=np.random.default_rng(4))
TILE_SIZES = (1, 3, 17, 64, 99, 200)  # 99 = n for the torus; 200 > n

STATIC_FIELDS = (
    "max_minus_avg", "min_minus_avg", "max_local_diff", "potential_per_node",
    "min_load", "min_transient", "total_load", "round_traffic",
)
DYNAMIC_EXACT_FIELDS = (
    "total_load", "arrived", "departed", "clamped", "max_minus_avg",
    "max_local_diff",
)


def _batch(topo, n_replicas=4):
    rng = np.random.default_rng(13)
    rows = [point_load(topo, 1000 * topo.n)]
    rows += [
        random_load(topo, 700 * topo.n, rng=rng) for _ in range(n_replicas - 1)
    ]
    return np.stack(rows)


class TestStaticTiled:
    @pytest.mark.parametrize("topo", [TORUS, RR], ids=["torus", "rr"])
    @pytest.mark.parametrize(
        "rounding", ["nearest", "floor", "ceil", "randomized-excess", "identity"]
    )
    def test_bit_identical_across_tile_sizes(self, topo, rounding):
        loads = _batch(topo)
        dense_cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding=rounding, rounds=40,
            record_every=3, seed=9,
        )
        configs = [dense_cfg]
        summed = ()
        if rounding == "identity":
            # Fractional loads, with uniform and integer speeds, edge-wise
            # and with the fast path allowed.  Per-tile partial sums regroup
            # the node-space sums, so only those agree to accumulation
            # accuracy.
            hetero = 1.0 + np.random.default_rng(2).integers(0, 3, topo.n)
            configs = [
                replace(dense_cfg, speeds=speeds, fast_path=fast_path)
                for speeds in (None, hetero)
                for fast_path in ("never", "auto")
            ]
            summed = ("potential_per_node", "total_load")
        for cfg in configs:
            dense = make_engine("batched").run(topo, cfg, loads)
            for tile in TILE_SIZES:
                tiled = make_engine("batched").run(
                    topo, replace(cfg, tile_size=tile), loads
                )
                for t_res, d_res in zip(tiled, dense):
                    np.testing.assert_array_equal(
                        t_res.final_state.load, d_res.final_state.load,
                        err_msg=f"tile={tile}",
                    )
                    np.testing.assert_array_equal(
                        t_res.final_state.flows, d_res.final_state.flows
                    )
                    for fieldname in STATIC_FIELDS:
                        if fieldname in summed:
                            np.testing.assert_allclose(
                                t_res.series(fieldname), d_res.series(fieldname),
                                rtol=1e-12,
                                err_msg=f"tile={tile} field={fieldname}",
                            )
                        else:
                            np.testing.assert_array_equal(
                                t_res.series(fieldname), d_res.series(fieldname),
                                err_msg=f"tile={tile} field={fieldname}",
                            )

    def test_tiled_with_switch_policy(self):
        """Metric-triggered switching fires at the same round tiled."""
        loads = _batch(TORUS, 2)
        base = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=120,
            switch=("local-diff", 12.0, 1), seed=0,
        )
        dense = make_engine("batched").run(TORUS, base, loads)
        tiled = make_engine("batched").run(
            TORUS, replace(base, tile_size=7), loads
        )
        for t_res, d_res in zip(tiled, dense):
            assert t_res.switched_at == d_res.switched_at
            np.testing.assert_array_equal(
                t_res.final_state.load, d_res.final_state.load
            )

    def test_step_protocol_tiled(self):
        """The prepare/step protocol works tiled, bit-identical to dense."""
        loads = _batch(TORUS, 2)
        base = EngineConfig(
            scheme="sos", beta=1.6, rounding="floor", rounds=10, seed=1
        )
        engine = make_engine("batched")
        h_dense = engine.prepare(TORUS, base, loads)
        h_tiled = engine.prepare(TORUS, replace(base, tile_size=5), loads)
        for _ in range(10):
            s_dense = engine.step(h_dense)
            s_tiled = engine.step(h_tiled)
            np.testing.assert_array_equal(s_tiled.loads, s_dense.loads)
            np.testing.assert_array_equal(
                s_tiled.min_transient, s_dense.min_transient
            )
            np.testing.assert_array_equal(s_tiled.traffic, s_dense.traffic)

    def test_auto_tile_from_memory_budget(self):
        config = EngineConfig(tile_size="auto", memory_budget_mb=0.01)
        tile = resolve_tile_size(config, n=10_000, n_replicas=16, itemsize=8)
        assert tile is not None and 1 <= tile < 10_000
        roomy = EngineConfig(tile_size="auto", memory_budget_mb=4096.0)
        assert resolve_tile_size(roomy, n=100, n_replicas=1, itemsize=8) is None

    def test_tile_size_validation(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(tile_size=0).validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(tile_size="big").validate()


class TestDynamicTiled:
    @pytest.mark.parametrize("arrivals", ["poisson:2.0,depart=1.5", "burst:300/7"])
    def test_dynamic_bit_identical(self, arrivals):
        loads = _batch(TORUS)
        dense_cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="randomized-excess", rounds=30,
            seed=3, arrivals=arrivals,
        )
        dense = make_engine("batched").run_dynamic(TORUS, dense_cfg, loads)
        for tile in (1, 13, 99):
            tiled = make_engine("batched").run_dynamic(
                TORUS, replace(dense_cfg, tile_size=tile), loads
            )
            for t_res, d_res in zip(tiled, dense):
                np.testing.assert_array_equal(
                    t_res.final_state.load, d_res.final_state.load
                )
                for fieldname in DYNAMIC_EXACT_FIELDS:
                    np.testing.assert_array_equal(
                        t_res.series(fieldname), d_res.series(fieldname),
                        err_msg=f"tile={tile} field={fieldname}",
                    )
                # the moving average is fractional, so the potential sum is
                # accumulation-accurate rather than bitwise tiled
                np.testing.assert_allclose(
                    t_res.series("potential_per_node"),
                    d_res.series("potential_per_node"),
                    rtol=1e-12,
                )


class TestStreamingSummary:
    def test_static_summary_equals_dense_reductions(self):
        loads = _batch(TORUS)
        dense_cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=50,
            record_every=4, seed=2,
        )
        dense = make_engine("batched").run(TORUS, dense_cfg, loads)
        summary = make_engine("batched").run(
            TORUS, replace(dense_cfg, record_mode="summary"), loads
        )
        for s_res, d_res in zip(summary, dense):
            s_sum, d_sum = s_res.table.summary(), d_res.table.summary()
            assert s_sum.keys() == d_sum.keys()
            for key in d_sum:
                s_val, d_val = s_sum[key], d_sum[key]
                assert s_val == d_val or (s_val != s_val and d_val != d_val), key
            # the single stored row is the terminal record
            assert len(s_res.table) == 1
            assert s_res.records[-1].round_index == d_res.records[-1].round_index
            assert s_res.records[-1].max_minus_avg == d_res.records[-1].max_minus_avg
            np.testing.assert_array_equal(
                s_res.final_state.load, d_res.final_state.load
            )

    def test_dynamic_summary_equals_dense_reductions(self):
        loads = _batch(TORUS, 3)
        dense_cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="randomized-excess", rounds=40,
            seed=6, arrivals="poisson:1.5,depart=1.0",
        )
        dense = make_engine("batched").run_dynamic(TORUS, dense_cfg, loads)
        summary = make_engine("batched").run_dynamic(
            TORUS, replace(dense_cfg, record_mode="summary"), loads
        )
        for s_res, d_res in zip(summary, dense):
            s_sum, d_sum = s_res.table.summary(), d_res.table.summary()
            for key in d_sum:
                s_val, d_val = s_sum[key], d_sum[key]
                assert s_val == d_val or (s_val != s_val and d_val != d_val), key

    def test_summary_composes_with_tiling(self):
        loads = _batch(TORUS)
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="floor", rounds=30,
            record_every=2, seed=8, record_mode="summary", tile_size=10,
        )
        dense_cfg = replace(cfg, record_mode="table", tile_size=None)
        summary = make_engine("batched").run(TORUS, cfg, loads)
        dense = make_engine("batched").run(TORUS, dense_cfg, loads)
        for s_res, d_res in zip(summary, dense):
            s_sum, d_sum = s_res.table.summary(), d_res.table.summary()
            for key in d_sum:
                assert s_sum[key] == d_sum[key], key

    def test_streaming_stats_unit(self):
        stats = StreamingStats(("a", "b"), width=2)
        stats.update(0, {"a": np.array([1.0, -1.0]), "b": np.array([2.0, 0.0])})
        stats.update(5, {"a": np.array([3.0, -4.0]), "b": np.array([0.5, 1.0])})
        rep = stats.replica_summary(1, all_fields=("a", "b", "c"))
        assert rep["rows"] == 2
        assert rep["first_round"] == 0 and rep["last_round"] == 5
        assert rep["a_min"] == -4.0 and rep["a_max"] == -1.0
        assert rep["a_sum"] == -5.0 and rep["a_mean"] == -2.5
        assert rep["a_last"] == -4.0
        assert rep["c_min"] != rep["c_min"]  # untracked fields are NaN

    def test_table_from_summary_roundtrip(self):
        table = RecordTable(capacity=4)
        for i in range(3):
            table.append(
                i * 2, "SecondOrderScheme",
                **{f: float(i + 1) for f in (
                    "max_minus_avg", "min_minus_avg", "max_local_diff",
                    "potential_per_node", "min_load", "min_transient",
                    "total_load", "round_traffic",
                )},
            )
        summary = table.summary()
        streaming = RecordTable.from_summary(
            4, "SecondOrderScheme", {"max_minus_avg": 3.0}, summary
        )
        assert streaming.summary() == summary
        assert len(streaming) == 1
        assert streaming.row(0)["max_minus_avg"] == 3.0
        assert np.isnan(streaming.row(0)["total_load"])

    def test_dynamic_table_summary(self):
        table = DynamicRecordTable(capacity=2)
        table.append(1, total_load=10.0, arrived=2.0, departed=1.0,
                     clamped=0.0, max_minus_avg=3.0, max_local_diff=2.0,
                     potential_per_node=1.5)
        s = table.summary()
        assert s["rows"] == 1 and s["total_load_last"] == 10.0
        streaming = DynamicRecordTable.from_summary(1, {"total_load": 10.0}, s)
        assert streaming.summary() == s


class TestBatchSampling:
    def test_poisson_batch_statistics(self):
        """Batch-sampled Poisson counts keep the model's distribution."""
        from repro.core.dynamic import PoissonArrivals, batch_arrival_stream

        model = PoissonArrivals(rate=4.0, departure_rate=0.0)
        rng = batch_arrival_stream(0)
        plane = model.batch_deltas(TORUS, 0, rng, 64)
        assert plane.shape == (TORUS.n, 64)
        mean = plane.mean()
        var = plane.var()
        assert abs(mean - 4.0) < 0.1
        assert abs(var - 4.0) < 0.3

    def test_batch_mode_runs_and_conserves(self):
        loads = _batch(TORUS)
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=40, seed=5,
            arrivals="poisson:2.0,depart=2.0", arrival_sampling="batch",
        )
        results = make_engine("batched").run_dynamic(TORUS, cfg, loads)
        for b, result in enumerate(results):
            replay = float(loads[b].sum()) + np.cumsum(
                result.series("arrived") - result.series("departed")
            )
            np.testing.assert_array_equal(result.series("total_load"), replay)
        # reproducible for a fixed seed
        again = make_engine("batched").run_dynamic(TORUS, cfg, loads)
        np.testing.assert_array_equal(
            results[0].final_state.load, again[0].final_state.load
        )
        # replicas draw different counts (one shared stream, not one copy)
        assert not np.array_equal(
            results[0].series("arrived"), results[1].series("arrived")
        )

    def test_batch_mode_differs_from_stream_mode(self):
        """The documented opt-out: batch sampling changes the streams."""
        loads = _batch(TORUS, 2)
        stream_cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=20, seed=5,
            arrivals="poisson:3.0",
        )
        batch_cfg = replace(stream_cfg, arrival_sampling="batch")
        stream = make_engine("batched").run_dynamic(TORUS, stream_cfg, loads)
        batch = make_engine("batched").run_dynamic(TORUS, batch_cfg, loads)
        assert not np.array_equal(
            stream[0].series("arrived"), batch[0].series("arrived")
        )

    def test_batch_mode_rejects_arrival_seeds(self):
        loads = _batch(TORUS, 2)
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=5, seed=0,
            arrivals="poisson:1.0", arrival_seeds=[7, 9],
            arrival_sampling="batch",
        )
        with pytest.raises(ConfigurationError, match="arrival_seeds"):
            make_engine("batched").run_dynamic(TORUS, cfg, loads)

    def test_batch_mode_rejects_per_replica_models(self):
        from repro.core.dynamic import PoissonArrivals

        loads = _batch(TORUS, 2)
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=5, seed=0,
            arrivals=[PoissonArrivals(1.0), PoissonArrivals(2.0)],
            arrival_sampling="batch",
        )
        with pytest.raises(ConfigurationError, match="shared"):
            make_engine("batched").run_dynamic(TORUS, cfg, loads)

    def test_reference_engine_rejects_batch_sampling(self):
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=5, seed=0,
            arrivals="poisson:1.0", arrival_sampling="batch",
        )
        with pytest.raises(ConfigurationError, match="batched"):
            make_engine("reference").run_dynamic(
                TORUS, cfg, point_load(TORUS, 100 * TORUS.n)
            )

    def test_default_model_batch_deltas_falls_back(self):
        """Models without a vectorised draw stack per-replica calls."""
        from repro.core.dynamic import BurstArrivals, batch_arrival_stream

        model = BurstArrivals(burst=50, period=3)
        plane = model.batch_deltas(TORUS, 0, batch_arrival_stream(1), 5)
        assert plane.shape == (TORUS.n, 5)
        np.testing.assert_array_equal(plane.sum(axis=0), np.full(5, 50.0))
