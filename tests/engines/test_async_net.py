"""Engine-level tests for the ``async`` backend and its config knobs.

Bit-level zero-latency equivalence against every other backend lives in
``test_cross_engine.py``; this file covers the async-only surface —
latency specs, the ``max_skew``/``faults`` knobs, the guard rejections on
the other backends, and the seeded-fault reproducibility regression.
"""

import numpy as np
import pytest

from repro import ConfigurationError, point_load, torus_2d
from repro.engines import EngineConfig, make_engine
from repro.engines.async_net import LATENCY_STREAM_KEY, resolve_link_latency
from repro.engines.base import parse_latency_spec
from repro.network import LinkOutage, RandomLinkDrop

TORUS = torus_2d(6, 6)


class TestLatencySpecs:
    def test_parse_forms(self):
        assert parse_latency_spec(None) is None
        assert parse_latency_spec(1.5) == ("fixed", 1.5)
        assert parse_latency_spec("2") == ("fixed", 2.0)
        assert parse_latency_spec("fixed:0.5") == ("fixed", 0.5)
        assert parse_latency_spec("uniform:0.5,2.5") == ("uniform", 0.5, 2.5)
        assert parse_latency_spec("exp:1.25") == ("exp", 1.25)

    @pytest.mark.parametrize(
        "bad",
        ["-1", "fixed:-2", "uniform:2,1", "uniform:1", "exp:-1",
         "gaussian:1", "fixed:abc", ""],
    )
    def test_parse_rejects_malformed(self, bad):
        with pytest.raises(ConfigurationError):
            parse_latency_spec(bad)

    def test_resolve_fixed(self):
        cfg = EngineConfig(latency_model=1.5, seed=0)
        lat = resolve_link_latency(TORUS, cfg)
        assert lat.shape == (TORUS.m_edges,)
        assert np.all(lat == 1.5)

    def test_resolve_none_defers_to_topology(self):
        assert resolve_link_latency(TORUS, EngineConfig(seed=0)) is None

    def test_random_spec_is_seeded_and_replica_independent(self):
        cfg = EngineConfig(latency_model="uniform:0.5,2.5", seed=9)
        a = resolve_link_latency(TORUS, cfg)
        b = resolve_link_latency(TORUS, cfg)
        np.testing.assert_array_equal(a, b)
        assert np.all((a >= 0.5) & (a <= 2.5))
        expected = np.random.default_rng([9, LATENCY_STREAM_KEY]).uniform(
            0.5, 2.5, size=TORUS.m_edges
        )
        np.testing.assert_array_equal(a, expected)
        other = resolve_link_latency(
            TORUS, EngineConfig(latency_model="uniform:0.5,2.5", seed=10)
        )
        assert not np.array_equal(a, other)


class TestGuards:
    @pytest.mark.parametrize("engine", ["reference", "batched", "network"])
    def test_latency_model_rejected_off_async(self, engine):
        cfg = EngineConfig(rounds=2, latency_model=1.0)
        with pytest.raises(ConfigurationError, match="async/staleness engines only"):
            make_engine(engine).run(TORUS, cfg, point_load(TORUS, 100))

    @pytest.mark.parametrize("engine", ["reference", "batched", "network"])
    def test_max_skew_rejected_off_async(self, engine):
        cfg = EngineConfig(rounds=2, max_skew=1)
        with pytest.raises(ConfigurationError, match="async/staleness engines only"):
            make_engine(engine).run(TORUS, cfg, point_load(TORUS, 100))

    @pytest.mark.parametrize("engine", ["reference", "batched"])
    def test_faults_rejected_off_network(self, engine):
        cfg = EngineConfig(rounds=2, faults=RandomLinkDrop(0.1))
        with pytest.raises(ConfigurationError, match="network/async"):
            make_engine(engine).run(TORUS, cfg, point_load(TORUS, 100))

    def test_validate_rejects_bad_knobs(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(max_skew=-1).validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(latency_model="uniform:2,1").validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(faults="drop-everything").validate()


class TestAsyncBackend:
    def test_latency_run_converges_and_records(self):
        # FOS is the latency-robust scheme (SOS momentum on stale state is
        # unstable for beta well above 1 — the bench measures exactly that);
        # the recorded total_load excludes tokens in flight, so it sits a
        # little under the injected total while links are busy.
        total = 500 * TORUS.n
        cfg = EngineConfig(
            scheme="fos", rounding="randomized-excess",
            rounds=40, seed=2, latency_model=1.5,
        )
        result = make_engine("async").run(
            TORUS, cfg, point_load(TORUS, total)
        )[0]
        final_total = result.series("total_load")[-1]
        assert 0.9 * total <= final_total <= total
        assert result.final_state.load.max() - total / TORUS.n < 0.2 * total
        assert len(result.records) == 41

    def test_max_skew_run_through_engine(self):
        cfg = EngineConfig(
            scheme="fos", rounding="floor", rounds=20, seed=1,
            latency_model="exp:1.0", max_skew=2,
        )
        result = make_engine("async").run(
            TORUS, cfg, point_load(TORUS, 200 * TORUS.n)
        )[0]
        assert result.final_state.load.sum() <= 200 * TORUS.n  # rest in flight

    def test_seeded_faults_reproduce_engine_level(self):
        """Same seed => same fault schedule => identical trajectory (the
        RandomLinkDrop default used to be an unseeded fresh generator)."""
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="randomized-excess",
            rounds=30, seed=4, faults=RandomLinkDrop(0.3),
        )
        for engine in ("network", "async"):
            a = make_engine(engine).run(
                TORUS, cfg, point_load(TORUS, 1000 * TORUS.n)
            )[0]
            b = make_engine(engine).run(
                TORUS, cfg, point_load(TORUS, 1000 * TORUS.n)
            )[0]
            np.testing.assert_array_equal(
                a.final_state.load, b.final_state.load
            )
            for field in ("max_minus_avg", "total_load", "round_traffic"):
                np.testing.assert_array_equal(
                    a.series(field), b.series(field), err_msg=field
                )

    def test_seeded_faults_pinned_trajectory(self):
        """Pinned checksum so a silent change to the fault-rng derivation
        (seed -> [seed, FAULT_STREAM_KEY]) cannot slip through."""
        topo = torus_2d(4, 4)
        cfg = EngineConfig(
            scheme="fos", rounding="floor", rounds=12, seed=0,
            faults=RandomLinkDrop(0.5),
        )
        result = make_engine("network").run(
            topo, cfg, point_load(topo, 1600)
        )[0]
        load = result.final_state.load
        assert load.sum() == 1600.0
        pinned = [
            130.0, 113.0, 101.0, 118.0, 116.0, 87.0, 73.0, 99.0,
            104.0, 93.0, 65.0, 90.0, 129.0, 94.0, 67.0, 121.0,
        ]
        np.testing.assert_array_equal(load, pinned)

    def test_outage_faults_through_async_engine(self):
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding="nearest", rounds=15, seed=0,
            faults=LinkOutage([(0, 1)], start=2, end=6),
        )
        ref = make_engine("network").run(
            TORUS, cfg, point_load(TORUS, 300 * TORUS.n)
        )[0]
        got = make_engine("async").run(
            TORUS, cfg, point_load(TORUS, 300 * TORUS.n)
        )[0]
        np.testing.assert_array_equal(
            got.final_state.load, ref.final_state.load
        )
