"""Engine protocol, registry, and backend-behaviour tests."""

import numpy as np
import pytest

from repro import ConfigurationError, RoundingError, SchemeError, point_load, torus_2d
from repro.engines import (
    ENGINES,
    EngineConfig,
    make_engine,
    make_switch_policy,
    run_replicas,
)
from repro.core.hybrid import FixedRoundSwitch


class TestRegistry:
    def test_known_engines(self):
        assert set(ENGINES) == {
            "reference", "batched", "sharded", "network", "async",
            "staleness",
        }

    def test_make_engine_by_name_and_passthrough(self):
        engine = make_engine("batched")
        assert engine.name == "batched"
        assert make_engine(engine) is engine

    def test_unknown_engine(self):
        with pytest.raises(ConfigurationError):
            make_engine("gpu")


class TestConfig:
    def test_validate_rejects_bad_values(self):
        with pytest.raises(ConfigurationError):
            EngineConfig(scheme="chebyshev").validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(rounds=-1).validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(record_every=0).validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(precision="float16").validate()
        with pytest.raises(ConfigurationError):
            EngineConfig(switch=("sometimes", 3)).validate()

    def test_switch_policy_factory(self):
        assert make_switch_policy(None) is None
        assert isinstance(make_switch_policy(("fixed", 5)), FixedRoundSwitch)
        # each call builds a fresh policy: replicas must not share state
        assert make_switch_policy(("fixed", 5)) is not make_switch_policy(
            ("fixed", 5)
        )

    def test_switch_policy_instances_rejected(self):
        # a shared instance would interleave every replica's history
        with pytest.raises(ConfigurationError):
            make_switch_policy(FixedRoundSwitch(2))
        with pytest.raises(ConfigurationError):
            EngineConfig(switch=FixedRoundSwitch(2)).validate()

    def test_batched_rejects_bad_beta_and_rounding(self, small_torus):
        load = point_load(small_torus, 100)
        with pytest.raises(SchemeError):
            make_engine("batched").prepare(
                small_torus, EngineConfig(scheme="sos", beta=2.5), load
            )
        with pytest.raises(RoundingError):
            make_engine("batched").prepare(
                small_torus, EngineConfig(rounding="stochastic"), load
            )

    def test_float32_only_on_batched(self, small_torus):
        load = point_load(small_torus, 100)
        config = EngineConfig(rounding="nearest", rounds=2, precision="float32")
        for name in ("reference", "network"):
            with pytest.raises(ConfigurationError):
                make_engine(name).prepare(small_torus, config, load)
        results = make_engine("batched").run(small_torus, config, load)
        assert results[0].final_state.load.sum() == 100.0


@pytest.mark.parametrize("engine", ["reference", "batched", "network"])
class TestProtocol:
    def test_prepare_step_metrics(self, engine, small_torus):
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=6, seed=0
        )
        backend = make_engine(engine)
        load = point_load(small_torus, 1000 * small_torus.n)
        handle = backend.prepare(small_torus, config, load)
        for expected_round in range(1, 7):
            batch = backend.step(handle)
            assert batch.round_index == expected_round
            assert batch.loads.shape == (1, small_torus.n)
            assert batch.flows.shape == (1, small_torus.m_edges)
            assert batch.min_transient.shape == (1,)
            assert batch.traffic.shape == (1,)
        results = backend.metrics(handle).results()
        assert len(results) == 1
        result = results[0]
        assert result.final_state.round_index == 6
        assert len(result.table) == 7  # round 0 + 6 rounds
        assert result.final_state.load.sum() == 1000 * small_torus.n

    def test_run_batch_returns_per_replica_results(self, engine, small_torus):
        loads = np.stack(
            [point_load(small_torus, 640 * small_torus.n, node=i) for i in range(3)]
        )
        config = EngineConfig(scheme="fos", rounding="floor", rounds=5, seed=0)
        results = make_engine(engine).run(small_torus, config, loads)
        assert len(results) == 3
        for b, result in enumerate(results):
            assert result.final_state.load.sum() == 640 * small_torus.n
            assert result.series("total_load").shape == (6,)
            assert result.switched_at is None

    def test_engine_does_not_mutate_initial_loads(self, engine, small_torus):
        load = point_load(small_torus, 1000 * small_torus.n)
        baseline = load.copy()
        config = EngineConfig(scheme="sos", beta=1.5, rounding="nearest", rounds=8)
        make_engine(engine).run(small_torus, config, load)
        np.testing.assert_array_equal(load, baseline)

    def test_keep_loads_history(self, engine, small_torus):
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=6,
            record_every=2, keep_loads=True,
        )
        load = point_load(small_torus, 1000 * small_torus.n)
        result = make_engine(engine).run(small_torus, config, load)[0]
        assert result.rounds.tolist() == [0, 2, 4, 6]
        assert len(result.loads_history) == 4
        assert result.loads_history[0].shape == (small_torus.n,)
        np.testing.assert_array_equal(
            result.loads_history[-1], result.final_state.load
        )

    def test_terminal_record_forced(self, engine, small_torus):
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=7, record_every=3
        )
        load = point_load(small_torus, 1000 * small_torus.n)
        result = make_engine(engine).run(small_torus, config, load)[0]
        assert result.rounds.tolist() == [0, 3, 6, 7]


class TestStepPastRounds:
    """``config.rounds`` sizes the record storage, but the step protocol
    may run past it: every engine keeps recording, row for row alike."""

    @staticmethod
    def _rows(engine, config, topo, loads):
        backend = make_engine(engine)
        handle = backend.prepare(topo, config, loads)
        for _ in range(config.rounds + 2):
            if config.arrivals is not None:
                backend.arrive(handle)
            backend.step(handle)
        batch = backend.metrics(handle)
        results = (
            batch.dynamic_results() if config.arrivals is not None
            else batch.results()
        )
        return [r.table.column("round_index").tolist() for r in results]

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_every_engine_records_the_same_rows(self, dynamic, small_torus):
        config = EngineConfig(
            scheme="fos", rounding="floor", rounds=3, record_every=2, seed=0,
            arrivals="poisson:1.0" if dynamic else None,
        )
        loads = np.tile(point_load(small_torus, 100 * small_torus.n), (2, 1))
        rows = {
            engine: self._rows(engine, config, small_torus, loads)
            for engine in ("reference", "batched", "network", "async", "staleness")
        }
        expected = [0, 2, 4, 5] if not dynamic else [1, 2, 3, 4, 5]
        for engine, per_replica in rows.items():
            assert per_replica == [expected, expected], engine

    @pytest.mark.parametrize("dynamic", [False, True], ids=["static", "dynamic"])
    def test_churn_records_grow_like_the_reference(self, dynamic, small_torus):
        config = EngineConfig(
            scheme="fos", rounding="floor", rounds=3, seed=0,
            churn="crash:3@2",
            arrivals="poisson:1.0" if dynamic else None,
        )
        loads = np.tile(point_load(small_torus, 100 * small_torus.n), (2, 1))
        assert self._rows("batched", config, small_torus, loads) == (
            self._rows("reference", config, small_torus, loads)
        )


class TestRunReplicas:
    def test_convenience_wrapper(self):
        topo = torus_2d(4, 4)
        loads = np.tile(point_load(topo, 1000 * topo.n), (4, 1))
        config = EngineConfig(scheme="sos", beta=1.5, rounding="nearest", rounds=10)
        results = run_replicas(topo, config, loads)  # batched by default
        assert len(results) == 4
        # identical inputs + deterministic rounding => identical replicas
        for result in results[1:]:
            np.testing.assert_array_equal(
                result.final_state.load, results[0].final_state.load
            )

    def test_bad_shape_rejected(self, small_torus):
        config = EngineConfig(rounds=1)
        with pytest.raises(ConfigurationError):
            run_replicas(small_torus, config, np.zeros((2, small_torus.n + 1)))


class TestBatchedSwitching:
    def test_per_replica_local_diff_switching(self):
        """Replicas with different starts switch at different rounds."""
        topo = torus_2d(6, 6)
        loads = np.stack(
            [
                point_load(topo, 200 * topo.n),  # heavy: switches late
                np.full(topo.n, 200.0),  # already balanced: switches instantly
            ]
        )
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=120,
            switch=("local-diff", 10.0, 1),
        )
        results = make_engine("batched").run(topo, config, loads)
        assert results[1].switched_at == 1
        assert results[0].switched_at is None or results[0].switched_at > 1

    def test_step_reports_switch_round(self, small_torus):
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="nearest", rounds=5,
            switch=("fixed", 3),
        )
        backend = make_engine("batched")
        handle = backend.prepare(
            small_torus, config, point_load(small_torus, 1000 * small_torus.n)
        )
        switch_rounds = [
            backend.step(handle).switched.tolist() for _ in range(5)
        ]
        assert switch_rounds == [[False], [False], [True], [False], [False]]


class TestConservationCheck:
    """One helper checks the total load of every batched record round."""

    def test_helper_tolerance_rule(self):
        from repro.engines.batched import _check_conserved
        from repro.exceptions import SimulationError

        expected = np.array([100.0, 0.5, -4000.0])
        # drift up to tol * max(1, |expected|) passes
        _check_conserved(expected + [5e-5, 5e-7, -2e-3], expected, 1e-6, 3)
        with pytest.raises(SimulationError, match="replica 1 by round 3"):
            _check_conserved(expected + [0.0, 2e-6, 0.0], expected, 1e-6, 3)

    @pytest.mark.parametrize("arrivals", [None, "poisson:1.0,depart=1.0"])
    def test_corrupted_plane_raises(self, arrivals, monkeypatch, small_torus):
        from repro.engines import batched
        from repro.exceptions import SimulationError

        calls = []
        check = batched._check_conserved

        def spy(*args):
            calls.append(args[3])
            check(*args)

        monkeypatch.setattr(batched, "_check_conserved", spy)
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="floor", rounds=6, seed=0,
            arrivals=arrivals,
        )
        engine = make_engine("batched")
        loads = np.tile(point_load(small_torus, 100 * small_torus.n), (3, 1))
        h = engine.prepare(small_torus, config, loads)
        engine.step(h)
        h.load[2, 1] += 5.0  # replica 1 gains five tokens from nowhere
        with pytest.raises(SimulationError, match="replica 1 by round 2"):
            engine.step(h)
        assert calls[-1] == 2
