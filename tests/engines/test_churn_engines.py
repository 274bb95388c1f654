"""Cross-engine equivalence and robustness under topology churn.

The tentpole invariants:

* reference == batched == network == async (zero latency), *bit for bit*,
  for deterministic roundings, static and dynamic, across arbitrary
  crash/recover/leave/join/edge schedules;
* ``sum(loads) == m`` survives every schedule on every backend, for
  every rounding, with faults and arrivals composed on top;
* the spectral/matmul fast path falls back (auto) or refuses (forced),
  the compiled kernel tier falls back (auto) or refuses (forced), and
  the sharded engine broadcasts one compiled
  :class:`~repro.core.churn.ChurnPlan` to its workers and merges
  bit-identically to the batched run (the random schedule is drawn
  exactly once, parent-side).
"""

import logging
from dataclasses import replace

import numpy as np
import pytest

from repro import torus_2d
from repro.core.churn import (
    ChurnSchedule,
    edge_add,
    edge_remove,
    node_crash,
    node_join,
    node_leave,
    plan_churn,
)
from repro.engines import EngineConfig, make_engine
from repro.exceptions import ConfigurationError

DETERMINISTIC = ["floor", "nearest", "ceil"]
STOCHASTIC = ["unbiased-edge", "randomized-excess"]
CHURN_ENGINES = ["reference", "batched", "network", "async"]

TOPO = torus_2d(4, 4)

#: One exercise of every event kind, with a crash recovering mid-run and a
#: same-round crash pair (the handoff cascade must apply in patch order).
SCHEDULE = ChurnSchedule(
    events=[
        node_crash(5, 2, recover_at=7),
        edge_remove(0, 1, 3),
        node_join(16, 5, [0, 2, 10]),
        edge_add(3, 9, 6),
        node_crash(10, 8, recover_at=11),
        node_crash(6, 8, recover_at=11),
        node_leave(12, 9),
    ],
    policy="handoff",
)

FREEZE = ChurnSchedule(
    events=[node_crash(5, 2, recover_at=7), edge_remove(0, 1, 3)],
    policy="freeze",
)

STATIC_FIELDS = (
    "round_index",
    "max_minus_avg",
    "min_minus_avg",
    "max_local_diff",
    "potential_per_node",
    "min_load",
    "total_load",
    "min_transient",
    "round_traffic",
)
DYNAMIC_FIELDS = (
    "round_index",
    "total_load",
    "arrived",
    "departed",
    "clamped",
    "max_minus_avg",
    "max_local_diff",
    "potential_per_node",
)


def _loads(B=1, seed=7):
    rng = np.random.default_rng(seed)
    return rng.integers(0, 60, (B, TOPO.n)).astype(np.float64)


def _config(**kw):
    base = dict(rounds=12, scheme="sos", rounding="floor", seed=11,
                churn=SCHEDULE)
    base.update(kw)
    return EngineConfig(**base)


def _run(engine, config, loads):
    return make_engine(engine).run(TOPO, config, loads)


def _run_dynamic(engine, config, loads):
    return make_engine(engine).run_dynamic(TOPO, config, loads)


class TestBitIdentity:
    @pytest.mark.parametrize("engine", ["batched", "network", "async"])
    @pytest.mark.parametrize("rounding", DETERMINISTIC)
    @pytest.mark.parametrize("scheme", ["fos", "sos"])
    def test_static_matches_reference(self, engine, rounding, scheme):
        cfg = _config(rounding=rounding, scheme=scheme, keep_loads=True)
        ref = _run("reference", cfg, _loads())[0]
        res = _run(engine, cfg, _loads())[0]
        for field in STATIC_FIELDS:
            np.testing.assert_array_equal(
                res.table.column(field), ref.table.column(field),
                err_msg=field,
            )
        np.testing.assert_array_equal(
            res.final_state.load, ref.final_state.load
        )
        np.testing.assert_array_equal(
            res.final_state.flows, ref.final_state.flows
        )
        for got, want in zip(res.loads_history, ref.loads_history):
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("engine", ["batched", "network", "async"])
    @pytest.mark.parametrize("rounding", ["floor", "nearest"])
    def test_dynamic_matches_reference(self, engine, rounding):
        cfg = _config(
            rounding=rounding, arrivals="poisson:1.0,depart=0.5"
        )
        ref = _run_dynamic("reference", cfg, _loads())[0]
        res = _run_dynamic(engine, cfg, _loads())[0]
        for field in DYNAMIC_FIELDS:
            np.testing.assert_array_equal(
                res.table.column(field), ref.table.column(field),
                err_msg=field,
            )
        np.testing.assert_array_equal(
            res.final_state.load, ref.final_state.load
        )

    @pytest.mark.parametrize("engine", ["batched", "network", "async"])
    def test_freeze_policy_matches_reference(self, engine):
        cfg = _config(churn=FREEZE)
        ref = _run("reference", cfg, _loads())[0]
        res = _run(engine, cfg, _loads())[0]
        for field in STATIC_FIELDS:
            np.testing.assert_array_equal(
                res.table.column(field), ref.table.column(field),
                err_msg=field,
            )

    def test_batched_multi_replica_matches_reference_rows(self):
        loads = _loads(B=3)
        cfg = _config()
        ref = _run("reference", cfg, loads)
        bat = _run("batched", cfg, loads)
        assert len(bat) == 3
        for b in range(3):
            for field in STATIC_FIELDS:
                np.testing.assert_array_equal(
                    bat[b].table.column(field), ref[b].table.column(field),
                    err_msg=f"replica {b}: {field}",
                )

    def test_stepwise_equals_fused(self):
        cfg = _config()
        eng = make_engine("reference")
        fused = eng.run(TOPO, cfg, _loads())[0]
        handle = eng.prepare(TOPO, cfg, _loads())
        for _ in range(cfg.rounds):
            eng.step(handle)
        stepwise = eng.metrics(handle).results()[0]
        for field in STATIC_FIELDS:
            np.testing.assert_array_equal(
                stepwise.table.column(field), fused.table.column(field),
            )


class TestConservation:
    @pytest.mark.parametrize("engine", CHURN_ENGINES)
    @pytest.mark.parametrize("rounding", DETERMINISTIC + STOCHASTIC)
    def test_total_load_survives_schedule(self, engine, rounding):
        loads = _loads()
        cfg = _config(rounding=rounding)
        res = _run(engine, cfg, loads)[0]
        totals = res.table.column("total_load")
        assert (totals == loads.sum()).all()

    @pytest.mark.parametrize("engine", ["network", "async"])
    def test_with_faults_composed(self, engine):
        loads = _loads()
        cfg = _config(faults="drop:0.3")
        res = _run(engine, cfg, loads)[0]
        totals = res.table.column("total_load")
        assert (totals == loads.sum()).all()

    def test_async_with_latency_conserves_at_net_level(self):
        # With real latency the async engine is not round-equivalent to
        # the synchronous fleet, but total load (including tokens in
        # flight) must survive churn: shipments crossing a patch bounce.
        plan = plan_churn(TOPO, SCHEDULE)
        from repro.network.async_engine import AsyncNetwork

        load = plan.expand_load(_loads()[0])
        total0 = load.sum()
        for skew in (None, 1):
            net = AsyncNetwork(
                plan.topo0, load.copy(), scheme="sos", rounding="floor",
                seed=3, link_latency=0.7, max_skew=skew,
            )
            for r in range(1, 16):
                patch = plan.patch_at(r)
                if patch is not None:
                    net.apply_churn(patch)
                net.step()
                assert abs(net.total_load - total0) < 1e-9
            assert net.bounced_count > 0  # shipments did cross patches

    def test_dynamic_accounting_balances(self):
        cfg = _config(arrivals="poisson:2.0,depart=1.0", rounds=15)
        loads = _loads()
        res = _run_dynamic("network", cfg, loads)[0]
        tot = res.table.column("total_load")
        arr = res.table.column("arrived")
        dep = res.table.column("departed")
        expected = loads.sum() + np.cumsum(arr - dep)
        np.testing.assert_allclose(tot, expected)


class TestShardedChurn:
    """Satellite of the pool PR: churn runs *through* the sharded engine.

    The parent compiles the (possibly random) schedule into one
    deterministic :class:`~repro.core.churn.ChurnPlan` and broadcasts it,
    so every shard patches identically and the merge is bit-identical to
    the batched run — including ``random:`` schedules, whose randomness
    must be drawn exactly once.
    """

    @pytest.mark.parametrize("rounding", DETERMINISTIC + STOCHASTIC)
    def test_static_sharded_matches_batched(self, rounding):
        cfg = _config(rounding=rounding)
        batched = _run("batched", cfg, _loads(B=5))
        sharded = _run("sharded", replace(cfg, workers=2), _loads(B=5))
        for b, (want, got) in enumerate(zip(batched, sharded)):
            for field in STATIC_FIELDS:
                np.testing.assert_array_equal(
                    got.table.column(field), want.table.column(field),
                    err_msg=f"replica {b}: {field}",
                )
            np.testing.assert_array_equal(
                got.final_state.load, want.final_state.load
            )

    def test_random_schedule_drawn_once(self):
        # A seed-derived random schedule must hit every shard identically;
        # drawing it per worker would churn different topologies per shard.
        cfg = _config(churn="random:0.1", rounding="floor")
        batched = _run("batched", cfg, _loads(B=5))
        sharded = _run("sharded", replace(cfg, workers=2), _loads(B=5))
        for want, got in zip(batched, sharded):
            np.testing.assert_array_equal(
                got.table.column("total_load"), want.table.column("total_load")
            )
            np.testing.assert_array_equal(
                got.final_state.load, want.final_state.load
            )

    def test_dynamic_sharded_matches_batched(self):
        cfg = _config(arrivals="poisson:1.0,depart=0.5", rounding="nearest")
        batched = _run_dynamic("batched", cfg, _loads(B=5))
        sharded = _run_dynamic("sharded", replace(cfg, workers=2), _loads(B=5))
        for want, got in zip(batched, sharded):
            for field in DYNAMIC_FIELDS:
                np.testing.assert_array_equal(
                    got.table.column(field), want.table.column(field),
                    err_msg=field,
                )
            np.testing.assert_array_equal(
                got.final_state.load, want.final_state.load
            )

    def test_staleness_workers_refuse_churn(self):
        # The heterogeneous guard that remains: churn cannot compose with
        # the bounded-staleness knobs, sharded over workers or not.
        cfg = _config(workers=2, latency_model=1.0)
        with pytest.raises(ConfigurationError, match="churn"):
            _run("staleness", cfg, _loads(B=4))


class TestGuards:

    def test_forced_spectral_refuses_churn(self):
        cfg = _config(rounding="identity", fast_path="spectral")
        with pytest.raises(ConfigurationError, match="churn"):
            _run("batched", cfg, _loads())

    def test_forced_compiled_kernel_refuses_churn(self):
        # randomized-excess: the one rounding a forced provider accepts
        cfg = _config(kernel="python", rounding="randomized-excess")
        with pytest.raises(ConfigurationError, match="churn"):
            _run("batched", cfg, _loads())

    def test_auto_fast_path_falls_back(self, caplog):
        cfg = _config(rounding="identity", fast_path="auto")
        with caplog.at_level(logging.INFO, logger="repro.engines.batched"):
            res = _run("batched", cfg, _loads())[0]
        totals = res.table.column("total_load")
        assert np.allclose(totals, totals[0])

    def test_churn_rejects_switch(self):
        with pytest.raises(ConfigurationError, match="switch"):
            _config(switch=("fixed", 5)).validate()

    def test_churn_rejects_speeds(self):
        with pytest.raises(ConfigurationError):
            _config(speeds=np.ones(TOPO.n) * 2).validate()

    def test_churn_rejects_float32(self):
        with pytest.raises(ConfigurationError):
            _config(precision="float32").validate()


class TestRandomChurnAcrossEngines:
    @pytest.mark.parametrize("engine", CHURN_ENGINES)
    def test_random_spec_conserves(self, engine):
        loads = _loads()
        cfg = _config(churn="random:0.4", rounds=15)
        res = _run(engine, cfg, loads)[0]
        totals = res.table.column("total_load")
        assert (totals == loads.sum()).all()

    def test_random_spec_identical_plan_everywhere(self):
        # The spec string resolves through a seed-derived stream, so all
        # backends must see the same schedule: bit-identical traces.
        loads = _loads()
        cfg = _config(churn="random:0.4", rounds=15)
        ref = _run("reference", cfg, loads)[0]
        net = _run("network", cfg, loads)[0]
        for field in STATIC_FIELDS:
            np.testing.assert_array_equal(
                net.table.column(field), ref.table.column(field),
                err_msg=field,
            )
