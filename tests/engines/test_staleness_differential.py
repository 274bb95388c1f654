"""Differential harness: ``staleness`` vs ``AsyncNetwork`` vs zero-latency
sync.

The staleness engine's headline contract is **bit-identity to the
event-driven async backend** whenever the event queue stays in per-round
lockstep: integer latency buckets, every bucket ``<= max_skew`` (or no
gate), deterministic roundings — static, dynamic, and under per-message
faults.  This module drives both implementations over a grid of integer
latency assignments × ``max_skew`` × rounding × faults × batch widths
and compares whole recorded trajectories bit for bit, plus the exact
token-conservation ledger (in-flight/bucketed tokens).

Zero latency everywhere collapses the contract further: staleness ==
async == sync network == batched, so the same harness pins the engine to
the synchronous semantics too.
"""

import numpy as np
import pytest

from repro import ConfigurationError, point_load, torus_2d
from repro.core.records import DYNAMIC_FIELDS, RECORD_FIELDS
from repro.engines import EngineConfig, ReplicaParams, make_engine
from repro.engines.staleness import quantize_link_latency

TORUS = torus_2d(4, 4)
#: A second topology carrying *stamped* random integer buckets in 0..3
#: (the per-edge assignment regime, as opposed to a uniform latency spec).
BUCKETS = np.random.default_rng(7).integers(0, 4, TORUS.m_edges).astype(float)
STAMPED = torus_2d(4, 4).stamp_link_attrs(latency=BUCKETS)

ROUNDS = 10


def _loads(topo, B):
    base = point_load(topo, 100 * topo.n)
    return np.stack([np.roll(base, 3 * b) for b in range(B)])


def _run(engine, topo, config, loads):
    return make_engine(engine).run(topo, config, loads)


def assert_results_identical(got, want):
    """Whole-trajectory bit equality: every record column of every
    replica, the final load/flow state, and the switch bookkeeping."""
    assert len(got) == len(want)
    for b, (g, w) in enumerate(zip(got, want)):
        for name in RECORD_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(g.table.column(name)),
                np.asarray(w.table.column(name)),
                err_msg=f"replica {b}, column {name!r}",
            )
        np.testing.assert_array_equal(g.final_state.load, w.final_state.load)
        np.testing.assert_array_equal(g.final_state.flows, w.final_state.flows)
        assert g.final_state.round_index == w.final_state.round_index
        assert g.switched_at == w.switched_at


def assert_dynamic_identical(got, want):
    assert len(got) == len(want)
    for b, (g, w) in enumerate(zip(got, want)):
        for name in DYNAMIC_FIELDS:
            np.testing.assert_array_equal(
                np.asarray(g.table.column(name)),
                np.asarray(w.table.column(name)),
                err_msg=f"replica {b}, column {name!r}",
            )
        np.testing.assert_array_equal(g.final_state.load, w.final_state.load)


#: (label, topology, latency_model, max_skew) — integer assignments whose
#: buckets all sit at or under the skew gate (the lockstep regime).
SCENARIOS = [
    ("zero", TORUS, None, None),
    ("fixed2", TORUS, "2", None),
    ("fixed3-skew5", TORUS, "fixed:3", 5),
    ("buckets", STAMPED, None, None),
    ("buckets-skew", STAMPED, None, 3),
]

FAULT_SPECS = [None, "drop:0.3", "outage:0:1:2:6"]


class TestDifferentialGrid:
    @pytest.mark.parametrize("faults", FAULT_SPECS)
    @pytest.mark.parametrize("rounding", ["floor", "nearest", "ceil"])
    @pytest.mark.parametrize(
        "label,topo,latency,skew", SCENARIOS, ids=[s[0] for s in SCENARIOS]
    )
    def test_static_bit_identity(self, label, topo, latency, skew, rounding, faults):
        for B in (1, 8):
            cfg = EngineConfig(
                scheme="sos", beta=1.6, rounding=rounding, rounds=ROUNDS,
                seed=3, latency_model=latency, max_skew=skew, faults=faults,
                record_every=3, switch=("fixed", 6),
            )
            loads = _loads(topo, B)
            assert_results_identical(
                _run("staleness", topo, cfg, loads),
                _run("async", topo, cfg, loads),
            )

    @pytest.mark.parametrize("faults", FAULT_SPECS)
    def test_fos_bit_identity(self, faults):
        cfg = EngineConfig(
            scheme="fos", rounding="floor", rounds=ROUNDS, seed=1,
            latency_model="fixed:2", faults=faults,
        )
        loads = _loads(TORUS, 8)
        assert_results_identical(
            _run("staleness", TORUS, cfg, loads),
            _run("async", TORUS, cfg, loads),
        )

    @pytest.mark.parametrize("engine", ["network", "batched"])
    def test_zero_latency_matches_sync(self, engine):
        """With every bucket at 0 the async regime *is* the synchronous
        one, so staleness must match the sync backends bit for bit too."""
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding="floor", rounds=ROUNDS,
            seed=0, record_every=2,
        )
        loads = _loads(TORUS, 4)
        assert_results_identical(
            _run("staleness", TORUS, cfg, loads),
            _run(engine, TORUS, cfg, loads),
        )


class TestDynamicDifferential:
    @pytest.mark.parametrize("faults", [None, "drop:0.25"])
    @pytest.mark.parametrize("latency,skew", [("fixed:2", 4), (None, None)])
    def test_dynamic_bit_identity(self, latency, skew, faults):
        cfg = EngineConfig(
            scheme="fos", rounding="floor", rounds=8, seed=2,
            latency_model=latency, max_skew=skew, faults=faults,
            arrivals="poisson:40",
        )
        for B in (1, 8):
            loads = _loads(STAMPED, B)
            got = make_engine("staleness").run_dynamic(STAMPED, cfg, loads)
            want = make_engine("async").run_dynamic(STAMPED, cfg, loads)
            assert_dynamic_identical(got, want)


class TestConservationLedger:
    def test_in_flight_ledger_is_exact(self):
        """loads + in-flight is constant every round of a faulted run on
        random buckets, and the whole ledger (amount, message count,
        delivered/bounced totals, staleness stats) matches the event
        engine's counters replica for replica."""
        B = 4
        cfg = EngineConfig(
            scheme="fos", rounding="floor", rounds=12, seed=5,
            faults="drop:0.3", max_skew=6,
        )
        loads = _loads(STAMPED, B)
        eng_s, eng_a = make_engine("staleness"), make_engine("async")
        hs = eng_s.prepare(STAMPED, cfg, loads)
        ha = eng_a.prepare(STAMPED, cfg, loads)
        total0 = hs.core.total_load().copy()
        np.testing.assert_array_equal(total0, loads.sum(axis=1))
        for _ in range(12):
            eng_s.step(hs)
            eng_a.step(ha)
            # Exact conservation: shipped and bounced tokens never leak.
            np.testing.assert_array_equal(hs.core.total_load(), total0)
        for b in range(B):
            net = ha.replicas[b].net
            assert hs.core.total_load()[b] == net.total_load
            assert hs.core.in_flight_amount[b] == net._in_flight_amount
            assert hs.core.in_flight_messages[b] == net.in_flight
            assert hs.core.delivered_count[b] == net.delivered_count
            assert hs.core.bounced_count[b] == net.bounced_count
            assert hs.core.max_staleness == net.max_staleness
            assert hs.core.mean_staleness == pytest.approx(
                net.mean_staleness, abs=1e-12
            )

    def test_dynamic_ledger_moves_by_injections_only(self):
        cfg = EngineConfig(
            scheme="fos", rounding="floor", rounds=10, seed=4,
            faults="drop:0.2", arrivals="poisson:25",
        )
        loads = _loads(STAMPED, 2)
        eng = make_engine("staleness")
        handle = eng.prepare(STAMPED, cfg, loads)
        expected = handle.core.total_load().copy()
        for _ in range(10):
            batch = eng.arrive(handle)
            expected += np.asarray(batch.arrived) - np.asarray(batch.departed)
            eng.step(handle)
            np.testing.assert_array_equal(handle.core.total_load(), expected)


class TestComposition:
    def test_replica_params_compose(self):
        B = 8
        params = ReplicaParams(
            betas=np.linspace(1.2, 1.9, B),
            load_scales=np.linspace(0.5, 2.0, B),
            switch_rounds=[-1, 3, 5, -1, 8, 2, -1, 9],
        )
        cfg = EngineConfig(
            scheme="sos", beta=1.5, rounding="nearest", rounds=ROUNDS,
            seed=1, latency_model="fixed:2", faults="drop:0.2",
            replica_params=params, record_every=4,
        )
        loads = _loads(TORUS, B)
        assert_results_identical(
            _run("staleness", TORUS, cfg, loads),
            _run("async", TORUS, cfg, loads),
        )

    def test_workers_shard_staleness_configs(self):
        """A latency/fault config shards bit-identically: the delayed
        planes slice by column, so worker shards merge into exactly the
        dense staleness batch."""
        loads = _loads(STAMPED, 8)
        dense = EngineConfig(
            scheme="sos", beta=1.6, rounding="floor", rounds=ROUNDS,
            seed=4, faults="drop:0.2", max_skew=4,
        )
        sharded = EngineConfig(
            scheme="sos", beta=1.6, rounding="floor", rounds=ROUNDS,
            seed=4, faults="drop:0.2", max_skew=4, workers=2,
        )
        assert_results_identical(
            _run("staleness", STAMPED, sharded, loads),
            _run("staleness", STAMPED, dense, loads),
        )

    def test_workers_shard_dynamic_staleness_configs(self):
        loads = _loads(STAMPED, 8)
        kw = dict(
            scheme="fos", rounding="floor", rounds=6, seed=4,
            latency_model="fixed:1", arrivals="poisson:30",
        )
        got = make_engine("staleness").run_dynamic(
            STAMPED, EngineConfig(workers=2, **kw), loads
        )
        want = make_engine("staleness").run_dynamic(
            STAMPED, EngineConfig(**kw), loads
        )
        assert_dynamic_identical(got, want)

    def test_tiled_excess_dispatch_is_bit_identical(self):
        """tile_size bounds the excess-token scratch only — tiled and
        dense staleness runs agree bit for bit (the batched contract)."""
        loads = _loads(STAMPED, 4)
        base = dict(
            scheme="fos", rounding="randomized-excess", rounds=ROUNDS,
            seed=6, max_skew=5,
        )
        assert_results_identical(
            _run("staleness", STAMPED, EngineConfig(tile_size=5, **base), loads),
            _run("staleness", STAMPED, EngineConfig(**base), loads),
        )


class TestQuantisation:
    def test_bucket_policies(self):
        lat = np.array([0.0, 1.0, 1.5, 2.4, 2.6])
        np.testing.assert_array_equal(
            quantize_link_latency(lat, "ceil", 5), [0, 1, 2, 3, 3]
        )
        np.testing.assert_array_equal(
            quantize_link_latency(lat, "floor", 5), [0, 1, 1, 2, 2]
        )
        np.testing.assert_array_equal(
            quantize_link_latency(lat, "nearest", 5), [0, 1, 2, 2, 3]
        )
        np.testing.assert_array_equal(
            quantize_link_latency(None, "ceil", 3), [0, 0, 0]
        )
        np.testing.assert_array_equal(
            quantize_link_latency(2.0, "exact", 3), [2, 2, 2]
        )

    def test_exact_policy_rejects_fractional(self):
        with pytest.raises(ConfigurationError, match="integer link latencies"):
            quantize_link_latency(1.5, "exact", 4)

    def test_unknown_policy_and_bad_latency(self):
        with pytest.raises(ConfigurationError, match="latency_buckets"):
            quantize_link_latency(1.0, "stochastic", 4)
        with pytest.raises(ConfigurationError, match=">= 0"):
            quantize_link_latency(-1.0, "ceil", 4)
        with pytest.raises(ConfigurationError, match="finite"):
            quantize_link_latency(np.inf, "ceil", 4)

    def test_ceil_quantised_run_equals_integer_run(self):
        """latency 1.5 under the default ceil policy runs exactly like
        latency 2 — the quantisation happens before the planes exist."""
        load = point_load(TORUS, 1600)
        base = dict(scheme="fos", rounding="floor", rounds=8, seed=0)
        assert_results_identical(
            _run("staleness", TORUS,
                 EngineConfig(latency_model="fixed:1.5", **base), load),
            _run("staleness", TORUS,
                 EngineConfig(latency_model="fixed:2", **base), load),
        )

    def test_skew_clamp_bounds_bucket_depth(self):
        cfg = EngineConfig(
            scheme="fos", rounding="floor", rounds=8, seed=0,
            latency_model="fixed:9", max_skew=2,
        )
        eng = make_engine("staleness")
        handle = eng.prepare(TORUS, cfg, point_load(TORUS, 1600))
        assert handle.core.D == 3  # min(9, max_skew + 1)
        for _ in range(8):
            eng.step(handle)
        assert handle.core.max_staleness <= cfg.max_skew + 1


class TestGuards:
    def test_rejects_churn(self):
        cfg = EngineConfig(rounds=2, churn="crash:1:0.1")
        with pytest.raises(ConfigurationError, match="churn"):
            make_engine("staleness").run(TORUS, cfg, point_load(TORUS, 100))

    def test_rejects_stamped_bandwidth(self):
        topo = torus_2d(3, 3).stamp_link_attrs(bandwidth=5.0)
        cfg = EngineConfig(rounds=2)
        with pytest.raises(ConfigurationError, match="link_bandwidth"):
            make_engine("staleness").run(topo, cfg, point_load(topo, 90))

    def test_rejects_batched_only_knobs(self):
        for kw in (
            {"fast_path": "matmul"},
            {"record_mode": "summary"},
            {"arrival_sampling": "batch", "arrivals": "poisson:5"},
        ):
            cfg = EngineConfig(rounds=2, **kw)
            with pytest.raises(ConfigurationError, match="staleness engine"):
                make_engine("staleness").prepare(
                    TORUS, cfg, point_load(TORUS, 100)
                )

    def test_latency_buckets_rejected_elsewhere(self):
        cfg = EngineConfig(rounds=2, latency_buckets="exact", latency_model=1.0)
        with pytest.raises(ConfigurationError, match="staleness engine only"):
            make_engine("async").run(TORUS, cfg, point_load(TORUS, 100))
