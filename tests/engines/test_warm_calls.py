"""Warm batched calls: what an ``operator_cache`` reuses, and the final
planes ``run_batch`` hands out without a copy.

* An engine with an ``operator_cache`` serves the resolved edge alphas,
  the fused ``E_alpha``/``E_alpha_beta`` operators (on the compiled tier,
  their coefficient rows) and the compiled tier's edge arrays from the
  cache.  Every call on a
  shared cache must equal, bit for bit, the same call on a cache-less
  engine, whatever the calls before it changed (beta, the alpha spec,
  explicit alphas, speeds, precision, tier, tiling), and a long beta sweep
  must not grow the cache.
* ``run_batch``/``run_dynamic_batch`` drop their handle on return, so
  their final planes are views of it; ``metrics()`` through the
  ``prepare``/``step`` protocol, whose handle lives on, still copies.
"""

import numpy as np
import pytest
from dataclasses import replace
from numpy.random import default_rng

from repro import kernels, point_load, random_load
from repro.engines import EngineConfig, ReplicaParams, make_engine
from repro.graphs import configuration_model, torus_2d

EXCESS = "randomized-excess"

#: A regular graph (one alpha for every edge) and an irregular one (an
#: alpha per edge, so the alpha plane and the fused operators differ).
GRAPHS = {
    "torus": lambda: torus_2d(6, 7),
    "cm": lambda: configuration_model(40, 3, rng=default_rng(5)),
}

TIERS = [
    "numpy",
    pytest.param(
        "cffi",
        marks=pytest.mark.skipif(
            kernels.get_provider("cffi") is None,
            reason="kernel provider 'cffi' unavailable",
        ),
    ),
]


def _loads(topo, B=3):
    rng = default_rng(11)
    rows = [point_load(topo, 100.0 * topo.n + 3)]
    rows += [random_load(topo, 50.0, rng=rng) for _ in range(B - 1)]
    return np.stack(rows)


def _bits(a):
    return None if a is None else (a.shape, a.dtype, np.ascontiguousarray(a).tobytes())


def assert_same_batch(a, b):
    """Bit-for-bit equality of two record batches (static or dynamic)."""
    for name in (
        "round_index", "scheme_codes", "final_loads", "final_flows",
        "switched_at", "scheme_last", "dynamic_round_index",
    ):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    for name in ("columns", "dynamic_columns"):
        ca, cb = getattr(a, name), getattr(b, name)
        assert (ca is None) == (cb is None), name
        if ca is not None:
            assert ca.keys() == cb.keys()
            for k in ca:
                assert _bits(ca[k]) == _bits(cb[k]), k
    for name in ("summary_stats", "dynamic_summary_stats"):
        sa, sb = getattr(a, name), getattr(b, name)
        assert (sa is None) == (sb is None), name
        if sa is not None:
            assert (sa.count, sa.first_round, sa.last_round) == (
                sb.count, sb.first_round, sb.last_round
            )
            for store in ("mins", "maxs", "sums", "last"):
                for k in sa.fields:
                    assert _bits(getattr(sa, store)[k]) == _bits(getattr(sb, store)[k])


def _calls(topo, tier):
    """An alternating call sequence over one graph: every change a warm
    call must notice, each config coming back at least once."""
    base = EngineConfig(
        scheme="sos", beta=1.5, rounding=EXCESS, rounds=9, record_every=2,
        seed=3, kernel=tier,
    )
    speeds = 1.0 + default_rng(2).integers(0, 3, topo.n)
    alphas = 0.5 / (topo.max_degree + 1.0) * (
        1.0 + default_rng(3).random(topo.m_edges)
    )
    calls = [
        base,
        replace(base, beta=1.2),
        replace(base, alphas="lazy-metropolis"),
        replace(base, beta=1.2, tile_size=7),
        replace(base, alphas=alphas),
        replace(base, speeds=speeds),
        replace(base, precision="float32"),
        replace(base, scheme="fos", record_mode="summary"),
        replace(base, alphas="uniform", precision="float32", tile_size=7),
        replace(base, replica_params=ReplicaParams(betas=[1.1, 1.1, 1.1])),
        replace(base, replica_params=ReplicaParams(betas=[1.1, 1.6, 1.3])),
        replace(base, replica_params=ReplicaParams(switch_rounds=[2, -1, 5])),
        replace(base, replica_params=ReplicaParams(alpha_scales=[1.0, 0.5, 0.8])),
        replace(base, alphas=0.1),
    ]
    if tier == "numpy":
        # The numpy tier also runs the elementwise roundings; float32
        # takes them through the fused operators too.
        calls += [
            replace(base, rounding="floor", precision="float32"),
            replace(base, rounding="unbiased-edge", beta=1.2),
            replace(base, rounding="nearest"),
        ]
    return calls + calls[::-1]


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_warm_calls_equal_cold_calls(graph, tier):
    topo = GRAPHS[graph]()
    loads = _loads(topo)
    warm = make_engine("batched")
    warm.operator_cache = {}
    cold = make_engine("batched")
    for config in _calls(topo, tier):
        assert_same_batch(
            warm.run_batch(topo, config, loads),
            cold.run_batch(topo, config, loads),
        )
    cache = warm.operator_cache
    # The config-keyed entries were really served from the cache.
    assert ("alphas", None) in cache and ("alphas", "lazy-metropolis") in cache
    fused = "E_alpha" if tier == "numpy" else "alpha_coef"
    assert (fused, "d", None) in cache and (fused, "f", None) in cache
    assert "E_alpha_beta" in cache
    if tier == "cffi":
        # edge arrays and padded adjacency only: no CSR operator is built
        assert "kern_edges" in cache and "adj" in cache
        assert not [
            k for k in cache
            if isinstance(k, tuple) and k[0] in ("E", "DW", "E_alpha")
        ]


def test_explicit_arrays_are_not_cached():
    topo = GRAPHS["cm"]()
    engine = make_engine("batched")
    engine.operator_cache = {}
    base = EngineConfig(scheme="sos", beta=1.5, rounding=EXCESS, rounds=3, seed=1)
    engine.run_batch(
        topo, replace(base, alphas=np.full(topo.m_edges, 0.1)), _loads(topo)
    )
    engine.run_batch(
        topo, replace(base, alphas=lambda t, s: np.full(t.m_edges, 0.1)),
        _loads(topo),
    )
    engine.run_batch(
        topo, replace(base, speeds=np.full(topo.n, 2.0)), _loads(topo)
    )
    assert not [
        k for k in engine.operator_cache
        if isinstance(k, tuple) and k[0] in ("alphas", "E_alpha")
    ]
    assert "E_alpha_beta" not in engine.operator_cache


@pytest.mark.parametrize("tier", TIERS)
def test_beta_sweep_keeps_the_cache_bounded(tier):
    topo = GRAPHS["torus"]()
    loads = _loads(topo)
    warm = make_engine("batched")
    warm.operator_cache = {}
    cold = make_engine("batched")
    base = EngineConfig(
        scheme="sos", rounding=EXCESS, rounds=4, seed=7, kernel=tier,
        record_mode="summary",
    )
    sizes = []
    for i, beta in enumerate(np.linspace(1.05, 1.95, 50)):
        config = replace(base, beta=float(beta))
        batch = warm.run_batch(topo, config, loads)
        if i % 10 == 0:
            assert_same_batch(batch, cold.run_batch(topo, config, loads))
        sizes.append(len(warm.operator_cache))
    assert len(set(sizes)) == 1, sizes
    key, _ = warm.operator_cache["E_alpha_beta"]
    assert key[-1] == 1.95  # the slot holds the last beta only


# ----------------------------------------------------------------------
# final planes: views where the handle is dead, copies where it lives on
# ----------------------------------------------------------------------
def _protocol(engine, topo, config, loads, rounds):
    h = engine.prepare(topo, config, loads)
    for _ in range(rounds):
        if config.arrivals is not None:
            engine.arrive(h)
        engine.step(h)
    return h


@pytest.mark.parametrize("tier", TIERS)
@pytest.mark.parametrize("dynamic", [False, True])
def test_fused_finals_equal_protocol_copies(tier, dynamic):
    topo = GRAPHS["torus"]()
    loads = _loads(topo)
    config = EngineConfig(
        scheme="sos", beta=1.5, rounding=EXCESS, rounds=6, seed=4,
        kernel=tier, arrivals="poisson:1.0,depart=1.0" if dynamic else None,
    )
    engine = make_engine("batched")
    run = engine.run_dynamic_batch if dynamic else engine.run_batch
    fused = run(topo, config, loads)
    h = _protocol(engine, topo, config, loads, config.rounds)
    copied = engine.metrics(h)
    for name in ("final_loads", "final_flows", "switched_at"):
        assert _bits(getattr(fused, name)) == _bits(getattr(copied, name)), name
    # The fused call's planes belong to its (dead) handle, not to the
    # protocol handle; the protocol's are copies of the live planes.
    assert not np.shares_memory(copied.final_loads, h.load)
    assert not np.shares_memory(copied.final_flows, h.flows)


@pytest.mark.parametrize("tier", TIERS)
def test_mid_run_metrics_do_not_move(tier):
    topo = GRAPHS["torus"]()
    loads = _loads(topo)
    config = EngineConfig(
        scheme="sos", beta=1.5, rounding=EXCESS, rounds=8, seed=4, kernel=tier,
    )
    engine = make_engine("batched")
    h = _protocol(engine, topo, config, loads, 3)
    mid = engine.metrics(h)
    snapshot = {
        name: _bits(getattr(mid, name))
        for name in ("final_loads", "final_flows", "switched_at")
    }
    for _ in range(5):
        engine.step(h)
    assert not np.array_equal(h.load.T, mid.final_loads)  # the run moved on
    for name, bits in snapshot.items():
        assert _bits(getattr(mid, name)) == bits, name
    # Later calls on the same engine leave an earlier fused result alone.
    first = engine.run_batch(topo, config, loads)
    before = _bits(first.final_loads)
    engine.run_batch(topo, replace(config, seed=9), loads)
    assert _bits(first.final_loads) == before
