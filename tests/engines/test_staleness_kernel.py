"""The compiled staleness round against the numpy step, round by round.

The cffi provider's ``stale_schedule`` / ``stale_ship`` entry points,
around ``excess_counts`` / ``excess_dispatch`` on the arc layout, replace
the numpy body of ``_StalenessCore.step`` for randomized-excess runs.
Every test here steps one cffi-tier and one numpy-tier engine side by
side and compares, after every round and bit for bit:

* the core's loads, remembered flows ``P``, edge record ``E``, and its
  announce, shipment and bounce rings;
* the four ledger counters;
* the state of every rounding and fault generator;
* every field of the round's ``StepBatch`` (and ``ArrivalBatch``).

The grid covers static and dynamic (Poisson) runs, FOS and SOS with a
per-replica switch plane (dynamic runs do not switch), zero latency and
skew-gated random latencies, no faults and ``drop:0`` / ``drop:0.05`` /
``drop:1``, and B in {1, 2, 3, 16}, on an irregular graph with a hub and
an isolated node (padding slots in the dispatch, empty rows in every
node sum), plus loads whose sums pass ``2**53``, where the summation
order of every node and ledger sum shows.  The rest of the file pins
the tier choice: blocked configs, ``auto``, and the python provider.
"""

import dataclasses
import itertools

import numpy as np
import pytest

from repro import ConfigurationError, point_load, torus_2d
from repro.engines import EngineConfig, make_engine
from repro.graphs.topology import Topology
from repro.kernels import get_provider
from repro.network.faults import RandomLinkDrop

needs_cffi = pytest.mark.skipif(
    get_provider("cffi") is None, reason="the cffi provider is unavailable"
)

#: A 5-clique (degree 4 and 5), a path tail (degrees 2 and 1), a star
#: hub of degree 13 (``reduceat`` adds a node's arcs pairwise past the
#: ninth) and node 21 with no edge at all.
EDGES = (
    [(u, v) for u in range(5) for v in range(u + 1, 5)]
    + [(4, 5), (5, 6), (6, 7), (7, 8)]
    + [(8, leaf) for leaf in range(9, 21)]
)
TOPO = Topology(22, EDGES, name="clique-tail-star-isolated")
SPEEDS = np.where(np.arange(TOPO.n) % 3 == 1, 2.0, 1.0)
ROUNDS = 12

MODES = ("static", "dynamic")
SCHEMES = ("fos", "sos")
LATENCIES = ("zero", "uniform")
FAULTS = (None, "drop:0", "drop:0.05", "drop:1")
WIDTHS = (1, 2, 3, 16)
#: Tokens on the point-loaded node: a few hundred per node, and a load
#: whose arc sums pass 2**53, where the order of every sum shows.
LOADS = {"small": 40.0 * TOPO.n, "huge": 1e18}
CASES = [
    case + ("small",)
    for case in itertools.product(MODES, SCHEMES, LATENCIES, FAULTS, WIDTHS)
]
CASES += [
    ("static", scheme, latency, "drop:0.05", B, "huge")
    for scheme in SCHEMES for latency in LATENCIES for B in WIDTHS
]

#: The core planes and ledger counters compared after every round.
PLANES = ("loads", "P", "E", "A", "S", "bounce")
LEDGER = ("in_flight_amount", "in_flight_messages", "delivered_count", "bounced_count")


def _case_id(case) -> str:
    mode, scheme, latency, faults, B, size = case
    return f"{mode}-{scheme}-{latency}-{faults or 'nofaults'}-B{B}-{size}"


def _config(case, kernel) -> EngineConfig:
    mode, scheme, latency, faults, B, _ = case
    extra = {}
    if scheme == "sos" and mode == "static":
        # -1 never switches; the rest switch inside the run.
        switch = [-1, 3, 7] * B
        extra = dict(beta=1.6, replica_params={"switch_rounds": switch[:B]})
    elif scheme == "sos":
        extra = dict(beta=1.6)  # dynamic runs never switch
    if latency == "uniform":
        extra.update(latency_model="uniform:0,3", max_skew=2)
    if mode == "dynamic":
        extra.update(arrivals="poisson:3.0,depart=1.0")
    return EngineConfig(
        scheme=scheme, rounding="randomized-excess", rounds=ROUNDS, seed=11,
        speeds=SPEEDS, faults=faults, kernel=kernel, **extra,
    )


def _loads(B: int, size: str) -> np.ndarray:
    base = point_load(TOPO, LOADS[size], 8)
    return np.stack([np.roll(base, 3 * b) for b in range(B)])


def _same(a, b) -> bool:
    """Bitwise equality (signed zeros count) of two arrays or scalars."""
    a, b = np.asarray(a), np.asarray(b)
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def _generator_states(core):
    states = [g.bit_generator.state for g in core.rngs]
    if core.fault_models is not None:
        states += [f.rng.bit_generator.state for f in core.fault_models]
    return states


def _assert_cores_equal(cc, cn, r):
    for name in PLANES + LEDGER:
        a, b = getattr(cc, name), getattr(cn, name)
        if a is None or b is None:
            assert a is None and b is None, (name, r)
        else:
            assert _same(a, b), f"{name} differs after round {r}"
    assert _generator_states(cc) == _generator_states(cn), r
    assert (cc._stale_sum, cc._stale_count, cc.max_staleness) == (
        cn._stale_sum, cn._stale_count, cn.max_staleness,
    )


def _assert_batches_equal(a, b, r):
    for f in dataclasses.fields(a):
        assert _same(getattr(a, f.name), getattr(b, f.name)), (f.name, r)


@needs_cffi
@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_compiled_round_matches_numpy_step(case):
    mode, B, size = case[0], case[4], case[5]
    engines, handles = [], []
    for kernel in ("cffi", "numpy"):
        engine = make_engine("staleness")
        handles.append(
            engine.prepare(TOPO, _config(case, kernel), _loads(B, size))
        )
        engines.append(engine)
    (ec, en), (hc, hn) = engines, handles
    assert hc.core.kernel is not None and hn.core.kernel is None
    for r in range(ROUNDS):
        if mode == "dynamic":
            _assert_batches_equal(ec.arrive(hc), en.arrive(hn), r)
        _assert_batches_equal(ec.step(hc), en.step(hn), r)
        _assert_cores_equal(hc.core, hn.core, r)
    if case[3] in ("drop:0.05", "drop:1"):
        assert hc.core.bounced_count.sum() > 0
    got, want = ec.metrics(hc), en.metrics(hn)
    for name in ("columns", "dynamic_columns"):
        g, w = getattr(got, name), getattr(want, name)
        assert (g is None) == (w is None)
        for field in w or ():
            assert _same(g[field], w[field]), field
    for name in ("round_index", "dynamic_round_index", "final_loads", "final_flows"):
        assert _same(getattr(got, name), getattr(want, name)), name


# -- tier choice ----------------------------------------------------------

#: n * B = 2048: a shape the auto rule gives to the compiled tier.
AUTO_TOPO = torus_2d(32, 32)
AUTO_LOADS = np.tile(point_load(AUTO_TOPO, 10.0 * AUTO_TOPO.n, 0), (2, 1))

BLOCKED = {
    "fault model LinkOutage": "outage:0:1:2:9",
    "a shared fault generator": RandomLinkDrop(0.1, rng=np.random.default_rng(1)),
}


@pytest.mark.parametrize("blocker", list(BLOCKED))
def test_forced_cffi_on_a_blocked_config_names_the_blocker(blocker):
    cfg = EngineConfig(
        rounding="randomized-excess", rounds=3, faults=BLOCKED[blocker],
        kernel="cffi",
    )
    with pytest.raises(ConfigurationError, match=blocker):
        make_engine("staleness").prepare(AUTO_TOPO, cfg, AUTO_LOADS)


@pytest.fixture
def spy(monkeypatch):
    """Count the calls of the provider's staleness entry points."""
    provider = get_provider("cffi")
    calls = []
    for name in ("stale_schedule", "stale_ship"):
        real = getattr(provider, name)

        def counted(*args, _real=real, _name=name):
            calls.append(_name)
            return _real(*args)

        monkeypatch.setattr(provider, name, counted)
    return calls


@needs_cffi
@pytest.mark.parametrize("blocker", list(BLOCKED))
def test_auto_runs_a_blocked_config_on_the_numpy_step(spy, blocker):
    cfg = EngineConfig(
        rounding="randomized-excess", rounds=3, faults=BLOCKED[blocker],
    )
    engine = make_engine("staleness")
    handle = engine.prepare(AUTO_TOPO, cfg, AUTO_LOADS)
    for _ in range(cfg.rounds):
        engine.step(handle)
    assert handle.core.kernel is None
    assert spy == []


@needs_cffi
def test_auto_runs_random_link_drops_compiled(spy):
    cfg = EngineConfig(rounding="randomized-excess", rounds=3, faults="drop:0.1")
    engine = make_engine("staleness")
    handle = engine.prepare(AUTO_TOPO, cfg, AUTO_LOADS)
    for _ in range(cfg.rounds):
        engine.step(handle)
    assert handle.core.kernel is not None
    assert spy == ["stale_schedule", "stale_ship"] * cfg.rounds


def test_python_provider_is_refused():
    """The python test oracle has no staleness round."""
    cfg = EngineConfig(rounding="randomized-excess", rounds=3, kernel="python")
    with pytest.raises(ConfigurationError, match="kernel='python'"):
        make_engine("staleness").run(AUTO_TOPO, cfg, AUTO_LOADS)
