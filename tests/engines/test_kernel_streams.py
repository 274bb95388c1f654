"""The compiled excess round's streams and builds, against the numpy tier.

The cffi ``excess_dispatch`` draws each token's uniform in C, through
numpy's ``bitgen_t``, from its replica's own generator.  The oracle here
is the generators themselves: after a cffi run and a numpy run of the
same batch, every replica's ``bit_generator.state`` must be equal, so a
kernel that draws one uniform too many or too few fails even where the
loads happen to agree.  The kernels are also built as AVX2 and baseline
clones (``target_clones``); a second build of the same source with the
clone attribute off must agree with the loaded one bit for bit, at every
vector-tail length of the replica axis.
"""

from dataclasses import replace

import numpy as np
import pytest
from numpy.random import default_rng

from repro import kernels, point_load, random_load, torus_2d
from repro.engines import EngineConfig, ReplicaParams, make_engine
from repro.graphs import lollipop

pytestmark = pytest.mark.skipif(
    kernels.get_provider("cffi") is None, reason="cffi kernels unavailable"
)

TORUS = torus_2d(6, 7)
LOLLIPOP = lollipop(9, 12)
PRECISIONS = ["float64", "float32"]


def _states(rngs):
    return [g.bit_generator.state for g in rngs]


def _loads(B):
    """A point load (token-free in some rounds), a flat load (token-free
    in every round) and random loads."""
    rng = default_rng(17)
    rows = [point_load(TORUS, 4000.0), np.full(TORUS.n, 6.0)]
    rows += [random_load(TORUS, 100.0, rng=rng) for _ in range(B - 2)]
    return np.stack(rows[:B])


class TestStreamOracle:
    @pytest.mark.parametrize("precision", PRECISIONS)
    @pytest.mark.parametrize("B", [1, 3, 64])
    def test_step_protocol(self, B, precision):
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding="randomized-excess", rounds=30,
            seed=5, precision=precision,
        )
        eng = make_engine("batched")
        h_np, h_c = (
            eng.prepare(TORUS, replace(cfg, kernel=k), _loads(B))
            for k in ("numpy", "cffi")
        )
        assert h_np.kernel is None and h_c.kernel.name == "cffi"
        totals = []
        for _ in range(cfg.rounds):
            eng.step(h_np)
            eng.step(h_c)
            totals.append(h_c.kern_totals.copy())
            assert _states(h_c.rngs) == _states(h_np.rngs)
        totals = np.array(totals)
        # some replica draws nothing in some rounds and tokens in others
        assert ((totals == 0).any(axis=0) & (totals > 0).any(axis=0)).any()
        np.testing.assert_array_equal(h_c.load, h_np.load)
        np.testing.assert_array_equal(h_c.flows, h_np.flows)

    @pytest.mark.parametrize("precision", PRECISIONS)
    def test_switch_sweep_twins_fork(self, precision, monkeypatch):
        # Twins (same stream key and loads, different switch rounds) run as
        # one column until their switch forks them through take_columns,
        # which clones the leader's generator for the follower.
        switch_rounds = [None, 4, 9, 4, 15, None]
        keys = [0, 0, 0, 1, 1, 1]
        loads = np.tile(point_load(TORUS, 100 * TORUS.n + 3), (6, 1))
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding="randomized-excess", rounds=20,
            seed=8, precision=precision,
            replica_params=ReplicaParams(switch_rounds=switch_rounds),
            replica_keys=keys,
        )
        eng = make_engine("batched")
        handles = []
        prepare = eng.prepare

        def keep(*args):
            handles.append(prepare(*args))
            return handles[-1]

        monkeypatch.setattr(eng, "prepare", keep)
        widths = []
        advance = eng._advance

        def spy(h, want_info):
            widths.append(h.n_replicas)
            advance(h, want_info)

        monkeypatch.setattr(eng, "_advance", spy)
        runs = [
            eng.run_batch(TORUS, replace(cfg, kernel=k), loads)
            for k in ("numpy", "cffi")
        ]
        h_np, h_c = handles
        assert h_c.kernel.name == "cffi"
        assert min(widths) < 6  # the twins did share a column
        assert _states(h_c.rngs) == _states(h_np.rngs)
        np.testing.assert_array_equal(runs[1].final_loads, runs[0].final_loads)
        np.testing.assert_array_equal(runs[1].final_flows, runs[0].final_flows)
        np.testing.assert_array_equal(runs[1].switched_at, runs[0].switched_at)


# -- AVX2 clones against a baseline build -----------------------------------


@pytest.fixture(scope="module")
def baseline(tmp_path_factory):
    """The kernels built again without the clone attribute (baseline
    x86-64 code only), in a private cache."""
    from repro.kernels import _cffi

    source = _cffi._SOURCE.replace(_cffi._CLONES, "")
    assert source != _cffi._SOURCE
    cache = str(tmp_path_factory.mktemp("kernel-baseline"))
    return _cffi.CffiKernels(_cffi._load_or_build(source, cache))


#: s values whose trunc is easy to get wrong: signed zeros, halves (which
#: round-to-nearest sends the other way), the edges of the mantissa, the
#: largest finite values, infinities, NaN and subnormals
_EDGES = [
    0.0, -0.0, 0.3, -0.3, 0.5, -0.5, 0.7, 1.0, -1.0, 1.5, -1.5, 2.5, -2.5,
    3.5, 7.999, -7.999, 2.0**23 - 0.5, 2.0**23, 2.0**23 + 1, 2.0**24 + 2,
    -(2.0**23 - 0.5), 2.0**52 - 0.5, -(2.0**52 - 0.5), 2.0**52, 2.0**53 + 2,
    1e300, -1e300, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-40,
]


def _consts(dtype):
    return np.array([0.0, 1.0, 1e-9, 0.5], dtype=dtype)


def _trunc_case(dtype):
    """Mode 0 with alpha 1 and a zero second endpoint: s is the load."""
    with np.errstate(over="ignore"):
        s = np.array(_EDGES, dtype=dtype)
    m = s.size
    load = np.concatenate([s, [0.0]]).astype(dtype)[:, None]
    eu = np.arange(m, dtype=np.int32)
    ev = np.full(m, m, dtype=np.int32)
    return s, (eu, ev, load, m)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("build", ["loaded", "baseline"])
def test_round_edges_trunc_is_exact(dtype, build, baseline):
    prov = kernels.get_provider("cffi") if build == "loaded" else baseline
    s, (eu, ev, load, m) = _trunc_case(dtype)
    flows = np.zeros((m, 1), dtype=dtype)
    act = np.empty((m, 1), dtype=dtype)
    fsg = np.empty((m, 1), dtype=dtype)
    one = np.ones(1, dtype=dtype)
    prov.round_edges(
        eu, ev, load, None, flows, act, fsg, one, 0, 0, one, one, 0, 0,
        _consts(dtype),
    )
    want = np.trunc(s)
    assert act[:, 0].tobytes() == want.tobytes()
    with np.errstate(invalid="ignore"):
        assert fsg[:, 0].tobytes() == (s - want).tobytes()


def _kernel_calls(B, dtype, seed):
    """Every entry point's inputs on one random problem: a lollipop (so
    most nodes have padding slots), mixed-sign fractional flows,
    heterogeneous speeds, per-edge and per-replica coefficients."""
    from repro.engines.batched import _padded_adjacency

    rng = default_rng(seed)
    topo = LOLLIPOP
    n, m = topo.n, topo.m_edges
    dmax, adj, dirs = _padded_adjacency(topo)
    beta = rng.uniform(1.2, 1.9, B).astype(dtype)
    return {
        "B": B, "dtype": dtype, "n": n, "m": m, "dmax": dmax,
        "eu": topo.edge_u.astype(np.int32), "ev": topo.edge_v.astype(np.int32),
        "load": rng.integers(0, 400, (n, B)).astype(dtype),
        "speeds": rng.uniform(1.0, 3.0, n).astype(dtype),
        "flows": rng.uniform(-40.0, 40.0, (m, B)).astype(dtype),
        "alpha_e": rng.uniform(0.05, 0.2, m).astype(dtype),
        "alpha_eb": rng.uniform(0.05, 0.2, m * B).astype(dtype),
        "beta": beta, "bm1": beta - dtype(1.0), "c": _consts(dtype),
        "adj_edges": adj.ravel().astype(np.int32),
        "adj_signs": dirs.ravel().astype(np.int8),
    }


def _run_all(prov, d, streams):
    """Each kernel's outputs, as bytes, run in round order on ``d``."""
    B, dtype, m, n = d["B"], d["dtype"], d["m"], d["n"]
    out = []
    act = np.empty((m, B), dtype=dtype)
    fsg = np.empty((m, B), dtype=dtype)
    variants = [
        (0, d["alpha_e"], 1, 0, 0, None),
        (1, d["alpha_e"], 1, 0, 0, d["speeds"]),
        (1, d["alpha_eb"], B, 1, 1, None),
        (2, d["alpha_eb"], B, 1, 1, d["speeds"]),
        (2, d["alpha_e"], 1, 0, 0, None),
    ]
    for mode, alpha, ar, ac, bs, speeds in variants:
        prov.round_edges(
            d["eu"], d["ev"], d["load"], speeds, d["flows"], act, fsg,
            alpha, ar, ac, d["beta"], d["bm1"], bs, mode, d["c"],
        )
        out += [act.tobytes(), fsg.tobytes()]
    counts = np.empty((n, B), dtype=np.int32)
    totals = np.empty(B, dtype=np.int64)
    prov.excess_counts(
        d["adj_edges"], d["adj_signs"], d["dmax"], m, fsg, counts, totals,
        d["c"],
    )
    assert totals.sum() > 0
    out += [counts.tobytes(), totals.tobytes()]
    prov.excess_dispatch(
        d["adj_edges"], d["adj_signs"], d["dmax"], m, fsg, counts, streams,
        act, np.empty((d["dmax"], B), dtype=dtype), d["c"],
    )
    out += [act.tobytes(), repr(_states(streams))]
    x = d["load"].copy()
    prov.apply_flows(d["adj_edges"], d["adj_signs"], d["dmax"], m, act, x)
    out.append(x.tobytes())
    rec = np.empty((6, B), dtype=dtype)
    walk = (d["adj_edges"], d["adj_signs"], d["dmax"], d["eu"])
    for targets in (x[:1], x[:, :1].copy(), x[::-1].copy()):
        prov.record_walk(
            *walk, None, x, targets, n, True, True, None, rec, d["c"]
        )
        out.append(rec.tobytes())
    info = np.empty((2, B), dtype=dtype)
    y = d["load"].copy()
    prov.record_walk(
        *walk, act, y, y[::-1].copy(), n // 3 + 1, True, True, info, rec,
        d["c"],
    )
    out += [y.tobytes(), info.tobytes(), rec.tobytes()]
    return out


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("B", [1, 3, 4, 8, 64])
def test_clones_match_baseline_build(B, dtype, baseline):
    d = _kernel_calls(B, dtype, seed=B)
    loaded = kernels.get_provider("cffi")
    got = _run_all(loaded, d, [default_rng(100 + b) for b in range(B)])
    want = _run_all(baseline, d, [default_rng(100 + b) for b in range(B)])
    assert len(got) == len(want)
    for i, (a, b) in enumerate(zip(got, want)):
        assert a == b, i
