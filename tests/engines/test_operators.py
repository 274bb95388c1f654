"""The batched engine's incidence operators and padded adjacency are read
off the topology's CSR adjacency; they must equal, bit for bit, the
COO-assembled operators and the scatter-built padded adjacency kept here
as the oracle (data, indices, indptr, index dtypes and the sorted flag).

The compiled apply passes walk the padded adjacency in place of ``D`` and
``W``; they must equal the numpy tier's CSR walk bit for bit, and a
compiled batch of two or more replicas must build no scipy operator at
all, while the numpy tier and single-replica compiled runs still build
and use them."""

import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace
from numpy.random import default_rng

from repro import kernels, random_load
from repro.core.churn import ChurnSchedule, node_join, plan_churn
from repro.engines import EngineConfig, ReplicaParams, make_engine
from repro.engines.batched import (
    _csr_dot,
    _incidence_operators,
    _padded_adjacency,
)
from repro.graphs import Topology, lollipop, star, torus_2d


def _coo_incidence(topo, dtype):
    """``(D, W)`` assembled from COO triplets and converted to CSR."""
    n, m = topo.n, topo.m_edges
    ar = np.arange(m)
    rows = np.concatenate([topo.edge_u, topo.edge_v])
    cols = np.concatenate([ar, ar])
    D = sp.coo_matrix(
        (np.concatenate([-np.ones(m), np.ones(m)]).astype(dtype), (rows, cols)),
        shape=(n, m),
    ).tocsr()
    W = sp.coo_matrix(
        (np.ones(2 * m, dtype=dtype), (rows, cols)), shape=(n, m)
    ).tocsr()
    return D, W


def _scatter_padded(topo):
    """The padded adjacency scattered row by row into an ``(n, dmax)`` block."""
    n, m = topo.n, topo.m_edges
    dmax = int(topo.degrees.max())
    adj_edges = np.full((n, dmax), m, dtype=np.int32)
    slot_dirs = np.zeros((n, dmax), dtype=np.int8)
    idx_node = np.repeat(np.arange(n), topo.degrees)
    pos_in_row = np.arange(idx_node.size) - topo.adj_indptr[idx_node]
    adj_edges[idx_node, pos_in_row] = topo.adj_edge_ids
    slot_dirs[idx_node, pos_in_row] = np.where(
        idx_node < topo.adj_indices, 1, -1
    )
    return dmax, adj_edges, slot_dirs


def _churn_universe():
    """A churn plan's universe topology: the joiners (30, 31) start with
    degree 0, so the padded adjacency has padding slots."""
    schedule = ChurnSchedule([node_join(30, 2, [0, 7]), node_join(31, 4, [30])])
    topo0 = plan_churn(torus_2d(5, 6), schedule).topo0
    assert topo0.min_degree == 0 < topo0.max_degree
    return topo0


GRAPHS = {
    "torus-64x64": lambda: torus_2d(64, 64),
    "star": lambda: star(9),
    "edgeless": lambda: Topology(5, []),
    "churn-universe": _churn_universe,
}


def _assert_same_csr(got, want):
    for part in ("data", "indices", "indptr"):
        a, b = getattr(got, part), getattr(want, part)
        assert a.dtype == b.dtype, part
        assert a.tobytes() == b.tobytes(), part
    assert got.shape == want.shape
    assert got.has_sorted_indices and want.has_sorted_indices


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_incidence_operators_match_coo_oracle(graph, dtype):
    topo = GRAPHS[graph]()
    for got, want in zip(_incidence_operators(topo, dtype), _coo_incidence(topo, dtype)):
        _assert_same_csr(got, want)


@pytest.mark.parametrize("graph", sorted(GRAPHS))
def test_padded_adjacency_matches_scatter_oracle(graph):
    topo = GRAPHS[graph]()
    dmax, adj_edges, slot_dirs = _padded_adjacency(topo)
    want_dmax, want_edges, want_dirs = _scatter_padded(topo)
    assert dmax == want_dmax
    for got, want in ((adj_edges, want_edges), (slot_dirs, want_dirs)):
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()


# ----------------------------------------------------------------------
# the compiled apply passes over the padded adjacency
# ----------------------------------------------------------------------
def _isolated_node():
    """An irregular graph whose last node has no edge at all."""
    return Topology(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])


APPLY_GRAPHS = {
    "star": lambda: star(9),
    "isolated-node": _isolated_node,
    "churn-universe": _churn_universe,
}

PROVIDERS = [
    "python",
    pytest.param(
        "cffi",
        marks=pytest.mark.skipif(
            kernels.get_provider("cffi") is None,
            reason="kernel provider 'cffi' unavailable",
        ),
    ),
]


def _apply_inputs(topo, dtype, B=3):
    """Fractional loads and signed flows (every sum depends on its order),
    with ``act`` a view whose next row is NaN: a pass that reads a
    padding slot's row ``m`` poisons its output."""
    rng = default_rng(17)
    m = topo.m_edges
    load = rng.normal(40.0, 25.0, (topo.n, B)).astype(dtype)
    buf = rng.normal(0.0, 3.0, (m + 1, B)).astype(dtype)
    buf[m] = np.nan
    return load, buf[:m]


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("graph", sorted(APPLY_GRAPHS))
def test_padded_apply_matches_csr_walk(graph, dtype, provider):
    topo = APPLY_GRAPHS[graph]()
    assert topo.min_degree < topo.max_degree  # some node has padding slots
    prov = kernels.get_provider(provider)
    dmax, adj_edges, adj_signs = _padded_adjacency(topo)
    adj = (adj_edges.ravel(), adj_signs.ravel(), dmax, topo.m_edges)
    D, W = _incidence_operators(topo, dtype)
    load, act = _apply_inputs(topo, dtype)
    consts = np.array([0.0, 1.0, 1e-9, 0.5], dtype=dtype)

    # apply_flows: the numpy tier's load += D @ act, row by row in place
    want = _csr_dot(D, act, load.copy(), accumulate=True)
    got = load.copy()
    prov.apply_flows(*adj, act, got)
    assert got.tobytes() == want.tobytes()

    # record_walk with act: D @ act and W @ |act| from zero, the transient
    # minimum, the traffic summed edge after edge, then load + delta
    absf = np.abs(act)
    delta = _csr_dot(D, act, np.empty_like(load))
    outgoing = _csr_dot(W, absf, np.empty_like(load))
    transient = load - (outgoing - delta) * dtype(0.5)
    traffic = np.add.accumulate(
        np.concatenate([np.zeros((1, act.shape[1]), dtype), absf]), axis=0
    )[-1]
    got = load.copy()
    info = np.full((2, act.shape[1]), 7.0, dtype=dtype)
    out = np.full((6, act.shape[1]), 7.0, dtype=dtype)
    eu = topo.edge_u.astype(np.int32)
    prov.record_walk(
        *adj[:3], eu, act, got, load[:1], 5, False, False, info, out, consts
    )
    assert got.tobytes() == (load + delta).tobytes()
    assert info[0].tobytes() == transient.min(axis=0).tobytes()
    assert info[1].tobytes() == traffic.tobytes()
    assert (out == 7.0).all()  # no metric row was asked for


def _walk_targets(topo, dtype, B, rng):
    """Non-integral targets as a ``(1, B)`` row, an ``(n, 1)`` column and
    an ``(n, B)`` plane."""
    plane = rng.normal(40.0, 5.0, (topo.n, B)).astype(dtype)
    return plane[:1].copy(), plane[:, :1].copy(), plane


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("with_act", [True, False], ids=["act", "no-act"])
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("graph", sorted(APPLY_GRAPHS))
def test_record_walk_matches_numpy_tier(graph, dtype, with_act, provider):
    # One walk against the numpy tier's separate passes: D @ act and
    # W @ |act| (the step info), _node_metrics over the same node tiles
    # and _max_local_diff, on fractional planes (every sum shows its
    # order; B > 1, where numpy's axis-0 sums add row by row).
    from repro.engines.batched import (
        _difference_operator,
        _max_local_diff,
        _node_metrics,
        _tiles,
    )

    topo = APPLY_GRAPHS[graph]()
    n, m = topo.n, topo.m_edges
    prov = kernels.get_provider(provider)
    dmax, adj_edges, adj_signs = _padded_adjacency(topo)
    adj = (adj_edges.ravel(), adj_signs.ravel(), dmax)
    eu = topo.edge_u.astype(np.int32)
    D, W = _incidence_operators(topo, dtype)
    E = _difference_operator(topo, dtype)
    load, act = _apply_inputs(topo, dtype)
    B = load.shape[1]
    consts = np.array([0.0, 1.0, 1e-9, 0.5], dtype=dtype)
    fields = (
        "max_minus_avg", "min_minus_avg", "potential_per_node", "min_load",
        "total_load",
    )
    if with_act:
        delta = _csr_dot(D, act, np.empty_like(load))
        outgoing = _csr_dot(W, np.abs(act), np.empty_like(load))
        transient = (load - (outgoing - delta) * dtype(0.5)).min(axis=0)
        x = load + delta
    else:
        x = load
    want_mld = _max_local_diff(E, x, [(0, m)], np.empty((m, B), dtype))
    tiles = [t for t in (2, 3, 4, 5) if n % t] + [n]
    assert len(tiles) > 2  # widths that do not divide n
    for targets in _walk_targets(topo, dtype, B, default_rng(29)):
        for tile in tiles:
            want, totals = _node_metrics(
                x, targets, fields, np.empty((tile, B), dtype),
                _tiles(n, tile),
            )
            for metrics, mld in ((True, True), (True, False), (False, True)):
                got = load.copy()
                info = np.full((2, B), 7.0, dtype) if with_act else None
                out = np.full((6, B), 7.0, dtype=dtype)
                prov.record_walk(
                    *adj, eu, act if with_act else None, got, targets, tile,
                    metrics, mld, info, out, consts,
                )
                assert got.tobytes() == x.tobytes()
                if with_act:
                    assert info[0].tobytes() == transient.tobytes()
                    assert info[1].tobytes() == np.abs(act).sum(axis=0).tobytes()
                if metrics:
                    rows = (out[0], out[1], out[2] / dtype(n), out[3], out[4])
                    for name, row in zip(fields, rows):
                        assert row.tobytes() == want[name].tobytes(), name
                    assert out[4].tobytes() == totals.tobytes()
                else:
                    assert (out[:5] == 7.0).all()
                if mld:
                    assert out[5].tobytes() == want_mld.tobytes()
                else:
                    assert (out[5] == 7.0).all()


# ----------------------------------------------------------------------
# which handles build the scipy operators
# ----------------------------------------------------------------------
#: graph -> (topology, alpha spec): one alpha for every edge (a scalar
#: fused coefficient), and an alpha per edge (a coefficient row)
HANDLE_GRAPHS = {
    "torus": lambda: (torus_2d(6, 7), None),
    "lollipop": lambda: (lollipop(8, 5), "lazy-metropolis"),
}


def _prepared(graph, kernel, B, cache, **kw):
    topo, alphas = HANDLE_GRAPHS[graph]()
    loads = np.stack(
        [random_load(topo, 50.0, rng=default_rng(b)) for b in range(B)]
    )
    config = EngineConfig(
        scheme="sos", beta=1.5, rounding="randomized-excess", rounds=4,
        seed=3, kernel=kernel, alphas=alphas, **kw,
    )
    engine = make_engine("batched")
    engine.operator_cache = cache
    return engine, engine.prepare(topo, config, loads)


def _leaves(obj):
    """Every value inside ``obj``'s tuples, lists and dicts."""
    if isinstance(obj, dict):
        for v in obj.values():
            yield from _leaves(v)
    elif isinstance(obj, (tuple, list)):
        for v in obj:
            yield from _leaves(v)
    else:
        yield obj


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("precision", ["float64", "float32"])
@pytest.mark.parametrize("graph", sorted(HANDLE_GRAPHS))
def test_compiled_batch_builds_no_scipy_operator(graph, precision, provider):
    cache = {}
    engine, h = _prepared(graph, provider, 4, cache, precision=precision)
    topo, m = h.topo, h.topo.m_edges
    assert h.kern_records
    for _ in range(3):
        engine.step(h)  # step-info walks: record_walk, no apply_flows
    engine.run_batch(
        topo, h.config, np.stack([random_load(topo, 9.0)] * 4)
    )
    h.take_columns([0, 1, 1, 2, 3])  # a twin fork re-shapes the scratch
    engine.step(h)
    held = list(_leaves(vars(h))) + list(_leaves(cache))
    assert not [v for v in held if sp.issparse(v)]
    # no interleaved (2m,) copy of the fused coefficients
    assert not [
        v for v in held
        if isinstance(v, np.ndarray) and v.dtype.kind == "f" and v.shape == (2 * m,)
    ]
    assert h.fused[0].shape == ((1,) if graph == "torus" else (m,))
    assert h.mb1 is None and h.mb2 is None
    assert not h.lazy  # nothing built on demand, not even the directions



def _planes(h, rows):
    """``{attribute: dtype}`` of the ``(rows, B)`` arrays ``h`` holds, one
    entry per buffer (a view names the buffer it lives in)."""
    owners = {}
    for name, value in vars(h).items():
        for v in _leaves(value):
            if isinstance(v, np.ndarray) and v.shape == (rows, h.n_replicas):
                owner = v if v.base is None else v.base
                owners.setdefault(id(owner), (name, v.dtype))
    return dict(owners.values())


@pytest.mark.parametrize("provider", PROVIDERS)
@pytest.mark.parametrize("precision", ["float64", "float32"])
def test_compiled_batch_holds_two_edge_planes(precision, provider, monkeypatch):
    # Per replica, a compiled batch keeps the flows and the actuals as its
    # only (m, B) planes (the fractions overwrite the spent flows) and one
    # int32 (n, B) plane of token budgets: after steps, in a warm call on
    # the filled cache whose switch twins fork, and after a fork by hand.
    # Its record pass needs no node scratch plane either.
    cache = {}
    engine, h = _prepared("lollipop", provider, 4, cache, precision=precision)
    topo, n, m = h.topo, h.topo.n, h.topo.m_edges
    dtype = np.dtype(precision)
    handles, widths = [h], []
    for _ in range(3):
        engine.step(h)
    prepare, advance = engine.prepare, engine._advance

    def keep(*args):
        handles.append(prepare(*args))
        return handles[-1]

    def spy(h, want_info):
        widths.append(h.n_replicas)
        advance(h, want_info)

    monkeypatch.setattr(engine, "prepare", keep)
    monkeypatch.setattr(engine, "_advance", spy)
    twins = replace(
        h.config, rounds=12, replica_keys=[0, 0, 1, 1],
        replica_params=ReplicaParams(switch_rounds=[None, 4, None, 7]),
    )
    loads = np.stack(
        [random_load(topo, 9.0, rng=default_rng(k)) for k in (0, 0, 1, 1)]
    )
    engine.run_batch(topo, twins, loads)
    assert min(widths) < 4 and widths[-1] == 4  # the twins did fork
    h.take_columns([0, 1, 1, 2, 3])
    engine.step(h)
    for x in handles:
        assert x.kernel is not None and x.kern_records
        assert _planes(x, m) == {"flows": dtype, "act": dtype}
        ints = {k: v for k, v in _planes(x, n).items() if v.kind == "i"}
        assert ints == {"kern_counts": np.dtype(np.int32)}
        assert not hasattr(x, "mb3")
        assert x.ts1 is x.ts2 is x.ts3 is None
        assert not any(k.startswith("ts") for k in _planes(x, n))
    _, x = _prepared("lollipop", "numpy", 4, {}, precision=precision)
    engine.step(x)
    assert not hasattr(x, "mb3")
    assert all(p.shape == (n, 4) for p in (x.ts1, x.ts2, x.ts3))

@pytest.mark.parametrize("graph", sorted(HANDLE_GRAPHS))
def test_numpy_tier_builds_and_uses_csr(graph):
    cache = {}
    engine, h = _prepared(graph, "numpy", 4, cache)
    engine.step(h)
    for name, kind in (("E", sp.csr_matrix), ("DW", tuple)):
        assert isinstance(h.lazy[name], kind)
        assert cache[name, "d"] is h.lazy[name]
    assert all(sp.issparse(op) for op in (h.E, h.D, h.W, h.fused[0], h.fused[1]))
    assert np.shares_memory(h.fused[0].indices, h.E.indices)  # E's indices
    assert h.mb1.shape == h.mb2.shape == (h.topo.m_edges, 4)


@pytest.mark.parametrize("provider", PROVIDERS)
def test_single_replica_compiled_builds_incidence_on_first_use(provider):
    cache = {}
    engine, h = _prepared("lollipop", provider, 1, cache)
    assert h.kernel is not None and not h.kern_records
    assert "DW" not in h.lazy  # round 0 records without an operator
    engine.step(h)  # step info goes through numpy: D @ act, W @ |act|
    assert isinstance(cache["DW", "d"][0], sp.csr_matrix)
    assert h.lazy["DW"] is cache["DW", "d"]
    assert "E" not in h.lazy  # the compiled schedule reads no E
    assert h.mb1 is None and h.mb2.shape == (h.topo.m_edges, 1)
