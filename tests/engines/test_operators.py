"""The batched engine's incidence operators and padded adjacency are read
off the topology's CSR adjacency; they must equal, bit for bit, the
COO-assembled operators and the scatter-built padded adjacency kept here
as the oracle (data, indices, indptr, index dtypes and the sorted flag)."""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.core.churn import ChurnSchedule, node_join, plan_churn
from repro.engines.batched import _incidence_operators, _padded_adjacency
from repro.graphs import Topology, star, torus_2d


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
    adj_edges = np.full((n, dmax), m, dtype=np.int64)
    slot_dirs = np.zeros((n, dmax))
    idx_node = np.repeat(np.arange(n), topo.degrees)
    pos_in_row = np.arange(idx_node.size) - topo.adj_indptr[idx_node]
    adj_edges[idx_node, pos_in_row] = topo.adj_edge_ids
    slot_dirs[idx_node, pos_in_row] = np.where(
        idx_node < topo.adj_indices, 1.0, -1.0
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
