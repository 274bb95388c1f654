"""Unit tests for the Topology substrate."""

import numpy as np
import pytest

from repro import Topology, TopologyError, cycle, torus_2d


class TestConstruction:
    def test_basic_triangle(self):
        topo = Topology(3, [(0, 1), (1, 2), (0, 2)])
        assert topo.n == 3
        assert topo.m_edges == 3
        assert topo.max_degree == 2
        assert topo.min_degree == 2

    def test_edge_order_is_normalised(self):
        topo = Topology(3, [(2, 1), (1, 0)])
        assert list(topo.edges()) == [(0, 1), (1, 2)]
        assert np.all(topo.edge_u < topo.edge_v)

    def test_rejects_self_loop(self):
        with pytest.raises(TopologyError, match="self loop"):
            Topology(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(TopologyError, match="duplicate"):
            Topology(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range_endpoint(self):
        with pytest.raises(TopologyError, match="out of range"):
            Topology(3, [(0, 5)])

    def test_rejects_empty_graph(self):
        with pytest.raises(TopologyError):
            Topology(0, [])

    def test_single_node_no_edges(self):
        topo = Topology(1, [])
        assert topo.n == 1
        assert topo.m_edges == 0
        assert topo.is_connected()

    def test_rejects_bad_edge_shape(self):
        with pytest.raises(TopologyError, match="pairs"):
            Topology(3, [(0, 1, 2)])

    def test_arrays_are_read_only(self):
        topo = cycle(5)
        with pytest.raises(ValueError):
            topo.edge_u[0] = 7


#: every array the constructor derives from the edge list
_BUILT = ("edge_u", "edge_v", "adj_indptr", "adj_indices", "adj_edge_ids", "degrees")

#: unsorted, with both pair orientations and an isolated node (6)
_EDGES = [(3, 1), (0, 4), (2, 0), (5, 3), (1, 0), (4, 2), (0, 5), (2, 1)]


def _input_forms(edges):
    """The same edge list in every form the constructor accepts."""
    arr = np.array(edges, dtype=np.int64)
    read_only = arr.copy()
    read_only.setflags(write=False)
    return {
        "int64 ndarray": arr,
        "int32 ndarray": arr.astype(np.int32),
        "read-only ndarray": read_only,
        "F-order ndarray": np.asfortranarray(arr),
        "strided ndarray": np.repeat(arr, 2, axis=0)[::2],
        "list of tuples": list(edges),
        "generator": (tuple(e) for e in edges),
    }


def _error_text(n, edges):
    with pytest.raises(TopologyError) as info:
        Topology(n, edges)
    return str(info.value)


class TestInputForms:
    """An ``(m, 2)`` ndarray is read as it is; every form builds the same
    graph, and a bad ndarray fails exactly as the same list would."""

    @pytest.mark.parametrize("form", sorted(_input_forms(_EDGES)))
    def test_every_form_builds_identical_arrays(self, form):
        want = Topology(7, list(_EDGES))
        got = Topology(7, _input_forms(_EDGES)[form])
        for name in _BUILT:
            a, b = getattr(want, name), getattr(got, name)
            assert a.dtype == b.dtype == np.int64, name
            assert a.tobytes() == b.tobytes(), name
        assert got == want and hash(got) == hash(want)

    def test_matches_lexsort_oracle(self):
        rng = np.random.default_rng(3)
        for n in (2, 9, 40):
            pairs = {tuple(sorted(p)) for p in rng.integers(0, n, (3 * n, 2))}
            edges = np.array([p for p in pairs if p[0] != p[1]]).reshape(-1, 2)
            rng.shuffle(edges)
            edges[::2] = edges[::2, ::-1]
            topo = Topology(n, edges)
            u, v = np.sort(edges, axis=1).T
            order = np.lexsort((v, u))
            assert np.array_equal(topo.edge_u, u[order])
            assert np.array_equal(topo.edge_v, v[order])
            ids = np.arange(order.size)
            nodes = np.concatenate([u[order], v[order]])
            neigh = np.concatenate([v[order], u[order]])
            csr = np.lexsort((neigh, nodes))
            assert np.array_equal(topo.adj_indices, neigh[csr])
            assert np.array_equal(topo.adj_edge_ids, np.concatenate([ids, ids])[csr])

    def test_caller_array_neither_aliased_nor_written(self):
        arr = np.array(_EDGES, dtype=np.int64)
        before = arr.copy()
        topo = Topology(7, arr)
        assert np.array_equal(arr, before)
        assert arr.flags.writeable
        for name in _BUILT:
            assert not np.shares_memory(getattr(topo, name), arr), name

    @pytest.mark.parametrize(
        "n, edges",
        [
            (3, [(0, 1), (2, 2)]),  # self loop
            (3, [(0, 1), (2, 1), (1, 0)]),  # duplicate
            (3, [(0, 5)]),  # out of range
            (3, [(-1, 2)]),  # negative endpoint
            (3, [(0, 1, 2)]),  # bad shape
            (0, []),  # no nodes
        ],
    )
    def test_ndarray_errors_match_list_errors(self, n, edges):
        arr = np.array(edges, dtype=np.int64)
        assert _error_text(n, arr) == _error_text(n, edges)
        assert _error_text(n, np.asfortranarray(arr)) == _error_text(n, edges)

    def test_one_dimensional_ndarray_is_a_bad_shape(self):
        assert _error_text(3, np.array([0, 1])) == _error_text(3, [0, 1])

    @pytest.mark.parametrize(
        "edges", [[], np.empty((0, 2), np.int64), np.empty(0, np.int32)]
    )
    def test_empty_inputs_build_the_edgeless_graph(self, edges):
        topo = Topology(4, edges)
        assert topo.m_edges == 0
        assert topo.adj_indptr.tolist() == [0] * 5
        for name in _BUILT:
            assert getattr(topo, name).dtype == np.int64, name


class TestLinkAttributes:
    def test_unset_by_default(self):
        topo = cycle(5)
        assert topo.link_latency is None
        assert topo.link_bandwidth is None

    def test_scalar_broadcast_and_chaining(self):
        topo = cycle(5).stamp_link_attrs(latency=1.5, bandwidth=8.0)
        assert topo.link_latency.shape == (5,)
        assert np.all(topo.link_latency == 1.5)
        assert np.all(topo.link_bandwidth == 8.0)

    def test_per_edge_array_aligned_with_edges(self):
        topo = cycle(4)
        lat = np.array([0.0, 1.0, 2.0, 3.0])
        topo.stamp_link_attrs(latency=lat)
        np.testing.assert_array_equal(topo.link_latency, lat)

    def test_stamped_arrays_are_read_only(self):
        topo = cycle(4).stamp_link_attrs(latency=1.0)
        with pytest.raises(ValueError):
            topo.link_latency[0] = 9.0

    def test_validation(self):
        with pytest.raises(TopologyError, match="latency"):
            cycle(4).stamp_link_attrs(latency=-1.0)
        with pytest.raises(TopologyError, match="bandwidth"):
            cycle(4).stamp_link_attrs(bandwidth=0.0)
        with pytest.raises(ValueError):
            cycle(4).stamp_link_attrs(latency=np.ones(3))

    def test_builders_stamp(self):
        topo = torus_2d(3, 4, link_latency=0.5, link_bandwidth=2.0)
        assert topo.link_latency.shape == (topo.m_edges,)
        assert np.all(topo.link_bandwidth == 2.0)
        assert torus_2d(3, 4).link_latency is None

    def test_attrs_do_not_affect_equality_or_hash(self):
        a, b = cycle(5), cycle(5).stamp_link_attrs(latency=2.0)
        assert a == b
        assert hash(a) == hash(b)


class TestAdjacency:
    def test_neighbors_sorted(self):
        topo = Topology(4, [(0, 3), (0, 1), (0, 2)])
        assert topo.neighbors(0).tolist() == [1, 2, 3]
        assert topo.degree(0) == 3
        assert topo.degree(1) == 1

    def test_incident_edges_align_with_neighbors(self):
        topo = Topology(4, [(0, 3), (0, 1), (2, 0)])
        for i in range(4):
            for nb, e in zip(topo.neighbors(i), topo.incident_edges(i)):
                u, v = int(topo.edge_u[e]), int(topo.edge_v[e])
                assert {u, v} == {i, int(nb)}

    def test_degree_sum_equals_twice_edges(self):
        topo = torus_2d(5, 4)
        assert topo.degrees.sum() == 2 * topo.m_edges

    def test_edge_id_lookup(self):
        topo = cycle(6)
        for k, (u, v) in enumerate(topo.edges()):
            assert topo.edge_id(u, v) == k
            assert topo.edge_id(v, u) == k

    def test_edge_id_missing_raises(self):
        topo = cycle(6)
        with pytest.raises(TopologyError):
            topo.edge_id(0, 3)

    def test_has_edge(self):
        topo = cycle(6)
        assert topo.has_edge(0, 1)
        assert topo.has_edge(5, 0)
        assert not topo.has_edge(0, 3)
        assert not topo.has_edge(0, 0)
        assert not topo.has_edge(0, 99)


class TestStructure:
    def test_connectivity(self):
        connected = cycle(5)
        assert connected.is_connected()
        disconnected = Topology(4, [(0, 1), (2, 3)])
        assert not disconnected.is_connected()
        with pytest.raises(TopologyError, match="not connected"):
            disconnected.require_connected()

    def test_components(self):
        topo = Topology(5, [(0, 1), (2, 3)])
        comps = sorted(topo.connected_components(), key=lambda c: c[0])
        assert [c.tolist() for c in comps] == [[0, 1], [2, 3], [4]]

    def test_components_match_bfs_in_smallest_node_order(self):
        # The seeded stitching builders draw per component in list order,
        # so the order (by smallest node) is part of the contract.
        def bfs(topo, start):
            seen, frontier = {start}, [start]
            while frontier:
                fresh = {int(nb) for v in frontier for nb in topo.neighbors(v)} - seen
                seen |= fresh
                frontier = list(fresh)
            return sorted(seen)

        rng = np.random.default_rng(11)
        for n in (1, 2, 7, 30):
            edges = rng.integers(0, n, (n, 2))
            edges = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
            topo = Topology(n, edges.reshape(-1, 2))
            want, left = [], set(range(n))
            while left:
                want.append(bfs(topo, min(left)))
                left -= set(want[-1])
            comps = topo.connected_components()
            assert [c.tolist() for c in comps] == want
            assert all(c.dtype == np.int64 for c in comps)
            assert topo.is_connected() == (len(want) == 1)
            for comp in want:
                assert topo.component_of(comp[-1]).tolist() == comp

    def test_component_labels_match_undirected_search(self):
        # Strong components of the symmetric adjacency, labelled exactly
        # as scipy's undirected search labels them.
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        rng = np.random.default_rng(5)
        for _ in range(200):
            n = int(rng.integers(1, 60))
            edges = rng.integers(0, n, (int(rng.integers(0, 2 * n)), 2))
            edges = np.unique(np.sort(edges[edges[:, 0] != edges[:, 1]], axis=1), axis=0)
            topo = Topology(n, edges.reshape(-1, 2))
            graph = csr_matrix(
                (np.ones(topo.adj_indices.size), topo.adj_indices, topo.adj_indptr),
                shape=(n, n),
            )
            want = connected_components(graph, directed=False)[1]
            np.testing.assert_array_equal(topo._component_labels(), want)

    def test_bipartite_detection(self):
        assert cycle(6).is_bipartite()
        assert not cycle(5).is_bipartite()
        assert torus_2d(4, 4).is_bipartite()
        assert not torus_2d(5, 5).is_bipartite()

    def test_diameter_lower_bound_cycle(self):
        assert cycle(10).diameter_lower_bound() == 5


class TestConversions:
    def test_adjacency_matrix_symmetric(self):
        topo = torus_2d(3, 3)
        a = topo.adjacency_matrix()
        assert np.array_equal(a, a.T)
        assert a.sum() == 2 * topo.m_edges

    def test_laplacian_rows_sum_to_zero(self):
        lap = torus_2d(3, 4).laplacian_matrix()
        assert np.allclose(lap.sum(axis=1), 0.0)
        assert np.allclose(lap, lap.T)

    def test_networkx_round_trip(self):
        topo = torus_2d(3, 4)
        back = Topology.from_networkx(topo.to_networkx())
        assert back == topo

    def test_from_edge_list_infers_n(self):
        topo = Topology.from_edge_list([(0, 1), (1, 4)])
        assert topo.n == 5

    def test_equality_and_hash(self):
        a = cycle(5)
        b = cycle(5)
        assert a == b
        assert hash(a) == hash(b)
        assert a != cycle(6)
