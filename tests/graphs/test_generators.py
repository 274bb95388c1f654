"""Unit tests for the graph generators (Table I families + standard)."""

import numpy as np
import pytest

from repro import (
    TopologyError,
    barbell,
    binary_tree,
    circulant,
    complete,
    complete_bipartite,
    configuration_model,
    cycle,
    expander,
    grid_2d,
    hypercube,
    lollipop,
    paper_cm_degree,
    paper_rgg_radius,
    path,
    random_geometric,
    random_regular_strict,
    star,
    torus_2d,
    torus_coordinates,
    torus_nd,
    torus_node_id,
)
import repro.graphs.random_regular as random_regular
from repro.graphs import Topology


class TestTorus:
    def test_2d_torus_is_4_regular(self):
        topo = torus_2d(5, 7)
        assert topo.n == 35
        assert topo.min_degree == topo.max_degree == 4
        assert topo.m_edges == 2 * topo.n
        assert topo.is_connected()

    def test_torus_wraps_around(self):
        topo = torus_2d(4, 4)
        # node (0,0)=0 is adjacent to (0,3)=3 and (3,0)=12.
        assert topo.has_edge(0, 3)
        assert topo.has_edge(0, 12)

    def test_side_two_has_single_edges(self):
        topo = torus_nd((2, 2))
        # 2x2 torus is a 4-cycle: each node degree 2, 4 edges.
        assert topo.m_edges == 4
        assert topo.max_degree == 2

    def test_side_one_dimension_is_skipped(self):
        topo = torus_nd((1, 5))
        assert topo.n == 5
        assert topo.max_degree == 2  # just a 5-cycle

    def test_3d_torus(self):
        topo = torus_nd((3, 3, 3))
        assert topo.n == 27
        assert topo.min_degree == topo.max_degree == 6

    def test_invalid_shape(self):
        with pytest.raises(TopologyError):
            torus_nd(())
        with pytest.raises(TopologyError):
            torus_nd((0, 3))

    def test_coordinate_round_trip(self):
        shape = (6, 9)
        for node in (0, 13, 53):
            coords = torus_coordinates(node, shape)
            assert torus_node_id(coords, shape) == node

    def test_node_id_wraps_coordinates(self):
        assert torus_node_id((6, 0), (6, 9)) == 0
        assert torus_node_id((-1, 0), (6, 9)) == torus_node_id((5, 0), (6, 9))

    def test_grid_has_no_wraparound(self):
        topo = grid_2d(3, 3)
        assert topo.m_edges == 12
        assert not topo.has_edge(0, 2)
        assert topo.degree(4) == 4  # centre
        assert topo.degree(0) == 2  # corner


class TestHypercube:
    def test_dimension_and_regularity(self):
        topo = hypercube(5)
        assert topo.n == 32
        assert topo.min_degree == topo.max_degree == 5
        assert topo.m_edges == 5 * 32 // 2
        assert topo.is_connected()

    def test_edges_differ_in_one_bit(self):
        topo = hypercube(4)
        for u, v in topo.edges():
            xor = u ^ v
            assert xor and (xor & (xor - 1)) == 0

    def test_zero_dimension(self):
        assert hypercube(0).n == 1

    def test_rejects_negative_and_huge(self):
        with pytest.raises(TopologyError):
            hypercube(-1)
        with pytest.raises(TopologyError):
            hypercube(30)


class TestConfigurationModel:
    def test_paper_degree(self):
        assert paper_cm_degree(10**6) == 19
        assert paper_cm_degree(4096) == 12

    def test_connected_and_near_regular(self, rng):
        topo = configuration_model(500, 8, rng=rng)
        assert topo.is_connected()
        assert topo.n == 500
        # Erasure removes few edges at this density.
        assert topo.degrees.mean() > 7.0
        assert topo.max_degree <= 8

    def test_default_degree_is_paper_law(self, rng):
        topo = configuration_model(256, rng=rng)
        assert topo.max_degree <= paper_cm_degree(256)

    def test_strict_regular(self, rng):
        topo = random_regular_strict(20, 3, rng=rng)
        assert np.all(topo.degrees == 3)
        assert topo.is_connected()

    def test_strict_rejects_odd_parity(self, rng):
        with pytest.raises(TopologyError):
            random_regular_strict(5, 3, rng=rng)

    def test_invalid_parameters(self, rng):
        with pytest.raises(TopologyError):
            configuration_model(1, 1, rng=rng)
        with pytest.raises(TopologyError):
            configuration_model(10, 0, rng=rng)
        with pytest.raises(TopologyError):
            configuration_model(10, 10, rng=rng)


def _row_unique_cm(n, degree, seed, connect):
    """The erased configuration model deduplicated by ``np.unique`` of the
    ``(lo, hi)`` rows: the oracle of the scalar-key dedup."""
    rng = np.random.default_rng(seed)
    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    if stubs.size % 2 == 1:
        stubs = stubs[:-1]
    rng.shuffle(stubs)
    u, v = stubs[0::2], stubs[1::2]
    keep = u != v
    u, v = u[keep], v[keep]
    lo, hi = np.minimum(u, v), np.maximum(u, v)
    pairs = np.unique(np.stack([lo, hi], axis=1), axis=0)
    topo = Topology(n, pairs)
    if connect and not topo.is_connected():
        topo = random_regular._stitch_components(topo, rng)
    return topo


def _row_unique_strict(n, degree, seed, max_tries=200):
    """``random_regular_strict`` with the ``np.unique`` row check."""
    rng = np.random.default_rng(seed)
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
        rng.shuffle(stubs)
        u, v = stubs[0::2], stubs[1::2]
        if np.any(u == v):
            continue
        pairs = np.stack([np.minimum(u, v), np.maximum(u, v)], axis=1)
        if np.unique(pairs, axis=0).shape[0] != pairs.shape[0]:
            continue
        topo = Topology(n, pairs)
        if topo.is_connected():
            return topo
    return None


def _same_edges(a, b):
    for name in ("edge_u", "edge_v"):
        x, y = getattr(a, name), getattr(b, name)
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())


class TestScalarKeyDedup:
    """The multi-edge erasure sorts one ``lo * n + hi`` key; it must give
    exactly the rows ``np.unique(..., axis=0)`` gives."""

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize(
        "n,degree", [(2, 1), (3, 2), (15, 3), (64, 7), (301, 19), (1000, 4)]
    )
    def test_unique_edges_match_row_unique(self, n, degree, seed):
        rng = np.random.default_rng(seed)
        # Arbitrary stub pairs, self loops dropped; odd counts included.
        size = n * degree // 2 + seed
        u = rng.integers(0, n, size)
        v = rng.integers(0, n, size)
        keep = u != v
        u, v = u[keep], v[keep]
        got = random_regular._unique_edges(u, v, n)
        lo, hi = np.minimum(u, v), np.maximum(u, v)
        want = np.unique(np.stack([lo, hi], axis=1), axis=0)
        assert got.flags.c_contiguous
        assert (got.dtype, got.shape, got.tobytes()) == (
            want.dtype, want.shape, want.tobytes()
        )

    @pytest.mark.parametrize("connect", [False, True])
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize(
        "n,degree", [(3, 2), (15, 3), (40, 5), (301, 19), (2000, 8)]
    )
    def test_configuration_model_matches_oracle(self, n, degree, seed, connect):
        got = configuration_model(
            n, degree, rng=np.random.default_rng(seed), connect=connect
        )
        _same_edges(got, _row_unique_cm(n, degree, seed, connect))

    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("n,degree", [(10, 3), (20, 4), (30, 3)])
    def test_strict_matches_oracle(self, n, degree, seed):
        want = _row_unique_strict(n, degree, seed)
        if want is None:
            with pytest.raises(TopologyError):
                random_regular_strict(n, degree, rng=np.random.default_rng(seed))
        else:
            got = random_regular_strict(n, degree, rng=np.random.default_rng(seed))
            _same_edges(got, want)


class TestRandomGeometric:
    def test_paper_radius(self):
        assert paper_rgg_radius(10**4) == pytest.approx(
            4.0 * np.sqrt(np.log(10**4))
        )

    def test_connected_after_stitching(self, rng):
        topo = random_geometric(200, radius=1.0, rng=rng)
        assert topo.is_connected()

    def test_positions_returned(self, rng):
        topo, pos = random_geometric(50, radius=3.0, rng=rng, return_positions=True)
        assert pos.shape == (50, 2)
        side = np.sqrt(50)
        assert pos.min() >= 0.0 and pos.max() <= side

    def test_edges_respect_radius(self, rng):
        radius = 2.0
        topo, pos = random_geometric(150, radius=radius, rng=rng, return_positions=True)
        # All original (non-stitched) edges must respect the radius; count
        # violations — only stitching edges (at most #components-1) may exceed.
        dist = np.linalg.norm(pos[topo.edge_u] - pos[topo.edge_v], axis=1)
        assert (dist > radius).sum() <= topo.n
        assert (dist <= radius).sum() >= topo.m_edges - 20

    def test_invalid_parameters(self, rng):
        with pytest.raises(TopologyError):
            random_geometric(1, rng=rng)
        with pytest.raises(TopologyError):
            random_geometric(10, radius=0.0, rng=rng)

    def test_dense_radius_gives_near_complete(self, rng):
        topo = random_geometric(30, radius=100.0, rng=rng)
        assert topo.m_edges == 30 * 29 // 2


class TestStandardGraphs:
    def test_cycle(self):
        topo = cycle(6)
        assert topo.m_edges == 6
        assert topo.min_degree == topo.max_degree == 2

    def test_path(self):
        topo = path(5)
        assert topo.m_edges == 4
        assert topo.degree(0) == 1
        assert topo.degree(2) == 2

    def test_complete(self):
        topo = complete(5)
        assert topo.m_edges == 10
        assert topo.min_degree == 4

    def test_star(self):
        topo = star(7)
        assert topo.degree(0) == 6
        assert topo.max_degree == 6
        assert topo.min_degree == 1

    def test_complete_bipartite(self):
        topo = complete_bipartite(2, 3)
        assert topo.n == 5
        assert topo.m_edges == 6
        assert topo.is_bipartite()

    def test_binary_tree(self):
        topo = binary_tree(3)
        assert topo.n == 15
        assert topo.m_edges == 14
        assert topo.degree(0) == 2

    def test_circulant(self):
        topo = circulant(10, [1, 2])
        assert topo.min_degree == topo.max_degree == 4
        assert topo.is_connected()

    def test_circulant_half_offset(self):
        topo = circulant(6, [3])
        assert topo.m_edges == 3  # perfect matching

    def test_expander_is_connected(self, rng):
        topo = expander(64, rng=rng)
        assert topo.is_connected()

    def test_lollipop_and_barbell(self):
        lolli = lollipop(4, 3)
        assert lolli.n == 7
        assert lolli.is_connected()
        bar = barbell(3, 2)
        assert bar.n == 8
        assert bar.is_connected()

    def test_invalid_sizes(self):
        with pytest.raises(TopologyError):
            cycle(2)
        with pytest.raises(TopologyError):
            path(1)
        with pytest.raises(TopologyError):
            complete(1)
        with pytest.raises(TopologyError):
            star(1)
        with pytest.raises(TopologyError):
            circulant(10, [])
