"""The one excess-token dispatch of the numpy tier (`_excess_token_slots`).

The batched and staleness engines, dense and tiled, all route the
paper's excess tokens (Observation 1) through this function, so its
contract is pinned here directly: the node-tile split never changes the
output, each replica's stream advances by exactly its own token count,
and a replica without surplus draws nothing.
"""

import numpy as np
import pytest

from repro.engines.batched import (
    _TokenScratch,
    _excess_token_slots,
    _padded_adjacency,
    _slot_take,
    _tiles,
)
from repro.graphs import lollipop

#: irregular degrees (1..6): every node but the hub has padding slots
TOPO = lollipop(6, 4)
TOL = 1e-9


def _pn_plane(B, seed=0, idle=()):
    """The batched engine's P/N outgoing-fraction plane for random signed
    fractional flows; replicas in ``idle`` carry no fractions at all."""
    m = TOPO.m_edges
    fsg = np.random.default_rng(seed).uniform(-1.0, 1.0, (m, B))
    fsg[:, list(idle)] = 0.0
    pn = np.zeros((2 * (m + 1), B))
    np.maximum(fsg, 0.0, out=pn[:m])
    np.subtract(pn[:m], fsg, out=pn[m + 1 : 2 * m + 1])
    return pn


def _dispatch(pn, tile, keys):
    dmax, adj_edges, slot_dirs = _padded_adjacency(TOPO)
    take = _slot_take(adj_edges, slot_dirs, TOPO.m_edges)
    rngs = [np.random.default_rng(key) for key in keys]
    planes = np.empty((dmax, tile, pn.shape[1]))
    out = _excess_token_slots(
        pn, take, _tiles(TOPO.n, tile), planes, rngs, TOL, _TokenScratch()
    )
    return out, rngs, slot_dirs


def _token_counts(pn):
    """Per-replica token totals: sum over senders of ceil(r - tol), with
    r accumulated over the slots in the dispatch's order."""
    dmax, adj_edges, slot_dirs = _padded_adjacency(TOPO)
    take = _slot_take(adj_edges, slot_dirs, TOPO.m_edges)
    r = pn[take[0]]
    for j in range(1, dmax):
        r = pn[take[j]] + r
    return np.ceil(r - TOL).astype(np.int64).sum(axis=0)


@pytest.mark.parametrize("B", [1, 4])
def test_tile_split_gives_identical_slots(B):
    pn = _pn_plane(B)
    (slot, col), _, slot_dirs = _dispatch(pn, TOPO.n, range(B))
    assert slot.size > 0
    assert slot_dirs.ravel()[slot].all()  # every moved token hits a real slot
    assert col.max() < B
    for tile in (1, 3):
        (t_slot, t_col), _, _ = _dispatch(pn, tile, range(B))
        np.testing.assert_array_equal(t_slot, slot)
        np.testing.assert_array_equal(t_col, col)


@pytest.mark.parametrize("tile", [1, 3, TOPO.n])
def test_streams_advance_by_own_token_count(tile):
    B = 5
    pn = _pn_plane(B, seed=1)
    keys = [11, 7, 3, 42, 5]
    _, rngs, _ = _dispatch(pn, tile, keys)
    counts = _token_counts(pn)
    assert (counts > 0).all()
    for key, rng, count in zip(keys, rngs, counts):
        fresh = np.random.default_rng(key)
        fresh.random(int(count))
        assert rng.bit_generator.state == fresh.bit_generator.state


def test_zero_budget_replica_draws_nothing():
    B = 3
    pn = _pn_plane(B, seed=2, idle=(1,))
    (_, col), rngs, _ = _dispatch(pn, 3, range(B))
    assert 1 not in col
    assert rngs[1].bit_generator.state == np.random.default_rng(1).bit_generator.state
    assert rngs[0].bit_generator.state != np.random.default_rng(0).bit_generator.state


def test_no_surplus_no_tokens():
    pn = _pn_plane(2, idle=(0, 1))
    out, rngs, _ = _dispatch(pn, TOPO.n, range(2))
    assert out is None
    for key, rng in enumerate(rngs):
        assert rng.bit_generator.state == np.random.default_rng(key).bit_generator.state
