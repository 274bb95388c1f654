"""Random (near-)regular graphs via the configuration model.

Table I of the paper uses a "Random Graph (CM)" with ``n = 10^6`` nodes and
degree ``d = floor(log2 n)``; CM stands for the configuration model of
Wormald (reference [22] in the paper).  This module implements the
configuration model from scratch:

* every node receives ``d`` half-edges (stubs),
* stubs are paired uniformly at random,
* self loops and duplicate edges are discarded (the *erased* configuration
  model), which for ``d = O(log n)`` removes only a vanishing fraction of
  edges and keeps the graph asymptotically ``d``-regular.

A strict variant that retries until a simple ``d``-regular graph is found is
provided for small instances.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from ..exceptions import TopologyError
from .topology import Topology

__all__ = ["configuration_model", "random_regular_strict", "paper_cm_degree"]


def paper_cm_degree(n: int) -> int:
    """The paper's degree choice for configuration-model graphs.

    Table I uses ``d = floor(log2 n)``; for ``n = 10^6`` this gives the
    ``d = 19`` quoted in Figure 12.
    """
    if n < 2:
        raise TopologyError(f"need at least two nodes, got n={n}")
    return int(np.floor(np.log2(n)))


def configuration_model(
    n: int,
    degree: Optional[int] = None,
    rng: Optional[np.random.Generator] = None,
    connect: bool = True,
) -> Topology:
    """Erased configuration-model graph with target degree ``degree``.

    Parameters
    ----------
    n:
        Number of nodes.
    degree:
        Stub count per node; defaults to the paper's ``floor(log2 n)``.
    rng:
        Source of randomness (defaults to a fresh default generator).
    connect:
        If true (default), nodes that end up isolated or in small components
        after erasure are stitched to the largest component by a single edge,
        mirroring the paper's treatment of random geometric graphs and
        guaranteeing the balancing process can reach every node.
    """
    if n < 2:
        raise TopologyError(f"need at least two nodes, got n={n}")
    if degree is None:
        degree = paper_cm_degree(n)
    if degree < 1 or degree >= n:
        raise TopologyError(f"degree must be in [1, n-1], got {degree}")
    rng = rng or np.random.default_rng()

    stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
    if stubs.size % 2 == 1:
        stubs = stubs[:-1]  # drop one stub to make the pairing possible
    rng.shuffle(stubs)
    u = stubs[0::2]
    v = stubs[1::2]
    keep = u != v
    u, v = u[keep], v[keep]
    pairs = _unique_edges(u, v, n)

    topo = Topology(n, pairs, name=f"cm-{n}-d{degree}")
    if connect and not topo.is_connected():
        topo = _stitch_components(topo, rng)
    return topo


def random_regular_strict(
    n: int, degree: int, rng: Optional[np.random.Generator] = None, max_tries: int = 200
) -> Topology:
    """Exactly ``degree``-regular simple graph by rejection sampling.

    Repeatedly runs the configuration model pairing and rejects any outcome
    with self loops or multi-edges.  Only practical for small ``n * degree``
    (the acceptance probability decays roughly like
    ``exp(-(d^2-1)/4)``); intended for tests and small experiments.
    """
    if n < 2 or degree < 1 or degree >= n or (n * degree) % 2 == 1:
        raise TopologyError(
            f"no {degree}-regular simple graph on {n} nodes (parity/range check)"
        )
    rng = rng or np.random.default_rng()
    for _ in range(max_tries):
        stubs = np.repeat(np.arange(n, dtype=np.int64), degree)
        rng.shuffle(stubs)
        u = stubs[0::2]
        v = stubs[1::2]
        if np.any(u == v):
            continue
        pairs = _unique_edges(u, v, n)
        if pairs.shape[0] != u.size:
            continue
        topo = Topology(n, pairs, name=f"rr-{n}-d{degree}")
        if topo.is_connected():
            return topo
    raise TopologyError(
        f"failed to sample a connected {degree}-regular graph on {n} nodes "
        f"after {max_tries} tries"
    )


def _unique_edges(u: np.ndarray, v: np.ndarray, n: int) -> np.ndarray:
    """The distinct edges of the stub pairs ``(u, v)`` (no self loops) as
    ``(lo, hi)`` rows in lexicographic order — ``np.unique`` of the rows,
    without its row sort: the scalar key ``lo * n + hi`` sorts in the
    same order, and equal keys are the same edge."""
    key = np.sort(np.minimum(u, v) * n + np.maximum(u, v))
    first = np.ones(key.size, dtype=bool)
    first[1:] = key[1:] != key[:-1]
    key = key[first]
    return np.stack([key // n, key % n], axis=1)


def _stitch_components(topo: Topology, rng: np.random.Generator) -> Topology:
    """Connect all components to the largest one with single random edges."""
    components = topo.connected_components()
    components.sort(key=len, reverse=True)
    main = components[0]
    extra = []
    for comp in components[1:]:
        a = int(rng.choice(comp))
        b = int(rng.choice(main))
        extra.append((a, b))
    edges = np.concatenate(
        [np.column_stack([topo.edge_u, topo.edge_v]),
         np.array(extra, dtype=np.int64).reshape(-1, 2)]
    )
    return Topology(topo.n, edges, name=topo.name)
