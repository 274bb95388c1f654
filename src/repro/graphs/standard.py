"""Standard small graph families.

These are not part of the paper's Table I but are used throughout the test
suite and the theory-validation benches: cycles and paths have tiny spectral
gaps (slow diffusion), complete graphs balance in one continuous round, stars
exhibit the maximum-degree effects the deviation bounds depend on, and
expanders (here: supercharged random circulants) have constant gaps.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from ..exceptions import TopologyError
from .topology import Topology

__all__ = [
    "cycle",
    "path",
    "complete",
    "star",
    "complete_bipartite",
    "binary_tree",
    "circulant",
    "lollipop",
    "barbell",
]


def cycle(n: int) -> Topology:
    """Cycle graph ``C_n`` (``n >= 3``)."""
    if n < 3:
        raise TopologyError(f"cycle needs n >= 3, got {n}")
    nodes = np.arange(n, dtype=np.int64)
    return Topology(n, np.stack([nodes, (nodes + 1) % n], axis=1), name=f"cycle-{n}")


def path(n: int) -> Topology:
    """Path graph ``P_n`` (``n >= 2``)."""
    if n < 2:
        raise TopologyError(f"path needs n >= 2, got {n}")
    nodes = np.arange(n - 1, dtype=np.int64)
    return Topology(n, np.stack([nodes, nodes + 1], axis=1), name=f"path-{n}")


def complete(n: int) -> Topology:
    """Complete graph ``K_n`` (``n >= 2``)."""
    if n < 2:
        raise TopologyError(f"complete graph needs n >= 2, got {n}")
    u, v = np.triu_indices(n, k=1)
    return Topology(n, np.stack([u, v], axis=1), name=f"complete-{n}")


def star(n: int) -> Topology:
    """Star graph: node 0 is the hub connected to ``1 .. n-1``."""
    if n < 2:
        raise TopologyError(f"star needs n >= 2, got {n}")
    leaves = np.arange(1, n, dtype=np.int64)
    hub = np.zeros(n - 1, dtype=np.int64)
    return Topology(n, np.stack([hub, leaves], axis=1), name=f"star-{n}")


def complete_bipartite(a: int, b: int) -> Topology:
    """Complete bipartite graph ``K_{a,b}``; left part is ``0 .. a-1``."""
    if a < 1 or b < 1:
        raise TopologyError(f"K_(a,b) needs a, b >= 1, got ({a}, {b})")
    left = np.repeat(np.arange(a, dtype=np.int64), b)
    right = np.tile(np.arange(a, a + b, dtype=np.int64), a)
    return Topology(a + b, np.stack([left, right], axis=1), name=f"kbipartite-{a}x{b}")


def binary_tree(depth: int) -> Topology:
    """Complete binary tree of the given ``depth`` (root only at depth 0)."""
    if depth < 0:
        raise TopologyError(f"depth must be >= 0, got {depth}")
    n = (1 << (depth + 1)) - 1
    if n == 1:
        return Topology(1, [], name="btree-0")
    children = np.arange(1, n, dtype=np.int64)
    parents = (children - 1) // 2
    return Topology(n, np.stack([parents, children], axis=1), name=f"btree-{depth}")


def circulant(n: int, offsets: Sequence[int]) -> Topology:
    """Circulant graph: node ``i`` connects to ``i ± k (mod n)`` per offset.

    With random offsets of size ``Theta(log n)`` these are good expanders and
    serve as the expander family in the ablation benches.
    """
    if n < 3:
        raise TopologyError(f"circulant needs n >= 3, got {n}")
    offs = sorted({int(k) % n for k in offsets} - {0})
    if not offs:
        raise TopologyError("circulant needs at least one non-zero offset")
    nodes = np.arange(n, dtype=np.int64)
    pairs = []
    for k in offs:
        if 2 * k == n:
            half = nodes[: n // 2]
            pairs.append(np.stack([half, half + k], axis=1))
        elif k < n - k:
            pairs.append(np.stack([nodes, (nodes + k) % n], axis=1))
    # Distinct offsets give edges of distinct circular distance, so the
    # pairs are already distinct.
    return Topology(n, np.concatenate(pairs, axis=0), name=f"circulant-{n}")


def expander(n: int, rng: Optional[np.random.Generator] = None) -> Topology:
    """A random circulant expander with ``Theta(log n)`` offsets."""
    rng = rng or np.random.default_rng()
    k = max(3, int(np.ceil(np.log2(max(n, 4)))))
    offsets = rng.choice(np.arange(1, n // 2 + 1), size=min(k, n // 2), replace=False)
    topo = circulant(n, offsets.tolist())
    return Topology(
        topo.n, np.column_stack([topo.edge_u, topo.edge_v]), name=f"expander-{n}"
    )


def lollipop(clique: int, tail: int) -> Topology:
    """Lollipop graph: ``K_clique`` with a path of ``tail`` extra nodes.

    A classic worst case for diffusion; used in stress tests.
    """
    if clique < 2 or tail < 1:
        raise TopologyError(f"lollipop needs clique >= 2 and tail >= 1")
    u, v = np.triu_indices(clique, k=1)
    edges = list(zip(u.tolist(), v.tolist()))
    prev = clique - 1
    for i in range(tail):
        node = clique + i
        edges.append((prev, node))
        prev = node
    return Topology(clique + tail, edges, name=f"lollipop-{clique}-{tail}")


def barbell(clique: int, bridge: int) -> Topology:
    """Two ``K_clique`` cliques joined by a path of ``bridge`` nodes."""
    if clique < 2 or bridge < 0:
        raise TopologyError("barbell needs clique >= 2 and bridge >= 0")
    u, v = np.triu_indices(clique, k=1)
    edges = list(zip(u.tolist(), v.tolist()))
    offset = clique + bridge
    edges += [(offset + a, offset + b) for a, b in zip(u.tolist(), v.tolist())]
    chain = [clique - 1] + [clique + i for i in range(bridge)] + [offset]
    edges += list(zip(chain[:-1], chain[1:]))
    return Topology(2 * clique + bridge, edges, name=f"barbell-{clique}-{bridge}")


# Re-export expander explicitly (defined above without forward declaration).
__all__.append("expander")
