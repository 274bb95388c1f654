"""Random geometric graphs (RGG).

Section VI-B of the paper: *"The random geometric graphs were generated by
assigning each node a coordinate pair in the range ``[0, sqrt(n)]^2``
uniformly at random and connecting nodes v_i and v_j if and only if
``d(v_i, v_j) <= 4 sqrt(log n)``.  Remaining small isolated components were
connected to the closest neighbor in the largest component."*

This module reproduces exactly that construction, including the component
stitching rule, using a uniform cell grid for neighbour search so the
generator runs in near-linear expected time.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import TopologyError
from .topology import Topology

__all__ = ["random_geometric", "paper_rgg_radius"]


def paper_rgg_radius(n: int) -> float:
    """The paper's connectivity radius ``4 * sqrt(log n)`` (natural log)."""
    if n < 2:
        raise TopologyError(f"need at least two nodes, got n={n}")
    return 4.0 * float(np.sqrt(np.log(n)))


def random_geometric(
    n: int,
    radius: Optional[float] = None,
    rng: Optional[np.random.Generator] = None,
    return_positions: bool = False,
):
    """Random geometric graph on ``[0, sqrt(n)]^2`` with the paper's stitching.

    Parameters
    ----------
    n:
        Number of nodes.
    radius:
        Connection radius; defaults to the paper's ``4 sqrt(log n)``.
    rng:
        Source of randomness.
    return_positions:
        If true, return ``(topology, positions)`` where ``positions`` is the
        ``(n, 2)`` coordinate array; otherwise return just the topology.
    """
    if n < 2:
        raise TopologyError(f"need at least two nodes, got n={n}")
    rng = rng or np.random.default_rng()
    if radius is None:
        radius = paper_rgg_radius(n)
    if radius <= 0:
        raise TopologyError(f"radius must be positive, got {radius}")

    side = float(np.sqrt(n))
    pos = rng.uniform(0.0, side, size=(n, 2))
    edges = _radius_edges(pos, radius, side)
    topo = Topology(n, edges, name=f"rgg-{n}")
    if not topo.is_connected():
        topo = _stitch_to_largest(topo, pos)
    if return_positions:
        return topo, pos
    return topo


def _radius_edges(pos: np.ndarray, radius: float, side: float) -> np.ndarray:
    """All pairs within ``radius``, found via a uniform grid of cells."""
    n = pos.shape[0]
    cell = max(radius, 1e-12)
    grid_dim = max(1, int(np.ceil(side / cell)))
    cx = np.minimum((pos[:, 0] / cell).astype(np.int64), grid_dim - 1)
    cy = np.minimum((pos[:, 1] / cell).astype(np.int64), grid_dim - 1)
    cell_id = cx * grid_dim + cy
    order = np.argsort(cell_id, kind="stable")
    sorted_cells = cell_id[order]
    starts = np.searchsorted(sorted_cells, np.arange(grid_dim * grid_dim))
    ends = np.searchsorted(sorted_cells, np.arange(grid_dim * grid_dim), side="right")

    r2 = radius * radius
    out_u = []
    out_v = []
    # Compare each occupied cell against itself and its E/NE/N/NW neighbours
    # so every unordered cell pair is visited exactly once.
    neighbour_offsets = ((0, 0), (1, 0), (1, 1), (0, 1), (-1, 1))
    occupied = np.unique(cell_id)
    for cid in occupied:
        gx, gy = divmod(int(cid), grid_dim)
        members = order[starts[cid] : ends[cid]]
        for dx, dy in neighbour_offsets:
            nx_, ny_ = gx + dx, gy + dy
            if not (0 <= nx_ < grid_dim and 0 <= ny_ < grid_dim):
                continue
            ncid = nx_ * grid_dim + ny_
            others = order[starts[ncid] : ends[ncid]]
            if others.size == 0 or members.size == 0:
                continue
            if ncid == cid:
                if members.size < 2:
                    continue
                diff = pos[members][:, None, :] - pos[members][None, :, :]
                d2 = np.einsum("ijk,ijk->ij", diff, diff)
                a_idx, b_idx = np.nonzero(np.triu(d2 <= r2, k=1))
                out_u.append(members[a_idx])
                out_v.append(members[b_idx])
            else:
                diff = pos[members][:, None, :] - pos[others][None, :, :]
                d2 = np.einsum("ijk,ijk->ij", diff, diff)
                a_idx, b_idx = np.nonzero(d2 <= r2)
                out_u.append(members[a_idx])
                out_v.append(others[b_idx])
    if not out_u:
        return np.empty((0, 2), dtype=np.int64)
    u = np.concatenate(out_u)
    v = np.concatenate(out_v)
    return np.stack([u, v], axis=1)


def _stitch_to_largest(topo: Topology, pos: np.ndarray) -> Topology:
    """Connect every small component to its *closest* node in the largest one.

    This mirrors the paper: "Remaining small isolated components were
    connected to the closest neighbor in the largest component of the graph."
    """
    components = topo.connected_components()
    components.sort(key=len, reverse=True)
    main = components[0]
    extra = []
    for comp in components[1:]:
        diff = pos[comp][:, None, :] - pos[main][None, :, :]
        d2 = np.einsum("ijk,ijk->ij", diff, diff)
        flat = int(np.argmin(d2))
        a_idx, b_idx = divmod(flat, main.size)
        extra.append((int(comp[a_idx]), int(main[b_idx])))
    edges = np.concatenate(
        [np.column_stack([topo.edge_u, topo.edge_v]),
         np.array(extra, dtype=np.int64).reshape(-1, 2)]
    )
    return Topology(topo.n, edges, name=topo.name)
