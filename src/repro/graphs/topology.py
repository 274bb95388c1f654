"""Graph topology substrate.

:class:`Topology` is the numpy-first graph representation used by every
simulation engine in this library.  It stores an undirected simple graph as

* an edge list (two parallel ``int64`` arrays ``edge_u``/``edge_v`` with
  ``edge_u[k] < edge_v[k]`` for every edge ``k``), and
* a CSR-style adjacency structure (``adj_indptr``/``adj_indices``) that maps
  each node to its sorted neighbour list, plus ``adj_edge_ids`` giving the
  edge id of each incidence so per-edge quantities (flows, alphas) can be
  gathered per node without searching.

The class is immutable after construction; generators in the sibling modules
return fully validated instances.
"""

from __future__ import annotations

from typing import Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import TopologyError

__all__ = ["Topology"]


class Topology:
    """An immutable undirected simple graph with numpy adjacency structures.

    Parameters
    ----------
    n:
        Number of nodes; nodes are the integers ``0 .. n-1``.
    edges:
        Iterable of ``(u, v)`` pairs.  Self loops and duplicate edges are
        rejected.  The pair order does not matter.  An ``(m, 2)`` integer
        ndarray is consumed as an array, with no Python round-trip (no
        per-edge objects), so paper-scale builders should pass one; the
        caller's array is never written to or kept.
    name:
        Optional human-readable name used in reports and ``repr``.

    Notes
    -----
    The paper models the network as an undirected graph ``G = (V, E)`` whose
    nodes are processors and whose edges are communication links; all
    balancing algorithms in :mod:`repro.core` operate on this class.
    """

    __slots__ = (
        "n",
        "m_edges",
        "edge_u",
        "edge_v",
        "adj_indptr",
        "adj_indices",
        "adj_edge_ids",
        "degrees",
        "name",
        "grid_shape",
        "cube_dim",
        "link_latency",
        "link_bandwidth",
    )

    def __init__(self, n: int, edges: Iterable[Tuple[int, int]], name: str = "graph"):
        if n <= 0:
            raise TopologyError(f"graph must have at least one node, got n={n}")
        if not isinstance(edges, np.ndarray):
            edges = list(edges)
        edge_array = np.asarray(edges, dtype=np.int64)
        if edge_array.size == 0:
            edge_array = edge_array.reshape(0, 2)
        if edge_array.ndim != 2 or edge_array.shape[1] != 2:
            raise TopologyError("edges must be an iterable of (u, v) pairs")
        if edge_array.size and (edge_array.min() < 0 or edge_array.max() >= n):
            raise TopologyError(
                f"edge endpoint out of range for n={n}: "
                f"min={edge_array.min()}, max={edge_array.max()}"
            )

        u = np.minimum(edge_array[:, 0], edge_array[:, 1])
        v = np.maximum(edge_array[:, 0], edge_array[:, 1])
        if np.any(u == v):
            bad = int(u[np.argmax(u == v)])
            raise TopologyError(f"self loop at node {bad} is not allowed")

        # Sort by (u, v), as one stable sort of the key u * n + v.
        order = np.argsort(u * n + v, kind="stable")
        u, v = u[order], v[order]
        if u.size > 1:
            dup = (u[1:] == u[:-1]) & (v[1:] == v[:-1])
            if np.any(dup):
                k = int(np.argmax(dup))
                raise TopologyError(f"duplicate edge ({int(u[k])}, {int(v[k])})")

        self.n = int(n)
        self.m_edges = int(u.size)
        self.edge_u = u
        self.edge_v = v
        self.name = name
        #: Optional spectral hint set by structured-graph builders: the side
        #: lengths of a full-wrap torus whose node ``(c_1, ..., c_k)`` has id
        #: ``ravel_multi_index(c, grid_shape)``.  ``None`` for every other
        #: graph.  Engines use it to switch to closed-form Fourier kernels;
        #: it carries no structural information beyond the edge list.
        self.grid_shape: Optional[Tuple[int, ...]] = None
        #: Optional spectral hint set by the hypercube builder: the cube
        #: dimension ``k`` of a ``2**k``-node hypercube whose node ids are
        #: the bit vectors.  ``None`` for every other graph.  Engines use
        #: it to switch to the Walsh–Hadamard closed-form kernel, exactly
        #: like ``grid_shape`` selects the torus Fourier kernel.
        self.cube_dim: Optional[int] = None
        #: Optional per-edge message latency in rounds (``(m_edges,)``
        #: float64, aligned with ``edge_u``/``edge_v``), the pyFogSim
        #: ``LINK_PR`` analogue.  ``None`` means the synchronous 0-latency
        #: regime; only the async engine reads it.  Set via
        #: :meth:`stamp_link_attrs`.
        self.link_latency: Optional[np.ndarray] = None
        #: Optional per-edge bandwidth in tokens per round (``LINK_BW``
        #: analogue): a message of size ``s`` occupies the link for
        #: ``s / bandwidth`` rounds on top of the latency.  ``None`` means
        #: infinite bandwidth.
        self.link_bandwidth: Optional[np.ndarray] = None

        # Build CSR adjacency: bucket every incidence (node, neighbour, edge
        # id) by node with one stable sort.  Listing each edge's ``v`` side
        # first keeps every row sorted by neighbour and by edge id, since
        # the edges are already sorted by ``(u, v)``.
        inc_nodes = np.concatenate([v, u])
        csr_order = np.argsort(inc_nodes, kind="stable")
        self.adj_indices = np.concatenate([u, v])[csr_order]
        self.adj_edge_ids = csr_order % max(self.m_edges, 1)
        self.degrees = np.bincount(inc_nodes, minlength=self.n).astype(np.int64)
        self.adj_indptr = np.zeros(self.n + 1, dtype=np.int64)
        np.cumsum(self.degrees, out=self.adj_indptr[1:])

        for arr in (
            self.edge_u,
            self.edge_v,
            self.adj_indptr,
            self.adj_indices,
            self.adj_edge_ids,
            self.degrees,
        ):
            arr.setflags(write=False)

    # ------------------------------------------------------------------
    # Basic accessors
    # ------------------------------------------------------------------
    def neighbors(self, node: int) -> np.ndarray:
        """Sorted neighbour ids of ``node`` (read-only view)."""
        lo, hi = self.adj_indptr[node], self.adj_indptr[node + 1]
        return self.adj_indices[lo:hi]

    def incident_edges(self, node: int) -> np.ndarray:
        """Edge ids incident to ``node``, aligned with :meth:`neighbors`."""
        lo, hi = self.adj_indptr[node], self.adj_indptr[node + 1]
        return self.adj_edge_ids[lo:hi]

    def degree(self, node: int) -> int:
        """Degree of ``node``."""
        return int(self.degrees[node])

    @property
    def max_degree(self) -> int:
        """Maximum degree ``d`` of the graph (0 for an edgeless graph)."""
        return int(self.degrees.max()) if self.n else 0

    @property
    def min_degree(self) -> int:
        """Minimum degree of the graph."""
        return int(self.degrees.min()) if self.n else 0

    def edges(self) -> Iterator[Tuple[int, int]]:
        """Iterate over edges as ``(u, v)`` with ``u < v``."""
        for k in range(self.m_edges):
            yield int(self.edge_u[k]), int(self.edge_v[k])

    def edge_id(self, u: int, v: int) -> int:
        """Return the edge id of ``{u, v}``.

        Raises
        ------
        TopologyError
            If ``{u, v}`` is not an edge of the graph.
        """
        if not self.has_edge(u, v):
            raise TopologyError(f"({u}, {v}) is not an edge of {self.name}")
        pos = self.adj_indptr[u] + np.searchsorted(self.neighbors(u), v)
        return int(self.adj_edge_ids[pos])

    def stamp_link_attrs(
        self,
        latency: Optional[object] = None,
        bandwidth: Optional[object] = None,
    ) -> "Topology":
        """Attach per-edge link attributes; returns ``self`` for chaining.

        ``latency`` (rounds, >= 0) and ``bandwidth`` (tokens/round, > 0) are
        each a scalar broadcast over every edge or an ``(m_edges,)`` array
        aligned with ``edge_u``/``edge_v``.  ``None`` leaves the attribute
        unset (synchronous latency / infinite bandwidth).  Like the spectral
        hints these are advisory: only the async engine reads them, and they
        do not participate in equality or hashing.
        """
        if latency is not None:
            arr = np.broadcast_to(
                np.asarray(latency, dtype=np.float64), (self.m_edges,)
            ).copy()
            if np.any(arr < 0.0) or not np.all(np.isfinite(arr)):
                raise TopologyError("link latency must be finite and >= 0")
            arr.setflags(write=False)
            self.link_latency = arr
        if bandwidth is not None:
            arr = np.broadcast_to(
                np.asarray(bandwidth, dtype=np.float64), (self.m_edges,)
            ).copy()
            if np.any(arr <= 0.0):
                raise TopologyError("link bandwidth must be > 0")
            arr.setflags(write=False)
            self.link_bandwidth = arr
        return self

    def has_edge(self, u: int, v: int) -> bool:
        """Whether ``{u, v}`` is an edge."""
        if not (0 <= u < self.n and 0 <= v < self.n) or u == v:
            return False
        neigh = self.neighbors(u)
        pos = np.searchsorted(neigh, v)
        return pos < neigh.size and neigh[pos] == v

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def is_connected(self) -> bool:
        """Whether the graph is connected."""
        return int(self._component_labels().max()) == 0

    def _component_labels(self) -> np.ndarray:
        """Per-node connected-component labels ``0 .. k-1``, numbered in
        order of each component's smallest node (scipy's traversal of the
        CSR adjacency visits the nodes in id order).

        The adjacency is symmetric, so its strong components are the
        undirected ones; asking for them directly spares scipy the
        transpose it adds for ``directed=False``."""
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import connected_components

        graph = csr_matrix(
            (np.ones(self.adj_indices.size, dtype=np.int8), self.adj_indices,
             self.adj_indptr),
            shape=(self.n, self.n),
        )
        return connected_components(
            graph, directed=True, connection="strong"
        )[1]

    def component_of(self, start: int) -> np.ndarray:
        """Node ids of the connected component containing ``start``."""
        labels = self._component_labels()
        return np.nonzero(labels == labels[start])[0]

    def connected_components(self) -> List[np.ndarray]:
        """All connected components, each as a sorted node-id array, in
        order of their smallest node."""
        labels = self._component_labels()
        by_label = np.argsort(labels, kind="stable")
        return np.split(by_label, np.cumsum(np.bincount(labels))[:-1])

    def require_connected(self) -> "Topology":
        """Return ``self``; raise :class:`TopologyError` if disconnected."""
        if not self.is_connected():
            raise TopologyError(f"{self.name} is not connected")
        return self

    def is_bipartite(self) -> bool:
        """Whether the graph is bipartite (2-colourable).

        Bipartite structure matters for diffusion: non-lazy diffusion matrices
        on bipartite graphs have eigenvalue ``-1`` and fail to converge, which
        is why the standard ``alpha = 1/(max degree + 1)`` choice keeps a lazy
        self weight.
        """
        color = np.full(self.n, -1, dtype=np.int8)
        for start in range(self.n):
            if color[start] != -1:
                continue
            color[start] = 0
            frontier = [start]
            while frontier:
                nxt: List[int] = []
                for node in frontier:
                    for nb in self.neighbors(node):
                        if color[nb] == -1:
                            color[nb] = 1 - color[node]
                            nxt.append(int(nb))
                        elif color[nb] == color[node]:
                            return False
                frontier = nxt
        return True

    def diameter_lower_bound(self, start: int = 0) -> int:
        """Eccentricity of ``start`` — a cheap lower bound on the diameter."""
        dist = np.full(self.n, -1, dtype=np.int64)
        dist[start] = 0
        frontier = [start]
        d = 0
        while frontier:
            d += 1
            nxt: List[int] = []
            for node in frontier:
                for nb in self.neighbors(node):
                    if dist[nb] < 0:
                        dist[nb] = d
                        nxt.append(int(nb))
            frontier = nxt
        return int(dist.max())

    # ------------------------------------------------------------------
    # Conversions
    # ------------------------------------------------------------------
    def adjacency_matrix(self) -> np.ndarray:
        """Dense ``n x n`` 0/1 adjacency matrix (float64)."""
        a = np.zeros((self.n, self.n), dtype=np.float64)
        a[self.edge_u, self.edge_v] = 1.0
        a[self.edge_v, self.edge_u] = 1.0
        return a

    def laplacian_matrix(self) -> np.ndarray:
        """Dense combinatorial Laplacian ``D - A``."""
        lap = -self.adjacency_matrix()
        lap[np.arange(self.n), np.arange(self.n)] = self.degrees
        return lap

    def to_networkx(self):
        """Convert to a :class:`networkx.Graph` (lazy import)."""
        import networkx as nx

        g = nx.Graph(name=self.name)
        g.add_nodes_from(range(self.n))
        g.add_edges_from(zip(self.edge_u.tolist(), self.edge_v.tolist()))
        return g

    @classmethod
    def from_networkx(cls, graph, name: Optional[str] = None) -> "Topology":
        """Build a :class:`Topology` from a :class:`networkx.Graph`.

        Node labels are relabelled to ``0 .. n-1`` in sorted order.
        """
        nodes = sorted(graph.nodes())
        index = {node: i for i, node in enumerate(nodes)}
        edges = [(index[a], index[b]) for a, b in graph.edges()]
        return cls(len(nodes), edges, name=name or getattr(graph, "name", "") or "graph")

    @classmethod
    def from_edge_list(
        cls, edges: Sequence[Tuple[int, int]], n: Optional[int] = None, name: str = "graph"
    ) -> "Topology":
        """Build from an edge list, inferring ``n`` as ``max endpoint + 1``."""
        if n is None:
            n = 1 + max((max(a, b) for a, b in edges), default=-1)
            if n <= 0:
                raise TopologyError("cannot infer node count from an empty edge list")
        return cls(n, edges, name=name)

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return f"Topology(name={self.name!r}, n={self.n}, m={self.m_edges})"

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Topology):
            return NotImplemented
        return (
            self.n == other.n
            and self.m_edges == other.m_edges
            and bool(np.array_equal(self.edge_u, other.edge_u))
            and bool(np.array_equal(self.edge_v, other.edge_v))
        )

    def __hash__(self) -> int:
        return hash((self.n, self.m_edges, self.edge_u.tobytes(), self.edge_v.tobytes()))
