"""Diffusion matrix construction and validation.

The continuous first-order scheme is ``x(t+1) = M x(t)``.  In the
heterogeneous model (Section II-c of the paper) ``M = I - L_alpha S^{-1}``
where ``L_alpha`` is the alpha-weighted Laplacian and ``S = diag(s)``; entry
by entry this is

* ``M_ij = alpha_ij / s_j`` for edges ``{i, j}``,
* ``M_ii = 1 - (sum_{j in N(i)} alpha_ij) / s_i``,

which gives unit column sums (load conservation), ``M s = s`` (the speed
vector is stationary) and, for valid alphas, non-negative entries.  With unit
speeds ``M`` is the symmetric doubly stochastic matrix of equation (2).

Dense matrices are fine up to a few thousand nodes; the simulation engines
never materialise ``M`` (they work edge-wise), so these helpers exist for
spectral analysis and for the theory-validation test-suite.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..graphs.speeds import uniform_speeds, validate_speeds
from ..graphs.topology import Topology
from .alphas import resolve_alphas

if TYPE_CHECKING:
    import scipy.sparse as sp

__all__ = [
    "diffusion_matrix",
    "diffusion_matrix_sparse",
    "symmetrized_matrix",
    "weighted_laplacian",
    "check_diffusion_matrix",
]


def weighted_laplacian(topo: Topology, alphas: np.ndarray) -> np.ndarray:
    """Dense alpha-weighted Laplacian ``L_alpha`` (symmetric, zero row sums)."""
    if alphas.shape != (topo.m_edges,):
        raise ConfigurationError(
            f"alpha array has shape {alphas.shape}, expected ({topo.m_edges},)"
        )
    lap = np.zeros((topo.n, topo.n), dtype=np.float64)
    u, v = topo.edge_u, topo.edge_v
    lap[u, v] = -alphas
    lap[v, u] = -alphas
    diag = np.zeros(topo.n, dtype=np.float64)
    np.add.at(diag, u, alphas)
    np.add.at(diag, v, alphas)
    lap[np.arange(topo.n), np.arange(topo.n)] = diag
    return lap


def diffusion_matrix(
    topo: Topology,
    speeds: Optional[np.ndarray] = None,
    alphas=None,
) -> np.ndarray:
    """Dense diffusion matrix ``M = I - L_alpha S^{-1}``.

    Parameters
    ----------
    topo:
        The network.
    speeds:
        Heterogeneous speed vector (defaults to all ones — the homogeneous
        model of equation (2)).
    alphas:
        Anything accepted by :func:`repro.core.alphas.resolve_alphas`.
    """
    speeds = validate_speeds(speeds if speeds is not None else uniform_speeds(topo.n), topo.n)
    alpha_arr = resolve_alphas(alphas, topo, speeds)
    lap = weighted_laplacian(topo, alpha_arr)
    m = -lap / speeds[np.newaxis, :]
    m[np.arange(topo.n), np.arange(topo.n)] += 1.0
    return m


def diffusion_matrix_sparse(
    topo: Topology,
    speeds: Optional[np.ndarray] = None,
    alphas=None,
) -> sp.csr_matrix:
    """Sparse CSR version of :func:`diffusion_matrix` for large graphs."""
    import scipy.sparse as sp

    speeds = validate_speeds(speeds if speeds is not None else uniform_speeds(topo.n), topo.n)
    alpha_arr = resolve_alphas(alphas, topo, speeds)
    u, v = topo.edge_u, topo.edge_v
    diag_load = np.zeros(topo.n, dtype=np.float64)
    np.add.at(diag_load, u, alpha_arr)
    np.add.at(diag_load, v, alpha_arr)
    rows = np.concatenate([u, v, np.arange(topo.n)])
    cols = np.concatenate([v, u, np.arange(topo.n)])
    vals = np.concatenate(
        [
            alpha_arr / speeds[v],
            alpha_arr / speeds[u],
            1.0 - diag_load / speeds,
        ]
    )
    return sp.csr_matrix((vals, (rows, cols)), shape=(topo.n, topo.n))


def symmetrized_matrix(
    topo: Topology,
    speeds: Optional[np.ndarray] = None,
    alphas=None,
    sparse: bool = False,
):
    """The symmetric similarity transform ``S^{-1/2} M S^{1/2}``.

    ``M = I - L S^{-1}`` is generally not symmetric, but
    ``S^{-1/2} M S^{1/2} = I - S^{-1/2} L S^{-1/2}`` is, shares all
    eigenvalues with ``M``, and can be handed to symmetric eigensolvers.
    Returns ``(A_sym, sqrt_speeds)``.
    """
    speeds = validate_speeds(speeds if speeds is not None else uniform_speeds(topo.n), topo.n)
    sqrt_s = np.sqrt(speeds)
    if sparse:
        import scipy.sparse as sp

        m = diffusion_matrix_sparse(topo, speeds, alphas)
        d_inv = sp.diags(1.0 / sqrt_s)
        d = sp.diags(sqrt_s)
        sym = d_inv @ m @ d
        sym = (sym + sym.T) * 0.5  # kill round-off asymmetry
        return sym.tocsr(), sqrt_s
    m = diffusion_matrix(topo, speeds, alphas)
    sym = m * (sqrt_s[np.newaxis, :] / sqrt_s[:, np.newaxis])
    sym = (sym + sym.T) * 0.5
    return sym, sqrt_s


def check_diffusion_matrix(
    m: np.ndarray,
    speeds: Optional[np.ndarray] = None,
    atol: float = 1e-10,
) -> Tuple[bool, str]:
    """Validate the structural properties the paper's analysis relies on.

    Checks: unit column sums (load conservation), non-negative entries,
    ``M s = s`` (the speed vector is a fixed point), and — when the speeds
    are uniform — symmetry (equation (2) requires a symmetric doubly
    stochastic matrix).  Returns ``(ok, message)``.
    """
    n = m.shape[0]
    if m.shape != (n, n):
        return False, f"matrix is not square: {m.shape}"
    speeds = np.ones(n) if speeds is None else np.asarray(speeds, dtype=np.float64)
    col_sums = m.sum(axis=0)
    if not np.allclose(col_sums, 1.0, atol=atol):
        worst = float(np.abs(col_sums - 1.0).max())
        return False, f"column sums deviate from 1 by up to {worst:.3e}"
    if m.min() < -atol:
        return False, f"negative entry {m.min():.3e}"
    if not np.allclose(m @ speeds, speeds, atol=atol * max(1.0, float(speeds.max()))):
        return False, "speed vector is not a fixed point of M"
    if np.allclose(speeds, speeds[0]) and not np.allclose(m, m.T, atol=atol):
        return False, "homogeneous M must be symmetric"
    return True, "ok"
