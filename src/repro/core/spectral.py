"""Spectral toolkit: ``lambda``, ``beta_opt``, analytic spectra and ``Q(t)``.

The convergence of both schemes is governed by ``lambda``, the second largest
eigenvalue *in magnitude* of the diffusion matrix ``M``; the optimal SOS
parameter is ``beta_opt = 2 / (1 + sqrt(1 - lambda^2))`` (Section II-b of the
paper).  For the structured graphs of Table I the full spectrum of ``M`` is
known in closed form, which lets us reproduce the table's beta values at the
paper's original scale (torus ``1000 x 1000``, hypercube ``2^20``) without a
million-node eigensolve; the closed forms are cross-checked against dense
solvers in the test-suite.

This module also implements the SOS error-propagation matrices ``Q(t)`` of
Section IV,

    ``Q(0) = I``, ``Q(1) = beta M``,
    ``Q(t) = beta M Q(t-1) + (1 - beta) Q(t-2)``,

and the closed-form eigenvalues ``gamma_j(t)`` of Lemma 7.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SchemeError
from ..graphs.topology import Topology
from .matrices import symmetrized_matrix

__all__ = [
    "eigenvalues",
    "second_largest_eigenvalue",
    "beta_opt",
    "fwht",
    "torus_lambda",
    "torus_spectrum",
    "torus_rfft_eigenvalues",
    "hypercube_lambda",
    "hypercube_spectrum",
    "hypercube_wht_eigenvalues",
    "cycle_lambda",
    "complete_lambda",
    "q_matrices",
    "q_matrix_at",
    "gamma_closed_form",
    "spectral_gap",
]

_DENSE_LIMIT = 4000


def eigenvalues(
    topo: Topology,
    speeds: Optional[np.ndarray] = None,
    alphas=None,
) -> np.ndarray:
    """All eigenvalues of ``M`` in ascending order (dense solve).

    Uses the symmetric similarity transform so that ``scipy.linalg.eigh``
    applies even in the heterogeneous case.  Refuses graphs larger than
    ``4000`` nodes — use :func:`second_largest_eigenvalue`, which switches to
    a sparse solver, or the analytic spectra for structured graphs.
    """
    if topo.n > _DENSE_LIMIT:
        raise ConfigurationError(
            f"dense spectrum for n={topo.n} would be too expensive; "
            "use second_largest_eigenvalue() or an analytic spectrum"
        )
    import scipy.linalg

    sym, _ = symmetrized_matrix(topo, speeds, alphas)
    return scipy.linalg.eigvalsh(sym)


def second_largest_eigenvalue(
    topo: Topology,
    speeds: Optional[np.ndarray] = None,
    alphas=None,
    method: str = "auto",
) -> float:
    """``lambda``: the second largest eigenvalue of ``M`` in magnitude.

    Parameters
    ----------
    method:
        ``"dense"`` forces a full symmetric eigensolve, ``"sparse"`` uses
        Lanczos (``eigsh``) on the symmetrised matrix, ``"auto"`` picks dense
        below ~4000 nodes.
    """
    if method not in ("auto", "dense", "sparse"):
        raise ConfigurationError(f"unknown method {method!r}")
    if method == "dense" or (method == "auto" and topo.n <= _DENSE_LIMIT):
        vals = eigenvalues(topo, speeds, alphas)
        # Largest eigenvalue is 1 (simple, for connected graphs); lambda is
        # the largest magnitude among the rest.
        idx = int(np.argmax(vals))
        rest = np.delete(vals, idx)
        return float(np.abs(rest).max()) if rest.size else 0.0
    import scipy.sparse.linalg

    sym, _ = symmetrized_matrix(topo, speeds, alphas, sparse=True)
    k = min(3, topo.n - 1)
    top = scipy.sparse.linalg.eigsh(sym, k=k, which="LA", return_eigenvectors=False)
    bottom = scipy.sparse.linalg.eigsh(sym, k=1, which="SA", return_eigenvectors=False)
    top_sorted = np.sort(top)[::-1]
    second_largest = top_sorted[1] if top_sorted.size > 1 else 0.0
    return float(max(abs(second_largest), abs(bottom[0])))


def beta_opt(lam: float) -> float:
    """Optimal SOS parameter ``beta = 2 / (1 + sqrt(1 - lambda^2))``.

    ``lam`` must lie in ``[0, 1)``; the result lies in ``[1, 2)``.
    """
    if not 0.0 <= lam < 1.0:
        raise SchemeError(f"lambda must be in [0, 1), got {lam}")
    return 2.0 / (1.0 + math.sqrt(1.0 - lam * lam))


def spectral_gap(lam: float) -> float:
    """The eigenvalue gap ``1 - lambda`` used throughout the paper's bounds."""
    if not 0.0 <= lam <= 1.0:
        raise SchemeError(f"lambda must be in [0, 1], got {lam}")
    return 1.0 - lam


# ----------------------------------------------------------------------
# Analytic spectra for structured graphs (alpha = 1/(d+1), homogeneous)
# ----------------------------------------------------------------------

def torus_spectrum(shape: Sequence[int]) -> np.ndarray:
    """All eigenvalues of ``M`` on a ``k``-dim torus with paper-default alpha.

    For side lengths ``(n_1, ..., n_k)`` (each ``>= 3`` so the torus is
    ``2k``-regular) and ``alpha = 1/(2k + 1)`` the eigenvalues are

        ``mu(a_1..a_k) = (1 + 2 sum_r cos(2 pi a_r / n_r)) / (2k + 1)``.

    Returned in ascending order.  Sides of length 1 or 2 change the degree
    and are rejected — use the numeric solver for those shapes.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 3 for s in shape):
        raise ConfigurationError(
            f"analytic torus spectrum needs all sides >= 3, got {shape}"
        )
    k = len(shape)
    denom = 2 * k + 1
    grids = np.meshgrid(
        *[2.0 * np.cos(2.0 * np.pi * np.arange(s) / s) for s in shape],
        indexing="ij",
    )
    mu = (1.0 + sum(grids)) / denom
    return np.sort(mu.ravel())


def torus_rfft_eigenvalues(shape: Sequence[int], alpha: float) -> np.ndarray:
    """Eigenvalues of ``M = I - alpha L`` on a torus, in ``rfftn`` mode layout.

    The diffusion matrix of a full-wrap torus is diagonalised by the
    ``k``-dimensional DFT: the mode with frequencies ``(a_1, ..., a_k)`` has
    eigenvalue ``1 - alpha * (2k - 2 sum_r cos(2 pi a_r / n_r))``.  This
    returns those eigenvalues as a *real* array shaped like the output of
    ``numpy.fft.rfftn`` on a ``shape``-shaped signal — full frequency range
    on every axis except the last, which keeps only the non-negative half —
    so continuous diffusion trajectories can be advanced per mode:
    ``rfftn`` the load grid once, multiply the coefficients by the scalar
    recurrence of each mode, ``irfftn`` back whenever node-space values are
    needed.  Sides of 1 or 2 change the degree structure and are rejected.
    """
    shape = tuple(int(s) for s in shape)
    if not shape or any(s < 3 for s in shape):
        raise ConfigurationError(
            f"torus Fourier eigenvalues need all sides >= 3, got {shape}"
        )
    k = len(shape)
    axes = [2.0 * np.cos(2.0 * np.pi * np.arange(s) / s) for s in shape]
    axes[-1] = axes[-1][: shape[-1] // 2 + 1]
    grids = np.meshgrid(*axes, indexing="ij")
    return 1.0 - alpha * (2.0 * k - sum(grids))


def torus_lambda(shape: Sequence[int]) -> float:
    """``lambda`` for a torus with paper-default alphas (closed form).

    The second largest eigenvalue comes from perturbing a single frequency by
    one: ``(2k - 1 + 2 cos(2 pi / max side)) / (2k + 1)``.  Negative
    eigenvalues are bounded away from ``-1`` because of the lazy self weight,
    so the magnitude maximum is always this positive eigenvalue for
    sides >= 3.
    """
    shape = tuple(int(s) for s in shape)
    if any(s < 3 for s in shape):
        raise ConfigurationError(
            f"analytic torus lambda needs all sides >= 3, got {shape}"
        )
    k = len(shape)
    denom = 2 * k + 1
    best_pos = (2 * k - 1 + 2.0 * math.cos(2.0 * math.pi / max(shape))) / denom
    # Most negative eigenvalue: all cosines at their minimum.
    most_neg = (1.0 + sum(2.0 * math.cos(2.0 * math.pi * (s // 2) / s) for s in shape)) / denom
    return float(max(best_pos, abs(most_neg)))


def hypercube_spectrum(dimension: int) -> np.ndarray:
    """Eigenvalues of ``M`` on the ``k``-cube with ``alpha = 1/(k+1)``.

    Eigenvalue ``1 - 2 j / (k + 1)`` has multiplicity ``binom(k, j)`` for
    ``j = 0 .. k``.  Returned ascending with multiplicities expanded.
    """
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    k = dimension
    vals: List[float] = []
    for j in range(k + 1):
        vals.extend([1.0 - 2.0 * j / (k + 1)] * math.comb(k, j))
    return np.sort(np.asarray(vals))


def fwht(x: np.ndarray) -> np.ndarray:
    """Unnormalised fast Walsh–Hadamard transform along axis 0.

    ``x`` must have ``2**k`` rows (any trailing shape); a new array of the
    same shape and dtype comes back in the *natural* (Hadamard) ordering,
    where coefficient ``s`` pairs node ``i`` with the parity character
    ``(-1)**popcount(s & i)`` — so a hypercube eigenmode's index maps to
    its Laplacian eigenvalue through ``popcount`` alone.  The transform is
    an involution up to scale: ``fwht(fwht(x)) == n * x``.

    The butterflies run as ``log2(n)`` whole-array strided passes (no
    per-row Python loop), so an ``(n, B)`` batch transforms at numpy
    speed.
    """
    n = x.shape[0]
    if n < 1 or n & (n - 1):
        raise ConfigurationError(
            f"fwht needs a power-of-two number of rows, got {n}"
        )
    out = np.ascontiguousarray(x).copy()
    h = 1
    while h < n:
        view = out.reshape(n // (2 * h), 2, h, -1)
        top = view[:, 0].copy()
        np.add(top, view[:, 1], out=view[:, 0])
        np.subtract(top, view[:, 1], out=view[:, 1])
        h *= 2
    return out


def hypercube_wht_eigenvalues(dimension: int, alpha: float) -> np.ndarray:
    """Eigenvalues of ``M = I - alpha L`` on the ``k``-cube, in FWHT layout.

    The Walsh character ``chi_s(i) = (-1)**popcount(s & i)`` is an
    eigenvector of every bit-flip adjacency, so the cube's Laplacian has
    ``L chi_s = 2 popcount(s) chi_s`` and mode ``s`` of the diffusion
    matrix carries eigenvalue ``1 - 2 alpha popcount(s)``.  Returned as a
    length-``2**k`` array indexed exactly like the coefficients
    :func:`fwht` produces, so continuous diffusion trajectories advance
    per mode: one forward FWHT, a scalar recurrence per round, one inverse
    FWHT (``fwht(.)/n``) whenever node-space values are needed.
    """
    if dimension < 0:
        raise ConfigurationError(f"dimension must be >= 0, got {dimension}")
    n = 1 << dimension
    idx = np.arange(n, dtype=np.int64)
    popcount = np.zeros(n, dtype=np.int64)
    while idx.any():
        popcount += idx & 1
        idx >>= 1
    return 1.0 - 2.0 * alpha * popcount


def hypercube_lambda(dimension: int) -> float:
    """``lambda = 1 - 2/(k+1)`` for the ``k``-cube (Section VI-B)."""
    if dimension < 1:
        raise ConfigurationError(f"dimension must be >= 1, got {dimension}")
    k = dimension
    return float(max(1.0 - 2.0 / (k + 1), abs(1.0 - 2.0 * k / (k + 1))))


def cycle_lambda(n: int) -> float:
    """``lambda`` for the cycle ``C_n`` with ``alpha = 1/3``.

    Eigenvalues are ``(1 + 2 cos(2 pi a / n)) / 3``.
    """
    if n < 3:
        raise ConfigurationError(f"cycle needs n >= 3, got {n}")
    best_pos = (1.0 + 2.0 * math.cos(2.0 * math.pi / n)) / 3.0
    most_neg = (1.0 + 2.0 * math.cos(2.0 * math.pi * (n // 2) / n)) / 3.0
    return float(max(best_pos, abs(most_neg)))


def complete_lambda(n: int) -> float:
    """``lambda = 0`` for ``K_n`` with ``alpha = 1/n``: one-round balancing."""
    if n < 2:
        raise ConfigurationError(f"complete graph needs n >= 2, got {n}")
    return 0.0


# ----------------------------------------------------------------------
# SOS error-propagation matrices Q(t) and their spectrum (Lemma 7)
# ----------------------------------------------------------------------

def q_matrices(m: np.ndarray, beta: float, t_max: int) -> Iterator[np.ndarray]:
    """Yield ``Q(0), Q(1), ..., Q(t_max)`` (equation (20) of the paper)."""
    if not 0.0 < beta < 2.0:
        raise SchemeError(f"beta must be in (0, 2), got {beta}")
    n = m.shape[0]
    q_prev = np.eye(n)
    yield q_prev
    if t_max == 0:
        return
    q_cur = beta * m
    yield q_cur
    for _ in range(2, t_max + 1):
        q_next = beta * (m @ q_cur) + (1.0 - beta) * q_prev
        q_prev, q_cur = q_cur, q_next
        yield q_cur


def q_matrix_at(m: np.ndarray, beta: float, t: int) -> np.ndarray:
    """``Q(t)`` for a single ``t`` (runs the recursion from 0)."""
    if t < 0:
        raise ConfigurationError(f"t must be >= 0, got {t}")
    result = None
    for result in q_matrices(m, beta, t):
        pass
    assert result is not None
    return result


def gamma_closed_form(lambda_j: float, lam: float, beta: float, t: int) -> float:
    """Closed-form eigenvalue ``gamma_j(t)`` of ``Q(t)`` (Lemma 7).

    ``lambda_j`` is the eigenvalue of ``M`` the mode corresponds to, ``lam``
    the second largest eigenvalue used to pick ``beta = beta_opt(lam)``.

    The three regimes of the lemma::

        lambda_j = 1          -> (1 - (beta-1)^(t+1)) / (2 - beta)
        |lambda_j| = lam      -> (sqrt(beta-1))^t * (t + 1)
        |lambda_j| < lam      -> r^t (cos(theta t) + sin(theta t) *
                                 lambda_j / sqrt(lam^2 - lambda_j^2)),
                                 r = sqrt(beta-1), cos(theta) = lambda_j/lam.

    For ``|lambda_j| = lam`` with ``lambda_j < 0`` the magnitude matches the
    positive case up to sign ``(-1)^t``; this function returns the *signed*
    value obtained by solving the recursion directly, which the tests compare
    against the numerically iterated recurrence.
    """
    if not 0.0 < beta < 2.0:
        raise SchemeError(f"beta must be in (0, 2), got {beta}")
    if t == 0:
        return 1.0
    if t == 1:
        return beta * lambda_j
    # Solve the scalar recursion g(t) = beta*lambda_j*g(t-1) + (1-beta)*g(t-2)
    # via its characteristic roots; fall back to iteration when the closed
    # form is numerically degenerate.
    disc = (beta * lambda_j) ** 2 - 4.0 * (beta - 1.0)
    if abs(disc) < 1e-13:
        # Double root: g(t) = r^t (1 + c t) with r = beta*lambda_j/2.
        r = beta * lambda_j / 2.0
        if abs(r) < 1e-300:
            return 0.0
        # g(0)=1 -> a=1; g(1)=beta*lambda_j=2r -> (1+c) r = 2r -> c=1.
        return (r ** t) * (1.0 + t)
    if disc > 0:
        sqrt_disc = math.sqrt(disc)
        r1 = (beta * lambda_j + sqrt_disc) / 2.0
        r2 = (beta * lambda_j - sqrt_disc) / 2.0
        # g(t) = a r1^t + b r2^t with a + b = 1, a r1 + b r2 = beta*lambda_j.
        a = (beta * lambda_j - r2) / (r1 - r2)
        b = 1.0 - a
        return a * r1 ** t + b * r2 ** t
    # Complex roots: r e^{±i theta} with r = sqrt(beta-1).
    r = math.sqrt(beta - 1.0)
    theta = math.atan2(math.sqrt(-disc) / 2.0, beta * lambda_j / 2.0)
    sin_theta = math.sin(theta)
    if abs(sin_theta) < 1e-300:
        return (r ** t) * math.cos(theta * t)
    # g(t) = r^t (cos(theta t) + c sin(theta t)); match g(1).
    c = (beta * lambda_j / r - math.cos(theta)) / sin_theta
    return (r ** t) * (math.cos(theta * t) + c * math.sin(theta * t))
