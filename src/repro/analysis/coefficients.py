"""Impact of eigenvectors on the load (Section VI, Figures 7 and 15).

The paper decomposes the load vector in the eigenbasis of the diffusion
matrix: solving ``V a = x(t)`` for the orthonormal eigenvector matrix ``V``
gives coefficients ``a_i(t)`` whose magnitudes describe the load imbalance
completely (the stationary coefficient ``a_1`` carries the average).  Each
continuous FOS round multiplies ``a_i`` by the eigenvalue ``mu_i``, so the
largest non-stationary coefficient governs the convergence rate, and the
paper tracks which eigenvector currently "leads".

Two implementations:

* :class:`EigenbasisAnalyzer` — dense eigendecomposition; works for any
  graph up to a few thousand nodes (the paper's Figure 7 uses the
  ``100 x 100`` torus = 10^4 nodes, which is feasible but slow dense — the
  Fourier analyzer below handles tori of any size instead).
* :class:`TorusFourierAnalyzer` — on a torus the eigenvectors are the 2-D
  Fourier modes, so the coefficients are a single ``numpy.fft.fft2`` away;
  exact for the paper-default ``alpha = 1/5`` and any torus size.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..graphs.topology import Topology
from ..core.matrices import symmetrized_matrix

__all__ = [
    "CoefficientTrace",
    "EigenbasisAnalyzer",
    "TorusFourierAnalyzer",
]


@dataclass
class CoefficientTrace:
    """Per-round eigen-coefficient data extracted from a run.

    ``leading_index[t]`` is the index (into the analyzer's eigenvalue order,
    stationary mode excluded) of the coefficient with the largest magnitude
    at round ``t``; ``leading_value[t]`` its magnitude; ``coefficients`` the
    optional full ``(rounds, n_modes)`` magnitude array.
    """

    rounds: np.ndarray
    leading_index: np.ndarray
    leading_value: np.ndarray
    eigenvalues: np.ndarray
    coefficients: Optional[np.ndarray] = None

    def leading_eigenvalue(self) -> np.ndarray:
        """Eigenvalue of the leading mode at every recorded round."""
        return self.eigenvalues[self.leading_index]

    def stable_leader_span(self) -> Tuple[int, int]:
        """Longest contiguous span of rounds with the same leading mode.

        Returns ``(start_pos, end_pos)`` positions into ``rounds`` (the paper
        observes ``a_4`` leading from ~round 100 to ~700 on the small torus).
        """
        if self.leading_index.size == 0:
            return (0, 0)
        best = (0, 0)
        start = 0
        for i in range(1, self.leading_index.size + 1):
            if (
                i == self.leading_index.size
                or self.leading_index[i] != self.leading_index[start]
            ):
                if i - start > best[1] - best[0]:
                    best = (start, i)
                start = i
        return best


class EigenbasisAnalyzer:
    """Coefficient tracking via a dense eigendecomposition of ``M``.

    Eigenpairs are sorted by *descending* eigenvalue, so index 0 is the
    stationary mode (eigenvalue 1) and indices ``1, 2, ...`` match the
    paper's ``a_2, a_3, ...`` numbering shifted by one.

    In the heterogeneous case the analyzer diagonalises the symmetrised
    matrix ``S^{-1/2} M S^{1/2}`` and maps load vectors through ``S^{-1/2}``
    so that the transform stays orthonormal.
    """

    def __init__(self, topo: Topology, speeds: Optional[np.ndarray] = None, alphas=None):
        if topo.n > 4000:
            raise ConfigurationError(
                f"dense eigenbasis for n={topo.n} is too large; "
                "use TorusFourierAnalyzer for tori or subsample"
            )
        import scipy.linalg

        sym, sqrt_s = symmetrized_matrix(topo, speeds, alphas)
        vals, vecs = scipy.linalg.eigh(sym)
        order = np.argsort(vals)[::-1]
        self.eigenvalues = vals[order]
        self._basis = vecs[:, order]  # orthonormal columns
        self._sqrt_s = sqrt_s
        self.topo = topo

    def coefficients(self, load: np.ndarray) -> np.ndarray:
        """Solve ``V a = x`` — returns the signed coefficient vector."""
        load = np.asarray(load, dtype=np.float64)
        if load.shape != (self.topo.n,):
            raise ConfigurationError(
                f"load has shape {load.shape}, expected ({self.topo.n},)"
            )
        return self._basis.T @ (load / self._sqrt_s)

    def leading_mode(self, load: np.ndarray) -> Tuple[int, float]:
        """Index and magnitude of the dominant non-stationary coefficient."""
        coeff = self.coefficients(load)
        mags = np.abs(coeff)
        mags[0] = 0.0  # exclude the stationary mode
        idx = int(np.argmax(mags))
        return idx, float(mags[idx])

    def trace(
        self, loads: Sequence[np.ndarray], keep_coefficients: bool = False
    ) -> CoefficientTrace:
        """Analyze a whole run (e.g. ``SimulationResult.loads_history``)."""
        leading_idx: List[int] = []
        leading_val: List[float] = []
        all_coeffs: List[np.ndarray] = []
        for load in loads:
            coeff = self.coefficients(load)
            mags = np.abs(coeff)
            if keep_coefficients:
                all_coeffs.append(mags)
            mags = mags.copy()
            mags[0] = 0.0
            idx = int(np.argmax(mags))
            leading_idx.append(idx)
            leading_val.append(float(mags[idx]))
        return CoefficientTrace(
            rounds=np.arange(len(loads)),
            leading_index=np.asarray(leading_idx, dtype=np.int64),
            leading_value=np.asarray(leading_val, dtype=np.float64),
            eigenvalues=self.eigenvalues,
            coefficients=np.asarray(all_coeffs) if keep_coefficients else None,
        )


class TorusFourierAnalyzer:
    """Exact eigen-coefficients on 2-D tori via the FFT.

    On the ``r x c`` torus with the paper-default ``alpha = 1/5`` the
    (complex) Fourier modes diagonalise ``M`` with eigenvalues

        ``mu(a, b) = (1 + 2 cos(2 pi a / r) + 2 cos(2 pi b / c)) / 5``.

    The magnitude of the normalised FFT coefficient at frequency ``(a, b)``
    plays the role of ``|a_i|``; mode ``(0, 0)`` is stationary.  Modes are
    reported flattened in row-major frequency order.
    """

    def __init__(self, rows: int, cols: int):
        if rows < 3 or cols < 3:
            raise ConfigurationError(
                f"Fourier analyzer needs a true torus (sides >= 3), got "
                f"({rows}, {cols})"
            )
        self.rows = int(rows)
        self.cols = int(cols)
        ca = 2.0 * np.cos(2.0 * np.pi * np.arange(rows) / rows)
        cb = 2.0 * np.cos(2.0 * np.pi * np.arange(cols) / cols)
        self.eigen_grid = (1.0 + ca[:, None] + cb[None, :]) / 5.0
        self.eigenvalues = self.eigen_grid.ravel()
        # Eigenvalue classes: conjugate frequencies and symmetry-related
        # modes share an eigenvalue, so "which eigenvector leads" is only
        # well defined per class (the paper's a_4 lives in such a class).
        self.class_eigenvalues, self._class_of_mode = np.unique(
            np.round(self.eigenvalues, 12), return_inverse=True
        )
        self._stationary_class = int(
            np.argmin(np.abs(self.class_eigenvalues - 1.0))
        )

    def coefficients(self, load: np.ndarray) -> np.ndarray:
        """Magnitudes of the normalised Fourier coefficients (flattened)."""
        load = np.asarray(load, dtype=np.float64)
        if load.size != self.rows * self.cols:
            raise ConfigurationError(
                f"load has {load.size} entries, expected {self.rows * self.cols}"
            )
        grid = load.reshape(self.rows, self.cols)
        fft = np.fft.fft2(grid) / np.sqrt(self.rows * self.cols)
        return np.abs(fft).ravel()

    def leading_mode(self, load: np.ndarray) -> Tuple[Tuple[int, int], float, float]:
        """Dominant non-stationary frequency.

        Returns ``((a, b), magnitude, eigenvalue)``.
        """
        mags = self.coefficients(load).reshape(self.rows, self.cols).copy()
        mags[0, 0] = 0.0
        flat = int(np.argmax(mags))
        a, b = divmod(flat, self.cols)
        return (a, b), float(mags[a, b]), float(self.eigen_grid[a, b])

    def class_energies(self, load: np.ndarray) -> np.ndarray:
        """Total coefficient energy per eigenvalue class (basis invariant).

        Individual coefficients inside a degenerate eigenspace depend on the
        basis choice (and conjugate FFT modes always tie), but the summed
        energy per eigenvalue is invariant — this is the quantity whose
        leader stays stable over hundreds of rounds in the paper's Figure 7.
        """
        mags = self.coefficients(load)
        return np.bincount(
            self._class_of_mode,
            weights=mags * mags,
            minlength=self.class_eigenvalues.size,
        )

    def leading_class(self, load: np.ndarray) -> Tuple[int, float, float]:
        """Dominant non-stationary eigenvalue class.

        Returns ``(class_index, sqrt(energy), eigenvalue)``.
        """
        energies = self.class_energies(load)
        energies[self._stationary_class] = 0.0
        idx = int(np.argmax(energies))
        return idx, float(np.sqrt(energies[idx])), float(self.class_eigenvalues[idx])

    def trace(
        self, loads: Sequence[np.ndarray], by_class: bool = True
    ) -> CoefficientTrace:
        """Analyze a run of load vectors; mirrors the paper's Figure 7.

        ``by_class=True`` (default) tracks the leading *eigenvalue class*
        (stable leader, see :meth:`class_energies`); ``by_class=False``
        tracks the raw leading FFT mode, whose identity flickers among
        degenerate/conjugate partners.
        """
        leading_idx: List[int] = []
        leading_val: List[float] = []
        for load in loads:
            if by_class:
                idx, val, _ = self.leading_class(load)
            else:
                mags = self.coefficients(load).reshape(self.rows, self.cols).copy()
                mags[0, 0] = 0.0
                idx = int(np.argmax(mags))
                val = float(mags.ravel()[idx])
            leading_idx.append(idx)
            leading_val.append(val)
        return CoefficientTrace(
            rounds=np.arange(len(loads)),
            leading_index=np.asarray(leading_idx, dtype=np.int64),
            leading_value=np.asarray(leading_val, dtype=np.float64),
            eigenvalues=self.class_eigenvalues if by_class else self.eigenvalues,
        )
