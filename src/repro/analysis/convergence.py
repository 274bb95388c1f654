"""Convergence-time measurement and FOS/SOS comparison.

The paper's headline quantitative claim is the runtime gap: continuous SOS
balances in ``O(log(Kn)/sqrt(1-lambda))`` rounds versus
``O(log(Kn)/(1-lambda))`` for FOS — "almost quadratically faster" when the
spectral gap is small (tori), but nearly indistinguishable on expanders
(random graphs) and hypercubes.  These helpers extract convergence rounds
from recorded runs and fit decay rates so the benches can report measured
speed-ups next to the theoretical prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..exceptions import ConfigurationError
from ..core.simulator import SimulationResult

__all__ = [
    "convergence_round",
    "decay_rate",
    "predicted_speedup",
    "measured_speedup",
    "SpeedupReport",
]


def convergence_round(
    result: SimulationResult,
    field: str = "max_minus_avg",
    threshold: float = 10.0,
    sustained: int = 1,
) -> Optional[int]:
    """First recorded round where ``field`` stays <= threshold.

    ``sustained`` consecutive records must satisfy the threshold (discrete
    schemes fluctuate, so a single lucky round should not count as
    converged).  Returns ``None`` when never reached; a NaN record breaks
    a streak.  Reads the record columns directly, so it never builds
    ``result.records``; an unknown ``field`` raises
    :class:`~repro.exceptions.ConfigurationError`.
    """
    if sustained < 1:
        raise ConfigurationError(f"sustained must be >= 1, got {sustained}")
    hit = result.series(field) <= threshold
    if sustained > 1:
        # hit[i] becomes "rows i-sustained+1 .. i all hit": a window sum of
        # the hit count equal to the window length.
        runs = np.cumsum(hit, dtype=np.int64)
        runs[sustained:] = runs[sustained:] - runs[:-sustained]
        hit = runs >= sustained
    first = np.flatnonzero(hit)
    if first.size == 0:
        return None
    return int(result.series("round_index")[first[0]])


def decay_rate(series: Sequence[float], skip: int = 0) -> float:
    """Least-squares exponential decay rate of a positive series.

    Fits ``log(y_t) ~ a - rate * t`` over the entries after ``skip`` that
    are positive; returns ``rate`` (per round).  A pure continuous FOS decays
    at about ``-log(lambda)`` in the potential's square root.
    """
    y = np.asarray(series, dtype=np.float64)[skip:]
    mask = y > 0
    if mask.sum() < 2:
        raise ConfigurationError("need at least two positive samples to fit")
    t = np.arange(y.size, dtype=np.float64)[mask]
    log_y = np.log(y[mask])
    slope, _ = np.polyfit(t, log_y, 1)
    return float(-slope)


def predicted_speedup(lam: float) -> float:
    """Theoretical SOS-over-FOS speed-up ``~ 1/sqrt(1-lambda)``."""
    if not 0.0 <= lam < 1.0:
        raise ConfigurationError(f"lambda must be in [0, 1), got {lam}")
    return 1.0 / math.sqrt(1.0 - lam)


@dataclass
class SpeedupReport:
    """Measured FOS vs SOS convergence comparison."""

    fos_round: Optional[int]
    sos_round: Optional[int]
    threshold: float
    predicted: float

    @property
    def measured(self) -> Optional[float]:
        """``fos_round / sos_round`` (None when either never converged)."""
        if not self.fos_round or not self.sos_round:
            return None
        return self.fos_round / self.sos_round

    def __str__(self) -> str:
        measured = self.measured
        measured_txt = f"{measured:.2f}x" if measured is not None else "n/a"
        return (
            f"SOS speedup at threshold {self.threshold}: measured "
            f"{measured_txt} (FOS {self.fos_round}, SOS {self.sos_round}), "
            f"predicted ~{self.predicted:.2f}x"
        )


def measured_speedup(
    fos_result: SimulationResult,
    sos_result: SimulationResult,
    lam: float,
    field: str = "max_minus_avg",
    threshold: float = 10.0,
    sustained: int = 3,
) -> SpeedupReport:
    """Compare two recorded runs of the same workload."""
    return SpeedupReport(
        fos_round=convergence_round(fos_result, field, threshold, sustained),
        sos_round=convergence_round(sos_result, field, threshold, sustained),
        threshold=threshold,
        predicted=predicted_speedup(lam),
    )
