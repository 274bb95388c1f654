"""Output checks of the benchmark: conservation ledgers and digests.

Each check raises :class:`CheckFailed` naming what broke; the workload
runner counts a raised check as one failed operation.
"""

from __future__ import annotations

import hashlib

import numpy as np


class CheckFailed(AssertionError):
    """A benchmark output check did not hold."""


def digest(final_loads: np.ndarray) -> str:
    """SHA-256 of a ``(B, n)`` final-load plane as float64 bytes."""
    plane = np.ascontiguousarray(final_loads, dtype=np.float64)
    h = hashlib.sha256(repr(plane.shape).encode())
    h.update(plane.tobytes())
    return h.hexdigest()


def check_static_conservation(final_loads: np.ndarray, total: float) -> None:
    """Every replica still holds exactly ``total`` tokens."""
    sums = np.asarray(final_loads, dtype=np.float64).sum(axis=1)
    bad = np.flatnonzero(sums != total)
    if bad.size:
        raise CheckFailed(
            f"replica {int(bad[0])} holds {float(sums[bad[0]])!r} tokens, expected {total!r}"
        )


def check_ledger(node_load, in_flight, expected, where: str) -> None:
    """Node load plus tokens in flight (bounces included) equals the
    per-replica ``expected`` total, exactly."""
    held = np.asarray(node_load, dtype=np.float64) + np.asarray(in_flight, dtype=np.float64)
    bad = np.flatnonzero(held != np.asarray(expected, dtype=np.float64))
    if bad.size:
        b = int(bad[0])
        raise CheckFailed(
            f"{where}: replica {b} holds {held[b]!r} tokens "
            f"(load + in flight), expected {float(np.asarray(expected)[b])!r}"
        )


def check_same_digest(got: str, want: str, what: str) -> None:
    if got != want:
        raise CheckFailed(f"{what}: final-load digest {got[:16]} != {want[:16]}")
