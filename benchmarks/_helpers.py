"""Helpers shared by the benchmark modules."""

from __future__ import annotations

import json
import os
import subprocess
from importlib import metadata
from typing import Optional

import numpy as np

#: Repository root — machine-readable bench outputs land here as
#: ``BENCH_<name>.json`` so every PR leaves a perf trajectory.
REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(benchmark, func, *args, **kwargs):
    """Run ``func`` exactly once under pytest-benchmark timing.

    The figure drivers are full experiments (seconds to minutes); repeating
    them for statistical timing would multiply the harness runtime without
    adding information, so every bench uses a single timed iteration.
    """
    return benchmark.pedantic(func, args=args, kwargs=kwargs, rounds=1, iterations=1)


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays into plain JSON values."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [_jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating, np.integer, np.bool_)):
        value = value.item()
    if isinstance(value, float) and (value != value or value in (float("inf"), float("-inf"))):
        return str(value)  # JSON has no NaN/Inf
    return value


def _version(package: str):
    try:
        return metadata.version(package)
    except metadata.PackageNotFoundError:
        return None


def _git(*args: str) -> Optional[str]:
    """Stdout of a git command in the repo root, or None outside a checkout."""
    try:
        return subprocess.run(
            ["git", "-C", REPO_ROOT, *args],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return None


def provenance() -> dict:
    """What produced an artifact: the commit, whether tracked files differ
    from it (``git_dirty``), the cores this process may run on, the
    numeric library versions and the bench scale.

    The root ``BENCH_*.json`` records are left out of ``git_dirty``: they
    are the outputs, so a bench re-run after another one rewrote its
    committed record still reads clean."""
    sha = _git("rev-parse", "HEAD")
    status = _git(
        "status", "--porcelain", "--untracked-files=no",
        "--", ".", ":(top,exclude,glob)BENCH_*.json",
    )
    try:
        cores = len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity API on this platform
        cores = os.cpu_count()
    return {
        "git_sha": sha,
        "git_dirty": None if status is None else bool(status),
        "usable_cores": cores,
        "numpy": np.__version__,
        "scipy": _version("scipy"),
        "cffi": _version("cffi"),
        "scale": os.environ.get("REPRO_BENCH_SCALE", "ci"),
    }


def write_bench_json(name: str, payload: dict) -> str:
    """Write one machine-readable bench summary to ``BENCH_<name>.json``.

    Every bench routes its summary through this helper so downstream PRs
    (and the CI artifact upload) get a uniform perf trajectory at the repo
    root instead of scraping stdout.  The summary is stamped with its
    :func:`provenance` under ``"provenance"``.  Returns the path written.
    """
    path = os.path.join(REPO_ROOT, f"BENCH_{name}.json")
    # Stamp before opening: truncating a committed record would make the
    # tree read dirty.
    record = _jsonable({**payload, "provenance": provenance()})
    with open(path, "w") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path
