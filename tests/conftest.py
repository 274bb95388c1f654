"""Shared fixtures and hypothesis strategies for the test-suite."""

from __future__ import annotations

import faulthandler
import os

import numpy as np
import pytest

from repro import (
    Topology,
    complete,
    cycle,
    hypercube,
    path,
    star,
    torus_2d,
)


#: Seconds one test may run before the watchdog dumps every thread's
#: traceback and exits the session.
TEST_DEADLINE_S = 300.0

_WATCHDOG_FILE = pytest.StashKey()


def pytest_configure(config):
    # Output capture is suspended here, so fd 2 is the real stderr: the
    # watchdog writes to a copy of it, past the capture of the hung test.
    config.stash[_WATCHDOG_FILE] = os.fdopen(os.dup(2), "w")


def pytest_unconfigure(config):
    config.stash[_WATCHDOG_FILE].close()


@pytest.fixture(autouse=True)
def _hang_watchdog(pytestconfig):
    """Turn a hung test into a traceback and a failed run, instead of a
    silent stall until the CI job's own timeout."""
    faulthandler.dump_traceback_later(
        TEST_DEADLINE_S, exit=True, file=pytestconfig.stash[_WATCHDOG_FILE]
    )
    yield
    faulthandler.cancel_dump_traceback_later()


@pytest.fixture
def fork_workers(monkeypatch):
    """Keep the ``fork`` start method for shard and pool workers even
    after another test has loaded a compiled provider in this process.

    Forking stays safe only while the workers run the numpy tier, which
    never enters an OpenMP region, so the fixture enforces that premise:
    ``kernel="auto"`` resolves to numpy, and a forced compiled provider
    raises instead of hanging a forked worker.
    """
    from repro import kernels
    from repro.engines import sharded

    monkeypatch.setattr(sharded, "fork_unsafe_loaded", lambda: False)
    monkeypatch.setattr(kernels, "compiled_pays", lambda *shape: False)
    get_provider = kernels.get_provider

    def numpy_tier_only(name):
        provider = get_provider(name)
        if provider is not None and provider.compiled:
            raise RuntimeError(
                f"fork_workers: the compiled {name!r} provider would enter "
                "OpenMP in a forked worker"
            )
        return provider

    monkeypatch.setattr(kernels, "get_provider", numpy_tier_only)


@pytest.fixture
def rng():
    """Deterministic random generator for tests."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_torus():
    """An 8x8 torus — the workhorse small graph."""
    return torus_2d(8, 8)


@pytest.fixture
def tiny_cycle():
    return cycle(8)


@pytest.fixture(
    params=["cycle", "path", "complete", "star", "torus", "hypercube"],
)
def any_small_graph(request) -> Topology:
    """A parametrised family of small graphs of different shapes."""
    builders = {
        "cycle": lambda: cycle(9),
        "path": lambda: path(7),
        "complete": lambda: complete(6),
        "star": lambda: star(8),
        "torus": lambda: torus_2d(4, 5),
        "hypercube": lambda: hypercube(4),
    }
    return builders[request.param]()


def random_connected_graph(rng: np.random.Generator, n: int, extra_edges: int = 0):
    """A random connected graph: a random spanning tree plus extra edges."""
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    attempts = 0
    while len(edges) < n - 1 + extra_edges and attempts < 20 * (extra_edges + 1):
        a, b = rng.integers(0, n, size=2)
        attempts += 1
        if a == b:
            continue
        edges.add((min(int(a), int(b)), max(int(a), int(b))))
    return Topology(n, sorted(edges), name=f"random-{n}")
