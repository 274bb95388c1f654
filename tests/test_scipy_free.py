"""scipy is imported where a sparse operator is built, never at module load.

Importing the library, its engines, sweeps, kernels, fault models or CLI
loads no scipy submodule (and so not ``numpy.f2py``, which scipy's array
API shim pulls in); a compiled batched run and a compiled staleness run
never build a sparse operator, so they load none either.  Each check runs
in a fresh interpreter.

The staleness engine's send-side node sums are flat ``bincount``s over
``edge_end * B + b`` keys; the unit-data CSR matvec they replace stays
here as their oracle, bit for bit, signed zeros included.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from numpy.random import default_rng

from repro import random_load
from repro.engines import EngineConfig, make_engine
from repro.graphs import Topology, star, torus_2d
from repro.kernels import get_provider

SRC = str(Path(__file__).resolve().parents[1] / "src")

SCIPY_MODULES = (
    "scipy.sparse",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
    "numpy.f2py",
)

needs_cffi = pytest.mark.skipif(
    get_provider("cffi") is None, reason="the cffi provider is unavailable"
)


def _loaded_after(code: str, modules=SCIPY_MODULES) -> list:
    """The ``modules`` a fresh interpreter holds after ``code``."""
    probe = (
        f"{code}\nimport json, sys\n"
        f"print(json.dumps([m for m in {tuple(modules)!r} if m in sys.modules]))"
    )
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": SRC + (os.pathsep + path if path else "")}
    out = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True, text=True, env=env, timeout=120, check=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


@pytest.mark.parametrize(
    "module",
    [
        "repro",
        "repro.engines",
        "repro.experiments.sweeps",
        "repro.kernels",
        "repro.network.faults",
        "repro.cli",
    ],
)
def test_import_loads_no_scipy(module):
    assert _loaded_after(f"import {module}") == []


_RUN = """
import numpy as np
from repro import random_load
from repro.engines import EngineConfig, make_engine
from repro.graphs import torus_2d
topo = torus_2d(12, 12)
loads = np.stack(
    [random_load(topo, 9.0, rng=np.random.default_rng(b)) for b in range(4)]
)
config = EngineConfig(
    scheme="sos", beta=1.5, rounding="randomized-excess", rounds=12,
    seed=1, kernel="{kernel}", {extra}
)
engine = make_engine("{engine}")
handle = engine.prepare(topo, config, loads)
assert {compiled}
for _ in range(config.rounds):
    engine.step(handle)
engine.metrics(handle)
{after}
"""


@needs_cffi
def test_compiled_batched_run_loads_no_scipy():
    code = _RUN.format(
        engine="batched", kernel="cffi", extra="",
        compiled="handle.kern_records", after="",
    )
    assert "scipy.sparse" not in _loaded_after(code)


@needs_cffi
def test_compiled_staleness_run_loads_no_scipy():
    code = _RUN.format(
        engine="staleness", kernel="cffi",
        extra='latency_model=2, max_skew=3, faults="drop:0.1"',
        compiled="handle.core.kernel is not None", after="",
    )
    assert "scipy.sparse" not in _loaded_after(code)


def test_numpy_staleness_fault_path_loads_no_numpy_ma():
    # The numpy step's fault path groups the dropped shipments by landing
    # slot; np.unique would import numpy.ma on its first call.
    code = _RUN.format(
        engine="staleness", kernel="numpy",
        extra='latency_model=2, max_skew=3, faults="drop:0.1"',
        compiled="handle.core.kernel is None",
        after="assert handle.core.bounced_count.sum() > 0",
    )
    assert _loaded_after(code, ["numpy.ma"]) == []


# -- the staleness send sum against the unit-data CSR matvec -------------


def _isolated_node():
    """An irregular graph whose last node has no edge at all."""
    return Topology(7, [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4), (4, 5)])


SEND_GRAPHS = {
    "torus": lambda: torus_2d(8, 9),
    "star": lambda: star(300),
    "isolated-node": _isolated_node,
}


def _csr_send_sums(topo, flows):
    """Each endpoint's positive flow sum through two unit-data CSR
    matvecs, as the engine computed it with scipy."""
    edge_ids = np.arange(topo.m_edges)
    send_u, send_v = (
        sp.csr_matrix(
            (np.ones(topo.m_edges), (ends, edge_ids)),
            shape=(topo.n, topo.m_edges),
        )
        for ends in (topo.edge_u, topo.edge_v)
    )
    sent = send_u @ np.maximum(flows, 0.0)
    sent += send_v @ np.maximum(-flows, 0.0)
    return sent


def _signed_zero_flows(m, B, rng):
    """Integral and fractional flows of both signs, with +0.0 and -0.0."""
    flows = rng.integers(-6, 7, size=(m, B)).astype(np.float64)
    flows[rng.random((m, B)) < 0.3] *= rng.random()
    zeros = rng.random((m, B))
    flows[zeros < 0.2] = 0.0
    flows[zeros > 0.8] = -0.0
    return flows


@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("graph", sorted(SEND_GRAPHS))
def test_send_sums_match_csr_matvec(graph, B):
    topo = SEND_GRAPHS[graph]()
    loads = np.stack(
        [random_load(topo, 30.0, rng=default_rng(b)) for b in range(B)]
    )
    config = EngineConfig(
        scheme="sos", beta=1.5, rounding="randomized-excess", rounds=6,
        seed=2, latency_model=1, kernel="numpy",
    )
    engine = make_engine("staleness")
    core = engine.prepare(topo, config, loads).core
    rng = default_rng(7)
    planes = [_signed_zero_flows(topo.m_edges, B, rng)]
    for _ in range(4):
        core.step()
        planes.append(core.E.copy())  # flows of a real round
    for flows in planes:
        core.E[...] = flows
        got = core.send_sums()
        want = _csr_send_sums(topo, flows)
        assert got.shape == want.shape == (topo.n, B)
        assert got.dtype == want.dtype == np.float64
        assert np.array_equal(got.view(np.int64), want.view(np.int64))
