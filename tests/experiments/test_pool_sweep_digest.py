"""The numpy tier reproduces the benchmark's pinned Fig. 8 sweep digest.

The repo benchmark's ``pool-sweep`` workload runs this sweep through the
compiled kernels on a worker pool; its final loads are pinned in
``perfbench/digests.json``.  Here the same inputs run in-process on the
numpy tier, so the dense numpy round is held to the same bits.
"""

import json
import sys
from pathlib import Path

import numpy as np

from repro.core.spectral import beta_opt, torus_lambda
from repro.core.state import point_load
from repro.engines import EngineConfig
from repro.experiments import sweeps
from repro.experiments.sweeps import ParamGrid
from repro.graphs import torus

PERFBENCH = Path(__file__).resolve().parents[2] / "perfbench"
sys.path.insert(0, str(PERFBENCH))

from checks import digest  # noqa: E402

SIDE, N_POINTS, N_SEEDS, ROUNDS = 32, 16, 4, 100


def test_numpy_tier_matches_pinned_pool_sweep_digest():
    topo = torus.torus_2d(SIDE, SIDE)
    node = int(np.random.default_rng(0).integers(topo.n))
    base = point_load(topo, 1000.0 * topo.n, node)
    step = ROUNDS // N_POINTS
    grid = ParamGrid(switch_round=[None] + [step * i for i in range(1, N_POINTS)])
    config = EngineConfig(
        scheme="sos",
        beta=beta_opt(torus_lambda((SIDE, SIDE))),
        rounding="randomized-excess",
        rounds=ROUNDS,
        record_every=1,
        seed=0,
        kernel="numpy",
    )
    sweep = sweeps.sweep_ensemble(
        topo, config, grid, initial_loads=base, seeds=list(range(N_SEEDS)),
        engine="batched",
    )
    final = np.stack([r.final_state.load for r in sweep.results])
    assert final.shape == (N_POINTS * N_SEEDS, topo.n)
    pinned = json.loads((PERFBENCH / "digests.json").read_text())["pool-sweep"]
    assert digest(final) == pinned
