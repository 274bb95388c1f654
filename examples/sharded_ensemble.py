#!/usr/bin/env python
"""Sharded ensemble: one seed-averaged sweep across worker processes.

The batched engine advances a whole replica ensemble per vectorised numpy
step but is bound to one core; with ``workers`` set it splits the batch
into contiguous column shards and runs one batched engine per worker
*process*, merging the per-shard record batches into results that are
bit-identical to the single-process run — so the speedup is free of any
statistical caveat.  This example runs the same 32-replica ensemble
inline and on worker processes, checks the traces match bit for bit, and
reports the wall-clock ratio.

Run:  python examples/sharded_ensemble.py
"""

import time
from dataclasses import replace

import numpy as np

from repro import beta_opt, point_load, torus_2d, torus_lambda
from repro.engines import EngineConfig, make_engine
from repro.experiments import replica_ensemble


def main() -> None:
    side = 24
    topo = torus_2d(side, side)
    beta = beta_opt(torus_lambda((side, side)))
    n_replicas = 32

    config = EngineConfig(
        scheme="sos",
        beta=beta,
        rounding="randomized-excess",
        rounds=200,
        record_every=10,
        seed=0,
    )
    loads = np.tile(point_load(topo, 1000 * topo.n), (n_replicas, 1))

    t0 = time.perf_counter()
    batched = make_engine("batched").run(topo, config, loads)
    t_batched = time.perf_counter() - t0

    t0 = time.perf_counter()
    sharded = make_engine("batched").run(
        topo, replace(config, workers="auto"), loads
    )
    t_sharded = time.perf_counter() - t0

    # The merge contract: bit-identical traces, not just close ones.
    for a, b in zip(batched, sharded):
        np.testing.assert_array_equal(a.final_state.load, b.final_state.load)
        np.testing.assert_array_equal(
            a.series("max_minus_avg"), b.series("max_minus_avg")
        )
    print(f"{n_replicas} replicas, {config.rounds} rounds on {topo.name}")
    print(f"batched (1 process): {t_batched:.2f}s")
    print(f"sharded (auto workers): {t_sharded:.2f}s  "
          f"({t_batched / t_sharded:.2f}x, bit-identical traces)")

    # The knob travels in the config, so a whole seed-averaged ensemble
    # shards the same way:
    ensemble = replica_ensemble(
        topo,
        replace(config, workers="auto"),
        n_replicas=n_replicas,
        engine="batched",
    )
    print(f"ensemble max_minus_avg_mean = "
          f"{ensemble.stats['max_minus_avg_mean']:.2f}")


if __name__ == "__main__":
    main()
