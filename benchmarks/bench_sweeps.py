"""Sweep throughput: one fused engine call vs the old per-point loop.

The fig08-style switch sweep used to run one engine call per sweep point
(``P`` calls of ``n_seeds`` replicas each); the per-replica parameter
planes (``ReplicaParams.switch_rounds``) fold the whole sweep into ONE
call of ``P * n_seeds`` replicas, so the vectorised kernels amortise over
the full batch instead of per-point slivers.  Two things are measured and
archived to ``BENCH_sweeps.json``:

* **parity** — with a deterministic rounding the fused sweep is
  *bit-identical* per replica to the per-point loop (and the sharded
  fused sweep to the batched one), checked on the measured workload; with
  ``randomized-excess`` every *switching* point is bit-identical to the
  loop too (the pure-SOS point is not: a lone call without a switch takes
  the fused-operator schedule, which reassociates the float products);
* **speedup** — wall-clock of the fused call vs the loop on the paper's
  fig08 workload (randomized-excess), asserted ``>= SPEEDUP_FLOOR`` at
  ci/paper scale where the batch is ``B >= 64`` on the 32x32 torus.
  Each side is timed ``TIMING_RUNS`` times, loop and fused alternating,
  and the speedup is the ratio of the two medians; the samples are
  archived next to them.
"""

import os
import time
from dataclasses import replace

import numpy as np

from repro import beta_opt, point_load, torus_2d, torus_lambda
from repro.engines import EngineConfig, ReplicaParams, make_engine
from repro.experiments import format_table
from repro.io import ExperimentRecord

from _helpers import run_once

SCALE = os.environ.get("REPRO_BENCH_SCALE", "ci")

SIDE = {"tiny": 12, "ci": 32, "paper": 48}[SCALE]
ROUNDS = {"tiny": 40, "ci": 300, "paper": 600}[SCALE]
N_SEEDS = {"tiny": 2, "ci": 4, "paper": 4}[SCALE]
N_POINTS = {"tiny": 4, "ci": 16, "paper": 16}[SCALE]
RECORD_EVERY = 1
#: asserted floor: the fused sweep beats the per-point loop by this factor
#: at B = N_POINTS * N_SEEDS >= 64 (ci/paper scale; tiny only records).
#: Measured 4.3x at ci scale on a 2-vCPU box (medians of 3 alternating
#: runs: fused 0.65-0.76 s, loop 2.70-3.25 s; single loop runs had swung
#: 1.8-3.6 s there): batch-width
#: amortisation plus twin sharing (the fused call steps each seed's
#: shared pre-switch prefix once; the loop runs every point from round
#: 0).  The floor leaves noise headroom.
SPEEDUP_FLOOR = 1.25
#: Timed runs of each side, alternating loop and fused, so one slow run
#: of either side does not set the speedup.
TIMING_RUNS = 3


def _switch_points():
    """The sweep axis: the pure-SOS curve plus N_POINTS - 1 switch rounds."""
    lo, hi = max(ROUNDS // 5, 1), max(4 * ROUNDS // 5, 2)
    rounds = sorted({int(r) for r in np.linspace(lo, hi, N_POINTS - 1)})
    return [None] + rounds


def _base_config(rounding):
    beta = beta_opt(torus_lambda((SIDE, SIDE)))
    return EngineConfig(
        scheme="sos",
        beta=beta,
        rounding=rounding,
        rounds=ROUNDS,
        record_every=RECORD_EVERY,
        seed=0,
    )


def _loop_run(topo, base_load, points, rounding):
    """The old shape: one engine call per sweep point."""
    engine = make_engine("batched")
    loads = np.tile(base_load, (N_SEEDS, 1))
    results = []
    t0 = time.perf_counter()
    for switch in points:
        config = replace(
            _base_config(rounding),
            switch=("fixed", switch) if switch is not None else None,
        )
        results.extend(engine.run(topo, config, loads))
    return time.perf_counter() - t0, results


def _fused_run(topo, base_load, points, rounding, engine_name="batched",
               workers=None):
    """The new shape: the whole sweep as one engine call."""
    params = ReplicaParams(
        switch_rounds=[p for p in points for _ in range(N_SEEDS)]
    )
    keys = [s for _ in points for s in range(N_SEEDS)]
    config = replace(
        _base_config(rounding),
        replica_params=params,
        replica_keys=keys,
        workers=workers,
    )
    loads = np.tile(base_load, (len(points) * N_SEEDS, 1))
    engine = make_engine(engine_name)
    t0 = time.perf_counter()
    results = engine.run(topo, config, loads)
    return time.perf_counter() - t0, results


def _bit_identical(lhs, rhs):
    return all(
        np.array_equal(a.final_state.load, b.final_state.load)
        and np.array_equal(
            np.asarray(a.series("max_minus_avg")),
            np.asarray(b.series("max_minus_avg")),
        )
        for a, b in zip(lhs, rhs)
    )


def _run_sweep_throughput():
    topo = torus_2d(SIDE, SIDE)
    base_load = point_load(topo, 1000 * topo.n)
    points = _switch_points()
    batch = len(points) * N_SEEDS

    # Parity pass: deterministic rounding, fused == per-point loop == sharded.
    _, loop_det = _loop_run(topo, base_load, points, "nearest")
    _, fused_det = _fused_run(topo, base_load, points, "nearest")
    _, sharded_det = _fused_run(
        topo, base_load, points, "nearest", engine_name="sharded", workers=2
    )
    parity_loop = _bit_identical(fused_det, loop_det)
    parity_sharded = _bit_identical(fused_det, sharded_det)

    # Throughput pass: the paper's fig08 workload (randomized-excess).
    loop_samples, fused_samples = [], []
    for _ in range(TIMING_RUNS):
        seconds, loop_rand = _loop_run(
            topo, base_load, points, "randomized-excess"
        )
        loop_samples.append(seconds)
        seconds, fused_rand = _fused_run(
            topo, base_load, points, "randomized-excess"
        )
        fused_samples.append(seconds)
    loop_seconds = float(np.median(loop_samples))
    fused_seconds = float(np.median(fused_samples))
    speedup = loop_seconds / fused_seconds
    # Stream parity of the switching points (points[0] is pure SOS).
    parity_switching = _bit_identical(
        fused_rand[N_SEEDS:], loop_rand[N_SEEDS:]
    )

    return {
        "n": topo.n,
        "rounds": ROUNDS,
        "n_points": len(points),
        "n_seeds": N_SEEDS,
        "n_replicas": batch,
        "engine_calls_fused": 1,
        "engine_calls_loop": len(points),
        "loop_seconds": loop_seconds,
        "fused_seconds": fused_seconds,
        "loop_samples": loop_samples,
        "fused_samples": fused_samples,
        "speedup": speedup,
        "speedup_floor": SPEEDUP_FLOOR,
        "parity_loop_bit_identical": bool(parity_loop),
        "parity_sharded_bit_identical": bool(parity_sharded),
        "parity_switching_randomized_bit_identical": bool(parity_switching),
        "asserted": bool(SCALE != "tiny" and batch >= 64),
    }


def test_sweep_throughput(benchmark, archive):
    s = run_once(benchmark, _run_sweep_throughput)
    archive(ExperimentRecord(name="sweeps", summary=s))
    print()
    print(
        format_table(
            ["shape", "engine calls", "seconds", "speedup"],
            [
                ["per-point loop", s["engine_calls_loop"],
                 f"{s['loop_seconds']:.2f}", "1.00x"],
                ["fused sweep", 1, f"{s['fused_seconds']:.2f}",
                 f"{s['speedup']:.2f}x"],
            ],
            title=(
                f"fig08-style switch sweep ({s['n']} nodes x {s['rounds']} "
                f"rounds, {s['n_points']} points x {s['n_seeds']} seeds, "
                f"B={s['n_replicas']})"
            ),
        )
    )
    # Parity is asserted unconditionally: folding a sweep into one call
    # must never change the per-replica results.
    assert s["parity_loop_bit_identical"], "fused sweep diverged from loop"
    assert s["parity_sharded_bit_identical"], "sharded sweep diverged"
    assert s["parity_switching_randomized_bit_identical"], (
        "randomized switching points diverged from loop"
    )
    if s["asserted"]:
        assert s["speedup"] >= s["speedup_floor"], s["speedup"]
