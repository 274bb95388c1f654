"""Staleness engine: the async ladder, vectorised — plus a throughput race.

The ``staleness`` engine quantises link latencies into integer round
buckets and advances the whole ``(n, B)`` ensemble with one delayed-view
plane per bucket, replacing the event loop's per-message queue with
vectorised ring reads.  This bench re-runs the FOS-graceful/SOS-divergent
latency ladder of ``bench_async.py`` on the paper's 32x32 torus through
the batched engine and races it against the event-driven
:class:`~repro.network.async_engine.AsyncNetwork`:

* **parity** — at an integer latency the staleness engine replays the
  async engine bit for bit (the differential-harness contract);
* **the ladder** — FOS stays convergent at every (now bucketed) latency
  level while SOS at the torus ``beta_opt`` blows up under any staleness,
  reproducing the async headline from the vectorised path;
* **throughput** — one batched call advancing ``B`` replicas must beat
  the event loop by >= 5x replicas/sec at n=1024, B=16 (each side the
  median of 3 alternating samples, all kept in the summary).

Summary lands in ``BENCH_staleness.json`` (committed at the repo root).
"""

import os
import time

import numpy as np

from repro import beta_opt, point_load, torus_2d, torus_lambda
from repro.engines import EngineConfig, make_engine
from repro.experiments import format_table
from repro.io import ExperimentRecord
from repro.network import AsyncNetwork

from _helpers import run_once

SCALE = os.environ.get("REPRO_BENCH_SCALE", "ci")

SIDE = {"tiny": 8, "ci": 32, "paper": 32}[SCALE]
ROUNDS = {"tiny": 30, "ci": 150, "paper": 400}[SCALE]
#: Uniform link latency ladder, in rounds — same levels as bench_async;
#: fractional entries exercise the ceil quantiser.
LATENCIES = [0.0, 0.5, 1.5, 3.5]
CURVE_EVERY = {"tiny": 2, "ci": 5, "paper": 10}[SCALE]
ROUNDING = "randomized-excess"
SEED = 0

#: Throughput race: one batched staleness call advancing PERF_B replicas
#: versus the event loop draining its queues one replica at a time.
PERF_B = {"tiny": 4, "ci": 16, "paper": 16}[SCALE]
PERF_ROUNDS = {"tiny": 10, "ci": 40, "paper": 40}[SCALE]
#: Event-loop replicas actually timed (its per-replica cost is flat, so a
#: couple of runs pin the rate without multiplying harness wall time).
PERF_ASYNC_REPLICAS = {"tiny": 1, "ci": 2, "paper": 2}[SCALE]
PERF_LATENCY = 1.5
SPEEDUP_TARGET = 5.0
#: Timed samples of each side, staleness and event loop alternating, so
#: one slow sample of either side does not set the speedup.
TIMING_RUNS = 3


def _run_level(topo, load, scheme, beta, latency):
    cfg = EngineConfig(
        scheme=scheme, beta=beta, rounding=ROUNDING, rounds=ROUNDS,
        seed=SEED, latency_model=latency if latency > 0.0 else None,
    )
    eng = make_engine("staleness")
    handle = eng.prepare(topo, cfg, load[None, :])
    avg = load.sum() / topo.n
    curve = []
    for r in range(ROUNDS):
        eng.step(handle)
        if r % CURVE_EVERY == 0 or r == ROUNDS - 1:
            loads = handle.core.loads[:, 0]
            curve.append([r + 1, float(loads.max() - avg)])
    loads = handle.core.loads[:, 0]
    return {
        "scheme": scheme,
        "latency": latency,
        "mean_staleness": handle.core.mean_staleness,
        "max_staleness": handle.core.max_staleness,
        "final_max_minus_avg": float(loads.max() - avg),
        "total_load_with_in_flight": float(handle.core.total_load()[0]),
        "curve_max_minus_avg": curve,
    }


def _integer_latency_parity(topo, load, beta):
    """Bit-identity gate: at an integer latency the vectorised engine must
    replay the event loop exactly (deterministic rounding — the contract
    does not cover stochastic streams, whose draw order differs)."""
    cfg = EngineConfig(
        scheme="sos", beta=beta, rounding="floor", rounds=min(ROUNDS, 30),
        seed=SEED, latency_model=2.0,
    )
    eng_s, eng_a = make_engine("staleness"), make_engine("async")
    hs = eng_s.prepare(topo, cfg, load[None, :])
    ha = eng_a.prepare(topo, cfg, load[None, :])
    for _ in range(cfg.rounds):
        eng_s.step(hs)
        eng_a.step(ha)
    return bool(
        np.array_equal(hs.core.loads[:, 0], ha.replicas[0].net.loads())
    )


def _perf_race(topo, load):
    """Replicas/sec: one batched staleness call vs the event loop, each
    the median of ``TIMING_RUNS`` alternating samples."""
    cfg = EngineConfig(
        scheme="fos", beta=1.0, rounding=ROUNDING, rounds=PERF_ROUNDS,
        seed=SEED, latency_model=PERF_LATENCY,
    )
    eng = make_engine("staleness")

    def staleness_seconds():
        handle = eng.prepare(topo, cfg, np.tile(load, (PERF_B, 1)))
        t0 = time.perf_counter()
        for _ in range(PERF_ROUNDS):
            eng.step(handle)
        return time.perf_counter() - t0

    def async_seconds():
        nets = [
            AsyncNetwork(
                topo, load, scheme="fos", beta=1.0, rounding=ROUNDING,
                seed=SEED + b, link_latency=PERF_LATENCY,
            )
            for b in range(PERF_ASYNC_REPLICAS)
        ]
        t0 = time.perf_counter()
        for net in nets:
            for _ in range(PERF_ROUNDS):
                net.step()
        return time.perf_counter() - t0

    stale_samples, async_samples = [], []
    for _ in range(TIMING_RUNS):
        stale_samples.append(staleness_seconds())
        async_samples.append(async_seconds())
    stale_rps = PERF_B / float(np.median(stale_samples))
    async_rps = PERF_ASYNC_REPLICAS / float(np.median(async_samples))
    return {
        "n": topo.n,
        "replicas": PERF_B,
        "rounds": PERF_ROUNDS,
        "latency": PERF_LATENCY,
        "async_replicas_timed": PERF_ASYNC_REPLICAS,
        "staleness_seconds_samples": stale_samples,
        "async_seconds_samples": async_samples,
        "staleness_replicas_per_sec": stale_rps,
        "async_replicas_per_sec": async_rps,
        "speedup_vs_async": stale_rps / async_rps,
    }


def _run_staleness_ladder():
    topo = torus_2d(SIDE, SIDE)
    load = point_load(topo, 1000 * topo.n)
    beta = beta_opt(torus_lambda((SIDE, SIDE)))

    parity = _integer_latency_parity(topo, load, beta)

    levels = []
    for scheme in ("fos", "sos"):
        b = beta if scheme == "sos" else 1.0
        for latency in LATENCIES:
            level = _run_level(topo, load, scheme, b, latency)
            base = next(
                (
                    lv["final_max_minus_avg"]
                    for lv in levels
                    if lv["scheme"] == scheme and lv["latency"] == 0.0
                ),
                None,
            )
            level["degradation_vs_sync"] = (
                level["final_max_minus_avg"] / base if base else None
            )
            levels.append(level)

    return {
        "n": topo.n,
        "rounds": ROUNDS,
        "rounding": ROUNDING,
        "latency_buckets": "ceil",
        "beta_sos": beta,
        "latencies": LATENCIES,
        "parity_integer_latency_bit_identical": parity,
        "levels": levels,
        "perf": _perf_race(topo, load),
    }


def test_staleness_ladder_and_throughput(benchmark, archive):
    s = run_once(benchmark, _run_staleness_ladder)
    archive(
        ExperimentRecord(
            name="staleness",
            params={
                "n": s["n"], "rounds": s["rounds"],
                "rounding": s["rounding"], "latencies": s["latencies"],
                "latency_buckets": s["latency_buckets"],
            },
            summary=s,
        )
    )
    perf = s["perf"]
    print()
    print(
        format_table(
            ["scheme", "latency", "mean staleness", "final max-avg",
             "vs sync"],
            [
                [
                    lv["scheme"],
                    f"{lv['latency']:.1f}",
                    f"{lv['mean_staleness']:.2f}",
                    f"{lv['final_max_minus_avg']:.4g}",
                    "1.00x" if lv["latency"] == 0.0
                    else f"{lv['degradation_vs_sync']:.3g}x",
                ]
                for lv in s["levels"]
            ],
            title=(
                f"staleness-engine ladder ({s['n']} nodes x "
                f"{s['rounds']} rounds, {s['rounding']})"
            ),
        )
    )
    print(
        f"throughput @ n={perf['n']}, B={perf['replicas']}: "
        f"staleness {perf['staleness_replicas_per_sec']:.2f} replicas/s "
        f"vs async {perf['async_replicas_per_sec']:.2f} replicas/s "
        f"({perf['speedup_vs_async']:.1f}x)"
    )
    assert s["parity_integer_latency_bit_identical"], (
        "integer-latency staleness run diverged from the async engine"
    )
    fos = [lv for lv in s["levels"] if lv["scheme"] == "fos"]
    # Observed staleness tracks the (bucketed) latency ladder.
    stales = [lv["mean_staleness"] for lv in fos]
    assert all(a <= b + 1e-9 for a, b in zip(stales, stales[1:])), stales
    # Load (nodes + in-flight planes) is conserved at every level — to
    # float cancellation accuracy once a diverged SOS run pushes loads
    # past 2^53, where integer token arithmetic stops being exact.
    expected = 1000.0 * s["n"]
    for lv in s["levels"]:
        scale = max(expected, abs(lv["final_max_minus_avg"]))
        err = abs(lv["total_load_with_in_flight"] - expected)
        assert err <= 1e-9 * scale, lv
    if SCALE != "tiny":
        # FOS stays convergent under bucketed staleness at every level.
        for lv in fos:
            assert lv["final_max_minus_avg"] < 0.05 * 1000 * s["n"], lv
        # The headline perf target: >= 5x replicas/sec over the event
        # loop at paper scale, measured on this machine.
        assert perf["speedup_vs_async"] >= SPEEDUP_TARGET, perf
