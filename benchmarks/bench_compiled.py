"""Compiled kernel tier vs the numpy tier on the randomized-excess rounding.

The numpy tier pays for the paper's randomized-excess rounding in
full-plane passes: schedule, round, token bookkeeping and apply each
stream their own ``(m, B)`` intermediates, and the excess-token dispatch
sorts and scatters every token.  The compiled tier
(``EngineConfig.kernel``) fuses schedule + rounding + load update into
single passes and scatters the tokens in C — this bench measures what
that buys and proves it changes nothing.  The compiled tier covers
randomized-excess only (the elementwise roundings ran at 0.55-1.6x the
numpy tier, losing on one thread, and run on numpy):

* **mid scale** — torus 10^4 nodes, 8 replicas: numpy-vs-compiled
  rounds/sec, with the speedup floor asserted.
* **bit-identity** — the compiled tier's final loads and
  ``max_minus_avg`` trajectories are bitwise equal to the numpy tier
  across dense, tiled and sharded execution.
* **paper scale** — the 10^6-node torus runs the randomized-excess
  process in tiled + streaming-summary mode on both tiers and the
  compiled tier must clear ``MILLION_EXCESS_FLOOR``.

Every run writes ``BENCH_compiled.json`` at the repo root via
``_helpers.write_bench_json``; CI uploads it as an artifact.  The bench
skips (never fails) when no compiled provider is importable — the
default CI leg proves exactly that fallback.
"""

import os
import resource
import time

import numpy as np
import pytest

from repro import point_load, random_load, torus_2d, beta_opt, torus_lambda
from repro.engines import EngineConfig, make_engine
from repro.experiments import format_table
from repro.io import ExperimentRecord
from repro.kernels import warm_up_kernels

from _helpers import run_once

SCALE = os.environ.get("REPRO_BENCH_SCALE", "ci")

#: Mid-scale measurement point: (torus side, replicas, rounds).  Rounds
#: are high enough that one-time prepare cost (graph/CSR setup, identical
#: for both tiers) does not dilute the per-round rate of the faster tier.
MID_POINT = {
    "tiny": (24, 8, 30),
    "ci": (100, 8, 200),
    "paper": (100, 8, 200),
}[SCALE]

#: The one rounding the compiled tier runs.
ROUNDING = "randomized-excess"

#: Asserted speedup floor for randomized-excess at the mid-scale point
#: (SCALE != "tiny" only): the compiled tier must sustain >= 3x the numpy
#: tier's rounds/sec.
MID_EXCESS_FLOOR = 3.0

#: Paper scale additionally runs the 10^6-node tiled discrete point with a
#: token-rich replica stack.  The asserted floor depends on the machine:
#: with more than one core the OpenMP-parallel kernels must clear >= 5x,
#: while on a single core only the fusion win is available (the numpy tier
#: is equally memory-bound on plane passes, so the ceiling there is the
#: token machinery — ~2-3x measured, but shared-box memory bandwidth
#: swings the run-to-run ratio between ~1.8x and ~3x even with
#: interleaved repeats) and the floor drops to 1.5x: enough to separate
#: "the fusion win is real" from a regression without flaking on noisy
#: hardware.  The applied floor and the cpu count are both recorded in
#: the summary next to the measured speedup.
RUN_MILLION = SCALE == "paper"
MILLION_SIDE = 1000
MILLION_REPLICAS = 8
MILLION_ROUNDS = 30
MILLION_CPUS = os.cpu_count() or 1
MILLION_EXCESS_FLOOR = 5.0 if MILLION_CPUS > 1 else 1.5

#: Bit-identity checks run on a small torus so all three execution tiers
#: (dense, tiled, sharded) stay cheap; (side, replicas, rounds, tile).
PARITY_POINT = (24, 4, 40, 97)

#: Node-space record fields of the mid-scale runs (same trimmed set as the
#: scaling frontier, so rates are comparable across bench files).
NODE_FIELDS = (
    "max_minus_avg", "min_minus_avg", "potential_per_node", "min_load",
    "total_load",
)


def _peak_rss_mb() -> float:
    """Lifetime peak RSS of this process in MiB (Linux: ru_maxrss is KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _compiled_provider() -> str:
    """The compiled provider ``kernel="auto"`` runs, or skip the bench."""
    if warm_up_kernels(["cffi"]).get("cffi"):
        return "cffi"
    pytest.skip("no compiled kernel provider available (cffi)")


def _mixed_loads(topo, n_replicas):
    rng = np.random.default_rng(0)
    rows = [point_load(topo, 100 * topo.n)]
    rows += [random_load(topo, 200.0, rng=rng) for _ in range(n_replicas - 1)]
    return np.stack(rows)


def _run_timed(topo, config, loads, repeats=1):
    """Rounds/sec over ``repeats`` identical runs (best rate wins).

    The runs are deterministic given the config seed, so repeating only
    reduces scheduler/cache noise — it never changes the results, and the
    returned records are from the last run.
    """
    engine = make_engine("batched")
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        results = engine.run(topo, config, loads)
        elapsed = time.perf_counter() - t0
        best = max(best, config.rounds / elapsed)
    return best, results


def _measure_mid(provider: str):
    """Numpy-vs-compiled rounds/sec of the randomized-excess rounding."""
    side, n_replicas, rounds = MID_POINT
    topo = torus_2d(side, side)
    beta = beta_opt(torus_lambda((side, side)))
    loads = _mixed_loads(topo, n_replicas)

    def _config(kernel):
        return EngineConfig(
            scheme="sos", beta=beta, rounding=ROUNDING, rounds=rounds,
            record_every=rounds, seed=0, record_fields=NODE_FIELDS,
            kernel=kernel,
        )

    repeats = 1 if SCALE == "tiny" else 2
    numpy_rps, ref = _run_timed(topo, _config("numpy"), loads, repeats=repeats)
    kern_rps, got = _run_timed(topo, _config(provider), loads, repeats=repeats)
    identical = all(
        np.array_equal(a.final_state.load, b.final_state.load)
        for a, b in zip(ref, got)
    )
    assert identical, "compiled tier diverged at mid scale"
    return {
        "graph": f"torus-{side}x{side}",
        "n": topo.n,
        "m": topo.m_edges,
        "replicas": n_replicas,
        "rounds": rounds,
        "provider": provider,
        "rows": [{
            "rounding": ROUNDING,
            "numpy_rounds_per_sec": numpy_rps,
            "compiled_rounds_per_sec": kern_rps,
            "speedup": kern_rps / numpy_rps,
            "identical": identical,
        }],
    }


def _check_parity(provider: str):
    """Bitwise parity of randomized-excess across dense/tiled/sharded."""
    side, n_replicas, rounds, tile = PARITY_POINT
    topo = torus_2d(side, side)
    beta = beta_opt(torus_lambda((side, side)))
    loads = _mixed_loads(topo, n_replicas)

    def _options(kernel, **kw):
        return EngineConfig(
            scheme="sos", beta=beta, rounding=ROUNDING, rounds=rounds,
            record_every=5, seed=0, kernel=kernel, **kw,
        )

    ref = make_engine("batched").run(topo, _options("numpy"), loads)
    tiers = {
        "dense": make_engine("batched").run(topo, _options(provider), loads),
        "tiled": make_engine("batched").run(
            topo, _options(provider, tile_size=tile), loads
        ),
        "sharded": make_engine("sharded").run(
            topo, _options(provider, workers=2), loads
        ),
    }
    for tier, got in tiers.items():
        for a, b in zip(ref, got):
            assert np.array_equal(a.final_state.load, b.final_state.load), (
                f"final loads diverged: {tier}"
            )
            assert [r.max_minus_avg for r in a.records] == [
                r.max_minus_avg for r in b.records
            ], f"max_minus_avg diverged: {tier}"
    return {
        "graph": f"torus-{side}x{side}",
        "replicas": n_replicas,
        "rounds": rounds,
        "tile_size": tile,
        "tiers": list(tiers),
        "roundings_verified": [ROUNDING],
    }


def _measure_million(provider: str):
    """The 10^6-node randomized-excess point, tiled + summary, both tiers.

    Uses the mixed point/random replica stack: fractional random loads keep
    every round token-rich (~10^6 excess tokens/round), which is exactly
    the regime where the numpy tier's per-token machinery dominates.
    """
    topo = torus_2d(MILLION_SIDE, MILLION_SIDE)
    beta = beta_opt(torus_lambda((MILLION_SIDE, MILLION_SIDE)))
    loads = _mixed_loads(topo, MILLION_REPLICAS)
    totals = loads.sum(axis=1)

    def _config(kernel):
        return EngineConfig(
            scheme="sos", beta=beta, rounding=ROUNDING,
            rounds=MILLION_ROUNDS, record_every=MILLION_ROUNDS, seed=0,
            tile_size="auto", memory_budget_mb=32.0, record_mode="summary",
            kernel=kernel,
        )

    # Interleave the repeats (numpy, compiled, numpy, compiled) so each
    # pair shares the same memory-bandwidth regime of the host — on
    # shared boxes the available bandwidth drifts on minute timescales,
    # which would otherwise skew a back-to-back comparison either way.
    numpy_rps = kern_rps = 0.0
    for _ in range(2):
        rps, ref = _run_timed(topo, _config("numpy"), loads)
        numpy_rps = max(numpy_rps, rps)
        rps, got = _run_timed(topo, _config(provider), loads)
        kern_rps = max(kern_rps, rps)
    for a, b, total in zip(ref, got, totals):
        assert np.array_equal(a.final_state.load, b.final_state.load)
        final = b.final_state.load.sum()
        assert abs(final - total) <= 1e-6 * total
    return {
        "graph": f"torus-{MILLION_SIDE}x{MILLION_SIDE}-discrete-tiled",
        "n": topo.n,
        "m": topo.m_edges,
        "replicas": MILLION_REPLICAS,
        "rounds": MILLION_ROUNDS,
        "rounding": ROUNDING,
        "tile_size": "auto(32MiB)",
        "record_mode": "summary",
        "provider": provider,
        "cpu_count": MILLION_CPUS,
        "floor_applied": MILLION_EXCESS_FLOOR,
        "numpy_rounds_per_sec": numpy_rps,
        "compiled_rounds_per_sec": kern_rps,
        "speedup": kern_rps / numpy_rps,
        "peak_rss_mb": _peak_rss_mb(),
    }


def _run_compiled():
    provider = _compiled_provider()
    summary = {
        "scale": SCALE,
        "provider": provider,
        "record_fields": list(NODE_FIELDS),
        "mid_excess_floor": MID_EXCESS_FLOOR,
        "million_excess_floor": MILLION_EXCESS_FLOOR,
        "parity": _check_parity(provider),
        "mid": _measure_mid(provider),
    }
    if RUN_MILLION:
        summary["million"] = _measure_million(provider)
    summary["peak_rss_mb"] = _peak_rss_mb()
    return summary


def test_compiled_kernels(benchmark, archive):
    s = run_once(benchmark, _run_compiled)
    archive(ExperimentRecord(name="compiled", summary=s))

    print()
    rows = []
    for r in s["mid"]["rows"]:
        rows.append([
            r["rounding"],
            f"{r['numpy_rounds_per_sec']:.0f}",
            f"{r['compiled_rounds_per_sec']:.0f}",
            f"{r['speedup']:.2f}x",
            "yes" if r["identical"] else "NO",
        ])
    if "million" in s:
        m = s["million"]
        rows.append([
            "excess @ 10^6 tiled",
            f"{m['numpy_rounds_per_sec']:.2f}",
            f"{m['compiled_rounds_per_sec']:.2f}",
            f"{m['speedup']:.2f}x",
            "yes",
        ])
    print(
        format_table(
            ["rounding", "numpy r/s", f"{s['provider']} r/s", "speedup",
             "bit-identical"],
            rows,
            title=(
                f"compiled kernel tier ({s['provider']}, "
                f"torus {s['mid']['graph']}, B={s['mid']['replicas']})"
            ),
        )
    )

    [excess] = s["mid"]["rows"]
    if SCALE != "tiny":
        # Acceptance: the compiled tier sustains >= 3x rounds/sec on the
        # paper's rounding at the mid-scale point.
        assert excess["speedup"] >= MID_EXCESS_FLOOR, excess
    if RUN_MILLION:
        assert s["million"]["speedup"] >= MILLION_EXCESS_FLOOR, s["million"]
