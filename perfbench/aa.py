"""A/A steadiness report: the same code measured in two interleaved sets.

Run from the repository root::

    python3 perfbench/aa.py

For every workload in ``BENCHMARK.json`` it runs ``run.py --trace 0``
ten times per set, alternating which set goes first.  Set 1 uses seeds
0 to 9, so it includes the seed whose final loads are pinned in
``digests.json``; set 2 uses seeds 10 to 19.  Per end-to-end metric it
prints each set's median and quartiles, the quartile spread as a share
of the median, and how much worse set 2's median is than set 1's, next
to the metric's bound.

The exit status is the acceptance rule the bounds are set for: every
spread except ``setup_s``'s is within the bound, and no metric's set-2
median is worse than set 1's by more than the bound.  ``setup_s`` has no
spread test: a run sets up once per measuring process, so its value is
the median of two or three samples, which a longer run does not steady;
only its median shift is held to its bound.  A spread above a third of
its bound passes but is marked ``thin``: that is the margin the bounds
are meant to leave.  Last comes ``pool.scaling_2w``, the pool-sweep wall
time with one worker over that with two (informational, not gated).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
#: The report compares two sets of runs of the same code, of ten seeds each.
SETS = 2
SEEDS = 10
#: Seeds of each pool-sweep run in the scaling row.
SCALING_SEEDS = 3


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_once(spec: dict, workload: str, seed: int, pool_workers: int = 1) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
        "--pool-workers", str(pool_workers),
    ]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=200)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise RuntimeError(f"{workload} seed {seed}: no result\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def spread(values: List[float]) -> Dict[str, float]:
    """Median, quartiles and quartile spread as a share of the median,
    with quartiles as ``statistics.quantiles(values, n=4)`` gives them."""
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def report(spec: dict, sets: List[Dict[str, List[dict]]]) -> bool:
    passed = True
    for workload in sets[0]:
        runs = [s[workload] for s in sets]
        attempted = sum(r["attempted"] for rs in runs for r in rs)
        failed = sum(r["failed"] for rs in runs for r in rs)
        print(f"\n{workload}  failed_ops_frac={failed / attempted:.4f} ({failed}/{attempted})")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            stats = [spread([r["metrics"][name]["value"] for r in rs]) for rs in runs]
            cells = "  ".join(
                f"set{i + 1}: med={s['median']:.6g} q1={s['q1']:.6g} q3={s['q3']:.6g} spread={s['spread']:.3f}"
                for i, s in enumerate(stats)
            )
            sign = 1 if m["better"] == "lower" else -1
            worse = sign * (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            gated = [s["spread"] for s in stats] if name != "setup_s" else []
            ok = all(x <= bound for x in gated) and worse <= bound
            thin = any(x > bound / 3 for x in gated)
            passed &= ok
            note = "  << FAILS" if not ok else "  (thin)" if thin else ""
            print(f"  {name:<20} [{m['unit']}] bound={bound}  {cells}  set2 worse by {worse:+.3f}{note}")
    return passed


def main() -> int:
    spec = load_spec()
    workloads = [w["name"] for w in spec["workloads"]]
    sets: List[Dict[str, List[dict]]] = [{w: [] for w in workloads} for _ in range(SETS)]
    for workload in workloads:
        for i in range(SEEDS):
            order = range(SETS) if i % 2 == 0 else reversed(range(SETS))
            for k in order:
                seed = i + k * SEEDS
                result = run_once(spec, workload, seed)
                sets[k][workload].append(result)
                print(f"{workload} set{k + 1} seed {seed}: correct={result['correct']} "
                      + " ".join(f"{n}={v['value']:.6g}" for n, v in result["metrics"].items()),
                      flush=True)
    passed = report(spec, sets)
    walls = {w: [] for w in (1, 2)}
    for seed in range(SCALING_SEEDS):
        for workers in (1, 2):
            r = run_once(spec, "pool-sweep", seed, pool_workers=workers)
            walls[workers].append(r["metrics"]["wall_s"]["value"])
    ratio = statistics.median(walls[1]) / statistics.median(walls[2])
    print(f"\npool.scaling_2w = {ratio:.3f} (one-worker wall / two-worker wall, "
          f"{SCALING_SEEDS} seeds each; informational)")
    print("\npasses" if passed else "\nFAILS")
    return 0 if passed else 1


if __name__ == "__main__":
    sys.exit(main())
