"""Cold start: what a fresh process pays before and around its first run.

Every row runs in new interpreters, one after another, and records the
median over ``RUNS`` processes (after one untimed warm-up, which also
builds the compiled kernels into their cache if they are missing):

* **library import** — ``import`` of the package, its engines, sweeps,
  kernels, fault models and CLI, timed inside the child;
* **repro-lb --help** — the console entry point's parser, whole process;
* **simulate, numpy / cffi** — a ``repro-lb simulate`` at the bench scale
  on the batched engine with 4 replicas, once per kernel tier, whole
  process.

Wall time is taken from the parent (interpreter start-up included), peak
RSS by the child itself, from its address space's high-water mark
(Linux ``/proc``).  The one assertion is
that the library import loads no scipy submodule: scipy is imported
where a sparse operator is built.

Summary lands in ``BENCH_cold_start.json`` (committed at the repo root).
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time

from repro.experiments import format_table
from repro.io import ExperimentRecord

from _helpers import REPO_ROOT, run_once

SCALE = os.environ.get("REPRO_BENCH_SCALE", "ci")

#: Fresh processes timed per row.
RUNS = {"tiny": 3, "ci": 7, "paper": 11}[SCALE]
SIM_SCALE = "tiny" if SCALE == "tiny" else "ci"

LIBRARY = (
    "repro",
    "repro.engines",
    "repro.experiments.sweeps",
    "repro.kernels",
    "repro.network.faults",
    "repro.cli",
)
SCIPY_MODULES = (
    "scipy.sparse",
    "scipy.linalg",
    "scipy.sparse.linalg",
    "scipy.sparse.csgraph",
    "numpy.f2py",
)

#: Prologue of every child: at exit it prints its peak RSS, the high-water
#: mark of its own address space (``VmHWM``).  The ``ru_maxrss`` a parent
#: reads would also count the parent's pages the child held before exec.
_PROLOGUE = """
import atexit, json
def _report():
    with open("/proc/self/status") as fh:
        hwm = next(line for line in fh if line.startswith("VmHWM:"))
    print("COLD", json.dumps({"peak_rss_mb": int(hwm.split()[1]) / 1024.0}))
atexit.register(_report)
"""
_IMPORT = f"""
import sys, time
t0 = time.perf_counter()
import {", ".join(LIBRARY)}
t1 = time.perf_counter()
print("COLD", json.dumps({{
    "import_s": t1 - t0,
    "scipy": [m for m in {SCIPY_MODULES!r} if m in sys.modules],
}}))
"""
#: What the ``repro-lb`` console script runs.
_CLI = "import sys\nfrom repro.cli import main\nsys.exit(main())"

ROWS = {
    "library import": [_IMPORT],
    "repro-lb --help": [_CLI, "--help"],
    "simulate, numpy": [
        _CLI, "simulate", "--scale", SIM_SCALE, "--engine", "batched",
        "--replicas", "4", "--kernel", "numpy",
    ],
    "simulate, cffi": [
        _CLI, "simulate", "--scale", SIM_SCALE, "--engine", "batched",
        "--replicas", "4", "--kernel", "cffi",
    ],
}


def child_env(src: str) -> dict:
    """The environment of a child importing the package from ``src``."""
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + (os.pathsep + path if path else "")}


def measure(row, env) -> dict:
    """One fresh ``python -c`` of a :data:`ROWS` entry: its wall time seen
    from here and what it reports (peak RSS; import time and the scipy
    modules it loaded for the library import)."""
    code, *argv = row
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-c", _PROLOGUE + code, *argv], env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
    )
    sample = {"wall_s": time.perf_counter() - t0}
    if proc.returncode:
        raise RuntimeError(
            f"{argv} exited {proc.returncode}: {proc.stdout[-2000:]}"
        )
    for line in proc.stdout.splitlines():
        if line.startswith("COLD "):
            sample.update(json.loads(line[5:]))
    return sample


def _median(samples, key):
    return statistics.median(s[key] for s in samples)


def _run_cold_start() -> dict:
    env = child_env(os.path.join(REPO_ROOT, "src"))
    samples = {name: [] for name in ROWS}
    for row in ROWS.values():
        measure(row, env)  # warm-up: file cache, kernel cache
    # Interleave the rows so a slow spell of the machine hits them all.
    for _ in range(RUNS):
        for name, row in ROWS.items():
            samples[name].append(measure(row, env))
    imports = samples["library import"]
    summary = {
        "runs": RUNS,
        "sim_scale": SIM_SCALE,
        "library": list(LIBRARY),
        "import_s": _median(imports, "import_s"),
        "import_scipy_modules": sorted({m for s in imports for m in s["scipy"]}),
        "rows": {},
    }
    for name, runs in samples.items():
        summary["rows"][name] = {
            "wall_s": _median(runs, "wall_s"),
            "peak_rss_mb": _median(runs, "peak_rss_mb"),
            "wall_s_runs": [s["wall_s"] for s in runs],
            "peak_rss_mb_runs": [s["peak_rss_mb"] for s in runs],
        }
    return summary


def test_cold_start(benchmark, archive):
    s = run_once(benchmark, _run_cold_start)
    archive(ExperimentRecord(name="cold_start", summary=s))
    rows = [
        [name, f"{r['wall_s']:.3f}", f"{r['peak_rss_mb']:.1f}"]
        for name, r in s["rows"].items()
    ]
    print()
    print(
        format_table(
            ["process", "wall s (median)", "peak RSS MiB (median)"], rows,
            title=(
                f"cold start, {s['runs']} fresh processes per row "
                f"(library import alone: {s['import_s']:.3f} s)"
            ),
        )
    )
    assert s["import_scipy_modules"] == [], s["import_scipy_modules"]
