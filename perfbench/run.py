"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the repository root::

    python3 perfbench/run.py --workload pool-sweep --seed 1 --seconds 24 --trace 0

Every process that touches the library is a fresh interpreter started
here with a deadline (``workloads.py``), so the compiled tier's OpenMP
runtime never meets a forked pool worker and a hang cannot outlive the
run.  ``--trace 0`` splits the measured seconds over several measuring
processes, each with its own set-up, and prints the end-to-end metrics;
``--trace 1`` runs one traced process and prints the per-layer metrics.
The last stdout line is the result: ``{"correct", "attempted", "failed",
"metrics"}``.  Before it come the run's provenance and, untraced, the
derived end-to-end figures (``metrics.DERIVED``).
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import metrics  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

#: Wall-clock budget of one run after the kernel build, below the 180 s cap.
BUDGET_S = 170.0
#: Seconds a process past its deadline gets between SIGTERM and SIGKILL.
KILL_GRACE_S = 5.0
#: Deadline of the one-off compiled-kernel build in a fresh checkout.
BUILD_DEADLINE_S = 600.0
#: Seed whose final-load digests are pinned in ``digests.json``.
PINNED_SEED = 0
#: OpenMP/BLAS threads per process: one, so a pool worker and its parent
#: never oversubscribe a small machine and runs stay steady.
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")


class RunFailed(Exception):
    """The run cannot produce a result at all."""


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["REPRO_KERNEL_CACHE"] = os.path.join(ROOT, ".bench_build", "kernel-cache")
    # Compiler and tempfile scratch stay inside the checkout too.
    env["TMPDIR"] = os.path.join(ROOT, ".bench_build", "tmp")
    os.makedirs(env["TMPDIR"], exist_ok=True)
    for var in THREAD_VARS:
        env[var] = THREADS
    # The pool's own default start method is part of what is measured.
    env.pop("REPRO_SHARDED_START", None)
    return env


def ensure_kernels_built(env: Dict[str, str]) -> None:
    """Compile the cffi kernel tier once per checkout, outside any timing."""
    if glob.glob(os.path.join(env["REPRO_KERNEL_CACHE"], "_repro_kern_*.so")):
        return
    code = "from repro.kernels import get_provider; assert get_provider('cffi') is not None"
    try:
        subprocess.run(
            [sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
            timeout=BUILD_DEADLINE_S, stdout=subprocess.DEVNULL,
        )
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
        raise RunFailed(f"building the cffi kernel tier failed: {exc}") from exc


def run_child(workload: str, seed: int, mode: str, seconds: float, deadline: float,
              env: Dict[str, str], pool_workers: int = 1) -> Optional[dict]:
    """One workload process; its JSON report, or ``None`` past the deadline."""
    cmd = [
        sys.executable, os.path.join(HERE, "workloads.py"), "--workload", workload,
        "--seed", str(seed), "--mode", mode, "--seconds", str(seconds),
        "--pool-workers", str(pool_workers),
    ]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        return None
    # A session of its own, so a deadline takes the pool worker down too.
    proc = subprocess.Popen(
        cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        return None
    finally:
        if proc.poll() is None:  # past the deadline, or this run was stopped
            _stop_group(proc)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(stderr[-2000:])
        raise RunFailed(f"{workload} {mode} process exited with {proc.returncode}")
    return json.loads(lines[-1])


def _stop_group(proc: subprocess.Popen) -> None:
    """Stop a child and everything it started, and wait for the child.

    SIGTERM first: the multiprocessing resource tracker ignores it and
    unlinks the shared-memory blocks its dead owners leave behind.
    """
    os.killpg(proc.pid, signal.SIGTERM)
    try:
        proc.communicate(timeout=KILL_GRACE_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()


def source_id() -> str:
    """The commit, or a hash of ``src/`` where the tree is no git checkout."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        if sha.returncode == 0:
            return sha.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    h = hashlib.sha1()
    for path in sorted(glob.glob(os.path.join(ROOT, "src", "**", "*.py"), recursive=True)):
        h.update(os.path.relpath(path, ROOT).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return "src-sha1:" + h.hexdigest()


def pinned_digest(workload: str) -> Optional[str]:
    with open(os.path.join(HERE, "digests.json")) as fh:
        return json.load(fh).get(workload)


def end_to_end(reports: List[dict]) -> Dict[str, float]:
    return {
        "wall_s": statistics.median(w for r in reports for w in r["walls"]),
        "setup_s": statistics.median(r["setup_s"] for r in reports),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in reports),
        "final_max_minus_avg": reports[0]["final_max_minus_avg"],
    }


def run(workload: str, seed: int, seconds: float, trace: bool, pool_workers: int = 1) -> dict:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        raise RunFailed(f"no library source at {os.path.join(ROOT, 'src', 'repro')}")
    env = child_env()
    ensure_kernels_built(env)
    deadline = time.monotonic() + BUDGET_S
    # An untraced run splits its seconds over the workload's measuring
    # processes.  Each sets up once (``setup_s`` is the median of their
    # set-ups) and runs an equal share of the warm calls; ``wall_s`` is
    # the median of all their warm calls.  A process's speed varies with
    # where it lands (memory layout, which vCPU), so pooling several keeps
    # one unlucky process from moving the result.
    mode, processes = ("trace", 1) if trace else ("measure", WORKLOADS[workload].processes)
    reports, missed = [], 0
    for _ in range(processes):
        report = run_child(workload, seed, mode, seconds / processes, deadline, env, pool_workers)
        if report is None:
            missed += 1
        else:
            reports.append(report)
    attempted = missed + sum(r["attempted"] for r in reports)
    failed = missed + sum(r["failed"] for r in reports)
    for r in reports:
        for err in r["errors"]:
            sys.stderr.write(f"{workload} seed {seed}: {err}\n")
    # A process that failed its set-up has no result; the others still do.
    reports = [r for r in reports if "digest" in r]
    if not reports or not (trace or any(r["walls"] for r in reports)):
        raise RunFailed(f"{workload}: no complete result ({failed} of {attempted} operations failed)")
    digests = {r["digest"] for r in reports}
    if len(digests) != 1:
        failed += 1
        sys.stderr.write(f"{workload}: processes disagree on the final loads\n")
    want = pinned_digest(workload) if seed == PINNED_SEED else None
    got = reports[0]["digest"]
    if want is not None and got != want:
        failed += 1
        sys.stderr.write(f"{workload}: final-load digest {got[:16]} != pinned {want[:16]}\n")
    derived = None
    if trace:
        values, table = reports[0]["layers"], metrics.per_layer_table()
    else:
        values, table = end_to_end(reports), metrics.END_TO_END
        derived = metrics.as_metrics({
            "node_rounds_per_s": reports[0]["node_rounds"] / values["wall_s"],
            "failed_ops_frac": failed / attempted,
        }, metrics.DERIVED)
    provenance = {
        "source": source_id(),
        "cores": len(os.sched_getaffinity(0)),
        "threads": {var: env[var] for var in THREAD_VARS},
        "seed": seed,
        "workload": workload,
        **reports[0]["provenance"],
    }
    return {
        "provenance": provenance,
        "derived": derived,
        "result": {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": metrics.as_metrics(values, table),
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="input seed; the default one's final loads are pinned")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pool-workers", type=int, default=1,
                        help="pool-sweep worker count (the A/A report's scaling row)")
    args = parser.parse_args(argv)
    # Stopping this run stops its workload process too (see run_child).
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        out = run(args.workload, args.seed, args.seconds, bool(args.trace), args.pool_workers)
    except RunFailed as exc:
        sys.stderr.write(f"benchmark failed: {exc}\n")
        return 1
    print("provenance: " + json.dumps(out["provenance"], sort_keys=True))
    if out["derived"] is not None:
        print("derived: " + json.dumps(out["derived"]))
    print(json.dumps(out["result"]))
    return 0 if out["result"]["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
