"""The benchmark's workloads and the child process that runs one.

Each workload is a closed loop: one caller issues a call, waits for its
result, checks it, and only then issues the next.  A call always runs
the same inputs, which the workload derives from its seed, so every
call's final loads must equal the first call's.

Run by ``run.py`` in a fresh interpreter per process::

    python3 perfbench/workloads.py --workload pool-sweep --seed 1 \\
        --mode measure --seconds 10

Both modes time one set-up (graph build, inputs, engine or pool
construction and the first call).  ``--mode measure`` then runs warm
calls for ``--seconds``; ``--mode trace`` runs them untraced, then
traced, and derives the per-layer metrics.  The last stdout line is one
JSON object.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import sys
import time
import traceback
from dataclasses import replace
from typing import Dict, List, Optional

import numpy as np

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from checks import (  # noqa: E402
    CheckFailed,
    check_ledger,
    check_same_digest,
    check_static_conservation,
    digest,
)
import metrics  # noqa: E402
from spans import Tracer, Window  # noqa: E402

#: Tokens per node of the paper's point load (Section VI: 1000 * n on one node).
PER_NODE = 1000.0
#: Warm calls a measurement makes at least, however long they take.
MIN_WARM_CALLS = 2
#: A single call slower than this counts as a failed operation.
CALL_DEADLINE_S = 60.0


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=np.float64)))


class Workload:
    """Base of the workloads: inputs, one call, its checks."""

    name = ""
    side = 0
    B = 0
    rounds = 0
    #: Whether a traced run also traces the set-up and its first call.
    trace_setup = True
    #: Measuring processes of an untraced run (see ``run.py``).
    processes = 3

    def __init__(self, seed: int, pool_workers: int = 1):
        self.seed = seed
        self.pool_workers = pool_workers
        self.tracer: Optional[Tracer] = None

    @property
    def n(self) -> int:
        return self.side * self.side

    @property
    def node_rounds(self) -> int:
        return self.n * self.B * self.rounds

    def _span(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else contextlib.nullcontext()

    def _point_loads(self, topo) -> np.ndarray:
        """The paper's point load on a seed-chosen node, one row per replica."""
        from repro.core.state import point_load

        node = int(np.random.default_rng(self.seed).integers(topo.n))
        return np.tile(point_load(topo, PER_NODE * topo.n, node), (self.B, 1))

    def _torus(self):
        from repro.graphs import torus

        with self._span("graphs.build"):
            return torus.torus_2d(self.side, self.side)

    # -- per workload ----------------------------------------------------
    def setup(self) -> None:
        raise NotImplementedError

    def call(self):
        raise NotImplementedError

    def check(self, outcome) -> np.ndarray:
        """Check one call's outcome; return its ``(B, n)`` final loads."""
        raise NotImplementedError

    def install(self, tracer: Tracer) -> None:
        """Wrap the entry points of the layers this workload exercises."""

    def derived(self, tracer: Tracer, window: Window, walls: Dict[str, float]) -> Dict[str, object]:
        """Per-layer metrics that need more than span durations.

        ``window`` holds the traced warm calls.  ``walls`` has the wall
        time of the set-up's first call (``first``) and the median of the
        untraced (``plain``) and traced (``traced``) warm calls.  A list
        value is a timing's samples; a number is a single-valued metric.
        """
        return {}

    def provenance(self) -> Dict[str, object]:
        return {}

    def close(self) -> None:
        pass


def _wrap_batched(tracer: Tracer) -> None:
    from repro.engines.base import RecordBatch
    from repro.engines.batched import BatchedVectorEngine

    tracer.wrap(BatchedVectorEngine, "run_batch", "engines.run_batch")
    tracer.wrap(BatchedVectorEngine, "prepare", "engines.prepare")
    tracer.wrap(BatchedVectorEngine, "metrics", "engines.metrics")
    tracer.wrap(RecordBatch, "results", "core.records.results")


def _capturing_engine():
    """A batched engine that keeps its last run handle, so a run can
    report the tile width and kernel provider that actually ran."""
    from repro.engines.batched import BatchedVectorEngine

    class Capturing(BatchedVectorEngine):
        handle = None

        def prepare(self, topo, config, initial_loads):
            self.handle = None  # free the last run's planes before the next
            self.handle = super().prepare(topo, config, initial_loads)
            return self.handle

    return Capturing()


#: Entry points of a compiled kernel provider (see ``repro.kernels``).
KERNEL_ENTRY_POINTS = ("round_edges", "excess_counts", "excess_dispatch", "apply_flows")


class TiledMillion(Workload):
    """Paper scale: 10^6 nodes, cffi kernels, pinned node tiles.

    SOS at beta_opt with randomized-excess rounding, ``run_batch`` on a
    point load, streaming summary records.  The engine keeps an operator
    cache across calls, as pool workers do, so the CSR and adjacency
    builds land in the set-up's first call.  Traced, a warm call then
    spends about 80% in its rounds and 17% in the rest of ``prepare``.
    """

    name = "tiled-million"
    side = 1000
    B = 4
    rounds = 8
    #: Two processes, so that each still makes at least two warm calls.
    processes = 2
    #: Node-tile width, pinned: at B=4 the default memory budget does not tile.
    TILE = 250_000

    def setup(self) -> None:
        from repro.core.spectral import beta_opt, torus_lambda
        from repro.engines import EngineConfig

        self.topo = self._torus()
        self.loads = self._point_loads(self.topo)
        self.total = PER_NODE * self.topo.n
        self.cfg = EngineConfig(
            scheme="sos",
            beta=beta_opt(torus_lambda((self.side, self.side))),
            rounding="randomized-excess",
            rounds=self.rounds,
            record_every=2,
            seed=self.seed,
            kernel="cffi",
            tile_size=self.TILE,
            record_mode="summary",
        )
        self.engine = _capturing_engine()
        self.engine.operator_cache = {}

    def call(self):
        return self.engine.run_batch(self.topo, self.cfg, self.loads)

    def check(self, batch) -> np.ndarray:
        h = self.engine.handle
        if h.tile is None or not h.tile < self.n:
            raise CheckFailed(f"tiled-million did not tile (tile={h.tile!r}, n={self.n})")
        if h.kernel is None or h.kernel.name != "cffi":
            raise CheckFailed("tiled-million did not run the cffi kernels")
        check_static_conservation(batch.final_loads, self.total)
        return batch.final_loads

    def install(self, tracer: Tracer) -> None:
        from repro.kernels import get_provider

        _wrap_batched(tracer)
        provider_cls = type(get_provider("cffi"))

        def counter(entry):
            def on_return(args, kwargs, result):
                tracer.count(f"kernels.{entry}.calls")
                tracer.count(
                    "kernels.bytes_computed",
                    sum(a.nbytes for a in args if isinstance(a, np.ndarray)),
                )
                if entry == "excess_counts":
                    tracer.count("kernels.tokens", int(args[7].sum()))  # totals

            return on_return

        for entry in KERNEL_ENTRY_POINTS:
            tracer.wrap(provider_cls, entry, f"kernels.{entry}", counter(entry))

    def derived(self, tracer: Tracer, window: Window, walls: Dict[str, float]) -> Dict[str, object]:
        return {"engines.round_s": _round_times(tracer, self.rounds, window)}

    def provenance(self) -> Dict[str, object]:
        h = self.engine.handle
        return {"kernel_provider": h.kernel.name, "tile_width": h.tile}


class PoolSweep(Workload):
    """The Fig. 8 switch sweep on one persistent single-worker pool."""

    name = "pool-sweep"
    side = 32
    n_points = 16
    n_seeds = 4
    rounds = 100
    #: The pool forks its worker on the first call: traced then, the
    #: worker would inherit the wrapped entry points and keep tracing.
    trace_setup = False

    @property
    def B(self) -> int:
        return self.n_points * self.n_seeds

    def setup(self) -> None:
        from repro.core.spectral import beta_opt, torus_lambda
        from repro.engines import EngineConfig, ShardedWorkerPool
        from repro.experiments.sweeps import ParamGrid

        self.topo = self._torus()
        self.base = self._point_loads(self.topo)[0]
        self.total = PER_NODE * self.topo.n
        step = self.rounds // self.n_points
        self.grid = ParamGrid(
            switch_round=[None] + [step * i for i in range(1, self.n_points)]
        )
        self.seeds = [self.seed * self.n_seeds + i for i in range(self.n_seeds)]
        self.pool = ShardedWorkerPool(workers=self.pool_workers)
        self.cfg = EngineConfig(
            scheme="sos",
            beta=beta_opt(torus_lambda((self.side, self.side))),
            rounding="randomized-excess",
            rounds=self.rounds,
            record_every=1,
            seed=self.seed,
            pool=self.pool,
        )

    def call(self):
        from repro.experiments import sweeps

        return sweeps.sweep_ensemble(
            self.topo, self.cfg, self.grid, initial_loads=self.base,
            seeds=self.seeds, engine="sharded",
        )

    def check(self, sweep) -> np.ndarray:
        final = np.stack([r.final_state.load for r in sweep.results])
        check_static_conservation(final, self.total)
        return final

    def install(self, tracer: Tracer) -> None:
        from multiprocessing import shared_memory

        from repro.engines.pool import ShardedWorkerPool
        from repro.engines.sharded import ShardedEngine
        from repro.experiments import sweeps

        _wrap_batched(tracer)
        tracer.wrap(sweeps, "sweep_ensemble", "sweeps.sweep")
        tracer.wrap(ShardedEngine, "run", "sweeps.engine_call")
        tracer.wrap(ShardedWorkerPool, "run_batch", "pool.call", self._capture)

        def shm_bytes(args, kwargs, result):
            if kwargs.get("create"):
                tracer.count("pool.shm_bytes", kwargs["size"])

        tracer.wrap(shared_memory.SharedMemory, "__init__", "pool.shm_open", shm_bytes)

    def _capture(self, args, kwargs, result):
        self.last_pool_call = args[1:4]  # (topo, config, loads)

    def derived(self, tracer: Tracer, window: Window, walls: Dict[str, float]) -> Dict[str, object]:
        from repro.engines.batched import BatchedVectorEngine

        warm = _median(tracer.durations("pool.call", window))
        # The last shard batch again, in this process and without the
        # pool: what a pool call costs beyond it is transport (shared
        # planes, pipes, merge).  These calls also give the batched
        # engine's own layers, which run inside the worker otherwise.
        topo, config, loads = self.last_pool_call
        local_cfg = replace(config, pool=None)
        engine = BatchedVectorEngine()
        local_window = (tracer.clock(), float("inf"))
        local = _median_call(lambda: engine.run_batch(topo, local_cfg, loads))
        local_rounds = _round_times(tracer, self.rounds, local_window)
        # The same schedule without rounding or token dispatch: the
        # per-round difference is what randomized-excess dispatch costs on
        # the numpy tier.
        base_cfg = replace(local_cfg, rounding="identity", fast_path="never")
        base = _median_call(lambda: engine.run_batch(topo, base_cfg, loads))
        return {
            "engines.dispatch_s": (local - base) / self.rounds,
            "engines.prepare_s": tracer.durations("engines.prepare", local_window),
            "engines.metrics_s": tracer.durations("engines.metrics", local_window),
            "engines.round_s": local_rounds,
            # Both calls untraced: the first one forks the worker and ships
            # the topology.
            "pool.worker_start_s": walls["first"] - walls["plain"],
            "pool.transport_s": warm - local,
            "pool.calls_served": self.pool.calls_served,
            "sweeps.reduce_s": tracer.self_times("sweeps.sweep", ["sweeps.engine_call"], window),
        }

    def provenance(self) -> Dict[str, object]:
        from repro.engines.sharded import _start_method

        return {"pool_workers": self.pool.n_workers, "start_method": _start_method()}

    def close(self) -> None:
        self.pool.close()


def _round_times(tracer: Tracer, rounds: int, window: Window) -> List[float]:
    """``run_batch`` self time per round: its duration minus the prepare,
    metrics and kernel spans inside it, divided by the call's rounds."""
    excluded = ["engines.prepare", "engines.metrics"] + [
        f"kernels.{k}" for k in KERNEL_ENTRY_POINTS
    ]
    return [t / rounds for t in tracer.self_times("engines.run_batch", excluded, window)]


class StaleDynamic(Workload):
    """Staleness engine, FOS, faults and Poisson arrivals, stepped by hand."""

    name = "stale-dynamic"
    side = 32
    B = 16
    rounds = 50

    def setup(self) -> None:
        from repro.engines import EngineConfig, StalenessEngine
        from repro.network.faults import RandomLinkDrop

        self.topo = self._torus()
        self.loads = self._point_loads(self.topo)
        self.cfg = EngineConfig(
            scheme="fos",
            rounding="randomized-excess",
            rounds=self.rounds,
            seed=self.seed,
            latency_model="uniform:0,3",
            latency_buckets="ceil",
            max_skew=2,
            faults=RandomLinkDrop(0.05),
            arrivals="poisson:3.0,depart=1.0",
        )
        self.engine = StalenessEngine()

    def run(self, cfg) -> Dict[str, object]:
        """One call: ``run_dynamic_batch``'s protocol loop, with the token
        ledger (node load + in flight, bounces included) checked after
        every round against ``total[t-1] + arrived - departed``."""
        engine = self.engine
        handle = engine.prepare(self.topo, cfg, self.loads)
        core = handle.core
        initial = core.loads.sum(axis=0) + core.in_flight_amount
        net = np.zeros(self.B)  # arrived - departed so far, per replica
        broken = None
        for r in range(cfg.rounds):
            arrivals = engine.arrive(handle)
            engine.step(handle)
            net += arrivals.arrived - arrivals.departed
            held = core.loads.sum(axis=0) + core.in_flight_amount
            if broken is None and not np.array_equal(held, initial + net):
                broken = r + 1
        return {
            "batch": engine.metrics(handle), "core": core, "initial": initial,
            "net": net, "broken": broken,
        }

    def call(self):
        return self.run(self.cfg)

    def check(self, outcome) -> np.ndarray:
        core = outcome["core"]
        if outcome["broken"] is not None:
            raise CheckFailed(f"stale-dynamic: token ledger broke at round {outcome['broken']}")
        check_ledger(
            core.loads.sum(axis=0), core.in_flight_amount,
            outcome["initial"] + outcome["net"], "stale-dynamic",
        )
        for b, result in enumerate(outcome["batch"].dynamic_results()):
            recorded = result.series("arrived") - result.series("departed")
            if recorded.sum() != outcome["net"][b] or result.series("total_load")[-1] != core.loads[:, b].sum():
                raise CheckFailed(f"stale-dynamic: replica {b}'s records disagree with the engine state")
        self.ledger = (int(core.delivered_count.sum()), int(core.bounced_count.sum()))
        return core.loads.T

    def install(self, tracer: Tracer) -> None:
        from repro.core.dynamic import PoissonArrivals
        from repro.engines import staleness
        from repro.engines.staleness import StalenessEngine

        tracer.wrap(StalenessEngine, "prepare", "engines.prepare")
        tracer.wrap(StalenessEngine, "metrics", "engines.metrics")
        tracer.wrap(StalenessEngine, "step", "staleness.step")
        tracer.wrap(StalenessEngine, "arrive", "staleness.arrive")
        for helper in ("transient_loads", "max_minus_average", "max_local_difference", "normalized_potential"):
            tracer.wrap(staleness, helper, "staleness.record")
        tracer.wrap(
            PoissonArrivals, "deltas", "dynamic.deltas",
            lambda args, kwargs, result: tracer.count("dynamic.deltas.calls"),
        )

    def derived(self, tracer: Tracer, window: Window, walls: Dict[str, float]) -> Dict[str, object]:
        out: Dict[str, object] = {
            "staleness.step_s": tracer.self_times("staleness.step", ["staleness.record"], window),
            "staleness.record_s": tracer.child_sums("staleness.step", "staleness.record", window),
            "staleness.arrive_s": tracer.self_times("staleness.arrive", ["dynamic.deltas"], window),
            "staleness.delivered": self.ledger[0],
            "staleness.bounced": self.ledger[1],
        }
        base_cfg = replace(self.cfg, rounding="identity")
        base = _median_call(lambda: self.run(base_cfg))
        out["engines.dispatch_s"] = (walls["traced"] - base) / self.rounds
        return out


WORKLOADS = {w.name: w for w in (TiledMillion, PoolSweep, StaleDynamic)}

#: Calls made for a derived baseline (dispatch, in-process transport).
BASELINE_CALLS = 3


def _median_call(fn) -> float:
    times = []
    for _ in range(BASELINE_CALLS):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return _median(times)


# ======================================================================
# the child process
# ======================================================================
def _import_library() -> float:
    """Import every library module the workloads use; returns seconds."""
    t0 = time.perf_counter()
    import repro  # noqa: F401
    import repro.engines  # noqa: F401
    import repro.experiments.sweeps  # noqa: F401
    import repro.kernels  # noqa: F401
    import repro.network.faults  # noqa: F401

    return time.perf_counter() - t0


def _versions() -> Dict[str, str]:
    import platform

    import scipy

    try:
        import cffi

        cffi_version = cffi.__version__
    except ImportError:
        cffi_version = "absent"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cffi": cffi_version,
    }


class Runner:
    """Counts operations and checks every call of one workload."""

    def __init__(self, workload: Workload):
        self.wl = workload
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digest: Optional[str] = None
        self.final: Optional[np.ndarray] = None
        #: wall time of the set-up's first call
        self.first_call_s: Optional[float] = None

    def _fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 5:
            self.errors.append(what)

    def call(self) -> Optional[float]:
        """One checked call; its wall time, or ``None`` when it failed."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            outcome = self.wl.call()
        except Exception:
            self._fail(traceback.format_exc(limit=3))
            return None
        wall = time.perf_counter() - t0
        if wall > CALL_DEADLINE_S:
            self._fail(f"call took {wall:.1f}s, over the {CALL_DEADLINE_S:.0f}s deadline")
            return None
        try:
            final = self.wl.check(outcome)
            got = digest(final)
            if self.digest is None:
                self.digest, self.final = got, np.array(final, dtype=np.float64)
            else:
                check_same_digest(got, self.digest, "repeat call")
        except Exception as exc:
            self._fail(f"{type(exc).__name__}: {exc}")
            return None
        return wall

    def setup(self) -> Optional[float]:
        """Set-up plus the first call; seconds to the first result."""
        t0 = time.perf_counter()
        try:
            self.wl.setup()
        except Exception:
            self.attempted += 1
            self._fail(traceback.format_exc(limit=3))
            return None
        self.first_call_s = self.call()
        return None if self.first_call_s is None else time.perf_counter() - t0

    def warm(self, seconds: float) -> List[float]:
        walls: List[float] = []
        t0 = time.perf_counter()
        while time.perf_counter() - t0 < seconds or len(walls) < MIN_WARM_CALLS:
            wall = self.call()
            if wall is not None:
                walls.append(wall)
            elif self.failed > MIN_WARM_CALLS:
                break  # failing repeatedly: stop rather than spin
        return walls


def _peak_rss_mb() -> float:
    """Peak RSS of this process plus its largest reaped child, in MiB."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + kids) / 1024.0


def _install(wl: Workload, tracer: Tracer) -> None:
    wl.install(tracer)
    # One span per closed-loop call, so counts can be given per call.
    tracer.wrap(Runner, "call", "trace.call")


def _trace_layers(wl: Workload, runner: Runner, tracer: Tracer, seconds: float) -> Dict[str, float]:
    """Untraced then traced warm calls; the per-layer metric values."""
    set_up = (float("-inf"), tracer.clock())
    tracer.uninstall()
    plain = runner.warm(seconds / 2)
    _install(wl, tracer)
    tracer.counts.clear()
    since = tracer.clock()
    traced = runner.warm(seconds / 2)
    window = (since, tracer.clock())
    n_calls = max(len(tracer.named("trace.call", window)), 1)
    counts = {k: v / n_calls for k, v in tracer.counts.items()}
    walls = {"first": runner.first_call_s, "plain": _median(plain), "traced": _median(traced)}
    first_prepare = tracer.durations("engines.prepare", set_up)
    spans = {
        "graphs.build_s": tracer.durations("graphs.build"),
        "engines.prepare_s": tracer.durations("engines.prepare", window),
        # The set-up's prepare, with the operator builds a warm call skips.
        "engines.prepare_first_s": first_prepare[0] if first_prepare else 0.0,
        "engines.metrics_s": tracer.durations("engines.metrics", window),
        "core.records.results_s": tracer.durations("core.records.results", window),
        "pool.call_s": tracer.durations("pool.call", window),
        "dynamic.deltas_s": tracer.durations("dynamic.deltas", window),
    }
    for entry in KERNEL_ENTRY_POINTS:
        spans[f"kernels.{entry}_s"] = tracer.durations(f"kernels.{entry}", window)
    spans.update(wl.derived(tracer, window, walls))
    tracer.uninstall()
    values: Dict[str, float] = {name: float(counts.get(name, 0)) for name, _u in metrics.LAYER_SCALARS}
    for name in metrics.LAYER_TIMINGS:
        values.update(metrics.layer_timing(name, spans.get(name, [])))
    for name, value in spans.items():
        if name not in metrics.LAYER_TIMINGS:
            values[name] = float(value)
    values["trace.overhead_pct"] = (walls["traced"] / walls["plain"] - 1.0) * 100.0
    return values


def _write_spans(tracer: Tracer, wl: Workload) -> None:
    """Write the run's spans and counts out, once, as JSON."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    out_dir = os.path.join(root, ".bench_build", "traces")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"{wl.name}-seed{wl.seed}.json")
    with open(path, "w") as fh:
        json.dump({"spans": [s._asdict() for s in tracer.spans], "counts": tracer.counts}, fh)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("measure", "trace"))
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--pool-workers", type=int, default=1)
    args = parser.parse_args(argv)

    import_s = _import_library()
    wl = WORKLOADS[args.workload](args.seed, args.pool_workers)
    runner = Runner(wl)
    out: Dict[str, object] = {"workload": wl.name, "seed": args.seed, "import_s": import_s}
    tracer = None
    if args.mode == "trace":
        tracer = wl.tracer = Tracer()
        if wl.trace_setup:
            _install(wl, tracer)
    try:
        setup_s = runner.setup()
        if setup_s is not None:
            out["setup_s"] = setup_s
            out["provenance"] = {**_versions(), **wl.provenance()}
            if args.mode == "measure":
                out["walls"] = runner.warm(args.seconds)
            elif args.mode == "trace":
                out["layers"] = _trace_layers(wl, runner, tracer, args.seconds)
                out["layers"]["import.repro_s"] = import_s
    finally:
        if tracer is not None:
            tracer.uninstall()
            _write_spans(tracer, wl)
        wl.close()
    if runner.final is not None:
        final = runner.final
        out["digest"] = runner.digest
        out["final_max_minus_avg"] = float((final.max(axis=1) - final.mean(axis=1)).mean())
        out["node_rounds"] = wl.node_rounds
    out.update(
        attempted=runner.attempted, failed=runner.failed, errors=runner.errors,
        peak_rss_mb=_peak_rss_mb(),
    )
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
