"""Command-line interface for the repro load balancing library.

Subcommands::

    repro-lb list                      # available experiments
    repro-lb table1 [--scale ci]       # reproduce Table I
    repro-lb figure fig01 [...]        # run one figure driver
    repro-lb simulate --graph cm ...   # free-form simulation
    repro-lb render --out DIR [...]    # write Figure 9-11 PGM frames

All commands print plain-text reports; ``--output-dir`` archives the full
record as JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from .core import make_arrival_model, point_load, uniform_load
from .engines import ENGINES, make_engine
from .exceptions import ConfigurationError
from .experiments import (
    build_graph,
    dynamic_replica_ensemble,
    engine_config,
    format_record,
    format_table,
    list_experiments,
    replica_ensemble,
    reproduce_table1,
    run_experiment,
)
from .experiments.figures import fig09_11_renders
from .viz import sparkline

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser (exposed for tests)."""
    parser = argparse.ArgumentParser(
        prog="repro-lb",
        description="Discrete diffusion load balancing (ICDCS'15 reproduction)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list available experiments")

    p_table = sub.add_parser("table1", help="reproduce Table I betas")
    p_table.add_argument("--scale", default="ci", choices=["tiny", "ci", "paper"])
    p_table.add_argument("--seed", type=int, default=0)

    p_fig = sub.add_parser("figure", help="run a figure driver")
    p_fig.add_argument("name", help="experiment id, e.g. fig01")
    p_fig.add_argument("--scale", default="ci", choices=["tiny", "ci", "paper"])
    p_fig.add_argument("--seed", type=int, default=0)
    p_fig.add_argument("--rounds", type=int, default=None)
    p_fig.add_argument("--output-dir", default=None)
    p_fig.add_argument(
        "--engine",
        default=None,
        choices=sorted(ENGINES),
        help="execution backend for the driver's simulations",
    )
    p_fig.add_argument(
        "--seeds",
        type=int,
        default=1,
        help=(
            "seed replicas per curve for the seed-averaged drivers "
            "(fig02, fig08): one batched ensemble call produces mean/std "
            "series"
        ),
    )

    p_sim = sub.add_parser("simulate", help="run a free-form simulation")
    p_sim.add_argument(
        "--graph",
        default="torus-1000",
        help="graph config key (see `repro-lb list`): torus-1000, cm, ...",
    )
    p_sim.add_argument("--scale", default="ci", choices=["tiny", "ci", "paper"])
    p_sim.add_argument("--scheme", default="sos", choices=["fos", "sos"])
    p_sim.add_argument(
        "--rounding",
        default="randomized-excess",
        choices=[
            "identity",
            "floor",
            "nearest",
            "ceil",
            "unbiased-edge",
            "randomized-excess",
        ],
    )
    p_sim.add_argument("--rounds", type=int, default=500)
    p_sim.add_argument("--avg-load", type=int, default=1000)
    p_sim.add_argument("--switch-round", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument(
        "--engine",
        default="reference",
        choices=sorted(ENGINES),
        help=(
            "execution backend (batched runs all replicas per numpy step; "
            "sharded is batched over every usable CPU, see --workers)"
        ),
    )
    p_sim.add_argument(
        "--replicas",
        type=int,
        default=1,
        help="independent replicas; >1 runs an ensemble and reports statistics",
    )
    p_sim.add_argument(
        "--record-every",
        type=int,
        default=1,
        help="record metrics every this many rounds",
    )
    p_sim.add_argument(
        "--precision",
        default="float64",
        choices=["float64", "float32"],
        help="float32 is the batched engine's ensemble-throughput mode",
    )
    p_sim.add_argument(
        "--arrivals",
        default=None,
        metavar="SPEC",
        help=(
            "run the dynamic regime: tokens arrive/depart each round before "
            "the balancing step.  SPEC is poisson:RATE[,depart=RATE] "
            "(e.g. poisson:3.0,depart=1.0), burst:BURST/PERIOD "
            "(e.g. burst:200/50), hotspot:N0,N1,...:RATE "
            "(e.g. hotspot:0,1:5), trace:FILE (replay a delta stream "
            "recorded with repro.io.save_arrival_trace), or none.  "
            "Starts from the uniform "
            "--avg-load and reports steady-state imbalance against the "
            "moving average"
        ),
    )
    p_sim.add_argument(
        "--arrival-sampling",
        default="stream",
        choices=["stream", "batch"],
        help=(
            "batched-engine arrival sampling: 'stream' (default) draws each "
            "replica from its own spawned stream (bit-exact with the "
            "reference engine), 'batch' draws the whole (n, B) count plane "
            "in one vectorised call — much faster for per-node Poisson "
            "churn, at the price of stream-for-stream cross-engine parity"
        ),
    )
    p_sim.add_argument(
        "--fast-path",
        default="auto",
        choices=["auto", "never", "matmul", "spectral"],
        help=(
            "closed-form continuous fast path of the batched engine "
            "(identity rounding, no switch, transient/traffic columns "
            "dropped): 'auto' engages it when eligible, 'matmul' forces the "
            "one-CSR-matmul-per-round tier, 'spectral' the torus Fourier "
            "kernel"
        ),
    )
    p_sim.add_argument(
        "--kernel",
        default="auto",
        choices=["auto", "numpy", "cffi"],
        help=(
            "kernel tier of the batched engine's discrete hot loop: 'auto' "
            "(default) runs the cffi kernels for randomized-excess batches "
            "with B >= 2 and n*B >= 1024 and numpy otherwise, 'numpy' "
            "forces the vectorised numpy kernels, 'cffi' forces the "
            "compiled kernels (randomized-excess only; error when "
            "unavailable — install the [compiled] extra); every tier is "
            "bit-identical"
        ),
    )
    p_sim.add_argument(
        "--tile-size",
        default=None,
        metavar="N|auto",
        help=(
            "node-tile width of the batched engine's streaming kernels: an "
            "int, or 'auto' to derive it from --memory-budget-mb; default "
            "keeps dense whole-batch scratch"
        ),
    )
    p_sim.add_argument(
        "--memory-budget-mb",
        type=float,
        default=256.0,
        help="scratch budget (MiB) used by --tile-size auto",
    )
    p_sim.add_argument(
        "--record-mode",
        default="table",
        choices=["table", "summary"],
        help=(
            "'summary' streams records through running min/max/sum/last "
            "aggregates instead of dense per-round columns (memory "
            "independent of the round count; batched engine only)"
        ),
    )
    p_sim.add_argument(
        "--record-fields",
        default=None,
        metavar="FIELDS",
        help=(
            "comma-separated record columns to compute (batched engine), "
            "or 'node' for every node-space column — i.e. everything except "
            "min_transient/round_traffic, which is what lets --fast-path "
            "auto engage on identity rounding"
        ),
    )
    p_sim.add_argument(
        "--workers",
        default=None,
        metavar="N|auto",
        help=(
            "worker processes of the batched and staleness engines: an "
            "int, or 'auto' to use every usable CPU; the replica batch "
            "splits into contiguous column shards, one engine per worker, "
            "bit-identical to the single-process run"
        ),
    )
    p_sim.add_argument(
        "--pool",
        action="store_true",
        help=(
            "run the batched or staleness engine's shards on the "
            "process-wide persistent worker pool: its workers survive "
            "across calls and keep the prepared topology operators, "
            "instead of a fresh pool per call — bit-identical either way"
        ),
    )

    p_sim.add_argument(
        "--latency",
        default=None,
        metavar="SPEC",
        help=(
            "per-link latency model of the async/staleness engines "
            "(--engine async/staleness): a number of rounds (e.g. 1.5), "
            "'uniform:LO,HI' or 'exp:MEAN' (random per-link latencies drawn "
            "once from the run seed); default reads the topology's stamped "
            "link attributes, which fall back to the synchronous "
            "zero-latency regime"
        ),
    )
    p_sim.add_argument(
        "--max-skew",
        type=int,
        default=None,
        metavar="K",
        help=(
            "bounded-staleness gate of the async engine: a node may not "
            "start round r before hearing round >= r-1-K from every "
            "neighbour (default: unbounded skew); on the staleness engine "
            "the same bound clamps every latency bucket to K+1 rounds"
        ),
    )
    p_sim.add_argument(
        "--latency-buckets",
        default="ceil",
        choices=["ceil", "floor", "nearest", "exact"],
        help=(
            "how the staleness engine (--engine staleness) quantises "
            "per-link latencies into integer round buckets: ceil/floor/"
            "nearest round fractional latencies, exact refuses them "
            "(the bit-identical-to-async regime); default ceil"
        ),
    )
    p_sim.add_argument(
        "--faults",
        default=None,
        metavar="SPEC",
        help=(
            "fault model on the message-passing engines (--engine network/"
            "async/staleness): 'drop:P' drops each token shipment "
            "independently with "
            "probability P, 'outage:U:V:START[:END]' kills link (U,V) for "
            "rounds START <= r < END (END omitted = forever); dropped "
            "shipments bounce back to their sender, so load is conserved"
        ),
    )
    p_sim.add_argument(
        "--churn",
        default=None,
        metavar="SPEC",
        help=(
            "topology churn schedule: semicolon-separated events "
            "'crash:V@R[-R2]' (node V crashes at round R, recovering at "
            "R2), 'leave:V@R', 'join:V@R:U1+U2+...', 'edge-:U-V@R', "
            "'edge+:U-V@R', plus 'policy:handoff|freeze' and 'random:RATE' "
            "(a seed-derived random schedule).  Crashed and leaving nodes "
            "hand their tokens to live neighbours (or freeze them under "
            "policy:freeze), so sum(loads) survives the whole schedule; "
            "every engine supports it"
        ),
    )

    p_sim.add_argument(
        "--sweep",
        action="append",
        default=None,
        metavar="KEY=SPEC",
        help=(
            "run a parameter sweep as ONE batched engine call: KEY is one "
            "of switch-round, beta, alpha-scale, load-scale, arrival-scale "
            "and SPEC is a linspace START:STOP:COUNT or an explicit comma "
            "list (switch-round accepts 'none' for the pure-SOS curve). "
            "Repeat the flag to cross axes, e.g. "
            "--sweep switch-round=none,300,500,700,900; --replicas sets "
            "the seed replicas per sweep point"
        ),
    )

    p_render = sub.add_parser("render", help="write Figure 9-11 PGM frames")
    p_render.add_argument("--out", required=True, help="output directory")
    p_render.add_argument("--scale", default="ci", choices=["tiny", "ci", "paper"])
    p_render.add_argument("--seed", type=int, default=0)

    return parser


def _cmd_table1(args) -> int:
    rows = reproduce_table1(scale=args.scale, seed=args.seed)
    table = format_table(
        ["graph", "paper size", "n (built)", "lambda", "beta (built)",
         "beta (paper-scale, exact)", "beta (printed in paper)"],
        [
            [
                r.key,
                r.paper_size,
                r.n,
                r.lam,
                r.beta,
                r.analytic_paper_beta,
                r.paper_beta,
            ]
            for r in rows
        ],
        title=f"Table I reproduction (scale={args.scale})",
    )
    print(table)
    return 0


def _driver_takes(name: str, parameter: str) -> bool:
    """Whether experiment ``name``'s driver has a ``parameter`` argument."""
    import inspect

    from .experiments.runner import EXPERIMENTS

    driver = EXPERIMENTS.get(name)
    return driver is not None and parameter in inspect.signature(driver).parameters


def _cmd_figure(args) -> int:
    kwargs = {"scale": args.scale, "seed": args.seed}
    if args.rounds is not None:
        if _driver_takes(args.name, "rounds"):
            kwargs["rounds"] = args.rounds
        else:
            print(
                f"--rounds applies to the drivers that take a round count; "
                f"{args.name} takes none and ignores it",
                file=sys.stderr,
            )
    if args.seeds > 1:
        if _driver_takes(args.name, "n_seeds"):
            kwargs["n_seeds"] = args.seeds
        else:
            print(
                f"--seeds applies to the seed-averaged drivers only "
                f"(fig02, fig08); {args.name} runs single-seed",
                file=sys.stderr,
            )
    record = run_experiment(
        args.name, output_dir=args.output_dir, engine=args.engine, **kwargs
    )
    print(format_record(record))
    for key in ("sos_max_minus_avg", "max_minus_avg"):
        if key in record.series:
            print(f"\n{key} (log sparkline):")
            print(sparkline(record.series[key], log=True))
            break
    return 0


def _parse_tile_size(value):
    if value is None or value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise SystemExit(f"--tile-size must be an int or 'auto', got {value!r}")


def _parse_workers(value):
    if value is None or value == "auto":
        return value
    try:
        return int(value)
    except ValueError:
        raise SystemExit(f"--workers must be an int or 'auto', got {value!r}")


def _parse_sweep_axes(specs):
    """Parse repeated ``--sweep KEY=SPEC`` flags into ParamGrid axes."""
    from .experiments import SWEEP_KEYS

    axes = {}
    for spec in specs:
        key, eq, value = spec.partition("=")
        if not eq:
            raise SystemExit(f"--sweep needs KEY=SPEC, got {spec!r}")
        key = key.strip().lower().replace("-", "_")
        if key not in SWEEP_KEYS:
            raise SystemExit(
                f"unknown sweep key {key!r}; known: "
                + ", ".join(k.replace("_", "-") for k in sorted(SWEEP_KEYS))
            )
        if key in axes:
            raise SystemExit(
                f"--sweep {key.replace('_', '-')} given twice; put every "
                "value of one axis in a single flag (repeats cross "
                "*different* axes)"
            )
        value = value.strip()
        try:
            if ":" in value:
                start, stop, count = value.split(":")
                import numpy as np

                values = [
                    float(v) for v in np.linspace(
                        float(start), float(stop), int(count)
                    )
                ]
            else:
                values = [
                    None if v.strip().lower() == "none" else float(v)
                    for v in value.split(",")
                    if v.strip()
                ]
        except ValueError:
            raise SystemExit(
                f"--sweep values must be START:STOP:COUNT or a comma list, "
                f"got {value!r}"
            )
        if not values:
            raise SystemExit(f"--sweep {key} got no values")
        if key == "switch_round":
            values = [None if v is None else int(round(v)) for v in values]
        axes[key] = values
    return axes


def _parse_record_fields(value):
    if value is None:
        return None
    if value == "node":
        from .core.records import FLOAT_FIELDS

        return tuple(
            f for f in FLOAT_FIELDS if f not in ("min_transient", "round_traffic")
        )
    return tuple(f.strip() for f in value.split(",") if f.strip())


def _cmd_simulate(args) -> int:
    built = build_graph(args.graph, scale=args.scale, seed=args.seed)
    config = engine_config(
        built,
        scheme=args.scheme,
        rounding=args.rounding,
        rounds=args.rounds,
        record_every=args.record_every,
        seed=args.seed,
        switch_round=args.switch_round,
        precision=args.precision,
        fast_path=args.fast_path,
        kernel=args.kernel,
        tile_size=_parse_tile_size(args.tile_size),
        memory_budget_mb=args.memory_budget_mb,
        record_mode=args.record_mode,
        record_fields=_parse_record_fields(args.record_fields),
        arrival_sampling=args.arrival_sampling,
        workers=_parse_workers(args.workers),
        pool=True if args.pool else None,
        latency_model=args.latency,
        max_skew=args.max_skew,
        latency_buckets=args.latency_buckets,
        faults=args.faults,
        churn=args.churn,
    )
    config.validate()
    print(
        f"graph={built.key} n={built.n} lambda={built.lam:.6f} "
        f"beta={built.beta:.6f} scheme={args.scheme} rounding={args.rounding} "
        f"engine={args.engine} replicas={args.replicas}"
        + (f" arrivals={args.arrivals}" if args.arrivals else "")
    )
    if args.sweep:
        return _simulate_sweep(args, built, config)
    if args.arrivals is not None:
        return _simulate_dynamic(args, built, config)
    if args.replicas > 1:
        ensemble = replica_ensemble(
            built.topo,
            config,
            n_replicas=args.replicas,
            average_load=args.avg_load,
            engine=args.engine,
        )
        for key in sorted(ensemble.stats):
            print(f"  {key} = {ensemble.stats[key]:.4g}")
        result = ensemble.results[0]
    else:
        initial = point_load(built.topo, args.avg_load * built.topo.n)
        result = make_engine(args.engine).run(built.topo, config, initial)[0]
    import math

    final = result.table.row(-1)
    parts = [
        f"after {final['round_index']} rounds (replica 0): ",
        f"max-avg={final['max_minus_avg']:.2f} ",
        f"local-diff={final['max_local_diff']:.2f} ",
        f"potential/n={final['potential_per_node']:.4g}",
    ]
    if not math.isnan(result.min_transient_overall):
        parts.append(f" min-transient={result.min_transient_overall:.1f}")
    print("".join(parts))
    if result.switched_at is not None:
        print(f"switched to FOS after round {result.switched_at}")
    print("max-avg (log sparkline):")
    print(sparkline(result.series("max_minus_avg"), log=True))
    return 0


def _simulate_sweep(args, built, config) -> int:
    """The sweep branch of ``simulate`` (``--sweep KEY=SPEC ...``):
    the whole grid times the seed replicas runs as one engine call."""
    from .experiments import ParamGrid, sweep_ensemble

    grid = ParamGrid(**_parse_sweep_axes(args.sweep))
    if args.arrivals is not None:
        config.arrivals = make_arrival_model(args.arrivals)
    sweep = sweep_ensemble(
        built.topo,
        config,
        grid,
        n_seeds=max(args.replicas, 1),
        average_load=args.avg_load,
        engine=args.engine,
    )
    print(
        f"sweep: {grid.n_points} points x {sweep.n_seeds} seed(s) = "
        f"{sweep.n_replicas} replicas in ONE {args.engine} engine call"
    )
    stat_keys = sorted({k for stats in sweep.point_stats for k in stats})
    rows = [
        [label] + [
            f"{stats[k]:.4g}" if stats.get(k) is not None else "-"
            for k in stat_keys
        ]
        for label, stats in zip(sweep.labels, sweep.point_stats)
    ]
    print(format_table(["point"] + stat_keys, rows, title="sweep points"))
    return 0


def _simulate_dynamic(args, built, config) -> int:
    """The dynamic-regime branch of ``simulate`` (``--arrivals SPEC``)."""
    model = make_arrival_model(args.arrivals)
    if args.replicas > 1:
        ensemble = dynamic_replica_ensemble(
            built.topo,
            config,
            [model],
            seeds=range(args.replicas),
            average_load=args.avg_load,
            engine=args.engine,
        )
        for key in sorted(ensemble.stats):
            print(f"  {key} = {ensemble.stats[key]:.6g}")
        result = ensemble.results[0]
    else:
        config.arrivals = model
        initial = uniform_load(built.topo, args.avg_load)
        result = make_engine(args.engine).run_dynamic(
            built.topo, config, initial
        )[0]
    table = result.table
    if len(table):
        print(
            f"after {int(table.column('round_index')[-1])} rounds (replica 0): "
            f"total={table.column('total_load')[-1]:,.0f} "
            f"arrived={table.column('arrived').sum():,.0f} "
            f"departed={table.column('departed').sum():,.0f} "
            f"clamped={table.column('clamped').sum():,.0f}"
        )
        print(
            "steady-state imbalance (moving average target): "
            f"{result.steady_state_imbalance():.2f}"
        )
        print("max-avg (log sparkline):")
        print(sparkline(result.series("max_minus_avg"), log=True))
    return 0


def _cmd_render(args) -> int:
    record = fig09_11_renders(scale=args.scale, seed=args.seed, directory=args.out)
    print(format_record(record))
    print(f"frames written to {args.out}")
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code.

    A :class:`ConfigurationError` from any layer (flag specs, config
    validation, an engine's prepare-time guards) exits with
    ``invalid configuration: ...`` instead of a traceback.
    """
    args = build_parser().parse_args(argv)
    try:
        if args.command == "list":
            for name in list_experiments():
                print(name)
            return 0
        if args.command == "table1":
            return _cmd_table1(args)
        if args.command == "figure":
            return _cmd_figure(args)
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "render":
            return _cmd_render(args)
    except ConfigurationError as exc:
        raise SystemExit(f"invalid configuration: {exc}")
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
