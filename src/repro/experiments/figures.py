"""Figure drivers: one function per figure of the paper's Section VI.

Every ``figNN_*`` function runs the corresponding simulation at a chosen
scale (``"ci"`` by default — same construction laws as the paper, smaller
sizes; ``"paper"`` for the original sizes) and returns an
:class:`~repro.io.results.ExperimentRecord` whose ``series`` are the curves
of the figure and whose ``summary`` holds the headline quantities recorded
in ``EXPERIMENTS.md``.  The benchmark harness in ``benchmarks/`` calls these
and prints the rows.

Scaling note: round counts shrink with the spectral gap.  On the
``100 x 100`` torus the paper itself switches SOS -> FOS between rounds 300
and 900 (Figure 8), so the CI defaults below mirror the paper's *small*
torus setup exactly and scale the big-torus experiments onto it.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core import point_load, uniform_load
from ..engines import make_engine
from ..analysis import (
    TorusFourierAnalyzer,
    bump_period,
    convergence_round,
    detect_bumps,
    measured_speedup,
    remaining_imbalance,
)
from ..io import ExperimentRecord
from ..viz import load_to_grayscale
from .configs import BuiltGraph, build_graph, engine_config

__all__ = [
    "fig01_torus_sos_vs_fos",
    "fig02_initial_load",
    "fig03_discrete_vs_ideal",
    "fig04_05_switching",
    "fig06_ideal_error",
    "fig07_eigencoefficients",
    "fig08_switch_sweep",
    "fig09_11_renders",
    "fig12_random_graph",
    "fig13_hypercube",
    "fig14_rgg",
    "fig15_torus_combined",
]

#: Initial per-node average load used throughout Section VI.
DEFAULT_AVERAGE_LOAD = 1000


def _simulate(
    built: BuiltGraph,
    kind: str,
    rounds: int,
    rounding: str = "randomized-excess",
    seed: int = 0,
    switch_round: Optional[int] = None,
    keep_loads: bool = False,
    record_every: int = 1,
    average_load: int = DEFAULT_AVERAGE_LOAD,
    initial: Optional[np.ndarray] = None,
    engine: str = "reference",
):
    """Run one scheme on a built graph with the paper's default workload.

    Dispatches through the pluggable engine layer; ``engine="reference"``
    (the default) reproduces the classic per-round simulator exactly, while
    ``"batched"`` or ``"network"`` select the vectorised ensemble engine or
    the message-passing substrate.
    """
    topo = built.topo
    if initial is None:
        initial = point_load(topo, average_load * topo.n, node=0)
    if kind not in ("fos", "sos"):
        raise ValueError(f"unknown scheme kind {kind!r}")
    config = engine_config(
        built,
        scheme=kind,
        rounding=rounding,
        rounds=rounds,
        record_every=record_every,
        seed=seed,
        switch_round=switch_round,
        keep_loads=keep_loads,
    )
    return make_engine(engine).run(topo, config, initial)[0]


def _default_rounds(built: BuiltGraph, factor: float = 3.0, cap: int = 20000) -> int:
    """Round budget ~ ``factor`` x the continuous SOS balancing time."""
    k_disc = DEFAULT_AVERAGE_LOAD * built.n
    horizon = factor * math.log(k_disc) / math.sqrt(max(1.0 - built.lam, 1e-12))
    return min(int(horizon) + 10, cap)


# ----------------------------------------------------------------------
# Figure 1 — SOS metrics + FOS comparison on the big torus
# ----------------------------------------------------------------------

def fig01_torus_sos_vs_fos(
    scale: str = "ci",
    rounds: Optional[int] = None,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 1: max-avg, max local difference and potential under SOS,
    with the FOS max-avg curve as comparison (two-dimensional torus)."""
    built = build_graph("torus-1000", scale)
    rounds = rounds or _default_rounds(built)
    sos = _simulate(built, "sos", rounds, seed=seed, engine=engine)
    fos = _simulate(built, "fos", rounds, seed=seed + 1, engine=engine)
    threshold = 10.0
    speedup = measured_speedup(fos, sos, built.lam, threshold=threshold)
    # The paper observes discontinuities whenever the wavefronts collide
    # ("approximately every 1200 to 1300 steps" on the big torus).
    bumps = detect_bumps(
        sos.series("max_local_diff"), window=10, min_rise=1.2, skip=5
    )
    return ExperimentRecord(
        name="fig01",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "beta": built.beta,
            "lambda": built.lam,
            "rounds": rounds,
            "avg_load": DEFAULT_AVERAGE_LOAD,
        },
        series={
            "round": sos.rounds.tolist(),
            "sos_max_minus_avg": sos.series("max_minus_avg").tolist(),
            "sos_max_local_diff": sos.series("max_local_diff").tolist(),
            "sos_potential_per_node": sos.series("potential_per_node").tolist(),
            "fos_max_minus_avg": fos.series("max_minus_avg").tolist(),
        },
        summary={
            "sos_round_below_10": speedup.sos_round,
            "fos_round_below_10": speedup.fos_round,
            "measured_speedup": speedup.measured,
            "predicted_speedup": speedup.predicted,
            "sos_plateau_max_minus_avg": remaining_imbalance(sos).mean,
            "sos_plateau_local_diff": remaining_imbalance(
                sos, field="max_local_diff"
            ).mean,
            "discontinuity_count": len(bumps),
            "discontinuity_period": bump_period(bumps),
        },
    )


# ----------------------------------------------------------------------
# Figure 2 — initial-load sensitivity
# ----------------------------------------------------------------------

def fig02_initial_load(
    scale: str = "ci",
    rounds: Optional[int] = None,
    averages: Sequence[int] = (10, 100, 1000),
    seed: int = 0,
    engine: str = "reference",
    n_seeds: int = 1,
) -> ExperimentRecord:
    """Figure 2: max-avg for three different total loads (avg 10/100/1000).

    The paper's observation: the amount of initial load only has limited
    impact on behaviour, especially after convergence.

    With ``n_seeds > 1`` the whole sweep — every (average load, seed)
    combination — is submitted as *one* :func:`~repro.experiments.sweeps
    .replica_ensemble` call (the batched engine advances all replicas per
    vectorised step) and each average's curve comes back seed-averaged:
    ``avg<K>_max_minus_avg`` is the cross-seed mean and
    ``avg<K>_max_minus_avg_std`` the cross-seed deviation.
    """
    built = build_graph("torus-1000", scale)
    rounds = rounds or _default_rounds(built)
    series: Dict[str, List[float]] = {}
    summary: Dict[str, float] = {}
    if n_seeds <= 1:
        for idx, avg in enumerate(averages):
            res = _simulate(
                built, "sos", rounds, seed=seed + idx, average_load=avg,
                engine=engine,
            )
            series[f"avg{avg}_max_minus_avg"] = res.series("max_minus_avg").tolist()
            if "round" not in series:
                series["round"] = res.rounds.tolist()
            summary[f"avg{avg}_plateau"] = remaining_imbalance(res).mean
            summary[f"avg{avg}_round_below_10"] = convergence_round(
                res, threshold=10.0, sustained=3
            )
    else:
        from .sweeps import ensemble_series, replica_ensemble

        topo = built.topo
        batch = np.stack(
            [
                point_load(topo, avg * topo.n, node=0)
                for avg in averages
                for _ in range(n_seeds)
            ]
        )
        config = engine_config(
            built, scheme="sos", rounds=rounds, seed=seed
        )
        ensemble = replica_ensemble(
            topo, config, initial_loads=batch, engine=engine
        )
        series["round"] = ensemble.results[0].rounds.tolist()
        for gi, avg in enumerate(averages):
            group = ensemble.results[gi * n_seeds : (gi + 1) * n_seeds]
            mean, std = ensemble_series(group, "max_minus_avg")
            series[f"avg{avg}_max_minus_avg"] = mean.tolist()
            series[f"avg{avg}_max_minus_avg_std"] = std.tolist()
            summary[f"avg{avg}_plateau"] = float(
                np.mean([remaining_imbalance(r).mean for r in group])
            )
            below = [
                convergence_round(r, threshold=10.0, sustained=3) for r in group
            ]
            converged = [r for r in below if r is not None]
            summary[f"avg{avg}_round_below_10"] = (
                float(np.mean(converged)) if converged else None
            )
            summary[f"avg{avg}_unconverged"] = len(below) - len(converged)
    return ExperimentRecord(
        name="fig02",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "rounds": rounds,
            "averages": list(averages),
            "n_seeds": n_seeds,
        },
        series=series,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figure 3 — discrete (randomized rounding) vs idealized, SOS and FOS
# ----------------------------------------------------------------------

def fig03_discrete_vs_ideal(
    scale: str = "ci",
    rounds: Optional[int] = None,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 3: SOS vs FOS max-avg — discrete (left) and idealized (right)."""
    built = build_graph("torus-1000", scale)
    rounds = rounds or _default_rounds(built)
    runs = {
        "discrete_sos": _simulate(built, "sos", rounds, seed=seed, engine=engine),
        "discrete_fos": _simulate(
            built, "fos", rounds, seed=seed + 1, engine=engine
        ),
        "ideal_sos": _simulate(
            built, "sos", rounds, rounding="identity", engine=engine
        ),
        "ideal_fos": _simulate(
            built, "fos", rounds, rounding="identity", engine=engine
        ),
    }
    series = {"round": runs["discrete_sos"].rounds.tolist()}
    summary = {}
    for label, res in runs.items():
        series[f"{label}_max_minus_avg"] = res.series("max_minus_avg").tolist()
        summary[f"{label}_round_below_10"] = convergence_round(
            res, threshold=10.0, sustained=3
        )
        summary[f"{label}_final"] = float(res.series("max_minus_avg")[-1])
    return ExperimentRecord(
        name="fig03",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "rounds": rounds,
        },
        series=series,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figures 4 & 5 — hybrid switch at an early and a late round
# ----------------------------------------------------------------------

def fig04_05_switching(
    scale: str = "ci",
    rounds: Optional[int] = None,
    switch_rounds: Optional[Sequence[int]] = None,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figures 4/5: switching from SOS to FOS drops the residual imbalance.

    The paper switches at 2500 ("early", end of the exponential-decay phase)
    and 3000 ("late") on the 1000x1000 torus; the CI default scales these to
    the small torus's decay horizon.
    """
    built = build_graph("torus-1000", scale)
    if switch_rounds is None:
        base = _default_rounds(built, factor=1.2)
        switch_rounds = (base, int(base * 1.2))
    rounds = rounds or int(max(switch_rounds) * 1.6)

    sos_only = _simulate(built, "sos", rounds, seed=seed, engine=engine)
    series = {
        "round": sos_only.rounds.tolist(),
        "sos_only_max_minus_avg": sos_only.series("max_minus_avg").tolist(),
        "sos_only_max_local_diff": sos_only.series("max_local_diff").tolist(),
    }
    summary = {
        "sos_only_plateau_max_minus_avg": remaining_imbalance(sos_only).mean,
        "sos_only_plateau_local_diff": remaining_imbalance(
            sos_only, field="max_local_diff"
        ).mean,
    }
    for switch in switch_rounds:
        res = _simulate(
            built, "sos", rounds, seed=seed, switch_round=switch, engine=engine
        )
        tag = f"switch{switch}"
        series[f"{tag}_max_minus_avg"] = res.series("max_minus_avg").tolist()
        series[f"{tag}_max_local_diff"] = res.series("max_local_diff").tolist()
        tail = res.rounds >= switch + (rounds - switch) // 2
        summary[f"{tag}_final_max_minus_avg"] = float(
            np.mean(res.series("max_minus_avg")[tail])
        )
        summary[f"{tag}_final_local_diff"] = float(
            np.mean(res.series("max_local_diff")[tail])
        )
    return ExperimentRecord(
        name="fig04_05",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "rounds": rounds,
            "switch_rounds": list(switch_rounds),
        },
        series=series,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figure 6 — idealized vs randomized rounding + float drift of the total
# ----------------------------------------------------------------------

def fig06_ideal_error(
    scale: str = "ci",
    rounds: Optional[int] = None,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 6: idealized (double-precision) SOS vs randomized rounding,
    plus the absolute error of the idealized scheme's total load."""
    built = build_graph("torus-1000", scale)
    rounds = rounds or _default_rounds(built)
    ideal = _simulate(built, "sos", rounds, rounding="identity", engine=engine)
    discrete = _simulate(built, "sos", rounds, seed=seed, engine=engine)
    totals = ideal.series("total_load")
    drift = np.abs(totals - totals[0]).tolist()
    return ExperimentRecord(
        name="fig06",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "rounds": rounds,
        },
        series={
            "round": ideal.rounds.tolist(),
            "ideal_max_minus_avg": ideal.series("max_minus_avg").tolist(),
            "discrete_max_minus_avg": discrete.series("max_minus_avg").tolist(),
            "ideal_total_load_abs_error": drift,
        },
        summary={
            "max_total_drift": float(max(drift)),
            "discrete_plateau": remaining_imbalance(discrete).mean,
            "ideal_final": float(ideal.series("max_minus_avg")[-1]),
        },
    )


# ----------------------------------------------------------------------
# Figure 7 — impact of eigenvectors on the load
# ----------------------------------------------------------------------

def fig07_eigencoefficients(
    scale: str = "ci",
    rounds: Optional[int] = None,
    seed: int = 0,
    record_every: int = 1,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 7: eigen-coefficient magnitudes and the leading eigenvector.

    Uses the exact Fourier eigenbasis of the torus (the paper used LAPACK on
    the dense matrix; on a torus both give the same coefficients).  Tracks
    ``max_i |a_i|`` and the currently leading mode per round.
    """
    built = build_graph("torus-100", scale if scale != "paper" else "ci")
    side = int(round(math.sqrt(built.n)))
    rounds = rounds or _default_rounds(built)
    res = _simulate(
        built, "sos", rounds, seed=seed, keep_loads=True,
        record_every=record_every, engine=engine,
    )
    analyzer = TorusFourierAnalyzer(side, side)
    trace = analyzer.trace(res.loads_history)
    span = trace.stable_leader_span()
    stable_mode = (
        int(trace.leading_index[span[0]]) if span[1] > span[0] else None
    )
    return ExperimentRecord(
        name="fig07",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "rounds": rounds,
            "record_every": record_every,
        },
        series={
            "round": res.rounds.tolist(),
            "leading_coefficient": trace.leading_value.tolist(),
            "leading_mode_flat_index": trace.leading_index.tolist(),
            "leading_mode_eigenvalue": trace.leading_eigenvalue().tolist(),
        },
        summary={
            "stable_leader_mode": stable_mode,
            "stable_leader_from_round": int(res.rounds[span[0]]) if span[1] > span[0] else None,
            "stable_leader_to_round": int(res.rounds[span[1] - 1]) if span[1] > span[0] else None,
            "stable_leader_span_rounds": int(span[1] - span[0]),
        },
    )


# ----------------------------------------------------------------------
# Figure 8 — sweep of the switch round
# ----------------------------------------------------------------------

def fig08_switch_sweep(
    scale: str = "ci",
    rounds: int = 1000,
    switch_rounds: Sequence[int] = (300, 500, 700, 900),
    seed: int = 0,
    engine: str = "reference",
    n_seeds: int = 1,
) -> ExperimentRecord:
    """Figure 8: effect of the SOS->FOS switch round on the 100x100 torus.

    The paper's parameters are used verbatim (this figure is already at CI
    scale in the paper): switches at rounds 300/500/700/900 within a
    1000-round run.

    The whole sweep — the pure-SOS curve plus one curve per switch round,
    times the seed replicas — is submitted as *one*
    :func:`~repro.experiments.sweeps.sweep_ensemble` call: the switch
    rounds travel as a per-replica
    :class:`~repro.engines.ReplicaParams` plane, so every curve advances
    per vectorised step on the vectorised engines instead of one
    engine call per sweep point.  With ``n_seeds > 1`` the series come
    back seed-averaged with ``_std`` companions.
    """
    from .sweeps import ParamGrid, ensemble_series, sweep_ensemble

    built = build_graph("torus-100", scale if scale != "paper" else "ci")
    n_seeds = max(int(n_seeds), 1)
    config = engine_config(built, scheme="sos", rounds=rounds, seed=seed)
    sweep = sweep_ensemble(
        built.topo,
        config,
        ParamGrid(switch_round=[None, *switch_rounds]),
        n_seeds=n_seeds,
        average_load=DEFAULT_AVERAGE_LOAD,
        engine=engine,
    )
    tags = ["sos_only"] + [f"fos{switch}" for switch in switch_rounds]
    series: Dict[str, List[float]] = {
        "round": sweep.results[0].rounds.tolist()
    }
    summary: Dict[str, float] = {}
    for i, tag in enumerate(tags):
        group = sweep.point_results(i)
        if n_seeds == 1:
            res = group[0]
            series[f"{tag}_max_minus_avg"] = res.series(
                "max_minus_avg"
            ).tolist()
            if tag == "sos_only":
                series["sos_only_max_local_diff"] = res.series(
                    "max_local_diff"
                ).tolist()
                summary["sos_only_final"] = float(
                    res.series("max_minus_avg")[-1]
                )
            else:
                tail = res.series("max_minus_avg")[res.rounds >= rounds - 50]
                summary[f"{tag}_final"] = float(np.mean(tail))
        else:
            for fieldname in ("max_minus_avg", "max_local_diff"):
                mean, std = ensemble_series(group, fieldname)
                series[f"{tag}_{fieldname}"] = mean.tolist()
                series[f"{tag}_{fieldname}_std"] = std.tolist()
            finals = [
                float(
                    np.mean(
                        np.asarray(r.series("max_minus_avg"))[
                            np.asarray(r.rounds) >= rounds - 50
                        ]
                    )
                )
                for r in group
            ]
            summary[f"{tag}_final"] = float(np.mean(finals))
    return ExperimentRecord(
        name="fig08",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "rounds": rounds,
            "switch_rounds": list(switch_rounds),
            "n_seeds": n_seeds,
            "engine_calls": 1,
        },
        series=series,
        summary=summary,
    )


# ----------------------------------------------------------------------
# Figures 9-11 — raster renders of the torus load
# ----------------------------------------------------------------------

def fig09_11_renders(
    scale: str = "ci",
    snapshot_rounds: Optional[Sequence[int]] = None,
    seed: int = 0,
    directory: Optional[str] = None,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figures 9-11: grayscale rasters of the load on the torus.

    Renders adaptive-shading snapshots (Figures 9/10: wavefronts emanating
    from the loaded corner and collapsing in the centre) and
    threshold-shading snapshots before/after an SOS->FOS switch (Figure 11:
    FOS smooths the SOS noise).  When ``directory`` is given the frames are
    written as PGM files; the record always carries summary statistics.
    """
    built = build_graph("torus-1000", scale)
    side = int(round(math.sqrt(built.n)))
    horizon = _default_rounds(built, factor=1.5)
    if snapshot_rounds is None:
        snapshot_rounds = sorted(
            {int(horizon * f) for f in (0.15, 0.3, 0.4, 0.45, 0.6, 1.0)}
        )
    rounds = max(snapshot_rounds)
    res = _simulate(built, "sos", rounds, seed=seed, keep_loads=True, engine=engine)
    avg = float(res.series("total_load")[0]) / built.n

    written = []
    mean_shade = {}
    for t in snapshot_rounds:
        load = res.loads_history[t]
        img = load_to_grayscale(load, (side, side), mode="adaptive")
        mean_shade[str(t)] = float(img.mean())
        if directory is not None:
            from ..viz import write_pgm
            import os

            os.makedirs(directory, exist_ok=True)
            path = os.path.join(directory, f"fig09-round{t:05d}.pgm")
            written.append(write_pgm(path, img))

    # Figure 11: threshold renders around a switch (clamped into the run).
    switch = max(1, min(int(horizon * 0.8), int(rounds * 0.6)))
    res_switch = _simulate(
        built, "sos", rounds, seed=seed, switch_round=switch, keep_loads=True,
        engine=engine,
    )
    thr_before = load_to_grayscale(
        res_switch.loads_history[switch], (side, side), mode="threshold",
        threshold=10.0, average=avg,
    )
    after_round = min(switch + max(1, (rounds - switch) // 2), rounds)
    thr_after = load_to_grayscale(
        res_switch.loads_history[after_round], (side, side), mode="threshold",
        threshold=10.0, average=avg,
    )
    if directory is not None:
        from ..viz import write_pgm
        import os

        written.append(
            write_pgm(os.path.join(directory, "fig11-before-switch.pgm"), thr_before)
        )
        written.append(
            write_pgm(os.path.join(directory, "fig11-after-switch.pgm"), thr_after)
        )

    return ExperimentRecord(
        name="fig09_11",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "snapshot_rounds": list(snapshot_rounds),
            "switch_round": switch,
        },
        series={
            "round": res.rounds.tolist(),
            "max_minus_avg": res.series("max_minus_avg").tolist(),
        },
        summary={
            "mean_shade_per_snapshot": mean_shade,
            "white_fraction_before_switch": float((thr_before == 255).mean()),
            "white_fraction_after_switch": float((thr_after == 255).mean()),
            "frames_written": len(written),
        },
    )


# ----------------------------------------------------------------------
# Figures 12-14 — other graph classes
# ----------------------------------------------------------------------

def _other_network_figure(
    name: str,
    graph_key: str,
    scale: str,
    rounds: Optional[int],
    switch_fraction: float,
    seed: int,
    engine: str = "reference",
) -> ExperimentRecord:
    """Shared driver for Figures 12 (CM), 13 (hypercube), 14 (RGG)."""
    built = build_graph(graph_key, scale, seed=seed)
    rounds = rounds or max(_default_rounds(built, factor=4.0), 60)
    switch = max(2, int(rounds * switch_fraction))
    sos = _simulate(built, "sos", rounds, seed=seed, engine=engine)
    fos = _simulate(built, "fos", rounds, seed=seed + 1, engine=engine)
    hybrid = _simulate(
        built, "sos", rounds, seed=seed, switch_round=switch, engine=engine
    )
    # "Balanced up to an additive constant": the discrete residual scales
    # with the degree, so the convergence threshold must too (the RGG has
    # max degree ~35 at CI scale and plateaus above 10 tokens).
    threshold = float(max(10, built.topo.max_degree))
    speedup = measured_speedup(fos, sos, built.lam, threshold=threshold)
    return ExperimentRecord(
        name=name,
        params={
            "graph": graph_key,
            "scale": scale,
            "n": built.n,
            "lambda": built.lam,
            "beta": built.beta,
            "rounds": rounds,
            "switch_round": switch,
        },
        series={
            "round": sos.rounds.tolist(),
            "sos_max_minus_avg": sos.series("max_minus_avg").tolist(),
            "sos_max_local_diff": sos.series("max_local_diff").tolist(),
            "sos_potential_per_node": sos.series("potential_per_node").tolist(),
            "fos_max_minus_avg": fos.series("max_minus_avg").tolist(),
            "hybrid_max_minus_avg": hybrid.series("max_minus_avg").tolist(),
        },
        summary={
            "balance_threshold": threshold,
            "sos_round_below_10": speedup.sos_round,
            "fos_round_below_10": speedup.fos_round,
            "measured_speedup": speedup.measured,
            "predicted_speedup": speedup.predicted,
            "sos_plateau": remaining_imbalance(sos).mean,
            "fos_plateau": remaining_imbalance(fos).mean,
            "hybrid_final": float(
                np.mean(hybrid.series("max_minus_avg")[-20:])
            ),
        },
    )


def fig12_random_graph(
    scale: str = "ci",
    rounds: Optional[int] = None,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 12: configuration-model random graph — SOS barely beats FOS."""
    return _other_network_figure("fig12", "cm", scale, rounds, 0.12, seed, engine)


def fig13_hypercube(
    scale: str = "ci",
    rounds: Optional[int] = None,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 13: hypercube — limited SOS improvement; switch to FOS midway."""
    return _other_network_figure("fig13", "hypercube", scale, rounds, 0.25, seed, engine)


def fig14_rgg(
    scale: str = "ci",
    rounds: Optional[int] = None,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 14: random geometric graph — torus-like behaviour."""
    return _other_network_figure("fig14", "rgg", scale, rounds, 0.5, seed, engine)


# ----------------------------------------------------------------------
# Figure 15 — combined torus metrics + eigen-coefficient overlay
# ----------------------------------------------------------------------

def fig15_torus_combined(
    scale: str = "ci",
    rounds: int = 1000,
    switch_round: int = 500,
    seed: int = 0,
    engine: str = "reference",
) -> ExperimentRecord:
    """Figure 15: 100x100 torus — metrics, FOS switch at 500, and the
    leading eigen-coefficient overlay (``-a_4`` leads from ~100 to ~700)."""
    built = build_graph("torus-100", scale if scale != "paper" else "ci")
    side = int(round(math.sqrt(built.n)))
    res = _simulate(built, "sos", rounds, seed=seed, keep_loads=True, engine=engine)
    hybrid = _simulate(
        built, "sos", rounds, seed=seed, switch_round=switch_round, engine=engine
    )
    analyzer = TorusFourierAnalyzer(side, side)
    trace = analyzer.trace(res.loads_history)
    span = trace.stable_leader_span()
    return ExperimentRecord(
        name="fig15",
        params={
            "graph": built.key,
            "scale": scale,
            "n": built.n,
            "rounds": rounds,
            "switch_round": switch_round,
        },
        series={
            "round": res.rounds.tolist(),
            "max_minus_avg": res.series("max_minus_avg").tolist(),
            "max_local_diff": res.series("max_local_diff").tolist(),
            "potential_per_node": res.series("potential_per_node").tolist(),
            "leading_coefficient": trace.leading_value.tolist(),
            "leading_mode_flat_index": trace.leading_index.tolist(),
            "hybrid_max_minus_avg": hybrid.series("max_minus_avg").tolist(),
        },
        summary={
            "stable_leader_mode": int(trace.leading_index[span[0]])
            if span[1] > span[0]
            else None,
            "stable_leader_from_round": int(span[0]),
            "stable_leader_to_round": int(span[1] - 1),
            "hybrid_final": float(
                np.mean(hybrid.series("max_minus_avg")[-50:])
            ),
            "sos_final": float(
                np.mean(res.series("max_minus_avg")[-50:])
            ),
        },
    )
