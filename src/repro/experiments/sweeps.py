"""Parameter sweeps: convergence-time scaling and replica ensembles.

The paper's quantitative core is the convergence-time law — FOS needs
``O(log(Kn)/(1-lambda))`` rounds, SOS ``O(log(Kn)/sqrt(1-lambda))`` — so on
a ``k x k`` torus (gap ``~ 1/k^2``) the balancing time should scale like
``k^2`` for FOS but only ``k`` for SOS.  :func:`torus_size_sweep` measures
the rounds-to-balance across torus sizes and :func:`fit_power_law` extracts
the exponent, which the scaling bench compares against 2 and 1.

:func:`replica_ensemble` is the ensemble-throughput path: it submits a whole
batch of seeds/initial loads as *one* engine call (the batched backend runs
every replica per vectorised step; ``config.workers`` additionally splits
the batch across worker processes, bit-identical to the inline run) and
reduces the per-replica results to mean/std statistics of the Section VI
metrics.

:func:`dynamic_replica_ensemble` is the same idea for the dynamic regime:
the full cross product seeds x arrival-models x initial-loads goes to the
engine as *one* batched dynamic call, and the per-replica
:class:`~repro.core.dynamic.DynamicResult` objects reduce to steady-state
imbalance statistics per arrival model.

:class:`ParamGrid` / :func:`sweep_ensemble` generalise this to *parameter*
sweeps: every grid point (switch round, beta, alpha scale, initial-load
scale, arrival-rate scale) times every seed becomes one replica of a
single engine call, carried by the per-replica parameter planes of
:class:`~repro.engines.ReplicaParams`.  The fig08 switch sweep and the
beta-sensitivity sweep both run this way — sweep throughput scales with
the vectorised engines instead of with Python loop iterations.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import ConfigurationError
from ..core import (
    DynamicResult,
    SimulationResult,
    beta_opt,
    make_arrival_model,
    point_load,
    torus_lambda,
    uniform_load,
)
from ..engines import EngineConfig, ReplicaParams, make_engine
from ..graphs import Topology, torus_2d
from ..analysis import convergence_round

__all__ = [
    "SweepPoint",
    "EnsembleResult",
    "DynamicEnsembleResult",
    "ParamGrid",
    "SweepEnsembleResult",
    "SWEEP_KEYS",
    "torus_size_sweep",
    "replica_ensemble",
    "dynamic_replica_ensemble",
    "sweep_ensemble",
    "beta_sensitivity_sweep",
    "ensemble_series",
    "fit_power_law",
]


@dataclass(frozen=True)
class SweepPoint:
    """One measurement of a size sweep."""

    size: int
    n: int
    lam: float
    rounds_to_balance: Optional[int]


def torus_size_sweep(
    sizes: Sequence[int],
    kind: str = "sos",
    threshold: float = 10.0,
    average_load: int = 1000,
    round_cap: int = 50000,
    seed: int = 0,
    engine: str = "reference",
) -> List[SweepPoint]:
    """Measure rounds-to-balance of FOS or SOS across torus sizes.

    Each instance runs the discrete (randomized-excess) scheme from a point
    load until the max-above-average stays below ``threshold`` for three
    consecutive rounds, using an adaptive round budget derived from the
    theoretical law (capped at ``round_cap``).  ``engine`` picks the
    execution backend for every instance.
    """
    if kind not in ("fos", "sos"):
        raise ConfigurationError(f"kind must be 'fos' or 'sos', got {kind!r}")
    backend = make_engine(engine)
    points: List[SweepPoint] = []
    for size in sizes:
        topo = torus_2d(size, size)
        lam = torus_lambda((size, size))
        gap = 1.0 - lam
        k_disc = average_load * topo.n
        if kind == "fos":
            budget = 6.0 * np.log(k_disc) / gap
        else:
            budget = 6.0 * np.log(k_disc) / np.sqrt(gap)
        config = EngineConfig(
            scheme=kind,
            beta=beta_opt(lam) if kind == "sos" else 1.0,
            rounding="randomized-excess",
            rounds=int(min(budget, round_cap)),
            seed=seed,
        )
        result = backend.run(topo, config, point_load(topo, k_disc))[0]
        points.append(
            SweepPoint(
                size=size,
                n=topo.n,
                lam=lam,
                rounds_to_balance=convergence_round(
                    result, threshold=threshold, sustained=3
                ),
            )
        )
    return points


@dataclass
class EnsembleResult:
    """A replica ensemble's per-replica results plus reduced statistics.

    ``stats`` maps ``<metric>_mean`` / ``<metric>_std`` over the final
    recorded round of every replica, plus the distribution of
    rounds-to-balance (``None`` entries excluded from the moments but
    counted in ``unconverged``).
    """

    results: List[SimulationResult]
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def n_replicas(self) -> int:
        return len(self.results)


def replica_ensemble(
    topo: Topology,
    config: EngineConfig,
    initial_loads: Optional[np.ndarray] = None,
    n_replicas: int = 16,
    average_load: int = 1000,
    threshold: float = 10.0,
    engine: str = "batched",
) -> EnsembleResult:
    """Run ``n_replicas`` independent replicas as one batched engine call.

    When ``initial_loads`` is omitted every replica starts from the paper's
    point load; replicas always differ in their random streams (replica
    ``b`` derives from ``config.seed + b`` on the per-replica backends, and
    from the spawned stream ``rounding_stream(config.seed, b)`` on the
    vectorised ones).  ``config.workers`` (or ``engine="sharded"``, the
    batched engine with ``workers="auto"``) runs the same ensemble split
    across worker processes — the per-replica results are bit-identical
    to the inline run.  Setting ``config.pool=True`` instead runs every
    such call in the process on the shared persistent worker pool
    (:func:`repro.engines.pool.default_pool`), so an ensemble sweep reuses
    one set of warm workers — and their cached topology operators — for
    all of its points.
    """
    if initial_loads is None:
        if n_replicas < 1:
            raise ConfigurationError(f"n_replicas must be >= 1, got {n_replicas}")
        initial_loads = np.tile(point_load(topo, average_load * topo.n), (n_replicas, 1))
    results = make_engine(engine).run(topo, config, initial_loads)
    finals = {
        name: np.array([r.series(name)[-1] for r in results])
        for name in ("max_minus_avg", "max_local_diff", "min_transient")
    }
    stats: Dict[str, float] = {}
    for name, values in finals.items():
        stats[f"{name}_mean"] = float(values.mean())
        stats[f"{name}_std"] = float(values.std())
    balance_rounds = [
        convergence_round(r, threshold=threshold, sustained=1) for r in results
    ]
    converged = [r for r in balance_rounds if r is not None]
    stats["unconverged"] = float(len(balance_rounds) - len(converged))
    if converged:
        stats["rounds_to_balance_mean"] = float(np.mean(converged))
        stats["rounds_to_balance_std"] = float(np.std(converged))
    return EnsembleResult(results=results, stats=stats)


@dataclass
class DynamicEnsembleResult:
    """A dynamic ensemble's per-replica results plus reduced statistics.

    ``labels[b]`` identifies replica ``b`` as ``(model_key, load_index,
    seed)``; ``model_keys`` maps each key to the model's repr.  ``stats``
    reduces every model's replicas to steady-state imbalance moments, the
    mean final total, and exact arrival/departure volumes.
    """

    results: List[DynamicResult]
    labels: List[Tuple[str, int, int]]
    model_keys: Dict[str, str] = field(default_factory=dict)
    stats: Dict[str, float] = field(default_factory=dict)

    @property
    def n_replicas(self) -> int:
        return len(self.results)


def dynamic_replica_ensemble(
    topo: Topology,
    config: EngineConfig,
    arrival_models: Sequence,
    seeds: Sequence[int] = (0,),
    initial_loads: Optional[np.ndarray] = None,
    average_load: int = 100,
    engine: str = "batched",
    tail_fraction: float = 0.5,
) -> DynamicEnsembleResult:
    """Run seeds x arrival-models x initial-loads as ONE batched dynamic call.

    Every combination becomes one replica of a single
    :meth:`~repro.engines.base.Engine.run_dynamic` submission (models outer,
    loads middle, seeds inner).  Each replica's *arrival* stream is keyed by
    its seed value (``arrival_stream(config.seed, s)``), so same-seed
    replicas share their arrival randomness across models — common random
    numbers — independent of batch position.  (The rounding stream defaults
    to the batch-position key, so with randomized roundings a replica's
    full trajectory still depends on the ensemble composition; pin
    ``config.replica_keys`` — or use a deterministic rounding — when exact
    position-independence matters.)  When
    ``initial_loads`` is omitted every replica starts from the uniform load
    (``average_load`` per node), the natural base state of the dynamic
    regime.
    """
    models = [make_arrival_model(m) for m in arrival_models]
    if not models:
        raise ConfigurationError("need at least one arrival model")
    seeds = [int(s) for s in seeds]
    if not seeds:
        raise ConfigurationError("need at least one seed")
    if initial_loads is None:
        initial_loads = uniform_load(topo, average_load)[None, :]
    else:
        initial_loads = np.asarray(initial_loads, dtype=np.float64)
        if initial_loads.ndim == 1:
            initial_loads = initial_loads[None, :]
        if initial_loads.ndim != 2 or initial_loads.shape[1] != topo.n:
            raise ConfigurationError(
                f"initial loads have shape {initial_loads.shape}, "
                f"expected (n,) or (L, n) with n={topo.n}"
            )
    n_loads = initial_loads.shape[0]
    n_replicas = len(models) * n_loads * len(seeds)

    batch_loads = np.empty((n_replicas, topo.n))
    per_replica_models: List = []
    stream_keys: List[int] = []
    labels: List[Tuple[str, int, int]] = []
    model_keys: Dict[str, str] = {}
    b = 0
    for mi, model in enumerate(models):
        key = f"m{mi}"
        model_keys[key] = repr(model)
        for li in range(n_loads):
            for s in seeds:
                batch_loads[b] = initial_loads[li]
                per_replica_models.append(model)
                stream_keys.append(s)
                labels.append((key, li, s))
                b += 1
    # Batch-wide sampling draws every replica from one shared stream, so the
    # per-seed stream keys (common random numbers across models) do not
    # apply — and the engine rejects them.
    cfg = replace(
        config,
        arrivals=per_replica_models,
        arrival_seeds=(
            stream_keys if config.arrival_sampling != "batch" else None
        ),
    )
    results = make_engine(engine).run_dynamic(topo, cfg, batch_loads)

    stats: Dict[str, float] = {"n_replicas": float(n_replicas)}
    for mi, model in enumerate(models):
        key = f"m{mi}"
        group = [
            r for r, (k, _, _) in zip(results, labels) if k == key
        ]
        steady = np.array(
            [r.steady_state_imbalance(tail_fraction) for r in group]
        )
        stats[f"{key}_steady_state_mean"] = float(steady.mean())
        stats[f"{key}_steady_state_std"] = float(steady.std())
        stats[f"{key}_final_total_mean"] = float(
            np.mean([r.series("total_load")[-1] for r in group])
        )
        stats[f"{key}_arrived_total_mean"] = float(
            np.mean([r.series("arrived").sum() for r in group])
        )
        stats[f"{key}_departed_total_mean"] = float(
            np.mean([r.series("departed").sum() for r in group])
        )
    return DynamicEnsembleResult(
        results=results, labels=labels, model_keys=model_keys, stats=stats
    )


#: Grid keys a :class:`ParamGrid` accepts, mapped to the
#: :class:`~repro.engines.ReplicaParams` plane each one fills.
SWEEP_KEYS: Dict[str, str] = {
    "switch_round": "switch_rounds",
    "beta": "betas",
    "alpha_scale": "alpha_scales",
    "load_scale": "load_scales",
    "arrival_scale": "arrival_scales",
}


class ParamGrid:
    """A named parameter sweep grid, crossed into per-replica planes.

    Axes are given as keyword sequences over the keys of
    :data:`SWEEP_KEYS`::

        ParamGrid(switch_round=[None, 300, 500, 700, 900])   # fig08
        ParamGrid(beta=[1.0, 1.5, 1.9], alpha_scale=[0.5, 1.0])

    Points enumerate in row-major order (the first axis is outermost).  A
    ``switch_round`` of ``None`` (or any negative value) means "never
    switch" — the pure-SOS curve of a switch sweep.
    """

    def __init__(self, **axes):
        unknown = set(axes) - set(SWEEP_KEYS)
        if unknown:
            raise ConfigurationError(
                f"unknown sweep axes {sorted(unknown)}; "
                f"known: {sorted(SWEEP_KEYS)}"
            )
        if not axes:
            raise ConfigurationError("ParamGrid needs at least one axis")
        self.axes: Dict[str, list] = {}
        for key, values in axes.items():
            values = list(values)
            if not values:
                raise ConfigurationError(f"sweep axis {key!r} must not be empty")
            self.axes[key] = values

    @property
    def n_points(self) -> int:
        out = 1
        for values in self.axes.values():
            out *= len(values)
        return out

    def points(self) -> List[Dict[str, object]]:
        """Every grid point as an axis -> value dict, row-major order."""
        pts: List[Dict[str, object]] = [{}]
        for key, values in self.axes.items():
            pts = [dict(p, **{key: v}) for p in pts for v in values]
        return pts

    def labels(self) -> List[str]:
        """One compact ``key=value`` label per grid point."""

        def fmt(value) -> str:
            if value is None:
                return "never"
            if isinstance(value, float):
                return f"{value:g}"
            return str(value)

        return [
            ",".join(f"{key}={fmt(p[key])}" for key in self.axes)
            for p in self.points()
        ]

    def replica_params(self, n_seeds: int = 1) -> ReplicaParams:
        """The grid unrolled into :class:`~repro.engines.ReplicaParams`
        planes, each point's value repeated ``n_seeds`` consecutive times
        (seeds innermost — the layout :func:`sweep_ensemble` submits)."""
        if n_seeds < 1:
            raise ConfigurationError(f"n_seeds must be >= 1, got {n_seeds}")
        pts = self.points()
        planes = {
            plane: [p[key] for p in pts for _ in range(n_seeds)]
            for key, plane in SWEEP_KEYS.items()
            if key in self.axes
        }
        return ReplicaParams(**planes)

    def __repr__(self) -> str:
        axes = ", ".join(f"{k}x{len(v)}" for k, v in self.axes.items())
        return f"ParamGrid({axes}, {self.n_points} points)"


@dataclass
class SweepEnsembleResult:
    """A parameter sweep run as one engine call, plus per-point reductions.

    Replica layout: point ``i``'s seed replicas are the consecutive slice
    ``results[i * n_seeds : (i + 1) * n_seeds]`` (:meth:`point_results`).
    ``point_stats[i]`` reduces that group to final-imbalance moments and
    rounds-to-balance (static sweeps) or steady-state moments (dynamic
    sweeps); ``labels[i]`` names the grid point.
    """

    grid: ParamGrid
    points: List[Dict[str, object]]
    labels: List[str]
    n_seeds: int
    results: List
    point_stats: List[Dict[str, float]] = field(default_factory=list)
    dynamic: bool = False

    @property
    def n_replicas(self) -> int:
        return len(self.results)

    def point_results(self, index: int) -> List:
        """The seed-replica results of grid point ``index``."""
        if not 0 <= index < len(self.points):
            raise ConfigurationError(
                f"point index {index} out of range [0, {len(self.points)})"
            )
        return self.results[index * self.n_seeds : (index + 1) * self.n_seeds]

    def series(self, index: int, fieldname: str) -> Tuple[np.ndarray, np.ndarray]:
        """Seed-averaged ``(mean, std)`` series of one metric at one point."""
        return ensemble_series(self.point_results(index), fieldname)


def sweep_ensemble(
    topo: Topology,
    config: EngineConfig,
    grid: ParamGrid,
    initial_loads: Optional[np.ndarray] = None,
    n_seeds: int = 1,
    seeds: Optional[Sequence[int]] = None,
    average_load: int = 1000,
    threshold: float = 10.0,
    tail_fraction: float = 0.5,
    engine: str = "batched",
) -> SweepEnsembleResult:
    """Run a whole parameter grid as ONE engine call.

    Every grid point becomes ``n_seeds`` consecutive replicas of a single
    batched submission: the sweep axes travel as
    :class:`~repro.engines.ReplicaParams` planes, so the engine advances
    every sweep point per vectorised step (and ``config.workers`` splits
    them across worker processes, bit-identically).  With
    ``config.pool=True`` every call of a multi-sweep study runs on
    the same persistent worker pool, amortising process startup and
    per-topology operator preparation across sweeps.

    On the vectorised engines the rounding-stream keys are pinned per
    point to the seed *values* (default ``0 .. n_seeds-1``), which are
    exactly the streams a standalone per-point
    :func:`replica_ensemble` call would hand its replicas.  So the fused
    sweep reproduces the old one-call-per-point loop replica for replica,
    bit for bit, for deterministic roundings.  For randomized roundings
    every switching point matches the loop bit for bit too, but a
    never-switching point does not: a lone call without a switch takes
    the fused-operator schedule, which reassociates the float products
    (the same call with an all-``None`` ``switch_rounds`` plane matches
    the sweep).  Because the streams are pinned to seed values, the
    points of one seed stay bit for bit one trajectory until their switch
    rounds; the batched engine steps that shared prefix once (see
    ``docs/engines.md``, twin sharing).  Dynamic sweeps
    (``config.arrivals`` set) pin the arrival streams the same way and
    reduce to steady-state statistics.

    ``initial_loads`` is one base load row ``(n,)`` (default: the paper's
    point load for static sweeps, the uniform load for dynamic ones);
    per-replica load families come from a ``load_scale`` axis.
    """
    if isinstance(grid, dict):
        grid = ParamGrid(**grid)
    backend = make_engine(engine)
    # The grid owns the per-replica planes and stream keys; silently
    # overwriting caller-set ones would run a different experiment than
    # the caller described, so a pre-set value is an error.
    for owned in ("replica_params", "replica_keys", "arrival_seeds"):
        if getattr(config, owned) is not None:
            raise ConfigurationError(
                f"sweep_ensemble builds config.{owned} from the grid; "
                "pass a config with it unset (sweep axes and seeds are "
                "the ParamGrid/seeds arguments)"
            )
    pts = grid.points()
    labels = grid.labels()
    if seeds is None:
        if n_seeds < 1:
            raise ConfigurationError(f"n_seeds must be >= 1, got {n_seeds}")
        seeds = list(range(int(n_seeds)))
    else:
        seeds = [int(s) for s in seeds]
        if not seeds:
            raise ConfigurationError("need at least one seed")
    n_seeds = len(seeds)
    params = grid.replica_params(n_seeds)
    dynamic = config.arrivals is not None
    if "arrival_scale" in grid.axes and not dynamic:
        raise ConfigurationError(
            "an arrival_scale axis needs a dynamic config (set "
            "config.arrivals)"
        )
    if initial_loads is None:
        initial_loads = (
            uniform_load(topo, average_load)
            if dynamic
            else point_load(topo, average_load * topo.n)
        )
    base = np.asarray(initial_loads, dtype=np.float64)
    if base.ndim != 1 or base.shape[0] != topo.n:
        raise ConfigurationError(
            f"sweep_ensemble takes one base load row (n,), got shape "
            f"{base.shape}; per-replica load families come from a "
            "load_scale axis"
        )
    batch = np.tile(base, (grid.n_points * n_seeds, 1))
    stream_keys = [s for _ in pts for s in seeds]
    cfg = replace(config, replica_params=params)
    if getattr(backend, "name", "") in ("batched", "sharded"):
        # The per-replica backends key streams by batch position and
        # reject pinned keys; the vectorised ones take the per-point seed
        # values so each point reproduces its standalone ensemble.
        cfg = replace(cfg, replica_keys=stream_keys)
    if dynamic:
        cfg = replace(
            cfg,
            arrival_seeds=(
                stream_keys if config.arrival_sampling != "batch" else None
            ),
        )
        results = backend.run_dynamic(topo, cfg, batch)
    else:
        results = backend.run(topo, cfg, batch)

    point_stats: List[Dict[str, float]] = []
    for i in range(grid.n_points):
        group = results[i * n_seeds : (i + 1) * n_seeds]
        stats: Dict[str, float] = {}
        if dynamic:
            steady = np.array(
                [r.steady_state_imbalance(tail_fraction) for r in group]
            )
            stats["steady_state_mean"] = float(steady.mean())
            stats["steady_state_std"] = float(steady.std())
            stats["final_total_mean"] = float(
                np.mean([r.series("total_load")[-1] for r in group])
            )
        else:
            finals = np.array([r.series("max_minus_avg")[-1] for r in group])
            stats["final_max_minus_avg_mean"] = float(finals.mean())
            stats["final_max_minus_avg_std"] = float(finals.std())
            balance = [
                convergence_round(r, threshold=threshold, sustained=1)
                for r in group
            ]
            converged = [r for r in balance if r is not None]
            stats["unconverged"] = float(len(balance) - len(converged))
            if converged:
                stats["rounds_to_balance_mean"] = float(np.mean(converged))
                stats["rounds_to_balance_std"] = float(np.std(converged))
        point_stats.append(stats)
    return SweepEnsembleResult(
        grid=grid,
        points=pts,
        labels=labels,
        n_seeds=n_seeds,
        results=results,
        point_stats=point_stats,
        dynamic=dynamic,
    )


def beta_sensitivity_sweep(
    side: int = 32,
    betas: Optional[Sequence[float]] = None,
    rounds: int = 3000,
    average_load: int = 1000,
    threshold: float = 10.0,
    seed: int = 0,
    n_seeds: int = 1,
    engine: str = "batched",
) -> Dict[str, object]:
    """SOS beta sensitivity on a ``side x side`` torus as ONE engine call.

    The classic ablation (convergence time is minimised near ``beta_opt``)
    ran one simulator loop per beta; here every ``(beta, seed)`` pair is a
    replica of a single :func:`sweep_ensemble` submission over a ``beta``
    axis.  Returns a JSON-friendly dict with the torus spectrum data, the
    betas swept, and the (seed-averaged) rounds until the max-above-average
    stays below ``threshold`` for three consecutive recorded rounds —
    ``None`` for betas that never balance within the budget.
    """
    topo = torus_2d(side, side)
    lam = torus_lambda((side, side))
    b_opt = beta_opt(lam)
    if betas is None:
        betas = [
            1.0,
            0.5 * (1.0 + b_opt),
            0.95 * b_opt,
            b_opt,
            min(1.999, 0.5 * (b_opt + 2.0)),
        ]
    betas = [float(b) for b in betas]
    config = EngineConfig(
        scheme="sos",
        beta=b_opt,
        rounding="randomized-excess",
        rounds=rounds,
        seed=seed,
    )
    sweep = sweep_ensemble(
        topo,
        config,
        ParamGrid(beta=betas),
        n_seeds=n_seeds,
        average_load=average_load,
        threshold=threshold,
        engine=engine,
    )
    rounds_to: Dict[str, Optional[float]] = {}
    for i, beta in enumerate(betas):
        per_seed = [
            convergence_round(r, threshold=threshold, sustained=3)
            for r in sweep.point_results(i)
        ]
        converged = [r for r in per_seed if r is not None]
        rounds_to[f"{beta:.6f}"] = float(np.mean(converged)) if converged else None
    return {
        "lambda": lam,
        "beta_opt": b_opt,
        "betas": betas,
        "n_seeds": sweep.n_seeds,
        "engine_calls": 1,
        "rounds_to_balance": rounds_to,
    }


def ensemble_series(
    results: Sequence[SimulationResult], fieldname: str
) -> Tuple[np.ndarray, np.ndarray]:
    """Mean and standard deviation of one metric across replica results.

    All results must share a record grid (same engine call, or same
    ``record_every``); returns ``(mean, std)`` over the replica axis, one
    entry per recorded round.  This is how the seed-averaged figure drivers
    reduce a batched ensemble to the paper's curves.
    """
    if not results:
        raise ConfigurationError("need at least one replica result")
    stacked = np.stack([np.asarray(r.series(fieldname)) for r in results])
    return stacked.mean(axis=0), stacked.std(axis=0)


def fit_power_law(x: Sequence[float], y: Sequence[float]) -> Tuple[float, float]:
    """Least-squares fit ``y ~ c * x^e`` in log-log space.

    Returns ``(exponent, prefactor)``; requires at least two positive
    samples.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    mask = (x > 0) & (y > 0)
    if mask.sum() < 2:
        raise ConfigurationError("need at least two positive samples to fit")
    exponent, intercept = np.polyfit(np.log(x[mask]), np.log(y[mask]), 1)
    return float(exponent), float(np.exp(intercept))
