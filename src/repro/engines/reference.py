"""Reference engine: the classic simulator behind the engine protocol.

Each replica is an incremental :class:`~repro.core.simulator.Simulator` run
(:meth:`start` / :meth:`advance` / :meth:`finish`), so the engine's traces
are *the* reference semantics by construction — there is no second
implementation to keep in sync.  Replica ``b`` seeds its rounding generator
with ``default_rng(seed + b)``, so a one-replica run with seed ``s``
reproduces the classic ``Simulator.run`` with ``default_rng(s)`` exactly.

Dynamic workloads (``config.arrivals``) work the same way: each replica is
an incremental :class:`~repro.core.dynamic.DynamicSimulator` run whose
arrival stream is :func:`~repro.core.dynamic.arrival_stream`\\ ``(seed,
key_b)``, so engine replica ``b`` reproduces a standalone
``DynamicSimulator`` seeded with that stream bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..core.alphas import resolve_alphas
from ..core.churn import (
    ChurnPlan,
    apply_handoffs,
    masked_dynamic_values,
    masked_static_values,
    remap_flows,
    resolve_churn,
)
from ..core.dynamic import (
    DynamicResult,
    DynamicRun,
    DynamicSimulator,
    ScaledArrivals,
)
from ..core.hybrid import FixedRoundSwitch
from ..core.process import LoadBalancingProcess
from ..core.records import DynamicRecordTable, RecordTable
from ..core.schemes import FirstOrderScheme, SecondOrderScheme
from ..core.simulator import SimulationResult, SimulationRun, Simulator
from ..core.state import LoadState, transient_loads
from ..graphs.speeds import uniform_speeds, validate_speeds
from ..graphs.topology import Topology

from .base import (
    ArrivalBatch,
    Engine,
    EngineConfig,
    RecordBatch,
    ResolvedReplicaParams,
    StepBatch,
    apply_load_scales,
    as_load_batch,
    check_regime,
    make_switch_policy,
    register_engine,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_replica_params,
)
from .capabilities import check_config

__all__ = ["ReferenceEngine"]


def build_scheme(
    topo: Topology,
    config: EngineConfig,
    beta: Optional[float] = None,
    alphas=None,
):
    """The continuous scheme described by an engine config.

    ``beta``/``alphas`` override the config-level values — this is how the
    per-replica backends unfold ``replica_params`` planes into one scheme
    per replica.
    """
    if alphas is None:
        alphas = config.alphas
    if config.scheme == "fos":
        return FirstOrderScheme(topo, speeds=config.speeds, alphas=alphas)
    return SecondOrderScheme(
        topo,
        beta=config.beta if beta is None else beta,
        speeds=config.speeds,
        alphas=alphas,
    )


def replica_scheme_kwargs(
    topo: Topology,
    config: EngineConfig,
    params: Optional[ResolvedReplicaParams],
    n_replicas: int,
) -> List[dict]:
    """One :func:`build_scheme` override dict per replica, from the planes.

    The per-replica alpha array is the float64 product
    ``base_alphas * alpha_scales[b]`` — elementwise exactly what the
    batched engine folds into its alpha plane, so the two backends stay
    bit-identical for deterministic roundings.  The base alphas resolve
    once for the whole batch, not once per replica.
    """
    if params is None:
        return [{} for _ in range(n_replicas)]
    base_alphas = None
    if params.alpha_scales is not None:
        speeds = validate_speeds(
            config.speeds if config.speeds is not None else uniform_speeds(topo.n),
            topo.n,
        )
        base_alphas = resolve_alphas(config.alphas, topo, speeds)
    out: List[dict] = []
    for b in range(n_replicas):
        kwargs: dict = {}
        if params.betas is not None:
            kwargs["beta"] = float(params.betas[b])
        if base_alphas is not None:
            kwargs["alphas"] = base_alphas * float(params.alpha_scales[b])
        out.append(kwargs)
    return out


def replica_switch_policy(
    config: EngineConfig, params: Optional[ResolvedReplicaParams], b: int
):
    """Replica ``b``'s switch policy: its own fixed round, or the global
    spec (``replica_params.switch_rounds`` and ``config.switch`` are
    mutually exclusive, so there is never a conflict to resolve)."""
    if params is not None and params.switch_rounds is not None:
        round_b = int(params.switch_rounds[b])
        return FixedRoundSwitch(round_b) if round_b >= 0 else None
    return make_switch_policy(config.switch)


def scale_arrival_model(
    model, params: Optional[ResolvedReplicaParams], b: int
):
    """Replica ``b``'s arrival model, wrapped when an arrival scale is set."""
    if params is None or params.arrival_scales is None:
        return model
    return ScaledArrivals(model, float(params.arrival_scales[b]))


@dataclass
class _ChurnReplica:
    """One replica of a churn run: its process is rebuilt per topology
    segment, its rounding generator persists across segments."""

    rng: np.random.Generator
    process: LoadBalancingProcess
    state: LoadState
    last_min_transient: float
    last_traffic: float
    table: object = None        # RecordTable (static) or DynamicRecordTable
    loads_history: Optional[List[np.ndarray]] = None
    arrival_rng: Optional[np.random.Generator] = None
    arrival_model: object = None
    pending: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    injected: bool = False


@dataclass
class _ChurnReferenceHandle:
    """Reference-engine churn run: the per-round ground-truth loop.

    ``topo`` is the *live* universe topology of the current segment;
    ``active``/``active_idx`` the current liveness mask.  A pending
    :class:`~repro.core.churn.ChurnPatch` for round ``r`` is applied at
    the start of round ``r`` — before that round's arrivals and step —
    by :meth:`ReferenceEngine._churn_patch`.
    """

    topo: Topology
    config: EngineConfig
    plan: ChurnPlan
    active: np.ndarray
    active_idx: np.ndarray
    round_index: int
    scheme_name: str
    replicas: List[_ChurnReplica]
    dynamic: bool
    patched_through: int = 0


@dataclass
class _ReferenceHandle:
    topo: Topology
    config: EngineConfig
    replicas: List[Tuple[Simulator, SimulationRun]]


@dataclass
class _DynamicReferenceHandle:
    topo: Topology
    config: EngineConfig
    replicas: List[Tuple[DynamicSimulator, DynamicRun]]


@register_engine
class ReferenceEngine(Engine):
    """Per-replica loop over the incremental simulator core."""

    name = "reference"

    def prepare(self, topo, config, initial_loads):
        config.validate()
        check_config(config, self.name)
        loads = as_load_batch(initial_loads, topo.n)
        params = resolve_replica_params(config.replica_params, loads.shape[0])
        loads = apply_load_scales(loads, params)
        plan = resolve_churn(topo, config)
        if plan is not None:
            return self._prepare_churn(topo, config, loads, plan)
        if config.arrivals is not None:
            return self._prepare_dynamic(topo, config, loads, params)
        scheme_kwargs = replica_scheme_kwargs(
            topo, config, params, loads.shape[0]
        )
        replicas: List[Tuple[Simulator, SimulationRun]] = []
        for b, load in enumerate(loads):
            process = LoadBalancingProcess(
                build_scheme(topo, config, **scheme_kwargs[b]),
                rounding=config.rounding,
                rng=np.random.default_rng(config.seed + b),
            )
            sim = Simulator(
                process,
                switch_policy=replica_switch_policy(config, params, b),
                record_every=config.record_every,
                keep_loads=config.keep_loads,
                targets=config.targets,
            )
            replicas.append((sim, sim.start(load, rounds_hint=config.rounds)))
        return _ReferenceHandle(topo=topo, config=config, replicas=replicas)

    def _prepare_dynamic(
        self, topo, config, loads, params=None
    ) -> _DynamicReferenceHandle:
        models = resolve_arrival_models(config.arrivals, loads.shape[0])
        rngs = resolve_arrival_rngs(config, loads.shape[0])
        scheme_kwargs = replica_scheme_kwargs(
            topo, config, params, loads.shape[0]
        )
        replicas: List[Tuple[DynamicSimulator, DynamicRun]] = []
        for b, load in enumerate(loads):
            process = LoadBalancingProcess(
                build_scheme(topo, config, **scheme_kwargs[b]),
                rounding=config.rounding,
                rng=np.random.default_rng(config.seed + b),
            )
            dsim = DynamicSimulator(
                process, scale_arrival_model(models[b], params, b), rng=rngs[b]
            )
            replicas.append((dsim, dsim.start(load, rounds_hint=config.rounds)))
        return _DynamicReferenceHandle(topo=topo, config=config, replicas=replicas)

    def _prepare_churn(self, topo, config, loads, plan) -> _ChurnReferenceHandle:
        dynamic = config.arrivals is not None
        n_b = loads.shape[0]
        models = resolve_arrival_models(config.arrivals, n_b) if dynamic else None
        arrival_rngs = resolve_arrival_rngs(config, n_b) if dynamic else None
        scheme_name = (
            "FirstOrderScheme" if config.scheme == "fos" else "SecondOrderScheme"
        )
        replicas: List[_ChurnReplica] = []
        for b in range(n_b):
            load = plan.expand_load(loads[b])
            rng = np.random.default_rng(config.seed + b)
            process = LoadBalancingProcess(
                build_scheme(plan.topo0, config),
                rounding=config.rounding,
                rng=rng,
            )
            state = process.initial_state(load)
            rep = _ChurnReplica(
                rng=rng,
                process=process,
                state=state,
                last_min_transient=float(load[plan.active0_idx].min()),
                last_traffic=0.0,
            )
            if dynamic:
                rep.table = DynamicRecordTable(max(config.rounds, 1) + 1)
                rep.arrival_rng = arrival_rngs[b]
                rep.arrival_model = models[b]
            else:
                rep.table = RecordTable(config.rounds // config.record_every + 2)
                rep.table.append(
                    0,
                    scheme_name,
                    min_transient=rep.last_min_transient,
                    round_traffic=0.0,
                    **masked_static_values(plan.topo0, load, plan.active0_idx),
                )
                if config.keep_loads:
                    rep.loads_history = [state.load.copy()]
            replicas.append(rep)
        return _ChurnReferenceHandle(
            topo=plan.topo0,
            config=config,
            plan=plan,
            active=plan.active0,
            active_idx=plan.active0_idx,
            round_index=0,
            scheme_name=scheme_name,
            replicas=replicas,
            dynamic=dynamic,
        )

    def _churn_patch(self, handle: _ChurnReferenceHandle) -> None:
        """Apply the pending topology patch for the upcoming round, once."""
        r = handle.round_index + 1
        if handle.patched_through >= r:
            return
        handle.patched_through = r
        patch = handle.plan.patch_at(r)
        if patch is None:
            return
        handle.topo = patch.topo
        handle.active = patch.active
        handle.active_idx = patch.active_idx
        for rep in handle.replicas:
            load = rep.state.load.copy()
            apply_handoffs(load, patch.handoffs)
            flows = remap_flows(rep.state.flows, patch.edge_map)
            rep.state = LoadState(
                load=load, flows=flows, round_index=rep.state.round_index
            )
            rep.process = LoadBalancingProcess(
                build_scheme(patch.topo, handle.config),
                rounding=handle.config.rounding,
                rng=rep.rng,
            )

    def _churn_inject(
        self, handle: _ChurnReferenceHandle, rep: _ChurnReplica
    ) -> None:
        """Inject one replica's arrivals, clamped to the live node set."""
        deltas = np.asarray(
            rep.arrival_model.deltas(
                handle.topo, rep.state.round_index, rep.arrival_rng
            ),
            dtype=np.float64,
        )
        deltas = deltas.copy() if deltas.base is not None else deltas
        deltas[~handle.active] = 0.0
        positive = np.maximum(deltas, 0.0)
        wanted = np.maximum(-deltas, 0.0)
        actual = np.minimum(wanted, np.maximum(rep.state.load, 0.0))
        rep.state = LoadState(
            load=rep.state.load + positive - actual,
            flows=rep.state.flows,
            round_index=rep.state.round_index,
        )
        rep.pending = (
            float(positive.sum()),
            float(actual.sum()),
            float((wanted - actual).sum()),
        )
        rep.injected = True

    def _churn_record(self, handle: _ChurnReferenceHandle) -> None:
        for rep in handle.replicas:
            rep.table.append(
                handle.round_index,
                handle.scheme_name,
                min_transient=rep.last_min_transient,
                round_traffic=rep.last_traffic,
                **masked_static_values(
                    handle.topo, rep.state.load, handle.active_idx
                ),
            )
            if rep.loads_history is not None:
                rep.loads_history.append(rep.state.load.copy())

    def _churn_arrive(self, handle: _ChurnReferenceHandle) -> ArrivalBatch:
        if not handle.dynamic:
            from ..exceptions import ConfigurationError

            raise ConfigurationError(
                "arrive() needs a dynamic run (config.arrivals was None)"
            )
        self._churn_patch(handle)
        accounting = np.zeros((len(handle.replicas), 3))
        for i, rep in enumerate(handle.replicas):
            if not rep.injected:
                self._churn_inject(handle, rep)
            accounting[i] = rep.pending
        return ArrivalBatch(
            round_index=handle.round_index,
            arrived=accounting[:, 0],
            departed=accounting[:, 1],
            clamped=accounting[:, 2],
        )

    def _churn_step(self, handle: _ChurnReferenceHandle) -> StepBatch:
        self._churn_patch(handle)
        config = handle.config
        for rep in handle.replicas:
            if handle.dynamic and not rep.injected:
                self._churn_inject(handle, rep)
            before = rep.state.load
            rep.state, info = rep.process.step(rep.state)
            rep.last_traffic = float(np.abs(info.actual).sum())
            rep.last_min_transient = float(
                transient_loads(handle.topo, before, info.actual)[
                    handle.active_idx
                ].min()
            )
        handle.round_index += 1
        r = handle.round_index
        if handle.dynamic:
            for rep in handle.replicas:
                arrived, departed, clamped = rep.pending
                rep.table.append(
                    r,
                    arrived=arrived,
                    departed=departed,
                    clamped=clamped,
                    **masked_dynamic_values(
                        handle.topo, rep.state.load, handle.active_idx
                    ),
                )
                rep.pending = (0.0, 0.0, 0.0)
                rep.injected = False
        elif r % config.record_every == 0:
            self._churn_record(handle)
        reps = handle.replicas
        return StepBatch(
            round_index=r,
            loads=np.stack([rep.state.load for rep in reps]),
            flows=np.stack([rep.state.flows for rep in reps]),
            min_transient=np.array([rep.last_min_transient for rep in reps]),
            traffic=np.array([rep.last_traffic for rep in reps]),
            switched=np.zeros(len(reps), dtype=bool),
        )

    def _churn_metrics(self, handle: _ChurnReferenceHandle) -> RecordBatch:
        if handle.dynamic:
            return RecordBatch(
                prebuilt_dynamic=[
                    DynamicResult(table=rep.table, final_state=rep.state)
                    for rep in handle.replicas
                ]
            )
        last = handle.replicas[0].table.column("round_index")
        if len(last) == 0 or int(last[-1]) != handle.round_index:
            self._churn_record(handle)
        return RecordBatch(
            prebuilt=[
                SimulationResult(
                    table=rep.table,
                    final_state=rep.state,
                    switched_at=None,
                    loads_history=rep.loads_history,
                )
                for rep in handle.replicas
            ]
        )

    def arrive(self, handle) -> ArrivalBatch:
        if isinstance(handle, _ChurnReferenceHandle):
            return self._churn_arrive(handle)
        if not isinstance(handle, _DynamicReferenceHandle):
            from ..exceptions import ConfigurationError

            raise ConfigurationError(
                "arrive() needs a dynamic run (config.arrivals was None)"
            )
        accounting = np.array(
            [dsim.inject(run) for dsim, run in handle.replicas]
        ).reshape(len(handle.replicas), 3)
        return ArrivalBatch(
            round_index=handle.replicas[0][1].state.round_index,
            arrived=accounting[:, 0],
            departed=accounting[:, 1],
            clamped=accounting[:, 2],
        )

    def step(self, handle) -> StepBatch:
        if isinstance(handle, _ChurnReferenceHandle):
            return self._churn_step(handle)
        for sim, run in handle.replicas:
            sim.advance(run)
        runs = [run for _, run in handle.replicas]
        switched_round = runs[0].state.round_index
        dynamic = isinstance(handle, _DynamicReferenceHandle)
        return StepBatch(
            round_index=switched_round,
            loads=np.stack([r.state.load for r in runs]),
            flows=np.stack([r.state.flows for r in runs]),
            min_transient=np.array([r.last_min_transient for r in runs]),
            traffic=np.array([r.last_traffic for r in runs]),
            switched=np.zeros(len(runs), dtype=bool)
            if dynamic
            else np.array(
                [r.switched_at == switched_round for r in runs], dtype=bool
            ),
        )

    def metrics(self, handle) -> RecordBatch:
        if isinstance(handle, _ChurnReferenceHandle):
            return self._churn_metrics(handle)
        if isinstance(handle, _DynamicReferenceHandle):
            return RecordBatch(
                prebuilt_dynamic=[
                    dsim.finish(run) for dsim, run in handle.replicas
                ]
            )
        return RecordBatch(
            prebuilt=[sim.finish(run) for sim, run in handle.replicas]
        )

    def run(self, topo, config, initial_loads):
        """Fused loop without per-round ``StepBatch`` materialisation."""
        check_regime(config, dynamic=False)
        handle = self.prepare(topo, config, initial_loads)
        if isinstance(handle, _ChurnReferenceHandle):
            for _ in range(config.rounds):
                self._churn_step(handle)
        else:
            for sim, run in handle.replicas:
                for _ in range(config.rounds):
                    sim.advance(run)
        return self.metrics(handle).results()

    def run_dynamic(self, topo, config, initial_loads):
        """Fused dynamic loop (``advance`` injects arrivals internally)."""
        check_regime(config, dynamic=True)
        handle = self.prepare(topo, config, initial_loads)
        if isinstance(handle, _ChurnReferenceHandle):
            for _ in range(config.rounds):
                self._churn_step(handle)
        else:
            for dsim, run in handle.replicas:
                for _ in range(config.rounds):
                    dsim.advance(run)
        return self.metrics(handle).dynamic_results()
