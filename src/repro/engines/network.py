"""Message-passing adapter: :class:`SyncNetwork` behind the engine protocol.

Each replica is a full :class:`~repro.network.engine.SyncNetwork` of
autonomous nodes; the adapter drives the networks round by round and records
the same Section VI metrics as the matrix engines, computed from the global
trace (loads before/after each round plus the oriented flow vector).  For
deterministic roundings the recorded values are bit-identical to the
reference engine — the network equivalence suite proves it.

Only the ``("fixed", round)`` hybrid switch is supported: the distributed
engine implements the paper's *synchronous* switch, where every node flips
at an agreed round, and metric-triggered policies would need global
knowledge the nodes don't have.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from ..exceptions import ConfigurationError, SimulationError
from ..core.churn import (
    ChurnPlan,
    masked_dynamic_values,
    masked_static_values,
    resolve_churn,
)
from ..core.dynamic import ArrivalModel, DynamicResult, ScaledArrivals
from ..core.records import DynamicRecordTable, RecordTable
from ..core.simulator import SimulationResult, record_round
from ..core.state import LoadState, transient_loads
from ..core.metrics import (
    max_local_difference,
    max_minus_average,
    normalized_potential,
    target_loads,
)
from ..graphs.speeds import uniform_speeds
from ..graphs.topology import Topology
from ..network.engine import SyncNetwork

from .base import (
    ArrivalBatch,
    Engine,
    EngineConfig,
    RecordBatch,
    StepBatch,
    apply_load_scales,
    as_load_batch,
    parse_faults_spec,
    register_engine,
    replica_beta,
    resolve_arrival_models,
    resolve_arrival_rngs,
    resolve_replica_params,
)
from .capabilities import check_config

__all__ = ["NetworkEngine"]


@dataclass
class _Replica:
    net: SyncNetwork
    table: RecordTable
    #: Balanced-target loads for record_round (None under churn, where the
    #: masked record helpers derive the live averages themselves).
    targets: Optional[np.ndarray]
    loads_history: Optional[List[np.ndarray]]
    last_min_transient: float
    last_traffic: float = 0.0
    #: This replica's synchronous SOS -> FOS switch round (None = never) —
    #: the global ``config.switch`` round, or its own
    #: ``replica_params.switch_rounds`` entry.
    switch_round: Optional[int] = None


@dataclass
class _NetworkHandle:
    topo: Topology
    config: EngineConfig
    replicas: List[_Replica]
    #: Compiled churn plan (None = static topology); ``topo`` then tracks
    #: the *live* universe-sized topology segment by segment.
    churn_plan: Optional[ChurnPlan] = None
    active: Optional[np.ndarray] = None
    active_idx: Optional[np.ndarray] = None
    patched_through: int = 0


@dataclass
class _DynamicNetReplica:
    net: SyncNetwork
    model: ArrivalModel
    rng: np.random.Generator
    table: DynamicRecordTable
    pending: Tuple[float, float, float] = (0.0, 0.0, 0.0)
    injected: bool = False
    last_min_transient: float = 0.0
    last_traffic: float = 0.0


@dataclass
class _DynamicNetworkHandle:
    topo: Topology
    config: EngineConfig
    replicas: List[_DynamicNetReplica]
    churn_plan: Optional[ChurnPlan] = None
    active: Optional[np.ndarray] = None
    active_idx: Optional[np.ndarray] = None
    patched_through: int = 0


@register_engine
class NetworkEngine(Engine):
    """One :class:`SyncNetwork` per replica, driven in lockstep."""

    name = "network"

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
        # The capability table admits ("fixed", round) switches only.
        switch_round = (
            int(config.switch[1]) if config.switch is not None else None
        )
        speeds = (
            np.asarray(config.speeds, dtype=np.float64)
            if config.speeds is not None
            else uniform_speeds(topo.n)
        )
        replicas: List[_Replica] = []
        for b, load in enumerate(loads):
            switch_b = switch_round
            if params is not None and params.switch_rounds is not None:
                round_b = int(params.switch_rounds[b])
                switch_b = round_b if round_b >= 0 else None
            net = self._make_net(
                topo, config, load,
                beta=replica_beta(config, params, b),
                switch_round=switch_b,
                b=b,
            )
            targets = (
                config.targets
                if config.targets is not None
                else target_loads(float(load.sum()), speeds)
            )
            replica = _Replica(
                net=net,
                table=RecordTable(config.rounds // config.record_every + 2),
                targets=targets,
                loads_history=[] if config.keep_loads else None,
                last_min_transient=float(load.min()),
                switch_round=switch_b,
            )
            self._record(
                topo,
                replica,
                load,
                np.zeros(topo.m_edges),
                0,
                "FirstOrderScheme" if config.scheme == "fos" else "SecondOrderScheme",
            )
            replicas.append(replica)
        return _NetworkHandle(topo=topo, config=config, replicas=replicas)

    def _make_net(self, topo, config, load, beta, switch_round, b):
        """Build replica ``b``'s network — the async subclass's hook."""
        return SyncNetwork(
            topo,
            load,
            scheme=config.scheme,
            beta=beta,
            rounding=config.rounding,
            speeds=config.speeds,
            seed=config.seed + b,
            faults=parse_faults_spec(config.faults),
            switch_to_fos_at=switch_round,
        )

    def _prepare_dynamic(
        self, topo, config, loads, params=None
    ) -> _DynamicNetworkHandle:
        models = resolve_arrival_models(config.arrivals, loads.shape[0])
        rngs = resolve_arrival_rngs(config, loads.shape[0])
        replicas: List[_DynamicNetReplica] = []
        for b, load in enumerate(loads):
            model = models[b]
            if params is not None and params.arrival_scales is not None:
                model = ScaledArrivals(model, float(params.arrival_scales[b]))
            net = self._make_net(
                topo, config, load,
                beta=replica_beta(config, params, b),
                switch_round=None,
                b=b,
            )
            replicas.append(
                _DynamicNetReplica(
                    net=net,
                    model=model,
                    rng=rngs[b],
                    table=DynamicRecordTable(max(config.rounds, 1) + 1),
                    last_min_transient=float(load.min()),
                )
            )
        return _DynamicNetworkHandle(topo=topo, config=config, replicas=replicas)

    # -- churn ---------------------------------------------------------
    def _prepare_churn(self, topo, config, loads, plan):
        """Build universe-sized networks and masked record tables.

        Every replica's :class:`SyncNetwork` spans the full node universe
        (``plan.n_univ`` nodes: the base graph plus every node a ``join``
        will ever add) on the round-0 live topology; not-yet-joined and
        crashed nodes are simply isolated, so they exchange no messages.
        Records mask them out exactly like the reference engine.
        """
        dynamic = config.arrivals is not None
        scheme_name = (
            "FirstOrderScheme" if config.scheme == "fos" else "SecondOrderScheme"
        )
        n_b = loads.shape[0]
        models = resolve_arrival_models(config.arrivals, n_b) if dynamic else None
        rngs = resolve_arrival_rngs(config, n_b) if dynamic else None
        replicas = []
        for b in range(n_b):
            load = plan.expand_load(loads[b])
            net = self._make_net(
                plan.topo0, config, load,
                beta=replica_beta(config, None, b),
                switch_round=None,
                b=b,
            )
            if dynamic:
                replicas.append(
                    _DynamicNetReplica(
                        net=net,
                        model=models[b],
                        rng=rngs[b],
                        table=DynamicRecordTable(max(config.rounds, 1) + 1),
                        last_min_transient=float(load[plan.active0_idx].min()),
                    )
                )
                continue
            replica = _Replica(
                net=net,
                table=RecordTable(config.rounds // config.record_every + 2),
                targets=None,
                loads_history=[load.copy()] if config.keep_loads else None,
                last_min_transient=float(load[plan.active0_idx].min()),
                switch_round=None,
            )
            replica.table.append(
                0,
                scheme_name,
                min_transient=replica.last_min_transient,
                round_traffic=0.0,
                **masked_static_values(plan.topo0, load, plan.active0_idx),
            )
            replicas.append(replica)
        cls = _DynamicNetworkHandle if dynamic else _NetworkHandle
        return cls(
            topo=plan.topo0,
            config=config,
            replicas=replicas,
            churn_plan=plan,
            active=plan.active0,
            active_idx=plan.active0_idx,
        )

    def _maybe_churn_net(self, handle) -> None:
        """Apply the churn patch for the round about to execute (once)."""
        plan = handle.churn_plan
        if plan is None:
            return
        r = handle.replicas[0].net.round_index + 1
        if handle.patched_through >= r:
            return
        handle.patched_through = r
        patch = plan.patch_at(r)
        if patch is None:
            return
        handle.topo = patch.topo
        handle.active = patch.active
        handle.active_idx = patch.active_idx
        for replica in handle.replicas:
            replica.net.apply_churn(patch)

    def _record_churn(
        self,
        handle: _NetworkHandle,
        replica: _Replica,
        load: np.ndarray,
        round_index: int,
        scheme_name: str,
    ) -> None:
        replica.table.append(
            round_index,
            scheme_name,
            min_transient=replica.last_min_transient,
            round_traffic=replica.last_traffic,
            **masked_static_values(handle.topo, load, handle.active_idx),
        )
        if replica.loads_history is not None:
            replica.loads_history.append(load.copy())

    # ------------------------------------------------------------------
    def _inject(self, handle: _DynamicNetworkHandle,
                replica: _DynamicNetReplica) -> Tuple[float, float, float]:
        """Sample one replica's deltas and deliver them as messages."""
        if replica.injected:
            raise SimulationError(
                f"arrivals already applied for round {replica.net.round_index}"
            )
        deltas = replica.model.deltas(
            handle.topo, replica.net.round_index, replica.rng
        )
        if handle.churn_plan is not None:
            # Sample with the full (unchurned) stream, then void arrivals
            # at inactive nodes — identical stream discipline to the
            # reference engine, so trajectories stay comparable.
            deltas = np.array(deltas, dtype=np.float64, copy=True)
            deltas[~handle.active] = 0.0
        replica.pending = replica.net.inject_work(deltas)
        replica.injected = True
        return replica.pending

    def _advance_dynamic(self, handle: _DynamicNetworkHandle,
                         replica: _DynamicNetReplica) -> None:
        if not replica.injected:
            self._inject(handle, replica)
        topo = handle.topo
        before = replica.net.loads()
        replica.net.step()
        flows = replica.net.flows()
        transients = transient_loads(topo, before, flows)
        if handle.churn_plan is not None:
            transients = transients[handle.active_idx]
        replica.last_min_transient = float(transients.min())
        replica.last_traffic = float(np.abs(flows).sum())
        loads = replica.net.loads()
        arrived, departed, clamped = replica.pending
        if handle.churn_plan is not None:
            replica.table.append(
                round_index=replica.net.round_index,
                arrived=arrived,
                departed=departed,
                clamped=clamped,
                **masked_dynamic_values(topo, loads, handle.active_idx),
            )
        else:
            replica.table.append(
                round_index=replica.net.round_index,
                total_load=float(loads.sum()),
                arrived=arrived,
                departed=departed,
                clamped=clamped,
                max_minus_avg=max_minus_average(loads),
                max_local_diff=max_local_difference(topo, loads),
                potential_per_node=normalized_potential(loads),
            )
        replica.injected = False

    def arrive(self, handle) -> ArrivalBatch:
        if not isinstance(handle, _DynamicNetworkHandle):
            raise ConfigurationError(
                "arrive() needs a dynamic run (config.arrivals was None)"
            )
        self._maybe_churn_net(handle)
        accounting = np.array(
            [self._inject(handle, replica) for replica in handle.replicas]
        ).reshape(len(handle.replicas), 3)
        return ArrivalBatch(
            round_index=handle.replicas[0].net.round_index,
            arrived=accounting[:, 0],
            departed=accounting[:, 1],
            clamped=accounting[:, 2],
        )

    # ------------------------------------------------------------------
    def _scheme_name(
        self,
        config: EngineConfig,
        switch_round: Optional[int],
        round_index: int,
    ) -> str:
        if config.scheme == "fos":
            return "FirstOrderScheme"
        if switch_round is not None and round_index > switch_round:
            return "FirstOrderScheme"
        return "SecondOrderScheme"

    def _record(
        self,
        topo: Topology,
        replica: _Replica,
        load: np.ndarray,
        flows: np.ndarray,
        round_index: int,
        scheme_name: str = "SecondOrderScheme",
    ) -> None:
        state = LoadState(load=load, flows=flows, round_index=round_index)
        record_round(
            replica.table,
            topo,
            state,
            replica.targets,
            scheme_name,
            replica.last_min_transient,
            replica.last_traffic,
        )
        if replica.loads_history is not None:
            replica.loads_history.append(load.copy())

    def _advance(self, handle: _NetworkHandle, replica: _Replica) -> None:
        topo = handle.topo
        before = replica.net.loads()
        replica.net.step()
        flows = replica.net.flows()
        transients = transient_loads(topo, before, flows)
        if handle.churn_plan is not None:
            transients = transients[handle.active_idx]
        replica.last_min_transient = float(transients.min())
        replica.last_traffic = float(np.abs(flows).sum())
        round_index = replica.net.round_index
        if round_index % handle.config.record_every == 0:
            if handle.churn_plan is not None:
                self._record_churn(
                    handle,
                    replica,
                    replica.net.loads(),
                    round_index,
                    self._scheme_name(handle.config, None, round_index),
                )
            else:
                self._record(
                    topo,
                    replica,
                    replica.net.loads(),
                    flows,
                    round_index,
                    self._scheme_name(
                        handle.config, replica.switch_round, round_index
                    ),
                )

    # ------------------------------------------------------------------
    def step(self, handle) -> StepBatch:
        self._maybe_churn_net(handle)
        if isinstance(handle, _DynamicNetworkHandle):
            for replica in handle.replicas:
                self._advance_dynamic(handle, replica)
            return StepBatch(
                round_index=handle.replicas[0].net.round_index,
                loads=np.stack([r.net.loads() for r in handle.replicas]),
                flows=np.stack([r.net.flows() for r in handle.replicas]),
                min_transient=np.array(
                    [r.last_min_transient for r in handle.replicas]
                ),
                traffic=np.array([r.last_traffic for r in handle.replicas]),
                switched=np.zeros(len(handle.replicas), dtype=bool),
            )
        for replica in handle.replicas:
            self._advance(handle, replica)
        round_index = handle.replicas[0].net.round_index
        return StepBatch(
            round_index=round_index,
            loads=np.stack([r.net.loads() for r in handle.replicas]),
            flows=np.stack([r.net.flows() for r in handle.replicas]),
            min_transient=np.array(
                [r.last_min_transient for r in handle.replicas]
            ),
            traffic=np.array([r.last_traffic for r in handle.replicas]),
            switched=np.array(
                [
                    r.switch_round == round_index
                    and handle.config.scheme == "sos"
                    for r in handle.replicas
                ],
                dtype=bool,
            ),
        )

    def metrics(self, handle) -> RecordBatch:
        if isinstance(handle, _DynamicNetworkHandle):
            return RecordBatch(
                prebuilt_dynamic=[
                    DynamicResult(
                        table=replica.table,
                        final_state=LoadState(
                            load=replica.net.loads(),
                            flows=replica.net.flows(),
                            round_index=replica.net.round_index,
                        ),
                    )
                    for replica in handle.replicas
                ]
            )
        results: List[SimulationResult] = []
        for replica in handle.replicas:
            net = replica.net
            round_index = net.round_index
            if replica.table.column("round_index")[-1] != round_index:
                if handle.churn_plan is not None:
                    self._record_churn(
                        handle,
                        replica,
                        net.loads(),
                        round_index,
                        self._scheme_name(handle.config, None, round_index),
                    )
                else:
                    self._record(
                        handle.topo,
                        replica,
                        net.loads(),
                        net.flows(),
                        round_index,
                        self._scheme_name(
                            handle.config, replica.switch_round, round_index
                        ),
                    )
            switched = (
                replica.switch_round
                if handle.config.scheme == "sos"
                and replica.switch_round is not None
                and replica.switch_round <= round_index
                else None
            )
            results.append(
                SimulationResult(
                    table=replica.table,
                    final_state=LoadState(
                        load=net.loads(),
                        flows=net.flows(),
                        round_index=round_index,
                    ),
                    switched_at=switched,
                    loads_history=replica.loads_history,
                )
            )
        return RecordBatch(prebuilt=results)
