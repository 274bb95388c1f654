"""Long-lived simulation sessions over the incremental simulator core.

:class:`EngineSession` surfaces the incremental ``start`` / ``inject`` /
``advance`` / ``finish`` loop of one replica as a public API, with JSON
checkpointing on top: :meth:`EngineSession.checkpoint` captures the
complete mid-run state — load/flow vectors, the rounding and arrival
generator states, the recorded table rows, the switch-policy history and
the arrival accounting — and :meth:`EngineSession.resume` reconstructs a
session that continues the run **bit for bit**, as if it had never been
interrupted.

A session replica is constructed exactly like the reference engine's
replica ``b``: rounding generator ``default_rng(seed + replica)``,
arrival stream ``arrival_stream(seed, key)`` with ``key =
arrival_seeds[replica]`` (default ``replica``).  So ``EngineSession(topo,
config, replica=b)`` advanced to ``config.rounds`` reproduces replica
``b`` of ``run_experiment(..., engine="reference")`` — and therefore of
every engine that is bit-identical to it.

Dynamic sessions additionally accept live injections:
:meth:`EngineSession.inject` queues extra per-node deltas on top of the
configured arrival model for the *current* round.  When nothing is
queued the model's own deltas pass through unchanged, so a session that
never injects stays bit-identical to the fused engines.

Sessions drive one reference-engine replica through Python-level
rounds: a config is checked against the reference column of the
capability table (:mod:`repro.engines.capabilities`), and sessions also
refuse churn and ``replica_params`` planes, which have no per-replica
meaning here.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List, Optional

import numpy as np

from ..core.dynamic import (
    ArrivalModel,
    DynamicRun,
    DynamicSimulator,
    arrival_stream,
    make_arrival_model,
)
from ..core.hybrid import PotentialPlateauSwitch
from ..core.process import LoadBalancingProcess
from ..core.records import DynamicRecordTable, RecordTable
from ..core.simulator import SimulationRun, Simulator
from ..core.state import LoadState
from ..exceptions import ConfigurationError, SimulationError
from ..io.checkpoint import load_checkpoint, save_checkpoint

from .base import EngineConfig, make_switch_policy
from .capabilities import check_config
from .reference import build_scheme

__all__ = ["EngineSession"]


class _StreamedArrivals(ArrivalModel):
    """Arrival model with a side-channel of session-injected deltas.

    Queued deltas are added on top of the base model's output for their
    round.  When nothing is queued for a round the base deltas are
    returned *unchanged* (same array object, no arithmetic), so a session
    that never injects produces bit-identical traces to the base model.
    """

    def __init__(self, base: ArrivalModel):
        self.base = base
        self.queued: Dict[int, np.ndarray] = {}

    def deltas(self, topo, round_index, rng):
        base = self.base.deltas(topo, round_index, rng)
        extra = self.queued.pop(int(round_index), None)
        if extra is None:
            return base
        return np.asarray(base, dtype=np.float64) + extra

    def batch_deltas(self, topo, round_index, rng, n_replicas):
        # Sessions drive single replicas through the stream path; delegate
        # for completeness so the wrapper is a full ArrivalModel.
        out = self.base.batch_deltas(topo, round_index, rng, n_replicas)
        extra = self.queued.pop(int(round_index), None)
        if extra is None:
            return out
        return np.asarray(out, dtype=np.float64) + extra[:, None]


def _config_digest(config: EngineConfig) -> str:
    """Stable fingerprint of a config (dataclass repr is deterministic)."""
    return hashlib.sha1(repr(config).encode()).hexdigest()


def _reject_session_config(config: EngineConfig) -> None:
    config.validate()
    check_config(config, "session")
    offending = []
    if config.churn is not None:
        offending.append(f"churn={config.churn!r}")
    if config.replica_params is not None:
        offending.append("replica_params")
    if offending:
        raise ConfigurationError(
            "engine sessions do not support " + ", ".join(offending)
            + " (single-replica incremental runs only)"
        )


def _session_arrival_model(config: EngineConfig, replica: int) -> ArrivalModel:
    """Replica ``replica``'s arrival model under the engine conventions."""
    spec = config.arrivals
    if isinstance(spec, (list, tuple)):
        if replica >= len(spec):
            raise ConfigurationError(
                f"replica {replica} is out of range for the "
                f"{len(spec)}-entry arrivals sequence"
            )
        return make_arrival_model(spec[replica])
    return make_arrival_model(spec)


def _arrival_key(config: EngineConfig, replica: int) -> int:
    if config.arrival_seeds is not None:
        keys = [int(k) for k in config.arrival_seeds]
        if replica >= len(keys):
            raise ConfigurationError(
                f"replica {replica} is out of range for the "
                f"{len(keys)}-entry arrival_seeds sequence"
            )
        return keys[replica]
    return int(replica)


class EngineSession:
    """One replica's incremental run as a long-lived, checkpointable object.

    Parameters
    ----------
    topo:
        The topology to run on.
    config:
        An :class:`~repro.engines.base.EngineConfig`; ``config.arrivals``
        selects dynamic mode (arrivals interleave with balancing rounds).
    replica:
        Which batch replica this session embodies — it draws the same
        rounding and arrival streams as replica ``replica`` of an engine
        run with the same config, so sessions slot into batch experiments
        bit for bit.

    Typical loop::

        session = EngineSession(topo, config)
        session.start(initial_load)
        while session.round_index < config.rounds:
            session.advance()
            for row in session.records():
                ...             # streams newly recorded rows as dicts
        result = session.finish()

    ``checkpoint(path)`` can be called between any two rounds; the
    :meth:`resume` classmethod rebuilds the session from the file and the
    same ``(topo, config)`` pair, continuing bit for bit.
    """

    def __init__(self, topo, config: EngineConfig, replica: int = 0):
        _reject_session_config(config)
        if replica < 0:
            raise ConfigurationError(f"replica must be >= 0, got {replica}")
        self.topo = topo
        self.config = config
        self.replica = int(replica)
        self.dynamic = config.arrivals is not None
        self._run = None
        self._finished = None
        self._emitted = 0
        self._arrivals: Optional[_StreamedArrivals] = None
        self._arrival_key: Optional[int] = None

        process = LoadBalancingProcess(
            build_scheme(topo, config),
            rounding=config.rounding,
            rng=np.random.default_rng(config.seed + self.replica),
        )
        if self.dynamic:
            self._arrivals = _StreamedArrivals(
                _session_arrival_model(config, self.replica)
            )
            self._arrival_key = _arrival_key(config, self.replica)
            self._sim = DynamicSimulator(
                process,
                self._arrivals,
                rng=arrival_stream(config.seed, self._arrival_key),
            )
        else:
            self._sim = Simulator(
                process,
                switch_policy=make_switch_policy(config.switch),
                record_every=config.record_every,
                keep_loads=config.keep_loads,
                targets=config.targets,
            )

    # ------------------------------------------------------------------
    @property
    def started(self) -> bool:
        return self._run is not None

    @property
    def round_index(self) -> int:
        self._require_started()
        return int(self._run.state.round_index)

    @property
    def state(self) -> LoadState:
        self._require_started()
        return self._run.state

    def _require_started(self) -> None:
        if self._run is None:
            raise SimulationError("session not started; call start() first")

    def _require_live(self) -> None:
        self._require_started()
        if self._finished is not None:
            raise SimulationError("session already finished")

    # ------------------------------------------------------------------
    def start(self, initial_load) -> "EngineSession":
        """Initialise the run from ``initial_load``; returns ``self``.

        Static sessions record round 0 immediately (so the first
        :meth:`records` call streams it); dynamic sessions record one row
        per executed round, exactly like the dynamic core.
        """
        if self._run is not None:
            raise SimulationError("session already started")
        load = np.asarray(initial_load, dtype=np.float64)
        if load.shape != (self.topo.n,):
            raise ConfigurationError(
                f"initial load has shape {load.shape}, expected ({self.topo.n},)"
            )
        self._run = self._sim.start(load, rounds_hint=self.config.rounds)
        return self

    def inject(self, deltas) -> None:
        """Queue extra per-node deltas for the *current* round (dynamic only).

        The deltas are added on top of the configured arrival model's
        output when the upcoming round's arrivals are applied.  Raises
        once the round's arrivals have already been applied (the injection
        could no longer take effect this round).
        """
        self._require_live()
        if not self.dynamic:
            raise ConfigurationError(
                "inject() needs a dynamic session (config.arrivals was None)"
            )
        if self._run.injected:
            raise SimulationError(
                f"arrivals already applied for round {self._run.state.round_index}"
            )
        extra = np.asarray(deltas, dtype=np.float64)
        if extra.shape != (self.topo.n,):
            raise ConfigurationError(
                f"injected deltas have shape {extra.shape}, "
                f"expected ({self.topo.n},)"
            )
        if extra.size and not np.isfinite(extra).all():
            raise ConfigurationError("injected deltas must be finite")
        r = int(self._run.state.round_index)
        queued = self._arrivals.queued
        if r in queued:
            queued[r] = queued[r] + extra
        else:
            queued[r] = extra.copy()

    def advance(self, rounds: int = 1) -> int:
        """Execute ``rounds`` balancing rounds; returns the new round index."""
        self._require_live()
        if rounds < 0:
            raise ConfigurationError(f"rounds must be >= 0, got {rounds}")
        for _ in range(rounds):
            self._sim.advance(self._run)
        return int(self._run.state.round_index)

    def records(self) -> List[dict]:
        """Rows recorded since the previous :meth:`records` call, as dicts."""
        self._require_started()
        table = self._run.table
        rows = [table.row(i) for i in range(self._emitted, len(table))]
        self._emitted = len(table)
        return rows

    def finish(self):
        """Seal the run; returns the
        :class:`~repro.core.simulator.SimulationResult` (static) or
        :class:`~repro.core.dynamic.DynamicResult` (dynamic)."""
        self._require_started()
        if self._finished is None:
            self._finished = self._sim.finish(self._run)
        return self._finished

    # ------------------------------------------------------------------
    # Checkpointing
    # ------------------------------------------------------------------
    def checkpoint(self, path: str) -> str:
        """Write the complete session state to ``path``; returns the path.

        The checkpoint pairs with the exact ``(topo, config)`` the session
        was built from — :meth:`resume` verifies the config fingerprint
        and refuses mismatches rather than silently diverging.
        """
        self._require_live()
        run = self._run
        state = {
            "mode": "dynamic" if self.dynamic else "static",
            "replica": self.replica,
            "config_digest": _config_digest(self.config),
            "n": int(self.topo.n),
            "load": run.state.load,
            "flows": run.state.flows,
            "round_index": int(run.state.round_index),
            "process_rng": self._sim.process.rng.bit_generator.state,
            "last_min_transient": float(run.last_min_transient),
            "last_traffic": float(run.last_traffic),
            "rows": [run.table.row(i) for i in range(len(run.table))],
            "emitted": self._emitted,
        }
        if self.dynamic:
            state["arrival_rng"] = self._sim.rng.bit_generator.state
            state["pending"] = [
                float(run.pending_arrived),
                float(run.pending_departed),
                float(run.pending_clamped),
            ]
            state["injected"] = bool(run.injected)
            state["queued"] = {
                str(r): extra for r, extra in self._arrivals.queued.items()
            }
        else:
            state["targets"] = run.targets
            state["switched_at"] = run.switched_at
            state["stopped_at"] = run.stopped_at
            if run.loads_history is not None:
                state["loads_history"] = run.loads_history
            policy = self._sim.switch_policy
            if isinstance(policy, PotentialPlateauSwitch):
                state["plateau_history"] = list(policy._history)
        return save_checkpoint(path, state)

    @classmethod
    def resume(cls, topo, config: EngineConfig, path: str) -> "EngineSession":
        """Rebuild a session from a checkpoint written by :meth:`checkpoint`.

        ``topo`` and ``config`` must be the pair the checkpointed session
        ran with; the resumed session then continues bit for bit.
        """
        state = load_checkpoint(path)
        mode = state.get("mode")
        expected = "dynamic" if config.arrivals is not None else "static"
        if mode != expected:
            raise ConfigurationError(
                f"checkpoint {path} holds a {mode} session but the config "
                f"describes a {expected} run"
            )
        if state.get("config_digest") != _config_digest(config):
            raise ConfigurationError(
                f"checkpoint {path} was written under a different config; "
                "resume with the exact config the session was built from"
            )
        if int(state.get("n", -1)) != topo.n:
            raise ConfigurationError(
                f"checkpoint {path} is for n={state.get('n')} nodes, "
                f"topology has n={topo.n}"
            )
        session = cls(topo, config, replica=int(state["replica"]))
        load_state = LoadState(
            load=np.asarray(state["load"], dtype=np.float64),
            flows=np.asarray(state["flows"], dtype=np.float64),
            round_index=int(state["round_index"]),
        )
        session._sim.process.rng.bit_generator.state = state["process_rng"]
        rows = state["rows"]
        if session.dynamic:
            session._sim.rng.bit_generator.state = state["arrival_rng"]
            table = DynamicRecordTable(max(config.rounds, 1) + 1)
            for row in rows:
                table.append(**row)
            run = DynamicRun(state=load_state, table=table)
            run.pending_arrived, run.pending_departed, run.pending_clamped = (
                float(v) for v in state["pending"]
            )
            run.injected = bool(state["injected"])
            session._arrivals.queued = {
                int(r): np.asarray(extra, dtype=np.float64)
                for r, extra in state.get("queued", {}).items()
            }
        else:
            capacity = max(config.rounds // config.record_every + 2, 2)
            table = RecordTable(capacity)
            for row in rows:
                table.append(**row)
            loads_history = state.get("loads_history")
            run = SimulationRun(
                state=load_state,
                targets=np.asarray(state["targets"], dtype=np.float64),
                table=table,
                loads_history=(
                    [np.asarray(v, dtype=np.float64) for v in loads_history]
                    if loads_history is not None
                    else ([] if config.keep_loads else None)
                ),
                switched_at=state["switched_at"],
                stopped_at=state["stopped_at"],
            )
            if run.switched_at is not None:
                # The checkpointed run had already swapped SOS for FOS.
                session._sim._swap_to_fos()
            policy = session._sim.switch_policy
            if isinstance(policy, PotentialPlateauSwitch):
                policy._history.extend(
                    float(v) for v in state.get("plateau_history", [])
                )
        run.last_min_transient = float(state["last_min_transient"])
        run.last_traffic = float(state["last_traffic"])
        session._run = run
        session._emitted = int(state["emitted"])
        return session
