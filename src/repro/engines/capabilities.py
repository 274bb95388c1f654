"""The engine capability table: which backend honours which knob.

Every :class:`~repro.engines.base.EngineConfig` field (and every
:class:`~repro.engines.base.ReplicaParams` plane) is either *universal* —
every engine honours every value of it, see :data:`UNIVERSAL` — or has a
row in :data:`CAPABILITIES` naming the engines that honour its
non-default setting.  :func:`check_config` reads one engine's column and
refuses, in a single :class:`~repro.exceptions.ConfigurationError`, every
knob the config sets that the engine would otherwise ignore: a backend
that silently degrades makes cross-engine comparisons lie about what ran.
The engine guide's knob matrix and the capability tests are generated
from the same table.

Splitting a batch over worker processes is a transport, not an engine:
``workers`` and ``pool`` are knobs of the two vectorised engines, each of
which runs its own shards (:func:`repro.engines.pool.run_sharded`).
``make_engine("sharded")`` is an alias of ``batched`` and is checked
against the batched column; a knob only the staleness engine honours is
refused there with a pointer to ``engine="staleness"`` and ``workers``.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import Callable, Tuple

from ..exceptions import ConfigurationError

__all__ = [
    "CAPABILITIES",
    "ENGINE_COLUMNS",
    "UNIVERSAL",
    "Capability",
    "check_config",
]

#: The engine columns of the table, in documentation order.
ENGINE_COLUMNS = ("reference", "batched", "network", "async", "staleness")

#: Names :func:`check_config` reads another engine's column for: an
#: :class:`~repro.engines.session.EngineSession` drives one reference
#: replica, and ``sharded`` is the batched engine with ``workers="auto"``.
_ALIASES = {"session": "reference", "sharded": "batched"}


@dataclass(frozen=True)
class Capability:
    """One row of the table: a non-default knob setting and its engines."""

    #: the ``EngineConfig`` field, or ``replica_params.<plane>``
    field: str
    #: the non-default setting this row covers, as the docs show it
    setting: str
    #: whether a config carries that setting
    is_set: Callable
    #: the engines that honour it, in :data:`ENGINE_COLUMNS` order
    engines: Tuple[str, ...]


def _plane_set(name: str) -> Callable:
    def is_set(config) -> bool:
        spec = config.replica_params
        if isinstance(spec, dict):
            return spec.get(name) is not None
        return getattr(spec, name, None) is not None

    return is_set


def _non_fixed_switch(config) -> bool:
    spec = config.switch
    return spec is not None and not (
        isinstance(spec, (tuple, list)) and len(spec) == 2 and spec[0] == "fixed"
    )


_BATCHED = ("batched",)
_VECTORISED = ("batched", "staleness")
_LATENCY = ("async", "staleness")
_MATRIX = ("reference", "batched")

CAPABILITIES: Tuple[Capability, ...] = (
    Capability("precision", "precision='float32'",
               lambda c: c.precision != "float64", _BATCHED),
    Capability("record_fields", "record_fields",
               lambda c: c.record_fields is not None, _BATCHED),
    Capability("record_mode", "record_mode='summary'",
               lambda c: c.record_mode != "table", _BATCHED),
    Capability("fast_path", "fast_path='matmul' or 'spectral'",
               lambda c: c.fast_path in ("matmul", "spectral"), _BATCHED),
    # The cffi provider has a staleness round; the python test oracle
    # has not.
    Capability("kernel", "kernel='cffi'",
               lambda c: c.kernel == "cffi", _VECTORISED),
    Capability("kernel", "kernel='python'",
               lambda c: c.kernel == "python", _BATCHED),
    Capability("tile_size", "tile_size=int or 'auto'",
               lambda c: c.tile_size is not None, _VECTORISED),
    Capability("replica_keys", "replica_keys",
               lambda c: c.replica_keys is not None, _VECTORISED),
    Capability("arrival_sampling", "arrival_sampling='batch'",
               lambda c: c.arrival_sampling != "stream", _BATCHED),
    # Worker processes run the engine's own column shards; one shared
    # arrival batch stream cannot split, so the shard planner refuses
    # arrival_sampling='batch' on top of this row.
    Capability("workers", "workers",
               lambda c: c.workers is not None, _VECTORISED),
    Capability("pool", "pool=True or a pool",
               lambda c: c.pool is not None and c.pool is not False,
               _VECTORISED),
    Capability("latency_model", "latency_model",
               lambda c: c.latency_model is not None, _LATENCY),
    Capability("max_skew", "max_skew",
               lambda c: c.max_skew is not None, _LATENCY),
    Capability("latency_buckets", "latency_buckets!='ceil'",
               lambda c: c.latency_buckets != "ceil", ("staleness",)),
    Capability("faults", "faults",
               lambda c: c.faults is not None,
               ("network", "async", "staleness")),
    # The staleness engine's delayed-view rings assume a fixed topology.
    Capability("churn", "churn",
               lambda c: c.churn is not None,
               ("reference", "batched", "network", "async")),
    # The message-passing nodes and the staleness core switch at one
    # agreed round (a metric-triggered switch needs global knowledge) and
    # derive their own per-arc alphas from the topology.
    Capability("switch", "switch!=('fixed', r)",
               _non_fixed_switch, _MATRIX),
    Capability("replica_params.alpha_scales", "replica_params.alpha_scales",
               _plane_set("alpha_scales"), _MATRIX),
    Capability("alphas", "alphas",
               lambda c: c.alphas is not None, _MATRIX),
)

#: Fields and planes every engine honours at every value (the rows above
#: cover the default-like settings too: ``fast_path='never'``,
#: ``kernel='numpy'``, ``pool=False`` and ``switch=('fixed', r)``).
UNIVERSAL = (
    "scheme",
    "beta",
    "rounding",
    "rounds",
    "record_every",
    "seed",
    "speeds",
    "targets",
    "keep_loads",
    "memory_budget_mb",
    "arrivals",
    "arrival_seeds",
    "replica_params.switch_rounds",
    "replica_params.betas",
    "replica_params.load_scales",
    "replica_params.arrival_scales",
)


def _describe(cap: Capability, config) -> str:
    """The knob as the error names it, with its value when that is short."""
    value = getattr(config, cap.field, None)
    if isinstance(value, (str, tuple, numbers.Number)):
        return f"{cap.field}={value!r}"
    return cap.field


def check_config(config, engine: str) -> None:
    """Refuse every knob ``config`` sets that ``engine`` does not honour.

    ``engine`` is a column of :data:`ENGINE_COLUMNS` or one of its
    aliases, ``"session"`` and ``"sharded"``.  Raises one
    :class:`ConfigurationError` naming every unsupported knob and the
    engines that do support it.
    """
    column = _ALIASES.get(engine, engine)
    refused, for_staleness = [], False
    for cap in CAPABILITIES:
        if cap.is_set(config) and column not in cap.engines:
            noun = "engine" if len(cap.engines) == 1 else "engines"
            refused.append(
                f"{_describe(cap, config)} "
                f"({'/'.join(cap.engines)} {noun} only)"
            )
            for_staleness |= "staleness" in cap.engines
    if not refused:
        return
    message = f"the {engine} engine does not support " + "; ".join(refused)
    if engine == "sharded" and for_staleness:
        message += (
            " (sharded runs batched workers; shard a staleness run with "
            "engine='staleness' and workers)"
        )
    raise ConfigurationError(message)
