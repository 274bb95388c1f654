"""Async message-passing adapter: :class:`AsyncNetwork` behind the engine
protocol.

A thin subclass of :class:`~repro.engines.network.NetworkEngine`: the
record/metrics path is shared (so a zero-latency async run produces a
byte-identical result structure), and only the per-replica network
construction differs — each replica gets an event-driven
:class:`~repro.network.async_engine.AsyncNetwork` whose per-link latency
and bandwidth come from the topology's stamped attributes or from the
``EngineConfig.latency_model`` spec.  ``step()`` advances the *global*
round count by one: every node has finished that round, faster nodes may
have run ahead.

Random latency specs (``"uniform:LO,HI"``, ``"exp:MEAN"``) draw one
per-edge latency realisation from a generator derived from
``config.seed`` — the same realisation for every replica, so an ensemble
samples the balancing randomness on one network, not one network per
replica.
"""

from __future__ import annotations

import numpy as np

from ..network.async_engine import AsyncNetwork

from .base import EngineConfig, parse_faults_spec, parse_latency_spec, register_engine
from .network import NetworkEngine

__all__ = ["AsyncNetworkEngine", "resolve_link_latency"]

#: Latency RNG stream id, disjoint from the per-node streams
#: ``default_rng([seed, i])`` and the fault stream the same way
#: :data:`repro.network.engine.FAULT_STREAM_KEY` is.
LATENCY_STREAM_KEY = int.from_bytes(b"latency", "big")


def resolve_link_latency(topo, config: EngineConfig):
    """Materialise ``config.latency_model`` as a per-edge latency array.

    ``None`` defers to the topology's stamped ``link_latency`` (returning
    ``None`` so the network falls back to it); a spec overrides it.
    Random specs draw from ``default_rng([config.seed, LATENCY_STREAM_KEY])``
    — replica-independent, so every replica sees the same network.
    """
    spec = parse_latency_spec(config.latency_model)
    if spec is None:
        return None
    if spec[0] == "fixed":
        return np.full(topo.m_edges, spec[1], dtype=np.float64)
    rng = np.random.default_rng([config.seed, LATENCY_STREAM_KEY])
    if spec[0] == "uniform":
        return rng.uniform(spec[1], spec[2], size=topo.m_edges)
    return rng.exponential(spec[1], size=topo.m_edges)  # ("exp", mean)


@register_engine
class AsyncNetworkEngine(NetworkEngine):
    """One event-driven :class:`AsyncNetwork` per replica.

    Zero latency everywhere (no stamped link attributes, no
    ``latency_model``) reproduces the synchronous :class:`NetworkEngine`
    trajectory bit for bit — the cross-engine equivalence suite runs this
    backend as its fifth member.
    """

    name = "async"

    def _make_net(self, topo, config, load, beta, switch_round, b):
        return AsyncNetwork(
            topo,
            load,
            scheme=config.scheme,
            beta=beta,
            rounding=config.rounding,
            speeds=config.speeds,
            seed=config.seed + b,
            faults=parse_faults_spec(config.faults),
            switch_to_fos_at=switch_round,
            link_latency=resolve_link_latency(topo, config),
            max_skew=config.max_skew,
        )
