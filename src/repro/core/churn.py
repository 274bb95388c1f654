"""Topology churn: timed node/edge mutations applied while balancing runs.

The paper (and every engine before this module) froze the graph at
``prepare()``.  Production fleets do not hold still: nodes crash and
recover, links fail, capacity joins mid-run.  This module is the
declarative mutation layer every backend shares:

* :class:`ChurnEvent` — one timed mutation (``node_crash`` with optional
  recovery, ``node_leave``, ``node_join``, ``edge_add``, ``edge_remove``);
* :class:`ChurnSchedule` — an ordered event list plus the failure policy
  (``"handoff"``: a crashing node floors its tokens onto surviving
  neighbours; ``"freeze"``: tokens stay frozen on the dead node until it
  recovers);
* :func:`plan_churn` — compiles a schedule against a base topology into a
  :class:`ChurnPlan`: a fixed node-id *universe* (base nodes plus every
  join, so arrays never reshape mid-run) and one precomputed
  :class:`ChurnPatch` per mutation round, each validated against
  connectivity of the live subgraph.

Load-preserving semantics mirror the bounce invariant in
:mod:`repro.network.faults`: whatever the schedule does,
``sum(loads) == m`` holds over the full universe (frozen tokens included),
so the conservation checks in every engine keep passing under arbitrary
churn.  The handoff arithmetic is pure float64 (``floor(L / k)`` to each of
the first ``k - 1`` receivers, remainder to the last), so the vectorised
engines and the per-node message-passing engines stay bit-identical.

Events at round ``r`` apply at the *start* of round ``r`` (before that
round's arrivals and balancing step); round 0 is the pristine base graph.
Implicit recoveries scheduled by ``node_crash(recover_at=...)`` apply
before the explicit events of their round.

RNG stream: :func:`random_churn_schedule` draws from
``default_rng([seed, CHURN_STREAM_KEY])`` — disjoint from the per-node,
fault, latency, rounding, and arrival streams by the same key-channel
convention.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..exceptions import ConfigurationError
from ..graphs.topology import Topology
from .metrics import max_local_difference

__all__ = [
    "CHURN_STREAM_KEY",
    "CHURN_EVENT_KINDS",
    "CHURN_POLICIES",
    "ChurnEvent",
    "ChurnSchedule",
    "ChurnPatch",
    "ChurnPlan",
    "RandomChurn",
    "node_crash",
    "node_leave",
    "node_join",
    "edge_add",
    "edge_remove",
    "plan_churn",
    "resolve_churn",
    "parse_churn_spec",
    "random_churn_schedule",
    "apply_handoffs",
    "remap_flows",
    "masked_static_values",
    "masked_dynamic_values",
]

#: Churn RNG stream id, disjoint from the per-node streams
#: ``default_rng([seed, i])``, the fault stream, and the latency stream
#: the same way :data:`repro.network.engine.FAULT_STREAM_KEY` is.
CHURN_STREAM_KEY = int.from_bytes(b"churn", "big")

CHURN_EVENT_KINDS = (
    "node_crash",
    "node_leave",
    "node_join",
    "edge_add",
    "edge_remove",
)

CHURN_POLICIES = ("handoff", "freeze")


def _edge_key(u: int, v: int) -> Tuple[int, int]:
    return (u, v) if u < v else (v, u)


@dataclass(frozen=True)
class ChurnEvent:
    """One timed topology mutation.

    ``round_index`` is the round whose *start* the event applies at and
    must be >= 1 (round 0 is the pristine base graph).  Exactly one of
    ``node`` / ``edge`` is set depending on ``kind``; ``recover_at`` only
    applies to ``node_crash`` and ``attach`` only to ``node_join``.
    """

    kind: str
    round_index: int
    node: Optional[int] = None
    edge: Optional[Tuple[int, int]] = None
    recover_at: Optional[int] = None
    attach: Tuple[int, ...] = ()

    def __post_init__(self):
        if self.kind not in CHURN_EVENT_KINDS:
            raise ConfigurationError(
                f"unknown churn event kind {self.kind!r}; "
                f"known: {CHURN_EVENT_KINDS}"
            )
        if self.round_index < 1:
            raise ConfigurationError(
                f"churn events apply from round 1 on, got round "
                f"{self.round_index} for {self.kind}"
            )
        if self.kind.startswith("node"):
            if self.node is None:
                raise ConfigurationError(f"{self.kind} event needs a node id")
        else:
            if self.edge is None:
                raise ConfigurationError(f"{self.kind} event needs an edge")
            u, v = self.edge
            if u == v:
                raise ConfigurationError(
                    f"churn edge ({u}, {v}) is a self loop"
                )
        if self.recover_at is not None:
            if self.kind != "node_crash":
                raise ConfigurationError(
                    f"recover_at only applies to node_crash, not {self.kind}"
                )
            if self.recover_at <= self.round_index:
                raise ConfigurationError(
                    f"recover_at must come after the crash round: "
                    f"{self.recover_at} <= {self.round_index}"
                )
        if self.kind == "node_join" and not self.attach:
            raise ConfigurationError(
                "node_join needs at least one attach edge"
            )


def node_crash(
    node: int, round_index: int, recover_at: Optional[int] = None
) -> ChurnEvent:
    """Node failure; under ``handoff`` its tokens move to live neighbours,
    under ``freeze`` they stay on the dead node until ``recover_at``."""
    return ChurnEvent(
        "node_crash", int(round_index), node=int(node),
        recover_at=None if recover_at is None else int(recover_at),
    )


def node_leave(node: int, round_index: int) -> ChurnEvent:
    """Graceful permanent departure: tokens always hand off, and every
    incident edge is removed for good (recovery never restores them)."""
    return ChurnEvent("node_leave", int(round_index), node=int(node))


def node_join(
    node: int, round_index: int, attach: Sequence[int]
) -> ChurnEvent:
    """A new node joins with zero load, wired to the ``attach`` nodes.

    Join ids must be contiguous from the base node count (the first join
    in schedule order is node ``n``, the next ``n + 1``, ...), so the
    universe id space is known before the run starts.
    """
    return ChurnEvent(
        "node_join", int(round_index), node=int(node),
        attach=tuple(int(a) for a in attach),
    )


def edge_add(u: int, v: int, round_index: int) -> ChurnEvent:
    """A new link comes up between two existing nodes."""
    return ChurnEvent("edge_add", int(round_index), edge=(int(u), int(v)))


def edge_remove(u: int, v: int, round_index: int) -> ChurnEvent:
    """A link fails permanently (until an explicit ``edge_add``)."""
    return ChurnEvent("edge_remove", int(round_index), edge=(int(u), int(v)))


@dataclass(frozen=True)
class ChurnSchedule:
    """An ordered list of churn events plus the crash-load policy."""

    events: Tuple[ChurnEvent, ...]
    policy: str = "handoff"

    def __init__(self, events: Sequence[ChurnEvent], policy: str = "handoff"):
        if policy not in CHURN_POLICIES:
            raise ConfigurationError(
                f"unknown churn policy {policy!r}; known: {CHURN_POLICIES}"
            )
        events = tuple(events)
        for ev in events:
            if not isinstance(ev, ChurnEvent):
                raise ConfigurationError(
                    f"ChurnSchedule events must be ChurnEvent, got {ev!r}"
                )
        object.__setattr__(self, "events", events)
        object.__setattr__(self, "policy", policy)

    @property
    def max_round(self) -> int:
        """Last round any event (or implicit recovery) touches."""
        last = 0
        for ev in self.events:
            last = max(last, ev.round_index, ev.recover_at or 0)
        return last


@dataclass(frozen=True)
class RandomChurn:
    """Deferred ``random:RATE`` spec — resolved against ``(topo, rounds,
    seed)`` at ``prepare()`` time by :func:`resolve_churn`."""

    rate: float
    policy: str = "handoff"

    def __post_init__(self):
        if not (self.rate >= 0.0 and np.isfinite(self.rate)):
            raise ConfigurationError(
                f"random churn rate must be finite and >= 0, got {self.rate}"
            )
        if self.policy not in CHURN_POLICIES:
            raise ConfigurationError(
                f"unknown churn policy {self.policy!r}; "
                f"known: {CHURN_POLICIES}"
            )


@dataclass(frozen=True)
class ChurnPatch:
    """Everything an engine needs at one mutation round.

    ``handoffs`` are ``(source, receivers)`` pairs in event order;
    ``topo`` is the live graph over the fixed universe (dead and unborn
    nodes are simply isolated); ``edge_map[k]`` is the edge id the new
    edge ``k`` had in the *previous* segment's topology, or ``-1`` for an
    edge with no predecessor (its SOS flow memory starts at zero).
    """

    round_index: int
    handoffs: Tuple[Tuple[int, Tuple[int, ...]], ...]
    topo: Topology
    active: np.ndarray
    active_idx: np.ndarray
    n_active: int
    edge_map: np.ndarray


@dataclass(frozen=True)
class ChurnPlan:
    """A compiled, validated churn schedule over a fixed node universe."""

    n_base: int
    n_univ: int
    policy: str
    topo0: Topology
    active0: np.ndarray
    active0_idx: np.ndarray
    patches: Dict[int, ChurnPatch]
    max_round: int

    def patch_at(self, round_index: int) -> Optional[ChurnPatch]:
        return self.patches.get(round_index)

    def expand_load(self, load: np.ndarray) -> np.ndarray:
        """Zero-pad a base-sized load vector/plane to the universe size."""
        load = np.asarray(load, dtype=np.float64)
        if load.shape[0] != self.n_base:
            raise ConfigurationError(
                f"initial load has {load.shape[0]} rows, the churn plan's "
                f"base topology has {self.n_base} nodes"
            )
        out = np.zeros((self.n_univ,) + load.shape[1:], dtype=np.float64)
        out[: self.n_base] = load
        return out


def _active_subgraph_connected(
    adj: Dict[int, set], active: np.ndarray
) -> bool:
    """Connectivity of the live subgraph induced on the active nodes."""
    idx = np.nonzero(active)[0]
    if idx.size == 0:
        return False
    start = int(idx[0])
    seen = {start}
    stack = [start]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if active[u] and u not in seen:
                seen.add(u)
                stack.append(u)
    return len(seen) == idx.size


def plan_churn(topo: Topology, schedule: ChurnSchedule) -> ChurnPlan:
    """Compile and validate a schedule against a base topology.

    Raises :class:`~repro.exceptions.ConfigurationError` on any invalid
    transition: out-of-range ids, non-contiguous join ids, crashing an
    already-dead node, duplicating a present edge, removing an absent
    one, a handoff with no live receiver, or any round whose live
    subgraph ends up disconnected (including recovery rounds).
    """
    n_base = topo.n
    events = sorted(
        schedule.events, key=lambda ev: ev.round_index
    )  # stable: same-round events keep schedule order
    join_ids = [ev.node for ev in events if ev.kind == "node_join"]
    for i, node in enumerate(join_ids):
        if node != n_base + i:
            raise ConfigurationError(
                f"join ids must be contiguous from the base node count: "
                f"join #{i} must be node {n_base + i}, got {node}"
            )
    n_univ = n_base + len(join_ids)

    present = {
        (int(u), int(v)) for u, v in zip(topo.edge_u, topo.edge_v)
    }
    adj: Dict[int, set] = {i: set() for i in range(n_univ)}
    for u, v in present:
        adj[u].add(v)
        adj[v].add(u)
    active = np.zeros(n_univ, dtype=bool)
    active[:n_base] = True
    born = active.copy()

    by_round: Dict[int, List[ChurnEvent]] = {}
    recoveries: Dict[int, List[int]] = {}
    for ev in events:
        by_round.setdefault(ev.round_index, []).append(ev)
        if ev.recover_at is not None:
            recoveries.setdefault(ev.recover_at, [])
    rounds = sorted(
        set(by_round)
        | {ev.recover_at for ev in events if ev.recover_at is not None}
    )

    def _check_node(v: int, what: str) -> None:
        if not 0 <= v < n_univ:
            raise ConfigurationError(
                f"{what}: node {v} out of range for universe of {n_univ}"
            )

    if n_univ == n_base:
        topo0 = topo
    else:
        topo0 = Topology(
            n_univ, np.column_stack([topo.edge_u, topo.edge_v]),
            name=f"{topo.name}|churn",
        )
    prev_topo = topo0
    patches: Dict[int, ChurnPatch] = {}

    for r in rounds:
        handoffs: List[Tuple[int, Tuple[int, ...]]] = []
        for v in sorted(recoveries.get(r, ())):
            # Implicit recoveries first; a frozen node returns with its
            # frozen load, a handed-off one with zero.
            active[v] = True
        for ev in by_round.get(r, ()):
            if ev.kind in ("node_crash", "node_leave"):
                v = ev.node
                _check_node(v, ev.kind)
                if not active[v]:
                    raise ConfigurationError(
                        f"{ev.kind} at round {r}: node {v} is not active"
                    )
                active[v] = False
                wants_handoff = (
                    ev.kind == "node_leave" or schedule.policy == "handoff"
                )
                if wants_handoff:
                    receivers = tuple(
                        sorted(u for u in adj[v] if active[u])
                    )
                    if not receivers:
                        raise ConfigurationError(
                            f"{ev.kind} at round {r}: node {v} has no live "
                            f"neighbour to hand its load to"
                        )
                    handoffs.append((v, receivers))
                elif ev.recover_at is None:
                    raise ConfigurationError(
                        f"node_crash at round {r} under the freeze policy "
                        f"needs recover_at (otherwise node {v}'s tokens "
                        f"are stranded forever)"
                    )
                if ev.kind == "node_crash" and ev.recover_at is not None:
                    recoveries.setdefault(ev.recover_at, []).append(v)
                if ev.kind == "node_leave":
                    for u in list(adj[v]):
                        present.discard(_edge_key(u, v))
                        adj[u].discard(v)
                    adj[v].clear()
            elif ev.kind == "node_join":
                v = ev.node
                _check_node(v, "node_join")
                if born[v]:
                    raise ConfigurationError(
                        f"node_join at round {r}: node {v} already exists"
                    )
                born[v] = True
                active[v] = True
                any_live = False
                for u in ev.attach:
                    _check_node(u, "node_join attach")
                    if u == v:
                        raise ConfigurationError(
                            f"node_join at round {r}: self attach at {v}"
                        )
                    if not born[u]:
                        raise ConfigurationError(
                            f"node_join at round {r}: attach target {u} "
                            f"does not exist yet"
                        )
                    key = _edge_key(u, v)
                    if key in present:
                        raise ConfigurationError(
                            f"node_join at round {r}: duplicate attach "
                            f"edge {key}"
                        )
                    present.add(key)
                    adj[u].add(v)
                    adj[v].add(u)
                    any_live = any_live or bool(active[u])
                if not any_live:
                    raise ConfigurationError(
                        f"node_join at round {r}: node {v} has no live "
                        f"attach target"
                    )
            else:  # edge_add / edge_remove
                u, v = ev.edge
                _check_node(u, ev.kind)
                _check_node(v, ev.kind)
                if not (born[u] and born[v]):
                    raise ConfigurationError(
                        f"{ev.kind} at round {r}: endpoint of ({u}, {v}) "
                        f"does not exist yet"
                    )
                key = _edge_key(u, v)
                if ev.kind == "edge_add":
                    if key in present:
                        raise ConfigurationError(
                            f"edge_add at round {r}: edge {key} is already "
                            f"present"
                        )
                    present.add(key)
                    adj[u].add(v)
                    adj[v].add(u)
                else:
                    if key not in present:
                        raise ConfigurationError(
                            f"edge_remove at round {r}: edge {key} is not "
                            f"present"
                        )
                    present.discard(key)
                    adj[u].discard(v)
                    adj[v].discard(u)

        if not _active_subgraph_connected(adj, active):
            raise ConfigurationError(
                f"churn schedule disconnects the live graph at round {r}"
            )

        live_edges = sorted(
            key for key in present if active[key[0]] and active[key[1]]
        )
        live_topo = Topology(
            n_univ, live_edges, name=f"{topo.name}|churn@{r}"
        )
        prev_index = {
            (int(u), int(v)): k
            for k, (u, v) in enumerate(
                zip(prev_topo.edge_u, prev_topo.edge_v)
            )
        }
        edge_map = np.array(
            [
                prev_index.get((int(u), int(v)), -1)
                for u, v in zip(live_topo.edge_u, live_topo.edge_v)
            ],
            dtype=np.int64,
        ).reshape(live_topo.m_edges)
        active_arr = active.copy()
        active_arr.setflags(write=False)
        active_idx = np.nonzero(active_arr)[0]
        patches[r] = ChurnPatch(
            round_index=r,
            handoffs=tuple(handoffs),
            topo=live_topo,
            active=active_arr,
            active_idx=active_idx,
            n_active=int(active_idx.size),
            edge_map=edge_map,
        )
        prev_topo = live_topo

    active0 = np.zeros(n_univ, dtype=bool)
    active0[:n_base] = True
    active0.setflags(write=False)
    return ChurnPlan(
        n_base=n_base,
        n_univ=n_univ,
        policy=schedule.policy,
        topo0=topo0,
        active0=active0,
        active0_idx=np.nonzero(active0)[0],
        patches=patches,
        max_round=rounds[-1] if rounds else 0,
    )


def resolve_churn(topo: Topology, config) -> Optional[ChurnPlan]:
    """Materialise ``config.churn`` into a :class:`ChurnPlan` (or None).

    Accepts ``None``, a spec string, a :class:`RandomChurn`, a
    :class:`ChurnSchedule`, or an already-compiled :class:`ChurnPlan`
    (returned as-is); random specs draw their schedule from
    ``default_rng([config.seed, CHURN_STREAM_KEY])`` so every backend
    resolves the identical plan.
    """
    churn = getattr(config, "churn", None)
    if churn is None:
        return None
    if isinstance(churn, ChurnPlan):
        # Already compiled (the shard planner broadcasts the parent's
        # plan so every worker patches the identical universe).
        return churn
    if isinstance(churn, str):
        churn = parse_churn_spec(churn)
    if isinstance(churn, RandomChurn):
        churn = random_churn_schedule(
            topo, churn.rate, config.rounds, config.seed, policy=churn.policy
        )
    if not isinstance(churn, ChurnSchedule):
        raise ConfigurationError(
            f"cannot interpret churn {churn!r}; pass a ChurnSchedule, a "
            f"spec string, or None"
        )
    return plan_churn(topo, churn)


# ----------------------------------------------------------------------
# Load surgery shared by every backend
# ----------------------------------------------------------------------
def apply_handoffs(load: np.ndarray, handoffs) -> np.ndarray:
    """Apply crash/leave handoffs in place on a ``(n,)`` or ``(n, B)`` plane.

    ``floor(L / k)`` tokens to each of the first ``k - 1`` receivers, the
    remainder to the last — pure float64, so the message-passing engines
    (python floats, ``math.floor``) produce bit-identical loads.
    """
    for src, receivers in handoffs:
        amount = np.array(load[src], copy=True)
        k = len(receivers)
        share = np.floor(amount / k)
        for j in receivers[:-1]:
            load[j] += share
        load[receivers[-1]] += amount - share * (k - 1)
        load[src] = 0.0
    return load


def remap_flows(flows: np.ndarray, edge_map: np.ndarray) -> np.ndarray:
    """Carry per-edge flow memory across a topology patch.

    Edges that survived keep their flow; new edges start at zero, so the
    SOS momentum term sees exactly what a freshly-hello'd network link
    would.
    """
    out = np.zeros(
        (edge_map.shape[0],) + flows.shape[1:], dtype=flows.dtype
    )
    keep = edge_map >= 0
    out[keep] = flows[edge_map[keep]]
    return out


# ----------------------------------------------------------------------
# Masked metric helpers (shared by the reference and network engines,
# mirrored plane-wise by the batched engine)
# ----------------------------------------------------------------------
def masked_static_values(
    topo: Topology, load: np.ndarray, active_idx: np.ndarray
) -> Dict[str, float]:
    """Static record metrics over the active nodes only.

    Imbalance is measured against the *active* average (dead nodes are
    not balancing targets), while ``total_load`` stays the full-universe
    sum so conservation is visible even under the freeze policy.
    """
    la = load[active_idx]
    n_active = la.shape[0]
    avg = la.sum() / n_active
    dev = la - avg
    return {
        "max_minus_avg": float(dev.max()),
        "min_minus_avg": float(dev.min()),
        "max_local_diff": max_local_difference(topo, load),
        "potential_per_node": float((dev * dev).sum() / n_active),
        "min_load": float(la.min()),
        "total_load": float(load.sum()),
    }


def masked_dynamic_values(
    topo: Topology, load: np.ndarray, active_idx: np.ndarray
) -> Dict[str, float]:
    """Dynamic record metrics over the active nodes only."""
    la = load[active_idx]
    n_active = la.shape[0]
    mean = la.sum() / n_active
    dev = la - mean
    return {
        "total_load": float(load.sum()),
        "max_minus_avg": float(la.max() - mean),
        "max_local_diff": max_local_difference(topo, load),
        "potential_per_node": float((dev * dev).sum() / n_active),
    }


# ----------------------------------------------------------------------
# Spec parsing and random schedules
# ----------------------------------------------------------------------
def parse_churn_spec(
    spec: Union[str, ChurnSchedule, RandomChurn, None]
) -> Union[ChurnSchedule, RandomChurn, None]:
    """Parse a CLI-style churn spec into a schedule.

    Semicolon-separated terms (``ChurnSchedule`` / ``RandomChurn`` /
    ``None`` pass through):

    * ``crash:V@R`` or ``crash:V@R-R2`` — node ``V`` crashes at round
      ``R`` (recovering at ``R2``),
    * ``leave:V@R`` — node ``V`` leaves for good,
    * ``join:V@R:U1+U2+...`` — node ``V`` joins wired to ``U1, U2, ...``,
    * ``edge-:U-V@R`` / ``edge+:U-V@R`` — link removal / addition,
    * ``policy:handoff`` or ``policy:freeze`` — crash-load policy,
    * ``random:RATE`` — a random schedule at ``RATE`` expected events per
      round (resolved against the topology and round count at prepare
      time; combines only with a ``policy:`` term).
    """
    if spec is None or isinstance(spec, (ChurnSchedule, RandomChurn, ChurnPlan)):
        # A precompiled ChurnPlan passes through too: the shard planner
        # resolves the plan once in the parent and broadcasts it to its
        # workers, whose configs re-validate on arrival.
        return spec
    if not isinstance(spec, str):
        raise ConfigurationError(
            f"cannot interpret churn spec {spec!r}; pass a ChurnSchedule "
            "or a spec string (crash:... | leave:... | join:... | "
            "edge-:... | edge+:... | policy:... | random:RATE)"
        )
    events: List[ChurnEvent] = []
    policy = "handoff"
    random_rate: Optional[float] = None
    terms = [t.strip() for t in spec.split(";") if t.strip()]
    if not terms:
        raise ConfigurationError(f"empty churn spec {spec!r}")

    def _at(rest: str, what: str) -> Tuple[str, int]:
        head, sep, r = rest.rpartition("@")
        if not sep:
            raise ConfigurationError(
                f"bad churn term {what!r}: missing @ROUND"
            )
        return head, int(r)

    try:
        for term in terms:
            key, _, rest = term.partition(":")
            key = key.strip().lower()
            if key == "policy":
                if rest not in CHURN_POLICIES:
                    raise ConfigurationError(
                        f"unknown churn policy {rest!r}; "
                        f"known: {CHURN_POLICIES}"
                    )
                policy = rest
            elif key == "random":
                random_rate = float(rest)
            elif key == "crash":
                # crash:V@R or crash:V@R-R2 (recovery round after the -)
                head, sep_at, rpart = rest.rpartition("@")
                if not sep_at:
                    raise ConfigurationError(
                        f"bad churn term {term!r}: crash:V@R[-R2]"
                    )
                r1, sep2, r2 = rpart.partition("-")
                events.append(
                    node_crash(
                        int(head), int(r1),
                        recover_at=int(r2) if sep2 else None,
                    )
                )
            elif key == "leave":
                head, r = _at(rest, term)
                events.append(node_leave(int(head), r))
            elif key == "join":
                vpart, sep, attach_part = rest.partition(":")
                if not sep:
                    raise ConfigurationError(
                        f"bad churn term {term!r}: join:V@R:U1+U2+..."
                    )
                head, r = _at(vpart, term)
                attach = [
                    int(a) for a in attach_part.split("+") if a.strip()
                ]
                events.append(node_join(int(head), r, attach))
            elif key in ("edge-", "edge+"):
                head, r = _at(rest, term)
                upart, sep, vpart = head.partition("-")
                if not sep:
                    raise ConfigurationError(
                        f"bad churn term {term!r}: {key}:U-V@R"
                    )
                maker = edge_remove if key == "edge-" else edge_add
                events.append(maker(int(upart), int(vpart), r))
            else:
                raise ConfigurationError(
                    f"unknown churn term {term!r}; known: crash, leave, "
                    f"join, edge-, edge+, policy, random"
                )
    except ValueError as exc:  # int()/float() parse failures
        raise ConfigurationError(
            f"bad churn spec {spec!r}: {exc}"
        ) from None
    if random_rate is not None:
        if events:
            raise ConfigurationError(
                "random:RATE cannot be combined with explicit churn events"
            )
        return RandomChurn(rate=random_rate, policy=policy)
    return ChurnSchedule(events, policy=policy)


def random_churn_schedule(
    topo: Topology,
    rate: float,
    rounds: int,
    seed: int,
    policy: str = "handoff",
) -> ChurnSchedule:
    """A random, always-valid churn schedule at ``rate`` expected events
    per round.

    Draws crash-with-recovery and edge remove / re-add events from
    ``default_rng([seed, CHURN_STREAM_KEY])``; each candidate is accepted
    only if the accumulated schedule still compiles (connectivity and
    handoff receivers included), so the result is valid by construction.
    Joins are never generated — their contiguous-id bookkeeping belongs
    to explicit schedules.
    """
    if rate < 0.0:
        raise ConfigurationError(f"churn rate must be >= 0, got {rate}")
    rng = np.random.default_rng([int(seed), CHURN_STREAM_KEY])
    events: List[ChurnEvent] = []
    removed_pool: List[Tuple[int, int]] = []
    base_edges = list(zip(topo.edge_u.tolist(), topo.edge_v.tolist()))

    def _accepts(candidate: ChurnEvent) -> bool:
        try:
            plan_churn(topo, ChurnSchedule(events + [candidate], policy))
        except ConfigurationError:
            return False
        return True

    for r in range(1, int(rounds) + 1):
        for _ in range(int(rng.poisson(rate))):
            pick = rng.random()
            if pick < 0.5:
                v = int(rng.integers(0, topo.n))
                recover = r + 1 + int(rng.integers(0, 5))
                cand = node_crash(v, r, recover_at=recover)
            elif pick < 0.75 and removed_pool:
                u, v = removed_pool[int(rng.integers(0, len(removed_pool)))]
                cand = edge_add(u, v, r)
            elif base_edges:
                u, v = base_edges[int(rng.integers(0, len(base_edges)))]
                cand = edge_remove(u, v, r)
            else:
                continue
            if _accepts(cand):
                events.append(cand)
                if cand.kind == "edge_remove":
                    removed_pool.append(cand.edge)
                elif cand.kind == "edge_add":
                    removed_pool.remove(cand.edge)
    return ChurnSchedule(events, policy=policy)
