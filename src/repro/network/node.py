"""Node agents for the message-passing substrate.

A :class:`BalancerNode` holds strictly node-local state: its own load, speed,
the ``alpha`` weight and previous-round flow per incident edge, and whatever
it has learned from neighbour messages.  All flow decisions are taken from
this local view only, which is the point of the substrate — it demonstrates
that the paper's schemes (including the Section III-B randomized rounding)
are genuinely distributed, and the test-suite proves the resulting global
trace equals the vectorised matrix engine.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.rounding import _FRAC_TOL
from ..exceptions import ProtocolError
from .messages import Hello, LoadAnnounce, TokenTransfer, WorkInjection

__all__ = ["BalancerNode"]


class BalancerNode:
    """One processor running FOS or SOS from purely local information.

    Parameters
    ----------
    node_id:
        This node's identifier.
    neighbors:
        Sorted list of neighbour ids.
    speed:
        This node's speed ``s_i``.
    load:
        Initial (integral) load.
    scheme:
        ``"fos"`` or ``"sos"``.
    beta:
        SOS relaxation parameter (ignored for FOS).
    rounding:
        One of ``"identity"``, ``"floor"``, ``"nearest"``, ``"ceil"``,
        ``"unbiased-edge"``, ``"randomized-excess"`` — mirrors
        :mod:`repro.core.rounding` but implemented node-locally.
    rng:
        Node-local random generator for the randomized roundings.
    """

    def __init__(
        self,
        node_id: int,
        neighbors: Sequence[int],
        speed: float,
        load: float,
        scheme: str = "fos",
        beta: float = 1.0,
        rounding: str = "identity",
        rng: Optional[np.random.Generator] = None,
    ):
        if scheme not in ("fos", "sos"):
            raise ProtocolError(f"unknown scheme {scheme!r}")
        if rounding not in (
            "identity",
            "floor",
            "nearest",
            "ceil",
            "unbiased-edge",
            "randomized-excess",
        ):
            raise ProtocolError(f"unknown rounding {rounding!r}")
        self.node_id = int(node_id)
        self.neighbors: List[int] = sorted(int(x) for x in neighbors)
        self.speed = float(speed)
        self.load = float(load)
        self.scheme = scheme
        self.beta = float(beta)
        self.rounding = rounding
        self.rng = rng or np.random.default_rng()

        self.degree = len(self.neighbors)
        self.neighbor_speeds: Dict[int, float] = {}
        self.neighbor_degrees: Dict[int, int] = {}
        self.alpha: Dict[int, float] = {}
        #: Previous-round flow from this node's perspective (positive = sent).
        self.prev_flow: Dict[int, float] = {j: 0.0 for j in self.neighbors}
        self._announced: Dict[int, float] = {}
        self._pending_scheduled: Dict[int, float] = {}
        self._sent_this_round: Dict[int, float] = {}
        self.round_index = 0
        #: Most negative transient load this node ever observed on itself.
        self.min_transient = math.inf

    # -- setup ------------------------------------------------------------
    def hello_messages(self) -> List[Hello]:
        """Introduce this node to all neighbours (setup phase)."""
        return [
            Hello(sender=self.node_id, receiver=j, speed=self.speed, degree=self.degree)
            for j in self.neighbors
        ]

    def receive_hello(self, msg: Hello) -> None:
        """Learn a neighbour's speed and degree; derive ``alpha_ij``."""
        if msg.sender not in self.prev_flow:
            raise ProtocolError(
                f"node {self.node_id} got Hello from non-neighbour {msg.sender}"
            )
        self.neighbor_speeds[msg.sender] = msg.speed
        self.neighbor_degrees[msg.sender] = msg.degree
        # Heterogeneous-safe alpha (reduces to 1/(max degree + 1) when
        # speeds are 1) — must match repro.core.alphas.heterogeneous_safe.
        self.alpha[msg.sender] = min(self.speed, msg.speed) / (
            max(self.degree, msg.degree) + 1.0
        )

    def receive_work(self, msg: WorkInjection) -> float:
        """Apply an external workload injection (dynamic regime).

        Creates ``msg.arrive`` tokens and consumes up to ``msg.depart``,
        clamped at this node's available non-negative load (SOS can leave
        transiently negative loads, which departures must not touch).
        Returns the tokens actually consumed so the injector can keep exact
        totals.
        """
        if msg.round_index != self.round_index:
            raise ProtocolError(
                f"node {self.node_id}: work injection for round "
                f"{msg.round_index} arrived in round {self.round_index}"
            )
        if msg.arrive < 0.0 or msg.depart < 0.0:
            raise ProtocolError(
                f"node {self.node_id}: negative work injection {msg!r}"
            )
        consumed = min(msg.depart, max(self.load, 0.0))
        self.load = self.load + msg.arrive - consumed
        return consumed

    # -- per-round protocol -----------------------------------------------
    def announce(self) -> List[LoadAnnounce]:
        """Phase 1: broadcast the speed-normalised load to all neighbours."""
        value = self.load / self.speed
        return [
            LoadAnnounce(
                sender=self.node_id,
                receiver=j,
                round_index=self.round_index,
                normalized_load=value,
            )
            for j in self.neighbors
        ]

    def receive_announce(self, msg: LoadAnnounce) -> None:
        """Phase 1 delivery: store neighbour loads for the flow computation."""
        if msg.round_index != self.round_index:
            raise ProtocolError(
                f"node {self.node_id}: announce for round {msg.round_index} "
                f"arrived in round {self.round_index}"
            )
        self._announced[msg.sender] = msg.normalized_load

    def set_neighbor_loads(self, announced: Dict[int, float]) -> None:
        """Install a (possibly stale) neighbour-load view for this round.

        The event-driven async engine's entry point: it tracks the latest
        heard announcement per neighbour and installs the whole view right
        before :meth:`compute_transfers`, bypassing the synchronous
        :meth:`receive_announce` round check (under latency the freshest
        known value *is* from an older round — that staleness is the point).
        """
        self._announced = dict(announced)

    def _scheduled_flow(self, j: int) -> float:
        """Continuous scheduled flow from this node toward neighbour ``j``."""
        gradient = self.alpha[j] * (self.load / self.speed - self._announced[j])
        if self.scheme == "sos" and self.round_index > 0:
            return (self.beta - 1.0) * self.prev_flow[j] + self.beta * gradient
        return gradient

    def compute_transfers(self) -> List[TokenTransfer]:
        """Phase 2: decide and emit this node's outgoing token shipments.

        Both endpoints of an edge compute the same scheduled flow (they both
        know the two normalised loads, the shared ``alpha`` and — by induction
        — the same previous flow); only the endpoint with *positive* flow is
        the sender and performs the rounding.
        """
        missing = [j for j in self.neighbors if j not in self._announced]
        if missing:
            raise ProtocolError(
                f"node {self.node_id} misses announcements from {missing}"
            )
        outgoing = {j: self._scheduled_flow(j) for j in self.neighbors}
        senders = {j: f for j, f in outgoing.items() if f > 0.0}
        rounded = self._round_outgoing(senders)

        transfers = []
        self._sent_this_round = {}
        for j, f in outgoing.items():
            if f > 0.0:
                amount = rounded[j]
                self.prev_flow[j] = amount
                self._sent_this_round[j] = amount
                if amount != 0.0:
                    transfers.append(
                        TokenTransfer(
                            sender=self.node_id,
                            receiver=j,
                            round_index=self.round_index,
                            amount=amount,
                        )
                    )
            elif f == 0.0:
                self.prev_flow[j] = 0.0
            # For f < 0 the neighbour is the sender; prev_flow[j] is updated
            # when its TokenTransfer (or its absence) is observed.
        self._pending_scheduled = outgoing
        return transfers

    def _round_outgoing(self, flows: Dict[int, float]) -> Dict[int, float]:
        """Round this node's outgoing flow magnitudes (node-local rounding)."""
        if self.rounding == "identity":
            return dict(flows)
        if self.rounding == "floor":
            return {j: math.floor(f) for j, f in flows.items()}
        if self.rounding == "nearest":
            return {j: float(np.rint(f)) for j, f in flows.items()}
        if self.rounding == "ceil":
            return {j: math.ceil(f) for j, f in flows.items()}
        if self.rounding == "unbiased-edge":
            out = {}
            for j, f in flows.items():
                base = math.floor(f)
                frac = f - base
                out[j] = base + (1.0 if self.rng.random() < frac else 0.0)
            return out
        # randomized-excess: the paper's Section III-B scheme.
        base = {}
        fracs = {}
        for j, f in flows.items():
            b = math.floor(f)
            fr = f - b
            if fr < _FRAC_TOL:
                fr = 0.0
            elif fr > 1.0 - _FRAC_TOL:
                b += 1
                fr = 0.0
            base[j] = float(b)
            fracs[j] = fr
        r = sum(fracs.values())
        if r <= 0.0:
            return base
        c = max(1, math.ceil(r - _FRAC_TOL))
        order = sorted(j for j in fracs if fracs[j] > 0.0)
        cum = np.cumsum([fracs[j] for j in order])
        for _ in range(c):
            draw = self.rng.random() * c
            pos = int(np.searchsorted(cum, draw, side="right"))
            if pos < len(order):
                base[order[pos]] += 1.0
        return base

    def apply_send_phase(self) -> None:
        """Deduct everything sent this round; track the transient minimum."""
        self.load -= sum(self._sent_this_round.values())
        if self.load < self.min_transient:
            self.min_transient = self.load

    def receive_transfer(self, msg: TokenTransfer) -> None:
        """Phase 2 delivery: accept tokens; remember the edge's flow."""
        if msg.sender not in self.prev_flow:
            raise ProtocolError(
                f"node {self.node_id} got tokens from non-neighbour {msg.sender}"
            )
        self.load += msg.amount
        # From this node's perspective the flow on that edge was negative.
        self.prev_flow[msg.sender] = -msg.amount

    def finish_round(self, received_from: Sequence[int]) -> None:
        """Close the round: zero flows on quiet incoming edges, advance t.

        ``received_from`` lists neighbours whose transfer arrived this round;
        any neighbour that was the computed sender but shipped zero tokens
        must still have its ``prev_flow`` updated (to the exact zero).
        """
        received = set(received_from)
        for j in self.neighbors:
            f = self._pending_scheduled.get(j, 0.0)
            if f < 0.0 and j not in received:
                self.prev_flow[j] = 0.0
        self._announced.clear()
        self._pending_scheduled = {}
        self._sent_this_round = {}
        self.round_index += 1

    def __repr__(self) -> str:
        return (
            f"BalancerNode(id={self.node_id}, load={self.load}, "
            f"scheme={self.scheme!r}, round={self.round_index})"
        )
