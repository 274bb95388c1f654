"""A user-defined fault model on the ``staleness`` engine.

The built-in models (``RandomLinkDrop``, ``LinkOutage``) have vectorised
branches; any other :class:`~repro.network.faults.FaultModel` is asked
message by message through ``drops``.  In the lockstep regime that path
must still replay the event-driven ``async`` engine bit for bit.
"""

import numpy as np

from repro import point_load, torus_2d
from repro.core.records import RECORD_FIELDS
from repro.engines import EngineConfig, make_engine
from repro.network.faults import FaultModel


class DropLargeOnOddRounds(FaultModel):
    """Bounce every transfer of at least ``amount`` tokens on odd rounds."""

    def __init__(self, amount: float):
        self.amount = amount

    def filter_transfers(self, transfers, round_index):
        delivered, bounced = [], []
        for t in transfers:
            hit = round_index % 2 == 1 and t.amount >= self.amount
            (bounced if hit else delivered).append(t)
        return delivered, bounced


def test_custom_fault_model_matches_async():
    topo = torus_2d(4, 4)
    cfg = EngineConfig(
        scheme="fos", rounding="floor", rounds=10, seed=3,
        latency_model="fixed:2", faults=DropLargeOnOddRounds(20.0),
    )
    base = point_load(topo, 100 * topo.n)
    loads = np.stack([np.roll(base, 5 * b) for b in range(3)])
    eng_s, eng_a = make_engine("staleness"), make_engine("async")
    hs, ha = eng_s.prepare(topo, cfg, loads), eng_a.prepare(topo, cfg, loads)
    for _ in range(cfg.rounds):
        eng_s.step(hs)
        eng_a.step(ha)
    assert hs.core.bounced_count.sum() > 0
    for b, replica in enumerate(ha.replicas):
        assert hs.core.bounced_count[b] == replica.net.bounced_count
        assert hs.core.delivered_count[b] == replica.net.delivered_count
    got, want = eng_s.metrics(hs).results(), eng_a.metrics(ha).results()
    for g, w in zip(got, want):
        for name in RECORD_FIELDS:
            np.testing.assert_array_equal(g.table.column(name), w.table.column(name))
        np.testing.assert_array_equal(g.final_state.load, w.final_state.load)
        np.testing.assert_array_equal(g.final_state.flows, w.final_state.flows)
