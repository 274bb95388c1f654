"""The staleness engine's batch-wide round statistics and records equal
the per-replica metric helpers bit for bit.

Every ``StepBatch`` field and every record column of both the static
and the dynamic step is recomputed here one replica at a time with
:func:`~repro.core.state.transient_loads`,
:func:`~repro.core.metrics.max_minus_average`,
:func:`~repro.core.metrics.max_local_difference` and
:func:`~repro.core.metrics.normalized_potential`, and compared by the
float64 bytes.  ``identity`` rounding on non-integer loads and
heterogeneous speeds keeps every flow fractional, so any change of
summation order shows; the topology has an isolated node (degree 0),
and n = 145 is odd and above numpy's pairwise block, so replica rows of
a ``(B, n)`` plane start at every alignment.
"""

import numpy as np
import pytest

from repro import Topology, torus_2d
from repro.core.metrics import (
    max_local_difference,
    max_minus_average,
    min_minus_average,
    normalized_potential,
    target_loads,
)
from repro.core.records import DYNAMIC_FIELDS, RECORD_FIELDS
from repro.core.state import transient_loads
from repro.engines import EngineConfig, make_engine

_GRID = torus_2d(12, 12)
#: The 12x12 torus plus node 144 with no edges.
TOPO = Topology(
    _GRID.n + 1, list(zip(_GRID.edge_u.tolist(), _GRID.edge_v.tolist()))
)
ROUNDS = 6

CONFIGS = {
    "identity-latency-drop": dict(
        rounding="identity", latency_model="fixed:1", faults="drop:0.2"
    ),
    "identity-zero-latency": dict(rounding="identity"),
    "randomized-excess-skew": dict(
        rounding="randomized-excess", latency_model="uniform:0,3", max_skew=1,
        faults="outage:0:1:1:4",
    ),
}


def _speeds():
    return np.random.default_rng(3).uniform(1.0, 3.0, TOPO.n)


def _loads(B):
    return np.random.default_rng(11).uniform(0.0, 50.0, (B, TOPO.n))


def same_bits(got, want, what):
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    assert got.shape == want.shape, what
    assert got.tobytes() == want.tobytes(), f"{what}: {got!r} != {want!r}"


def check_step(topo, before, batch, core):
    """The batch snapshots are the core's state, and the per-replica round
    statistics equal the helpers on the pre-step loads and the flows."""
    same_bits(batch.loads, core.loads.T, "loads")
    same_bits(batch.flows, core.E.T, "flows")
    assert batch.round_index == core.round_index
    for b in range(core.B):
        flows = np.ascontiguousarray(batch.flows[b])
        transients = transient_loads(topo, np.ascontiguousarray(before[b]), flows)
        same_bits(batch.min_transient[b], float(transients.min()), f"min_transient[{b}]")
        same_bits(batch.traffic[b], float(np.abs(flows).sum()), f"traffic[{b}]")


@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_dynamic_step_matches_helpers(name, B):
    cfg = EngineConfig(
        scheme="fos", rounds=ROUNDS, seed=2, speeds=_speeds(),
        arrivals="poisson:3.0,depart=1.0", **CONFIGS[name],
    )
    engine = make_engine("staleness")
    handle = engine.prepare(TOPO, cfg, _loads(B))
    arrivals = []
    for _ in range(ROUNDS):
        arrivals.append(engine.arrive(handle))
        before = handle.core.loads.T.copy()
        batch = engine.step(handle)
        check_step(TOPO, before, batch, handle.core)
        assert not batch.switched.any()
        results = engine.metrics(handle).dynamic_results()
        for b in range(B):
            load = np.ascontiguousarray(batch.loads[b])
            table = results[b].table
            want = {
                "round_index": batch.round_index,
                "total_load": float(load.sum()),
                "arrived": float(arrivals[-1].arrived[b]),
                "departed": float(arrivals[-1].departed[b]),
                "clamped": float(arrivals[-1].clamped[b]),
                "max_minus_avg": max_minus_average(load),
                "max_local_diff": max_local_difference(TOPO, load),
                "potential_per_node": normalized_potential(load),
            }
            assert set(want) == set(DYNAMIC_FIELDS)
            for field, value in want.items():
                same_bits(table.column(field)[-1], value, f"replica {b}, {field}")


@pytest.mark.parametrize("B", [1, 5])
@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_static_step_matches_helpers(name, B):
    cfg = EngineConfig(
        scheme="sos", beta=1.5, switch=("fixed", 3), rounds=ROUNDS, seed=2,
        speeds=_speeds(), **CONFIGS[name],
    )
    engine = make_engine("staleness")
    initial = _loads(B)
    handle = engine.prepare(TOPO, cfg, initial)
    # Static targets stay those of the initial totals (tokens in flight
    # leave the node loads' sum).
    targets = [target_loads(float(row.sum()), cfg.speeds) for row in initial]
    for _ in range(ROUNDS):
        before = handle.core.loads.T.copy()
        batch = engine.step(handle)
        check_step(TOPO, before, batch, handle.core)
        r = batch.round_index
        assert list(batch.switched) == [r == 3] * B
        results = engine.metrics(handle).results()
        for b in range(B):
            load = np.ascontiguousarray(batch.loads[b])
            want = {
                "round_index": r,
                "max_minus_avg": max_minus_average(load, targets[b]),
                "min_minus_avg": min_minus_average(load, targets[b]),
                "max_local_diff": max_local_difference(TOPO, load),
                "potential_per_node": normalized_potential(load, targets[b]),
                "min_load": float(load.min()),
                "min_transient": batch.min_transient[b],
                "total_load": float(load.sum()),
                "round_traffic": batch.traffic[b],
            }
            table = results[b].table
            assert table.column("scheme")[-1] == (
                "SecondOrderScheme" if r <= 3 else "FirstOrderScheme"
            )
            assert set(want) | {"scheme"} == set(RECORD_FIELDS)
            for field, value in want.items():
                same_bits(table.column(field)[-1], value, f"replica {b}, {field}")
