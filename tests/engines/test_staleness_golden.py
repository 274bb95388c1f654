"""Golden pins for stochastic ``staleness`` runs.

The stochastic roundings (``randomized-excess``, ``unbiased-edge``) match
the event-driven ``async`` engine only in distribution, so the
differential suite cannot pin their bits.  This module does: for every
point of a small grid it runs the engine and compares SHA-256 digests of
the final loads, the final flows and every record column against
``staleness_golden.json``.

The grid is rounding x mode x faults x skew gate x tiling x batch width:

* roundings ``randomized-excess`` and ``unbiased-edge``;
* ``sos``: static SOS with a ``("fixed", 6)`` switch;
  ``fos-poisson``: dynamic FOS with Poisson arrivals and departures;
* faults ``drop:0.3`` and an outage of one clique link;
* stamped integer latency buckets 0..3 per edge, without a gate and with
  ``max_skew=1`` (which clamps the deepest buckets to 2);
* dense dispatch and ``tile_size=7``;
* B = 1 and B = 9.

Four ``identity`` runs (each mode and fault, B = 9) ride along.

A digest is taken the way ``perfbench/checks.py`` takes the benchmark's
pinned digest: SHA-256 of the plane's shape ``repr`` followed by its
float64 bytes, so signed zeros count.  To regenerate the pins after a
deliberate change of the engine's stream layout, run this file as a
script from the repository root with ``PYTHONPATH=src``.
"""

import hashlib
import itertools
import json
import os

import numpy as np
import pytest

from repro import lollipop, point_load
from repro.core.records import DYNAMIC_FIELDS, RECORD_FIELDS
from repro.engines import EngineConfig, make_engine

PINS = os.path.join(os.path.dirname(os.path.abspath(__file__)), "staleness_golden.json")

#: A clique with a tail: mixed degrees (5 down to 1) for the excess
#: dispatch, n = 11 so tile_size 7 leaves a ragged last tile.
TOPO = lollipop(6, 5).stamp_link_attrs(
    latency=np.random.default_rng(7).integers(0, 4, 20).astype(float)
)
ROUNDS = 12

ROUNDINGS = ("randomized-excess", "unbiased-edge")
MODES = ("sos", "fos-poisson")
FAULTS = {"drop": "drop:0.3", "outage": "outage:0:5:2:9"}
SKEWS = (None, 1)
TILES = (None, 7)
WIDTHS = (1, 9)

CASES = list(itertools.product(ROUNDINGS, MODES, FAULTS, SKEWS, TILES, WIDTHS))
#: ``identity`` matches ``async`` only to accumulation accuracy, and its
#: fractional amounts make the order in which bounces are summed show.
CASES += [("identity", mode, fault, None, None, 9) for mode in MODES for fault in FAULTS]


def _case_id(case) -> str:
    rounding, mode, fault, skew, tile, B = case
    return (
        f"{rounding}-{mode}-{fault}-skew{skew if skew is not None else 'none'}"
        f"-tile{tile or 'dense'}-B{B}"
    )


def _digest(plane) -> str:
    plane = np.ascontiguousarray(plane, dtype=np.float64)
    h = hashlib.sha256(repr(plane.shape).encode())
    h.update(plane.tobytes())
    return h.hexdigest()


def _column(table, name) -> np.ndarray:
    col = table.column(name)
    if name == "scheme":
        return np.asarray([s == "SecondOrderScheme" for s in col], dtype=np.float64)
    return np.asarray(col, dtype=np.float64)


def run_case(case) -> dict:
    """Run one grid point and return its three digests."""
    rounding, mode, fault, skew, tile, B = case
    common = dict(
        rounding=rounding, rounds=ROUNDS, seed=5, max_skew=skew,
        faults=FAULTS[fault], tile_size=tile,
    )
    base = point_load(TOPO, 100 * TOPO.n)
    loads = np.stack([np.roll(base, 2 * b) for b in range(B)])
    engine = make_engine("staleness")
    if mode == "sos":
        cfg = EngineConfig(scheme="sos", beta=1.6, switch=("fixed", 6), **common)
        results, fields = engine.run(TOPO, cfg, loads), RECORD_FIELDS
    else:
        cfg = EngineConfig(scheme="fos", arrivals="poisson:3.0,depart=1.0", **common)
        results, fields = engine.run_dynamic(TOPO, cfg, loads), DYNAMIC_FIELDS
    records = np.stack([[_column(r.table, f) for f in fields] for r in results])
    return {
        "loads": _digest([r.final_state.load for r in results]),
        "flows": _digest([r.final_state.flows for r in results]),
        "records": _digest(records),
    }


def _pins() -> dict:
    with open(PINS) as fh:
        return json.load(fh)


def test_pins_cover_the_grid():
    assert sorted(_pins()) == sorted(_case_id(c) for c in CASES)


@pytest.mark.parametrize("case", CASES, ids=[_case_id(c) for c in CASES])
def test_golden_digests(case):
    assert run_case(case) == _pins()[_case_id(case)]


if __name__ == "__main__":
    pins = {_case_id(c): run_case(c) for c in CASES}
    with open(PINS, "w") as fh:
        json.dump(pins, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(pins)} pins to {PINS}")
