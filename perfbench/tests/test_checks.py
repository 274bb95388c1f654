"""The output checks reject corrupted results."""

import numpy as np
import pytest

from checks import (
    CheckFailed,
    check_ledger,
    check_same_digest,
    check_static_conservation,
    digest,
)


def final_loads():
    loads = np.zeros((3, 5))
    loads[:, 0] = 4000.0
    loads[:, 1:] = 250.0
    return loads


def test_conservation_holds_and_rejects_a_lost_token():
    loads = final_loads()
    check_static_conservation(loads, 5000.0)
    loads[2, 3] -= 1.0
    with pytest.raises(CheckFailed, match="replica 2"):
        check_static_conservation(loads, 5000.0)


def test_ledger_counts_tokens_in_flight():
    load = np.array([90.0, 100.0])
    in_flight = np.array([10.0, 0.0])
    check_ledger(load, in_flight, [100.0, 100.0], "round 3")
    with pytest.raises(CheckFailed, match="round 3: replica 1"):
        check_ledger(load, in_flight, [100.0, 101.0], "round 3")


def test_digest_detects_any_changed_value_or_shape():
    loads = final_loads()
    pinned = digest(loads)
    assert digest(loads.copy()) == pinned
    check_same_digest(digest(loads), pinned, "repeat call")
    corrupted = loads.copy()
    corrupted[1, 2] = np.nextafter(corrupted[1, 2], np.inf)
    with pytest.raises(CheckFailed, match="repeat call"):
        check_same_digest(digest(corrupted), pinned, "repeat call")
    assert digest(loads.reshape(5, 3)) != pinned
