"""The A/A report's gate: spreads and median shifts against the bounds."""

import aa

SPEC = {"end_to_end": [
    {"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.25},
    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25},
]}


def runs(walls, setups):
    return [{"attempted": 5, "failed": 0,
             "metrics": {"wall_s": {"value": w}, "setup_s": {"value": s}}}
            for w, s in zip(walls, setups)]


def test_spread_uses_the_statistics_quartiles():
    s = aa.spread([1.0, 2.0, 3.0, 4.0, 5.0])
    assert (s["q1"], s["median"], s["q3"]) == (1.5, 3.0, 4.5)
    assert s["spread"] == 1.0


def test_steady_sets_pass_and_setup_spread_is_not_gated():
    steady = [1.0, 1.01, 0.99, 1.02, 0.98]
    wide = [1.0, 2.0, 0.5, 1.5, 0.8]
    sets = [{"w": runs(steady, wide)}, {"w": runs(steady, wide)}]
    assert aa.report(SPEC, sets)


def test_a_wide_spread_or_a_shifted_median_fails():
    steady = [1.0, 1.01, 0.99, 1.02, 0.98]
    wide = [1.0, 2.0, 0.5, 1.5, 0.8]
    assert not aa.report(SPEC, [{"w": runs(wide, steady)}, {"w": runs(steady, steady)}])
    slower = [1.3 * w for w in steady]
    assert not aa.report(SPEC, [{"w": runs(steady, steady)}, {"w": runs(slower, steady)}])
    # A faster second set is no regression.
    faster = [0.7 * w for w in steady]
    assert aa.report(SPEC, [{"w": runs(steady, steady)}, {"w": runs(faster, steady)}])
