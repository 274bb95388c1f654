"""The metric table, its agreement with BENCHMARK.json, and tail rules."""

import json
import os

import pytest

import metrics

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def test_benchmark_json_lists_the_reported_metrics_with_their_units():
    s = spec()
    assert [(m["name"], m["unit"]) for m in s["end_to_end"]] == metrics.END_TO_END
    assert [(m["name"], m["unit"]) for m in s["per_layer"]] == metrics.per_layer_table()


def test_metric_names_are_unique_and_setup_is_gated_hardest():
    s = spec()
    names = [m["name"] for m in s["end_to_end"] + s["per_layer"]]
    assert len(names) == len(set(names))
    bounds = {m["name"]: m["bound"] for m in s["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())
    assert all(0 < b <= 0.25 for b in bounds.values())


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    t = metrics.layer_timing("x_s", [float(i) for i in range(1, 101)])
    assert t["x_s.n"] == 100
    assert t["x_s.tail_pct"] == 90.0
    assert t["x_s.tail"] == pytest.approx(90.1)
    assert t["x_s"] == pytest.approx(50.5)
    assert metrics.layer_timing("x_s", range(1000))["x_s.tail_pct"] == 99.0


def test_few_samples_report_the_maximum_and_none_report_zero():
    t = metrics.layer_timing("x_s", [3.0, 1.0, 2.0])
    assert (t["x_s"], t["x_s.tail"], t["x_s.tail_pct"], t["x_s.n"]) == (2.0, 3.0, 100.0, 3)
    assert set(metrics.layer_timing("x_s", []).values()) == {0}


def test_as_metrics_refuses_a_missing_metric():
    table = [("a", "s"), ("b", "count")]
    assert metrics.as_metrics({"a": 1.0, "b": 2}, table) == {
        "a": {"value": 1.0, "unit": "s"},
        "b": {"value": 2, "unit": "count"},
    }
    with pytest.raises(KeyError, match="b"):
        metrics.as_metrics({"a": 1.0}, table)
