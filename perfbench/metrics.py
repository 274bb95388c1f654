"""The benchmark's metric table and the timing summary of a layer.

``END_TO_END`` and ``per_layer_table()`` are the single source of metric
names and units: the runner reports exactly these, and ``BENCHMARK.json``
must list the same names with the same units (a test holds the two
together).  ``DERIVED`` are printed beside the end-to-end metrics but not
gated.
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

import numpy as np

#: (name, unit) of every end-to-end metric, reported per workload.
END_TO_END: List[Tuple[str, str]] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("final_max_minus_avg", "tokens"),
]

#: (name, unit) of the end-to-end figures that are functions of the gated
#: ones, printed on their own line.  ``node_rounds_per_s`` is n * B *
#: rounds / ``wall_s``: a regression in it is one in ``wall_s``, and as a
#: reciprocal its quartile spread over runs is the wider of the two.
#: ``failed_ops_frac`` is ``failed / attempted`` and 0 on a correct run.
DERIVED: List[Tuple[str, str]] = [
    ("node_rounds_per_s", "node-rounds/s"),
    ("failed_ops_frac", "1"),
]

#: Layer timings.  Each is reported as four metrics: the median (the bare
#: name), ``.tail`` (the highest percentile with at least ten samples
#: beyond it), ``.tail_pct`` (which percentile that is) and ``.n`` (the
#: sample count).
LAYER_TIMINGS: List[str] = [
    "graphs.build_s",
    "engines.prepare_s",
    "engines.round_s",
    "engines.metrics_s",
    "core.records.results_s",
    "kernels.round_edges_s",
    "kernels.excess_counts_s",
    "kernels.excess_dispatch_s",
    "kernels.apply_flows_s",
    "pool.call_s",
    "sweeps.reduce_s",
    "staleness.step_s",
    "staleness.arrive_s",
    "staleness.record_s",
    "dynamic.deltas_s",
]

#: Single-valued per-layer metrics: derived times and exact counts.
LAYER_SCALARS: List[Tuple[str, str]] = [
    ("engines.dispatch_s", "s"),
    ("engines.prepare_first_s", "s"),
    ("kernels.round_edges.calls", "count"),
    ("kernels.excess_counts.calls", "count"),
    ("kernels.excess_dispatch.calls", "count"),
    ("kernels.apply_flows.calls", "count"),
    ("kernels.tokens", "count"),
    ("kernels.bytes_computed", "bytes"),
    ("pool.worker_start_s", "s"),
    ("pool.transport_s", "s"),
    ("pool.shm_bytes", "bytes"),
    ("pool.calls_served", "count"),
    ("dynamic.deltas.calls", "count"),
    ("staleness.delivered", "count"),
    ("staleness.bounced", "count"),
    ("import.repro_s", "s"),
    ("trace.overhead_pct", "%"),
]

#: Percentiles a tail may be reported at, highest first.
TAIL_PERCENTILES = (99.9, 99.0, 90.0, 75.0, 50.0)
#: Samples a reported percentile must have beyond it.
TAIL_SAMPLES = 10


def per_layer_table() -> List[Tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out: List[Tuple[str, str]] = []
    for name in LAYER_TIMINGS:
        out += [
            (name, "s"),
            (f"{name}.tail", "s"),
            (f"{name}.tail_pct", "%"),
            (f"{name}.n", "count"),
        ]
    return out + LAYER_SCALARS


def layer_timing(name: str, samples: Sequence[float]) -> Dict[str, float]:
    """Median, tail percentile and sample count of one layer timing.

    The tail is the highest of :data:`TAIL_PERCENTILES` that leaves at
    least :data:`TAIL_SAMPLES` samples above it; with too few samples for
    any of them it is the maximum, reported as percentile 100.  A layer
    the workload never called reads 0 everywhere.
    """
    values = np.asarray(samples, dtype=np.float64)
    n = int(values.size)
    if n == 0:
        return {name: 0.0, f"{name}.tail": 0.0, f"{name}.tail_pct": 0.0, f"{name}.n": 0}
    pct = next(
        (p for p in TAIL_PERCENTILES if n * (100.0 - p) / 100.0 >= TAIL_SAMPLES - 1e-9), 100.0
    )
    return {
        name: float(np.median(values)),
        f"{name}.tail": float(np.percentile(values, pct)),
        f"{name}.tail_pct": pct,
        f"{name}.n": n,
    }


def as_metrics(values: Dict[str, float], table: Sequence[Tuple[str, str]]) -> Dict[str, dict]:
    """The result's ``metrics`` object: every table entry with its unit."""
    missing = [name for name, _unit in table if name not in values]
    if missing:
        raise KeyError(f"metrics not measured: {', '.join(missing)}")
    return {name: {"value": values[name], "unit": unit} for name, unit in table}
