"""The capability table, checked cell by cell against the engines.

Every test here is generated from :mod:`repro.engines.capabilities`:

* every refused cell — a config setting only that knob raises one
  ``ConfigurationError`` naming the knob and the engine asked;
* every supported cell — the same config runs 3 rounds (dynamic where the
  knob needs arrivals);
* completeness — every ``EngineConfig`` field and ``ReplicaParams`` plane
  is declared, as a row or as universal, so a new field fails here until
  its engine support is stated.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro import ConfigurationError, point_load, torus_2d
from repro.engines import EngineConfig, ShardedWorkerPool, make_engine
from repro.engines.base import REPLICA_PARAM_FIELDS
from repro.engines.capabilities import (
    CAPABILITIES,
    ENGINE_COLUMNS,
    UNIVERSAL,
)
from repro.kernels import get_provider

TOPO = torus_2d(4, 4)
#: B = 3 keeps every ``workers`` call on one inline shard (no worker process).
B = 3
LOADS = np.tile(point_load(TOPO, 10 * TOPO.n), (B, 1))
NODE_FIELDS = ("max_minus_avg", "potential_per_node")

#: One example setting per table row, keyed by the row's field (by its
#: setting where one field has several rows), on a FOS/floor base config.
#: A forced ``kernel`` runs ``randomized-excess`` only, and ``fast_path``
#: needs the closed-form preconditions (identity rounding, no transient
#: columns); ``rounding`` is universal and ``record_fields`` shares the
#: ``fast_path`` column, so the verdicts are unchanged.
EXAMPLES = {
    "precision": dict(precision="float32"),
    "record_fields": dict(record_fields=NODE_FIELDS),
    "record_mode": dict(record_mode="summary"),
    "fast_path": dict(
        fast_path="matmul", rounding="identity", record_fields=NODE_FIELDS
    ),
    "kernel='cffi'": dict(kernel="cffi", rounding="randomized-excess"),
    "kernel='python'": dict(kernel="python", rounding="randomized-excess"),
    "tile_size": dict(tile_size=4),
    "replica_keys": dict(replica_keys=[5, 6, 7]),
    "arrival_sampling": dict(arrival_sampling="batch", arrivals="poisson:1.0"),
    "workers": dict(workers=2),
    "pool": dict(pool=ShardedWorkerPool),  # a live one-worker pool per run
    "latency_model": dict(latency_model=1.0),
    "max_skew": dict(max_skew=1),
    "latency_buckets": dict(latency_buckets="floor"),
    "faults": dict(faults="drop:0.1"),
    "churn": dict(churn="crash:3@2"),
    "switch": dict(switch=("local-diff", 1.0, 1)),
    "replica_params.alpha_scales": dict(
        replica_params={"alpha_scales": [1.0, 0.5, 2.0]}
    ),
    "alphas": dict(alphas=np.full(TOPO.m_edges, 0.05)),
}

_FIELD_ROWS = Counter(cap.field for cap in CAPABILITIES)
ROWS = {
    cap.field if _FIELD_ROWS[cap.field] == 1 else cap.setting: cap
    for cap in CAPABILITIES
}
CELLS = [(field, engine) for field in ROWS for engine in ENGINE_COLUMNS]


def _skip_without_provider(field):
    """A forced cffi kernel runs only where the provider builds."""
    if EXAMPLES[field].get("kernel") == "cffi" and get_provider("cffi") is None:
        pytest.skip("the cffi provider is unavailable")


def _run(engine, field, **extra):
    """Run ``engine`` for 3 rounds under the example setting of ``field``."""
    kwargs = dict(EXAMPLES[field], **extra)
    pool = None
    if kwargs.get("pool") is ShardedWorkerPool:
        pool = kwargs["pool"] = ShardedWorkerPool(workers=1)
    try:
        config = EngineConfig(scheme="fos", rounding="floor", rounds=3)
        config = dataclasses.replace(config, **kwargs)
        backend = make_engine(engine)
        if config.arrivals is not None:
            return backend.run_dynamic(TOPO, config, LOADS)
        return backend.run(TOPO, config, LOADS)
    finally:
        if pool is not None:
            pool.close()


def test_every_row_has_an_example():
    assert set(EXAMPLES) == set(ROWS)


@pytest.mark.parametrize(
    "field,engine",
    [c for c in CELLS if c[1] not in ROWS[c[0]].engines],
)
def test_refused_cell_raises(field, engine):
    with pytest.raises(ConfigurationError) as info:
        _run(engine, field)
    message = str(info.value)
    assert f"the {engine} engine" in message
    assert field in message


@pytest.mark.parametrize(
    "field,engine",
    [c for c in CELLS if c[1] in ROWS[c[0]].engines],
)
def test_supported_cell_runs(field, engine):
    _skip_without_provider(field)
    results = _run(engine, field)
    assert len(results) == B


@pytest.mark.parametrize("field", list(ROWS))
def test_sharded_alias_follows_the_batched_column(field):
    """``sharded`` is the batched engine with ``workers="auto"``: it runs
    every knob the batched column lists and refuses the rest under its
    own name, pointing staleness-only knobs to ``engine="staleness"``."""
    cap = ROWS[field]
    if field == "arrival_sampling":
        # The one batched knob the shard planner refuses: a shared batch
        # arrival stream cannot split into worker shards.
        with pytest.raises(ConfigurationError, match="arrival_sampling"):
            _run("sharded", field)
        return
    if "batched" in cap.engines:
        _skip_without_provider(field)
        assert len(_run("sharded", field)) == B
        return
    with pytest.raises(ConfigurationError) as info:
        _run("sharded", field)
    message = str(info.value)
    assert "the sharded engine" in message and field in message
    if "staleness" in cap.engines:
        assert "engine='staleness' and workers" in message


@pytest.mark.parametrize("engine", ["network", "async", "staleness"])
def test_alphas_refused_where_ignored(engine):
    """These engines build their own per-arc alphas from the topology; a
    config that sets alphas would run as if it had not."""
    config = EngineConfig(
        scheme="fos", rounding="floor", rounds=5,
        alphas=np.full(TOPO.m_edges, 0.05),
    )
    with pytest.raises(ConfigurationError, match=f"the {engine} engine.*alphas"):
        make_engine(engine).run(TOPO, config, LOADS)


def test_every_refusal_named_in_one_error():
    config = EngineConfig(rounds=3, precision="float32", workers=2, faults="drop:0.1")
    with pytest.raises(ConfigurationError) as info:
        make_engine("reference").run(TOPO, config, LOADS)
    for knob in ("precision='float32'", "workers=2", "faults='drop:0.1'"):
        assert knob in str(info.value)


def test_every_config_field_is_declared():
    fields = {f.name for f in dataclasses.fields(EngineConfig)}
    fields.remove("replica_params")
    fields |= {f"replica_params.{plane}" for plane in REPLICA_PARAM_FIELDS}
    rows = [cap.field for cap in CAPABILITIES]
    settings = [cap.setting for cap in CAPABILITIES]
    assert len(settings) == len(set(settings))
    assert not set(rows) & set(UNIVERSAL)
    assert set(rows) | set(UNIVERSAL) == fields
