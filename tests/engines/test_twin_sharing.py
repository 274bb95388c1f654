"""Twin sharing in the batched engine's fused loop (``run_batch``).

Columns with the same rounding-stream key, initial loads, beta and alpha
scale that differ only in their fixed switch round are one trajectory
until their switch fires, so ``run_batch`` steps each such twin group as
one column and forks a follower off its leader just before its switch
round.  The contract is exactness:

* **differential property** (hypothesis) — every case equals the same
  batch with sharing switched off, bit for bit, in every record column,
  in the final loads and flows and in ``switched_at``;
* **sharded runs** — twins split across shards (per-call workers and a
  persistent pool) still equal the single-process batched run;
* **completeness** — ``take_columns`` re-indexes every array that has a
  replica axis;
* **C stack** — the compiled excess dispatch keeps its per-node scratch
  off the C stack, so a hub node with a wide batch cannot overflow it.
"""

import os
import resource
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import kernels, point_load
from repro.core.records import StreamingStats
from repro.engines import EngineConfig, ReplicaParams, ShardedWorkerPool, make_engine
from repro.engines import batched, pool as pool_module
from repro.experiments import ParamGrid
from repro.graphs import lollipop, random_regular_strict, torus_2d

HAVE_CFFI = kernels.get_provider("cffi") is not None
KERNELS = ["numpy", "cffi"] if HAVE_CFFI else ["numpy"]
#: (kernel, rounding) pairs: the compiled tier runs randomized-excess only
KERNEL_ROUNDINGS = [
    (kernel, rounding)
    for kernel in KERNELS
    for rounding in ("randomized-excess", "unbiased-edge", "floor")
    if kernel == "numpy" or rounding == "randomized-excess"
]

GRAPHS = {
    "lollipop": lollipop(5, 4),
    "regular": random_regular_strict(10, 3, rng=np.random.default_rng(3)),
}
ROUNDS = 12
#: switch-round choices per sweep point; "r" is drawn per example
SWITCH_CHOICES = [None, 0, 1, "r", "r", ROUNDS + 5]


def _sweep_batch(topo, switch_rounds, betas, n_seeds):
    """The ``sweep_ensemble`` layout: grid points outermost, seeds
    innermost, the rounding-stream key of each column its seed."""
    axes = {"switch_round": switch_rounds}
    if betas:
        axes = {"beta": betas, **axes}
    grid = ParamGrid(**axes)
    keys = [s for _ in grid.points() for s in range(n_seeds)]
    # A total off a multiple of n: fractional targets, so the order of a
    # reduction shows in its last bits.
    loads = np.tile(point_load(topo, 100 * topo.n + 3), (len(keys), 1))
    return grid.replica_params(n_seeds), keys, loads


def _unshared(engine, topo, config, loads):
    """The same run with twin sharing switched off."""
    with pytest.MonkeyPatch.context() as m:
        m.setattr(batched, "_plan_twins", lambda h, config: None)
        return engine.run_batch(topo, config, loads)


def _bits(a):
    return None if a is None else (a.shape, a.dtype, np.ascontiguousarray(a).tobytes())


def assert_same_batch(a, b):
    """Bit-for-bit equality of two record batches."""
    for name in (
        "round_index", "scheme_codes", "final_loads", "final_flows",
        "switched_at", "scheme_last",
    ):
        assert _bits(getattr(a, name)) == _bits(getattr(b, name)), name
    assert (a.columns is None) == (b.columns is None)
    if a.columns is not None:
        assert a.columns.keys() == b.columns.keys()
        for k in a.columns:
            assert _bits(a.columns[k]) == _bits(b.columns[k]), k
    assert (a.summary_stats is None) == (b.summary_stats is None)
    if a.summary_stats is not None:
        sa, sb = a.summary_stats, b.summary_stats
        assert (sa.count, sa.first_round, sa.last_round) == (
            sb.count, sb.first_round, sb.last_round
        )
        for store in ("mins", "maxs", "sums", "last"):
            for k in sa.fields:
                assert _bits(getattr(sa, store)[k]) == _bits(getattr(sb, store)[k])


class TestDifferential:
    @settings(max_examples=40, deadline=None)
    @given(
        graph=st.sampled_from(sorted(GRAPHS)),
        picks=st.lists(
            st.integers(0, len(SWITCH_CHOICES) - 1), min_size=1, max_size=6
        ),
        r=st.integers(2, ROUNDS),
        record_every=st.sampled_from([1, 3]),
        record_mode=st.sampled_from(["table", "summary"]),
        tile=st.sampled_from([None, 7]),
        kernel_rounding=st.sampled_from(KERNEL_ROUNDINGS),
        betas=st.sampled_from([None, [1.4, 1.8]]),
        n_seeds=st.integers(1, 2),
    )
    def test_sharing_is_bit_identical(
        self, graph, picks, r, record_every, record_mode, tile,
        kernel_rounding, betas, n_seeds,
    ):
        kernel, rounding = kernel_rounding
        topo = GRAPHS[graph]
        switch_rounds = [
            r if SWITCH_CHOICES[i] == "r" else SWITCH_CHOICES[i] for i in picks
        ]
        params, keys, loads = _sweep_batch(topo, switch_rounds, betas, n_seeds)
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding=rounding, rounds=ROUNDS,
            record_every=record_every, record_mode=record_mode,
            tile_size=tile, kernel=kernel, seed=7,
            replica_params=params, replica_keys=keys,
        )
        engine = make_engine("batched")
        assert_same_batch(
            engine.run_batch(topo, config, loads),
            _unshared(engine, topo, config, loads),
        )

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_fig8_layout_with_speeds_and_alpha_scales(self, kernel, precision):
        topo = GRAPHS["lollipop"]
        speeds = 1.0 + np.arange(topo.n) % 3
        switch_rounds = [None, 4, 8, 4, 20]
        keys = [0, 0, 0, 1, 1]
        loads = np.tile(point_load(topo, 100 * topo.n), (5, 1))
        config = EngineConfig(
            scheme="sos", beta=1.5, rounding="randomized-excess", rounds=15,
            speeds=speeds, precision=precision, kernel=kernel, seed=2,
            replica_params=ReplicaParams(
                switch_rounds=switch_rounds, alpha_scales=0.8
            ),
            replica_keys=keys,
        )
        engine = make_engine("batched")
        assert_same_batch(
            engine.run_batch(topo, config, loads),
            _unshared(engine, topo, config, loads),
        )


class TestPlan:
    def _handle(self, switch_rounds, keys, loads=None, **kwargs):
        topo = GRAPHS["lollipop"]
        if loads is None:
            loads = np.tile(point_load(topo, 100 * topo.n), (len(keys), 1))
        config = EngineConfig(
            scheme="sos", beta=1.5, rounding="randomized-excess", rounds=10,
            replica_params=ReplicaParams(switch_rounds=switch_rounds, **kwargs),
            replica_keys=keys, seed=0,
        )
        h = make_engine("batched").prepare(topo, config, loads)
        return batched._plan_twins(h, config)

    def test_fig8_layout_runs_one_leader_per_seed(self):
        plan = self._handle([None, None, 3, 3, 6, 6], [0, 1, 0, 1, 0, 1])
        assert plan.start_cols == [0, 1]
        assert plan.forks == {3: [(0, 2), (1, 3)], 6: [(0, 4), (1, 5)]}

    def test_equal_switch_rounds_and_the_horizon_share_a_column(self):
        # 0 and 1 both fire after round 1; 99 is past the 10 rounds: never
        plan = self._handle([None, 99, 0, 1, 5, 5], [0] * 6)
        assert plan.rep_of == [0, 0, 2, 2, 4, 4]
        assert plan.start_cols == [0, 2]
        assert plan.forks == {5: [(0, 4)]}

    def test_latest_switch_leads_and_two_columns_stay_live(self):
        plan = self._handle([2, 7, 4], [0, 0, 0])
        assert plan.start_cols == [1, 0]  # the earliest fork starts live
        assert plan.forks == {4: [(1, 2)]}

    def test_no_twins_no_plan(self):
        assert self._handle([None, 3], [0, 1]) is None
        assert self._handle([None, 3], [0, 0], betas=[1.2, 1.4]) is None
        loads = np.ones((2, GRAPHS["lollipop"].n))
        loads[:, 0] = 0.0
        loads[1, 0] = -0.0  # equal, but not bit for bit
        assert self._handle([None, 3], [0, 0], loads=loads) is None

    def test_default_keys_never_plan(self):
        topo = GRAPHS["lollipop"]
        config = EngineConfig(
            rounding="randomized-excess", rounds=5,
            replica_params=ReplicaParams(switch_rounds=[None, 2]),
        )
        h = make_engine("batched").prepare(topo, config, np.ones((2, topo.n)))
        assert batched._plan_twins(h, config) is None

    def test_keep_loads_is_not_shared(self):
        topo = GRAPHS["lollipop"]
        config = EngineConfig(
            rounding="randomized-excess", rounds=6, keep_loads=True,
            replica_params=ReplicaParams(switch_rounds=[None, 2]),
            replica_keys=[0, 0],
        )
        h = make_engine("batched").prepare(
            topo, config, np.tile(point_load(topo, 100 * topo.n), (2, 1))
        )
        assert batched._plan_twins(h, config) is None

    def test_fused_loop_steps_fewer_columns(self, monkeypatch):
        topo = torus_2d(6, 6)
        params, keys, loads = _sweep_batch(topo, [None, 4, 8, 12], None, 2)
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="randomized-excess", rounds=16,
            replica_params=params, replica_keys=keys, seed=0,
        )
        engine = make_engine("batched")
        widths = []
        advance = engine._advance

        def spy(h, want_info):
            widths.append(h.n_replicas)
            advance(h, want_info)

        monkeypatch.setattr(engine, "_advance", spy)
        batch = engine.run_batch(topo, config, loads)
        # 2 columns until round 4, then 4, 6 and 8
        assert widths == [2] * 3 + [4] * 4 + [6] * 4 + [8] * 5
        assert batch.final_loads.shape == (8, topo.n)
        assert batch.switched_at.tolist() == [-1, -1, 4, 4, 8, 8, 12, 12]


class TestSharded:
    pytestmark = pytest.mark.usefixtures("fork_workers")

    def _case(self):
        topo = torus_2d(6, 6)
        params, keys, loads = _sweep_batch(topo, [None, 3, 6, 9, 3], [1.3, 1.7], 2)
        config = EngineConfig(
            scheme="sos", beta=1.6, rounding="randomized-excess", rounds=14,
            replica_params=params, replica_keys=keys, seed=4,
        )
        return topo, config, loads

    def test_sharded_twins_split_across_shards_equal_batched(self, monkeypatch):
        topo, config, loads = self._case()
        want = make_engine("batched").run_batch(topo, config, loads)
        plans = []

        def spy(*args):
            plans.append(shard_plan(*args))
            return plans[-1]

        shard_plan = pool_module._shard_plan
        monkeypatch.setattr(pool_module, "_shard_plan", spy)
        got = make_engine("batched").run_batch(
            topo, replace(config, workers=2), loads
        )
        assert [len(plan) for plan in plans] == [2]
        assert_same_batch(got, want)

    def test_pool_equals_batched(self):
        topo, config, loads = self._case()
        want = make_engine("batched").run_batch(topo, config, loads)
        with ShardedWorkerPool(workers=2) as pool:
            for _ in range(2):
                got = pool.run_batch(topo, replace(config, workers=2), loads)
                assert_same_batch(got, want)


# -- take_columns completeness ---------------------------------------------
#: lollipop(5, 4): n = 9, m = 14, dmax = 5; B = 11 divides no other size
TOPO_C = GRAPHS["lollipop"]
B_C = 11


def _replica_shaped(obj, path, found):
    """Collect the paths of arrays (and sequences) with a replica axis of
    the old width ``B_C`` (or ``B_C + 1``: the uniform offsets)."""
    if isinstance(obj, np.ndarray):
        # a flattened plane shows as a size divisible by B_C
        if obj.size % B_C == 0 or (obj.ndim == 1 and obj.size == B_C + 1):
            found.append(path)
    elif isinstance(obj, (list, tuple)):
        if len(obj) in (B_C, B_C + 1):
            found.append(path)
        for i, x in enumerate(obj):
            _replica_shaped(x, f"{path}[{i}]", found)
    elif isinstance(obj, dict):
        for k, v in obj.items():
            _replica_shaped(v, f"{path}[{k!r}]", found)
    elif isinstance(obj, StreamingStats):
        for store in ("mins", "maxs", "sums", "last"):
            _replica_shaped(getattr(obj, store), f"{path}.{store}", found)
    elif isinstance(obj, batched._SwitchState):
        _replica_shaped(vars(obj), path, found)
    elif isinstance(obj, batched._BatchedHandle):
        for k, v in vars(obj).items():
            if k not in ("topo", "config"):
                _replica_shaped(v, f"h.{k}", found)
    return found


COMPLETENESS_CASES = {
    "numpy-dense": dict(kernel="numpy"),
    "numpy-tiled-summary": dict(kernel="numpy", tile_size=7, record_mode="summary"),
    "cffi-dense": dict(kernel="cffi"),
    "cffi-tiled-summary": dict(kernel="cffi", tile_size=7, record_mode="summary"),
    "numpy-unbiased": dict(kernel="numpy", rounding="unbiased-edge"),
    "float32-keep-loads": dict(precision="float32", keep_loads=True),
    "plateau": dict(switch=("plateau", 4), replica_params=None),
}


@pytest.mark.parametrize("case", sorted(COMPLETENESS_CASES))
def test_take_columns_reindexes_every_replica_axis(case):
    kwargs = dict(
        scheme="sos", beta=1.5, rounding="randomized-excess", rounds=21,
        seed=0, speeds=1.0 + np.arange(TOPO_C.n) % 2,
        replica_params=ReplicaParams(
            switch_rounds=[None, 3] * 5 + [4],
            betas=np.linspace(1.1, 1.9, B_C),
            alpha_scales=np.linspace(0.5, 1.0, B_C),
        ),
    )
    kwargs.update(COMPLETENESS_CASES[case])
    if kwargs.get("kernel") == "cffi" and not HAVE_CFFI:
        pytest.skip("needs cffi and a C compiler")
    config = EngineConfig(**kwargs)
    loads = np.random.default_rng(0).integers(0, 50, (B_C, TOPO_C.n)).astype(float)
    engine = make_engine("batched")
    h = engine.prepare(TOPO_C, config, loads)
    assert len(_replica_shaped(h, "h", [])) > 10  # the walk sees the planes
    engine._advance(h, want_info=True)
    h.take_columns([3, 3, 0, 7])
    assert _replica_shaped(h, "h", []) == []
    assert h.n_replicas == 4
    # The re-indexed handle keeps running, and its twin columns stay twins.
    for _ in range(3):
        engine._advance(h, want_info=True)
    batch = engine.metrics(h)
    assert _bits(batch.final_loads[0]) == _bits(batch.final_loads[1])
    assert batch.final_loads.shape == (4, TOPO_C.n)


def test_take_columns_refuses_dynamic_runs():
    config = EngineConfig(rounding="floor", rounds=3, arrivals="poisson:1.0")
    h = make_engine("batched").prepare(TOPO_C, config, np.ones((2, TOPO_C.n)))
    with pytest.raises(Exception, match="static run"):
        h.take_columns([0])


def test_cloned_rng_draws_like_a_deepcopy():
    """A repeated column's generator is a clone of the original's state:
    it draws exactly what a deepcopy would, and independently of it."""
    import copy

    from repro.engines.base import rounding_stream

    original = rounding_stream(11, 4)
    original.random(5)  # mid-stream, with state past the seed
    original.integers(0, 7, 3)
    deep, witness = copy.deepcopy(original), copy.deepcopy(original)
    clone = batched._clone_rng(original)
    assert clone.bit_generator is not original.bit_generator
    for draw in (
        lambda g: g.random(9),
        lambda g: g.integers(0, 1 << 40, 6),
        lambda g: g.standard_normal(4),
    ):
        np.testing.assert_array_equal(draw(clone), draw(deep))
    # The clone's draws left the original where it was.
    np.testing.assert_array_equal(original.random(9), witness.random(9))


# -- compiled excess dispatch scratch -----------------------------------------
STACK_CASE = textwrap.dedent(
    """
    import numpy as np
    from repro.engines import EngineConfig, make_engine
    from repro.graphs import star

    topo = star(300)
    loads = np.random.default_rng(0).integers(0, 1000, (600, topo.n)).astype(float)
    out = {}
    for kernel in ("cffi", "numpy"):
        config = EngineConfig(
            scheme="fos", rounding="randomized-excess", rounds=3, seed=0,
            kernel=kernel, record_mode="summary",
        )
        out[kernel] = make_engine("batched").run_batch(topo, config, loads)
    print(np.array_equal(out["cffi"].final_loads, out["numpy"].final_loads))
    """
)


@pytest.mark.skipif(not HAVE_CFFI, reason="needs cffi and a C compiler")
def test_hub_node_wide_batch_fits_a_small_stack():
    # The hub's 299 slots x 600 replicas of cumulative fractions are 1.4
    # MB: past a 1 MiB stack, so they must not live on it.
    def small_stack():
        resource.setrlimit(resource.RLIMIT_STACK, (1 << 20, 1 << 20))

    src = os.path.join(os.path.dirname(batched.__file__), "..", "..")
    env = dict(os.environ, OMP_NUM_THREADS="1")
    env["PYTHONPATH"] = os.path.abspath(src) + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-c", STACK_CASE], preexec_fn=small_stack, env=env,
        capture_output=True, text=True, timeout=240,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.strip() == "True"
