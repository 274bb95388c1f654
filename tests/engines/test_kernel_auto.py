"""``kernel="auto"``: one measured rule picks the provider per batch shape.

The default kernel tier runs the cffi provider only where
:func:`repro.kernels.compiled_pays` says it pays (``randomized-excess``,
``B >= 2``, ``n * B >= 1024``) and the numpy tier everywhere else.  Under
test here: the rule against what a prepared handle actually runs, that a
run the rule gives to numpy neither loads a provider nor logs, that a
pooled sweep leaves its parent free to ``fork``, and that processes
building the cffi extension at once on a cold cache all get it.
"""

import logging
import multiprocessing
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from repro import kernels, random_load, torus_2d
from repro.core.churn import ChurnSchedule, node_crash
from repro.engines import EngineConfig, make_engine
from repro.engines.base import usable_cpus
from repro.engines.batched import BatchedVectorEngine

T32 = torus_2d(32, 32)
T8 = torus_2d(8, 8)

HAVE_CFFI_PROVIDER = kernels.get_provider("cffi") is not None
SRC = os.path.join(os.path.dirname(__file__), "..", "..", "src")


def _loads(topo, B):
    rng = np.random.default_rng(3)
    return np.stack([random_load(topo, 50.0 * topo.n, rng=rng) for _ in range(B)])


class TestRule:
    @pytest.mark.parametrize(
        "rounding, topo, B, pays",
        [
            ("randomized-excess", T32, 2, True),  # n * B = 2048
            ("randomized-excess", T8, 16, True),  # n * B = 1024
            ("randomized-excess", T8, 8, False),  # n * B = 512
            ("randomized-excess", T32, 1, False),  # one replica
            ("floor", T32, 8, False),
            ("nearest", T32, 8, False),
            ("ceil", T32, 8, False),
            ("unbiased-edge", T32, 8, False),
            ("identity", T32, 8, False),
        ],
    )
    def test_handle_runs_what_the_rule_picks(self, rounding, topo, B, pays):
        assert kernels.compiled_pays(rounding, topo.n, topo.m_edges, B) is pays
        cfg = EngineConfig(scheme="sos", beta=1.5, rounding=rounding, rounds=1)
        handle = BatchedVectorEngine().prepare(topo, cfg, _loads(topo, B))
        want = "cffi" if pays and HAVE_CFFI_PROVIDER else None
        assert (handle.kernel.name if handle.kernel else None) == want

    def test_threshold_boundaries(self):
        pays = kernels.compiled_pays
        assert pays("randomized-excess", 512, 1024, 2)
        assert not pays("randomized-excess", 511, 1022, 2)
        assert not pays("randomized-excess", 4096, 8192, 1)
        assert not pays("randomized-excess", 4096, 0, 4)  # edgeless

    def test_forced_provider_ignores_the_rule(self):
        cfg = EngineConfig(rounding="randomized-excess", kernel="python")
        provider = kernels.resolve_kernel(cfg, T8.n, T8.m_edges, 1)
        assert provider is kernels.get_provider("python")

    def test_default_is_auto(self):
        assert EngineConfig().kernel == "auto"


class TestLoadingAndLogging:
    def test_default_churn_and_identity_runs_load_no_provider(
        self, monkeypatch, caplog
    ):
        monkeypatch.setattr(kernels, "_PROVIDERS", {})
        monkeypatch.setattr(kernels, "_FALLBACKS_LOGGED", set())
        loads = _loads(T32, 4)
        # The rule would pick cffi for this shape; churn cannot use it.
        assert kernels.compiled_pays("randomized-excess", T32.n, T32.m_edges, 4)
        churn = ChurnSchedule(
            events=[node_crash(5, 2, recover_at=4)], policy="handoff"
        )
        engine = make_engine("batched")
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            engine.run(T32, EngineConfig(
                rounding="randomized-excess", rounds=6, churn=churn, seed=1,
            ), loads)
            engine.run(T32, EngineConfig(rounding="identity", rounds=6), loads)
            engine.run(T32, EngineConfig(
                rounding="identity", rounds=6, fast_path="never",
            ), loads)
        assert kernels._PROVIDERS == {}
        assert not kernels.fork_unsafe_loaded()
        assert not [r for r in caplog.records if r.name == "repro.kernels"]

    def test_missing_provider_logs_once(self, monkeypatch, caplog):
        monkeypatch.setitem(kernels._PROVIDERS, "cffi", None)
        monkeypatch.setattr(kernels, "_FALLBACKS_LOGGED", set())
        cfg = EngineConfig(rounding="randomized-excess")
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            assert kernels.resolve_kernel(cfg, 1024, 2048, 4) is None
            assert kernels.resolve_kernel(cfg, 1024, 2048, 4) is None
        [record] = caplog.records
        assert "no compiled provider" in record.message

    def test_auto_dynamic_run_has_no_clamp_notice(self, monkeypatch, caplog):
        # The clamp notice is for an explicitly forced provider only.
        monkeypatch.setattr(kernels, "_FALLBACKS_LOGGED", set())
        cfg = EngineConfig(rounding="randomized-excess", arrivals="poisson:1.5")
        with caplog.at_level(logging.INFO, logger="repro.kernels"):
            kernels.resolve_kernel(cfg, 1024, 2048, 4)
        assert not [r for r in caplog.records if "clamp" in r.message]


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods()
    or not HAVE_CFFI_PROVIDER,
    reason="needs fork and the cffi provider",
)
def test_pooled_excess_calls_load_no_provider_in_parent():
    """Pool and multi-shard workers run the compiled tier on their own
    shard width; the parent loads nothing, so its later workers still
    start with fork.  A single-shard plan runs in the parent and does.

    A fresh interpreter: this test process may already have run OpenMP,
    and a forked worker entering it again would hang.
    """
    script = textwrap.dedent("""
        from dataclasses import replace
        import numpy as np
        from repro import kernels, point_load, torus_2d
        from repro.engines import EngineConfig, ShardedWorkerPool, make_engine
        from repro.engines.sharded import _start_method

        topo = torus_2d(32, 32)
        loads = np.tile(point_load(topo, 64.0 * topo.n), (4, 1))
        cfg = EngineConfig(
            scheme="sos", beta=1.8, rounding="randomized-excess",
            rounds=10, seed=3, workers=1,
        )
        assert kernels.compiled_pays(cfg.rounding, topo.n, topo.m_edges, 4)
        with ShardedWorkerPool(workers=1) as pool:
            runs = [pool.run_batch(topo, cfg, loads) for _ in range(2)]
        # Per-call shards in worker processes: the parent loads nothing.
        sharded = make_engine("sharded")
        wide = np.tile(loads, (2, 1))
        shards = sharded.run(topo, replace(cfg, workers=2), wide)
        assert not kernels.fork_unsafe_loaded()
        assert _start_method() == "fork", _start_method()
        ref = make_engine("batched").run_batch(
            topo, replace(cfg, kernel="numpy", workers=None), wide
        )
        for got in runs:
            assert np.array_equal(got.final_loads, ref.final_loads[:4])
        for b, result in enumerate(shards):
            assert np.array_equal(result.final_state.load, ref.final_loads[b])
        assert kernels._PROVIDERS == {}
        # The documented exception: a single-shard plan runs in-process,
        # so its shard loads the provider here and later workers switch
        # to forkserver.
        sharded.run(topo, cfg, loads)
        assert kernels.fork_unsafe_loaded()
        assert _start_method() != "fork"
        print("ok")
    """)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    env.pop("REPRO_SHARDED_START", None)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "ok"


@pytest.mark.skipif(not HAVE_CFFI_PROVIDER, reason="needs cffi and a C compiler")
def test_concurrent_cold_builds_all_get_the_provider(tmp_path):
    """Processes compiling the extension into one empty cache at once
    each import a complete module, never another's half-written one."""
    code = textwrap.dedent("""
        from repro.kernels import get_provider
        assert get_provider("cffi") is not None
    """)
    env = dict(
        os.environ, PYTHONPATH=os.path.abspath(SRC),
        REPRO_KERNEL_CACHE=str(tmp_path),
    )
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", code], env=env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )
        for _ in range(4)
    ]
    errors = [p.communicate(timeout=240)[1] for p in procs]
    assert [p.returncode for p in procs] == [0] * 4, errors
    # Only the finished module is left: no build directories, no objects.
    [entry] = os.listdir(tmp_path)
    assert entry.endswith(".so")


@pytest.mark.skipif(not HAVE_CFFI_PROVIDER, reason="needs cffi and a C compiler")
def test_workers_cap_their_kernel_threads():
    """Each pool or shard worker runs its compiled kernels on its share of
    the CPUs, whether its provider loads before or after the cap.

    A fresh interpreter: the cap is process-wide and would follow this
    test process's later compiled runs.
    """
    script = textwrap.dedent("""
        import multiprocessing
        from repro import kernels
        from repro.engines.pool import _pool_worker
        from repro.engines.sharded import _worker_threads

        # Worker entry points cap before the provider loads ...
        parent, child = multiprocessing.Pipe()
        parent.send(None)
        _pool_worker(child, "unused", 1)
        assert kernels._THREAD_LIMIT == 1
        provider = kernels.get_provider("cffi")
        assert provider.limit_threads(1 << 20) == 1
        # ... and a cap also reaches a provider already loaded.
        kernels.limit_threads(1 << 20)
        assert provider.limit_threads(1 << 20) == 1
        print(_worker_threads(1), _worker_threads(2), _worker_threads(1 << 20))
    """)
    env = dict(os.environ, PYTHONPATH=os.path.abspath(SRC))
    env.pop("OMP_NUM_THREADS", None)
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env, capture_output=True, text=True, timeout=240,
    )
    assert out.returncode == 0, out.stderr
    one, two, many = map(int, out.stdout.split())
    assert one == usable_cpus()
    assert two == max(1, one // 2) and many == 1
