"""Compiled kernel tier: bit-identity with the numpy tier everywhere.

The contract under test (see ``src/repro/kernels/__init__.py``): every
kernel provider — python, cffi — produces *bit-identical* results to the
engine's own numpy kernels for the randomized-excess rounding, across
dense/tiled/sharded execution, static and dynamic runs, B=1 and B>1,
``replica_params`` planes and both precisions; a forced provider refuses
every other rounding.  A provider that is not available in the
environment (no C compiler) is skip-marked, never failed; the pure-python
provider always runs, so the orchestration (mode resolution, RNG
streams, token walk, apply order) is validated on every machine.
"""

import numpy as np
import pytest
import scipy.sparse as sp
from dataclasses import replace
from numpy.random import default_rng

from repro import ConfigurationError, point_load, random_load, torus_2d
from repro import kernels
from repro.engines import EngineConfig, make_engine
from repro.engines.base import resolve_record_fields
from repro.graphs import random_regular_strict

TORUS = torus_2d(6, 7)
RR = random_regular_strict(40, 4, rng=default_rng(4))

EXCESS = "randomized-excess"
#: The roundings the compiled tier refuses (numpy runs them).
ELEMENTWISE = ["floor", "nearest", "ceil", "unbiased-edge"]
DISCRETE = ELEMENTWISE + [EXCESS]

PROVIDERS = [
    pytest.param(
        name,
        marks=pytest.mark.skipif(
            kernels.get_provider(name) is None,
            reason=f"kernel provider {name!r} unavailable",
        ),
    )
    for name in ("python", "cffi")
]


def _batch(topo, n_replicas=4, total=4000.0):
    rng = default_rng(11)
    rows = [point_load(topo, total)]
    rows += [random_load(topo, 100.0, rng=rng) for _ in range(n_replicas - 1)]
    return np.stack(rows)


def _run_forced(run, cfg, kernel):
    """``run(cfg)`` with ``kernel`` forced.  The compiled tier covers
    randomized-excess only, so any other rounding must be refused on this
    execution path; ``kernel="auto"`` then runs it on the numpy tier."""
    if cfg.rounding == EXCESS:
        return run(replace(cfg, kernel=kernel))
    with pytest.raises(ConfigurationError, match=EXCESS):
        run(replace(cfg, kernel=kernel))
    return run(replace(cfg, kernel="auto"))


def _assert_same_batch(ref, got, dynamic=False):
    np.testing.assert_array_equal(ref.final_loads, got.final_loads)
    np.testing.assert_array_equal(ref.final_flows, got.final_flows)
    np.testing.assert_array_equal(ref.switched_at, got.switched_at)
    cols_ref = ref.dynamic_columns if dynamic else ref.columns
    cols_got = got.dynamic_columns if dynamic else got.columns
    for key in cols_ref:
        np.testing.assert_array_equal(cols_ref[key], cols_got[key])


class TestBitIdentityStatic:
    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", DISCRETE)
    def test_dense(self, rounding, kernel):
        eng = make_engine("batched")
        loads = _batch(TORUS)
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=40,
            record_every=5, seed=3,
        )
        ref = eng.run_batch(TORUS, cfg, loads)
        got = _run_forced(
            lambda c: eng.run_batch(TORUS, c, loads), cfg, kernel
        )
        _assert_same_batch(ref, got)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", DISCRETE)
    def test_tiled(self, rounding, kernel):
        # Tiled-vs-tiled at the same tile width: the kernel rides the same
        # record/metric reductions, so the comparison is exact.
        eng = make_engine("batched")
        loads = _batch(TORUS)
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=40,
            record_every=5, seed=3, tile_size=17,
        )
        ref = eng.run_batch(TORUS, cfg, loads)
        got = _run_forced(
            lambda c: eng.run_batch(TORUS, c, loads), cfg, kernel
        )
        _assert_same_batch(ref, got)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", DISCRETE)
    def test_sharded(self, rounding, kernel):
        # Sharded workers run the compiled tier; compare per-replica
        # results against the single-process numpy batched run.
        loads = _batch(TORUS, n_replicas=6)
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=30,
            record_every=3, seed=3,
        )
        ref = make_engine("batched").run(TORUS, cfg, loads)
        sharded = make_engine("sharded")
        got = _run_forced(
            lambda c: sharded.run(TORUS, replace(c, workers=2), loads),
            cfg, kernel,
        )
        for a, b in zip(ref, got):
            np.testing.assert_array_equal(
                a.final_state.load, b.final_state.load
            )
            np.testing.assert_array_equal(
                [r.max_minus_avg for r in a.records],
                [r.max_minus_avg for r in b.records],
            )

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", ["floor", EXCESS])
    def test_b1_and_float32(self, rounding, kernel):
        eng = make_engine("batched")
        loads = _batch(TORUS)
        for precision, batch in (("float64", loads[:1]), ("float32", loads)):
            cfg = EngineConfig(
                scheme="sos", beta=1.7, rounding=rounding, rounds=40,
                record_every=5, seed=3, precision=precision,
            )
            ref = eng.run_batch(TORUS, cfg, batch)
            got = _run_forced(
                lambda c: eng.run_batch(TORUS, c, batch), cfg, kernel
            )
            _assert_same_batch(ref, got)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", DISCRETE)
    def test_speeds_fos_switch(self, rounding, kernel):
        # Non-uniform speeds (irregular graph), FOS opener, and the global
        # hybrid switch (vector beta path after the switch fires).
        eng = make_engine("batched")
        loads = _batch(RR, n_replicas=5)
        speeds = 1.0 + (np.arange(RR.n) % 3) * 0.5
        cfg = EngineConfig(
            scheme="sos", beta=1.6, rounding=rounding, rounds=30,
            record_every=3, seed=1, speeds=speeds, switch=("fixed", 10),
        )
        ref = eng.run_batch(RR, cfg, loads)
        got = _run_forced(lambda c: eng.run_batch(RR, c, loads), cfg, kernel)
        _assert_same_batch(ref, got)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", DISCRETE)
    def test_replica_params(self, rounding, kernel):
        # Per-replica betas + switch rounds + alpha scales: exercises the
        # vector-beta schedule and the broadcast alpha plane strides.
        eng = make_engine("batched")
        loads = _batch(RR, n_replicas=6)
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=30,
            record_every=3, seed=2,
            replica_params=dict(
                betas=[1.0, 1.3, 1.7, 1.9, 1.5, 1.6],
                switch_rounds=[-1, 5, 10, 15, 20, -1],
                alpha_scales=[1.0, 0.9, 0.8, 1.0, 0.7, 1.0],
            ),
        )
        ref = eng.run_batch(RR, cfg, loads)
        got = _run_forced(lambda c: eng.run_batch(RR, c, loads), cfg, kernel)
        _assert_same_batch(ref, got)


class TestBitIdentityDynamic:
    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", DISCRETE)
    @pytest.mark.parametrize(
        "arrivals", ["poisson:1.5,depart=1.0", "burst:80/4", "hotspot:1:3"]
    )
    def test_dynamic(self, rounding, arrivals, kernel):
        eng = make_engine("batched")
        loads = _batch(TORUS)
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=25, seed=5,
            arrivals=arrivals,
        )
        ref = eng.run_dynamic_batch(TORUS, cfg, loads)
        got = _run_forced(
            lambda c: eng.run_dynamic_batch(TORUS, c, loads), cfg, kernel
        )
        _assert_same_batch(ref, got, dynamic=True)


class TestConfigSurface:
    def test_validate_rejects_unknown_kernel(self):
        with pytest.raises(ConfigurationError, match="kernel"):
            EngineConfig(kernel="gpu").validate()

    def test_forced_kernel_blocked_by_identity(self):
        cfg = EngineConfig(rounding="identity", kernel="python")
        with pytest.raises(ConfigurationError, match="blocked"):
            make_engine("batched").run_batch(TORUS, cfg, _batch(TORUS))

    def test_forced_kernel_missing_names_pip_extra(self, monkeypatch):
        monkeypatch.setitem(kernels._PROVIDERS, "cffi", None)
        cfg = EngineConfig(rounding=EXCESS, kernel="cffi", rounds=2)
        with pytest.raises(ConfigurationError, match=r"repro-lb\[compiled\]"):
            make_engine("batched").run_batch(TORUS, cfg, _batch(TORUS))

    def test_auto_identity_falls_back_and_fast_path_engages(self):
        # auto + identity: silent numpy fallback; the closed-form fast path
        # must still engage (a forced kernel would have raised instead).
        eng = make_engine("batched")
        loads = _batch(TORUS)
        cfg = EngineConfig(
            rounding="identity", kernel="auto", rounds=20, record_every=5,
            record_fields=("max_minus_avg",),
        )
        ref = eng.run_batch(TORUS, replace(cfg, kernel="numpy"), loads)
        got = eng.run_batch(TORUS, cfg, loads)
        np.testing.assert_array_equal(ref.final_loads, got.final_loads)

    def test_auto_no_providers_falls_back(self, monkeypatch):
        monkeypatch.setitem(kernels._PROVIDERS, "cffi", None)
        eng = make_engine("batched")
        loads = np.tile(_batch(TORUS), (8, 1))  # a shape the rule gives cffi
        cfg = EngineConfig(rounding=EXCESS, rounds=10, record_every=2, seed=3)
        ref = eng.run_batch(TORUS, cfg, loads)
        got = eng.run_batch(TORUS, replace(cfg, kernel="auto"), loads)
        _assert_same_batch(ref, got)

    def test_reference_engine_rejects_forced_kernel(self):
        cfg = EngineConfig(rounding="floor", kernel="python", rounds=2)
        with pytest.raises(ConfigurationError, match="kernel"):
            make_engine("reference").run(TORUS, cfg, point_load(TORUS, 100))

    def test_reference_engine_tolerates_auto(self):
        cfg = EngineConfig(rounding="floor", kernel="auto", rounds=2)
        make_engine("reference").run(TORUS, cfg, point_load(TORUS, 100))

    def test_warm_up_kernels_reports_availability(self):
        out = kernels.warm_up_kernels()
        assert out["python"] is True
        assert set(out) == {"python", "cffi"}
        assert all(isinstance(v, bool) for v in out.values())

    def test_have_flag_is_a_spec_check(self):
        assert isinstance(kernels.HAVE_CFFI, bool)

    def test_get_provider_unknown_name(self):
        with pytest.raises(ValueError, match="unknown"):
            kernels.get_provider("cuda")


class TestOtherRoundingsRefused:
    """The compiled tier covers randomized-excess only."""

    @pytest.mark.parametrize("kernel", ["cffi", "python"])
    @pytest.mark.parametrize("rounding", ELEMENTWISE)
    def test_forced_provider_raises(self, rounding, kernel):
        cfg = EngineConfig(rounding=rounding, kernel=kernel, rounds=2)
        with pytest.raises(ConfigurationError, match="randomized-excess"):
            kernels.resolve_kernel(cfg, TORUS.n, TORUS.m_edges, 4)
        with pytest.raises(ConfigurationError, match="randomized-excess"):
            make_engine("batched").run_batch(TORUS, cfg, _batch(TORUS))

    @pytest.mark.parametrize("rounding", ELEMENTWISE)
    def test_auto_stays_silent_on_numpy(self, rounding, caplog, monkeypatch):
        monkeypatch.setattr(kernels, "_PROVIDERS", {})
        monkeypatch.setattr(kernels, "_FALLBACKS_LOGGED", set())
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=6, seed=3,
        )
        # a shape the rule would give to cffi under randomized-excess
        wide = np.tile(_batch(TORUS), (8, 1))
        assert TORUS.n * wide.shape[0] >= 1024
        with caplog.at_level("INFO", logger="repro.kernels"):
            assert kernels.resolve_kernel(
                cfg, TORUS.n, TORUS.m_edges, wide.shape[0]
            ) is None
            eng = make_engine("batched")
            got = eng.run_batch(TORUS, cfg, wide)
        assert not caplog.records
        assert kernels._PROVIDERS == {}
        ref = eng.run_batch(TORUS, replace(cfg, kernel="numpy"), wide)
        _assert_same_batch(ref, got)


class TestFallbackLogging:
    def test_forced_blocked_error_names_every_blocker(self):
        # identity rounding AND an edgeless topology: the error must join
        # both blockers, not report only the first.
        cfg = EngineConfig(rounding="identity", kernel="python")
        with pytest.raises(ConfigurationError) as err:
            kernels.resolve_kernel(cfg, 8, 0, 4)
        assert "identity" in str(err.value)
        assert "edgeless" in str(err.value)
        assert " and " in str(err.value)

    def test_auto_on_a_blocked_config_is_silent(self, caplog, monkeypatch):
        # The rule gives identity and edgeless runs to numpy: not a
        # fallback, so nothing is logged.
        monkeypatch.setattr(kernels, "_FALLBACKS_LOGGED", set())
        cfg = EngineConfig(rounding="identity", kernel="auto")
        with caplog.at_level("INFO", logger="repro.kernels"):
            assert kernels.resolve_kernel(cfg, 8, 0, 4) is None
        assert not caplog.records

    def test_forced_kernel_on_dynamic_run_notes_numpy_clamp(
        self, caplog, monkeypatch
    ):
        monkeypatch.setattr(kernels, "_FALLBACKS_LOGGED", set())
        cfg = EngineConfig(
            rounding=EXCESS, kernel="python", rounds=2,
            arrivals="poisson:1.5",
        )
        with caplog.at_level("INFO", logger="repro.kernels"):
            provider = kernels.resolve_kernel(cfg, TORUS.n, TORUS.m_edges, 4)
        assert provider is not None
        clamp_logs = [r for r in caplog.records if "clamp" in r.message]
        assert len(clamp_logs) == 1
        assert "numpy tier" in clamp_logs[0].message
        # one-time: a second resolve for the same provider stays quiet
        with caplog.at_level("INFO", logger="repro.kernels"):
            kernels.resolve_kernel(cfg, TORUS.n, TORUS.m_edges, 4)
        assert len([r for r in caplog.records if "clamp" in r.message]) == 1

    def test_static_forced_kernel_does_not_warn(self, caplog, monkeypatch):
        monkeypatch.setattr(kernels, "_FALLBACKS_LOGGED", set())
        cfg = EngineConfig(rounding=EXCESS, kernel="python", rounds=2)
        with caplog.at_level("INFO", logger="repro.kernels"):
            kernels.resolve_kernel(cfg, TORUS.n, TORUS.m_edges, 4)
        assert not [r for r in caplog.records if "clamp" in r.message]


class TestProviderCross:
    """Direct provider-level cross-checks, python vs each compiled one."""

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_round_edges_matches_python(self, mode, kernel):
        if kernel == "python":
            pytest.skip("python is the baseline")
        other = kernels.get_provider(kernel)
        base = kernels.get_provider("python")
        rng = default_rng(17)
        m, n, B = 60, 30, 3
        eu = rng.integers(0, n // 2, m).astype(np.int32)
        ev = (eu + 1 + rng.integers(0, n // 2 - 1, m)).astype(np.int32)
        for dtype in (np.float64, np.float32):
            load = rng.normal(50.0, 40.0, (n, B)).astype(dtype)
            speeds = (1.0 + rng.random(n)).astype(dtype)
            flows = rng.normal(0.0, 5.0, (m, B)).astype(dtype)
            alpha = np.full(1, 0.25, dtype=dtype)
            beta = np.array([1.7], dtype=dtype)
            bm1 = np.array([0.7], dtype=dtype)
            consts = np.array([0.0, 1.0, 1e-9], dtype=dtype)
            fused_alpha = rng.normal(0.0, 0.3, 2 * m).astype(dtype)
            args = dict(ar=0, ac=0, a=alpha)
            if mode == 2:
                args = dict(ar=2, ac=0, a=fused_alpha)
            outs = []
            for prov in (base, other):
                act = np.zeros((m, B), dtype=dtype)
                fsg = np.zeros((m, B), dtype=dtype)
                prov.round_edges(
                    eu, ev, load, speeds, flows, act, fsg,
                    args["a"], args["ar"], args["ac"], beta, bm1, 0,
                    mode, consts,
                )
                outs.append((act, fsg))
            np.testing.assert_array_equal(outs[0][0], outs[1][0])
            np.testing.assert_array_equal(outs[0][1], outs[1][1])

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("with_speeds", [False, True])
    @pytest.mark.parametrize("mode", [0, 1, 2])
    def test_round_edges_in_place_fractions(
        self, mode, with_speeds, dtype, kernel
    ):
        # The engine passes its flows as fsg: each flow row is read, then
        # overwritten with its fractions.  act and the fractions must equal,
        # bit for bit, those written beside the flows into a plane of
        # their own, by this provider and by the python one.
        prov = kernels.get_provider(kernel)
        base = kernels.get_provider("python")
        rng = default_rng(31)
        m, n, B = 70, 30, 5  # B = 5: a vector body and a tail
        eu = rng.integers(0, n // 2, m).astype(np.int32)
        ev = (eu + 1 + rng.integers(0, n // 2 - 1, m)).astype(np.int32)
        load = rng.normal(50.0, 40.0, (n, B)).astype(dtype)
        speeds = (1.0 + rng.random(n)).astype(dtype) if with_speeds else None
        flows = rng.normal(0.0, 5.0, (m, B)).astype(dtype)
        alpha = rng.uniform(0.05, 0.3, m * B).astype(dtype)  # per edge, replica
        beta = rng.uniform(1.2, 1.9, B).astype(dtype)
        bm1 = beta - dtype(1.0)
        consts = _consts(dtype)

        def run(p, flows, fsg):
            act = np.full((m, B), 7.0, dtype=dtype)
            p.round_edges(
                eu, ev, load, speeds, flows, act, fsg, alpha, B, 1, beta,
                bm1, 1, mode, consts,
            )
            return act

        def separate(p):
            fsg = np.full((m, B), 7.0, dtype=dtype)
            f = flows.copy()
            act = run(p, f, fsg)
            assert f.tobytes() == flows.tobytes()  # a separate fsg: read only
            return act.tobytes(), fsg.tobytes()

        want = separate(base)
        f = flows.copy()
        act = run(prov, f, f)
        assert (act.tobytes(), f.tobytes()) == want
        assert separate(prov) == want


def _incidence(topo, dtype):
    """The engine's incidence CSR ``D``, and the padded adjacency the
    provider's apply passes walk in its place."""
    from repro.engines.batched import _padded_adjacency

    dmax, adj, dirs = _padded_adjacency(topo)
    m = topo.m_edges
    ar = np.arange(m)
    D = sp.coo_matrix(
        (
            np.concatenate([-np.ones(m), np.ones(m)]).astype(dtype),
            (np.concatenate([topo.edge_u, topo.edge_v]), np.concatenate([ar, ar])),
        ),
        shape=(topo.n, m),
    ).tocsr()
    return D, (adj.ravel(), dirs.ravel(), dmax, m)


def _consts(dtype):
    return np.array([0.0, 1.0, 1e-9, 0.5], dtype=dtype)


class TestRecordProviders:
    """``record_walk``: every provider against python, and python against
    the numpy expressions the engine replaces."""

    N, M = RR.n, RR.m_edges
    EU = RR.edge_u.astype(np.int32)
    EV = RR.edge_v.astype(np.int32)
    #: node-tile widths: one tile, tiles that do and do not divide N, and
    #: one node a tile
    TILES = [N, 13, 8, 1]
    #: (metrics, mld): every row, the node metrics alone (the round-0
    #: record without a max local difference), the max local difference
    #: alone (the local-diff switch)
    ROWS = [(True, True), (True, False), (False, True)]

    @staticmethod
    def _data(dtype, B, seed=23):
        rng = default_rng(seed)
        # fractional values: every sum below depends on its order
        load = rng.normal(60.0, 45.0, (RR.n, B)).astype(dtype)
        plane = rng.normal(60.0, 5.0, (RR.n, B)).astype(dtype)
        act = rng.normal(0.0, 4.0, (RR.m_edges, B)).astype(dtype)
        return load, plane, act

    def _walk(self, prov, load, act, targets, tile, metrics, mld, dtype):
        """One walk on copies; ``(loads, info, out)`` after it, info and
        out pre-filled with 7.0."""
        _, (edges, signs, dmax, _m) = _incidence(RR, dtype)
        B = load.shape[1]
        x = load.copy()
        info = np.full((2, B), 7.0, dtype=dtype)
        out = np.full((6, B), 7.0, dtype=dtype)
        prov.record_walk(
            edges, signs, dmax, self.EU, act, x, targets, tile, metrics, mld,
            info, out, _consts(dtype),
        )
        return x, info, out

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("B", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_record_walk_metrics_match_python(self, dtype, B, kernel):
        if kernel == "python":
            pytest.skip("python is the baseline")
        other = kernels.get_provider(kernel)
        base = kernels.get_provider("python")
        load, plane, _ = self._data(dtype, B)
        for targets in (plane[:1].copy(), plane[:, :1].copy(), plane):
            for tile in self.TILES:
                for metrics, mld in self.ROWS:
                    outs = [
                        self._walk(
                            prov, load, None, targets, tile, metrics, mld,
                            dtype,
                        )
                        for prov in (base, other)
                    ]
                    for a, b in zip(*outs):
                        np.testing.assert_array_equal(a, b)
                    x, info, out = outs[1]
                    # act=None: no apply, no info; rows not asked for
                    # keep their values
                    np.testing.assert_array_equal(x, load)
                    assert (info == 7.0).all()
                    assert (out[:5] == 7.0).all() != metrics
                    assert (out[5] == 7.0).all() != mld

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("B", [1, 4])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_record_walk_apply_matches_python(self, dtype, B, kernel):
        if kernel == "python":
            pytest.skip("python is the baseline")
        other = kernels.get_provider(kernel)
        base = kernels.get_provider("python")
        load, plane, act = self._data(dtype, B)
        for tile in self.TILES:
            for metrics, mld in self.ROWS + [(False, False)]:
                outs = [
                    self._walk(
                        prov, load, act, plane, tile, metrics, mld, dtype
                    )
                    for prov in (base, other)
                ]
                for a, b in zip(*outs):
                    np.testing.assert_array_equal(a, b)

    @pytest.mark.skipif(
        kernels.get_provider("cffi") is None, reason="cffi unavailable"
    )
    def test_cffi_refuses_out_of_bounds_buffers(self):
        prov = kernels.get_provider("cffi")
        load, plane, act = self._data(np.float64, 4)
        _, (edges, signs, dmax, m) = _incidence(RR, np.float64)
        info, out = np.empty((2, 4)), np.empty((6, 4))
        c = _consts(np.float64)
        good = dict(
            adj_edges=edges, adj_signs=signs, eu=self.EU, act=act, load=load,
            targets=plane, tile=13, info=info, out=out,
        )
        bad_calls = [
            dict(adj_edges=edges[:-1]),  # padded adjacency size
            dict(eu=self.EU[:-1]),  # m, against act's rows
            dict(act=act[:, :3]),  # act columns
            dict(act=load),  # act overlapping load
            dict(targets=plane[:5]),  # targets rows
            dict(targets=plane[:, :3].copy()),  # targets columns
            dict(info=info[:1]),  # info rows
            dict(out=out[:5]),  # out rows
            dict(tile=0),  # tile width
            dict(load=load.astype(np.float32)),  # dtype
            dict(load=np.asfortranarray(load)),  # layout
        ]
        for bad in bad_calls:
            a = {**good, **bad}
            before = load.copy()
            with pytest.raises(ValueError, match="cffi kernel argument"):
                prov.record_walk(
                    a["adj_edges"], a["adj_signs"], dmax, a["eu"], a["act"],
                    a["load"], a["targets"], a["tile"], True, True,
                    a["info"], a["out"], c,
                )
            np.testing.assert_array_equal(load, before)

    @pytest.mark.skipif(
        kernels.get_provider("cffi") is None, reason="cffi unavailable"
    )
    def test_cffi_refuses_wrong_dtype_and_layout(self):
        # The cffi wrapper hands C raw bytes, so every array argument of
        # every entry point must be refused in a foreign dtype or in a
        # non-C-contiguous layout, before any C code runs.
        from repro.engines.batched import _padded_adjacency

        prov = kernels.get_provider("cffi")
        B, n, m = 4, self.N, self.M
        rng = default_rng(5)
        load, plane, act = self._data(np.float64, B)
        c = _consts(np.float64)
        dmax, adj, dirs = _padded_adjacency(RR)
        adj_edges = adj.ravel().astype(np.int32)
        adj_signs = dirs.ravel().astype(np.int8)
        fsg = rng.uniform(-0.9, 0.9, (m, B))
        counts = np.zeros((n, B), dtype=np.int32)
        totals = np.zeros(B, dtype=np.int64)
        prov.excess_counts(adj_edges, adj_signs, dmax, m, fsg, counts, totals, c)
        streams = [default_rng(10 + b) for b in range(B)]
        _, adj = _incidence(RR, np.float64)
        calls = {
            "round_edges": [
                self.EU, self.EV, load, rng.uniform(1.0, 2.0, n), act.copy(),
                np.zeros((m, B)), np.zeros((m, B)), rng.uniform(0.1, 0.2, m),
                1, 0, np.full(B, 1.5), np.full(B, 0.5), 1, 1, c,
            ],
            "excess_counts": [
                adj_edges, adj_signs, dmax, m, fsg, counts, totals, c,
            ],
            "excess_dispatch": [
                adj_edges, adj_signs, dmax, m, fsg, counts, streams,
                np.zeros((m, B)), np.empty((dmax, B)), c,
            ],
            "apply_flows": [*adj, act, load.copy()],
            "record_walk": [
                adj_edges, adj_signs, dmax, self.EU, act, load.copy(), plane,
                13, True, True, np.empty((2, B)), np.empty((6, B)), c,
            ],
        }
        foreign = {
            np.dtype(np.float64): np.float32, np.dtype(np.int64): np.int32,
            np.dtype(np.int32): np.int64, np.dtype(np.int8): np.int16,
        }
        for name, args in calls.items():
            call = getattr(prov, name)
            call(*args)  # the valid arguments run
            arrays = [a for a in args if isinstance(a, np.ndarray)]
            before = [a.copy() for a in arrays]
            for i, a in enumerate(args):
                if not isinstance(a, np.ndarray):
                    continue
                assert a.size > 1, (name, i)
                strided = (
                    np.asfortranarray(a) if a.ndim == 2 else np.repeat(a, 2)[::2]
                )
                assert not strided.flags.c_contiguous
                for bad in (a.astype(foreign[a.dtype]), strided):
                    with pytest.raises(ValueError, match="cffi kernel argument"):
                        call(*args[:i], bad, *args[i + 1:])
            for a, b in zip(arrays, before):
                np.testing.assert_array_equal(a, b)
        # The generators: one numpy Generator per replica, else refused
        # before any C code runs (no stream advances, no act changes).
        args = calls["excess_dispatch"]
        states = [g.bit_generator.state for g in streams]
        act_before = args[7].copy()
        for bad in (
            streams[:-1],  # too few
            streams + [default_rng(99)],  # too many
            streams[:-1] + [np.random.PCG64(3)],  # a bit generator
            streams[:-1] + [None],
            streams[:-1] + [streams[0]],  # one stream for two replicas
            # two Generators on one bit generator: one stream again
            streams[:-1] + [np.random.Generator(streams[0].bit_generator)],
        ):
            with pytest.raises(ValueError, match="cffi kernel argument"):
                prov.excess_dispatch(*args[:6], bad, *args[7:])
        assert [g.bit_generator.state for g in streams] == states
        np.testing.assert_array_equal(args[7], act_before)
        # int64 budgets are refused by both budget passes, which leave
        # every output unchanged
        wide = counts.astype(np.int64)
        for name in ("excess_counts", "excess_dispatch"):
            args = calls[name]
            before = [a.copy() for a in args if isinstance(a, np.ndarray)]
            with pytest.raises(ValueError, match="cffi kernel argument"):
                getattr(prov, name)(*args[:5], wide, *args[6:])
            after = [a for a in args if isinstance(a, np.ndarray)]
            for a, b in zip(after, before):
                np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_python_matches_numpy_expressions(self, dtype):
        # B > 1: numpy's axis-0 sums add row by row, the providers' order.
        B = 4
        prov = kernels.get_provider("python")
        load, plane, act = self._data(dtype, B)
        _, (edges, signs, dmax, _m) = _incidence(RR, dtype)
        for targets in (plane[:1].copy(), plane[:, :1].copy(), plane):
            out = np.empty((6, B), dtype=dtype)
            prov.record_walk(
                edges, signs, dmax, self.EU, None, load, targets, self.N,
                True, True, None, out, _consts(dtype),
            )
            dev = load - targets
            np.testing.assert_array_equal(out[0], dev.max(axis=0))
            np.testing.assert_array_equal(out[1], dev.min(axis=0))
            np.testing.assert_array_equal(out[2], (dev * dev).sum(axis=0))
            np.testing.assert_array_equal(out[3], load.min(axis=0))
            np.testing.assert_array_equal(out[4], load.sum(axis=0))
            np.testing.assert_array_equal(
                out[5], np.abs(load[self.EU] - load[self.EV]).max(axis=0)
            )
        D, adj = _incidence(RR, dtype)
        W = abs(D)
        delta = D @ act
        outgoing = W @ np.abs(act)
        x = load.copy()
        info = np.empty((2, B), dtype=dtype)
        prov.record_walk(
            *adj[:3], self.EU, act, x, plane, self.N, False, False, info,
            np.empty((6, B), dtype=dtype), _consts(dtype),
        )
        np.testing.assert_array_equal(x, load + delta)
        np.testing.assert_array_equal(
            info[0], (load - (outgoing - delta) * 0.5).min(axis=0)
        )
        np.testing.assert_array_equal(info[1], np.abs(act).sum(axis=0))


@pytest.mark.skipif(
    kernels.get_provider("cffi") is None, reason="cffi unavailable"
)
class TestRoundKernelExtents:
    """The round kernels' extent and overlap guards: a plane the C side
    would index out of bounds, or an output overlapping an input it is
    still to read, is refused before any C code runs."""

    N, M, B = RR.n, RR.m_edges, 4

    def _round_args(self):
        rng = default_rng(7)
        n, m, B = self.N, self.M, self.B
        return dict(
            eu=RR.edge_u.astype(np.int32), ev=RR.edge_v.astype(np.int32),
            load=rng.normal(60.0, 45.0, (n, B)),
            speeds=rng.uniform(1.0, 2.0, n),
            flows=rng.normal(0.0, 4.0, (m, B)), act=np.zeros((m, B)),
            fsg=np.zeros((m, B)), alpha=rng.uniform(0.1, 0.2, m), ar=1, ac=0,
            beta=np.full(B, 1.5), bm1=np.full(B, 0.5), bs=1, mode=1,
            consts=_consts(np.float64),
        )

    def _excess_args(self):
        from repro.engines.batched import _padded_adjacency

        rng = default_rng(8)
        n, m, B = self.N, self.M, self.B
        dmax, adj, dirs = _padded_adjacency(RR)
        return dict(
            adj_edges=adj.ravel().astype(np.int32),
            adj_signs=dirs.ravel().astype(np.int8), dmax=dmax, m=m,
            fsg=rng.uniform(-0.9, 0.9, (m, B)),
            counts=np.zeros((n, B), dtype=np.int32),
            totals=np.zeros(B, dtype=np.int64),
            rngs=[default_rng(20 + b) for b in range(B)],
            act=np.zeros((m, B)), cums=np.empty((dmax, B)),
            consts=_consts(np.float64),
        )

    @staticmethod
    def _refused(call, kw, **bad):
        arrays = {k: v for k, v in kw.items() if isinstance(v, np.ndarray)}
        before = {k: v.copy() for k, v in arrays.items()}
        with pytest.raises(ValueError, match="cffi kernel argument"):
            call(**{**kw, **bad})
        for k, v in arrays.items():
            np.testing.assert_array_equal(v, before[k], err_msg=k)

    def test_round_edges_runs_in_place_and_apart(self):
        prov = kernels.get_provider("cffi")
        kw = self._round_args()
        prov.round_edges(**kw)  # a separate fraction plane
        kw["fsg"] = kw["flows"]
        prov.round_edges(**kw)  # the fractions over the flows

    @pytest.mark.parametrize(
        "case",
        ["flows-rows", "fsg-rows", "act-rows", "eu-size", "ev-size",
         "load-cols", "speeds-size", "alpha-size", "beta-size", "bm1-size",
         "consts-size"],
    )
    def test_round_edges_refuses_bad_extents(self, case):
        prov = kernels.get_provider("cffi")
        kw = self._round_args()
        m, B = self.M, self.B
        bad = {
            "flows-rows": dict(flows=np.zeros((m - 1, B))),
            "fsg-rows": dict(fsg=np.zeros((m + 1, B))),
            # act sets (m, B): one edge short of eu, ev and the planes
            "act-rows": dict(act=np.zeros((m - 1, B))),
            "eu-size": dict(eu=kw["eu"][:-1].copy()),
            "ev-size": dict(ev=np.append(kw["ev"], np.int32(0))),
            "load-cols": dict(load=kw["load"][:, :-1].copy()),
            "speeds-size": dict(speeds=kw["speeds"][:-1].copy()),
            "alpha-size": dict(alpha=kw["alpha"][:-1].copy()),
            "beta-size": dict(beta=kw["beta"][:-1].copy()),
            "bm1-size": dict(bm1=kw["bm1"][:-1].copy()),
            "consts-size": dict(consts=kw["consts"][:1].copy()),
        }[case]
        self._refused(prov.round_edges, kw, **bad)

    @pytest.mark.parametrize(
        "case",
        ["fsg-is-act", "fsg-over-load", "fsg-shifted-flows", "act-is-flows",
         "act-over-load"],
    )
    def test_round_edges_refuses_overlap(self, case):
        # fsg may be flows itself, nothing else; act overlaps no input
        prov = kernels.get_provider("cffi")
        kw = self._round_args()
        n, m, B = self.N, self.M, self.B
        buf = np.zeros((m + 1, B))
        if case == "fsg-is-act":
            bad = dict(fsg=kw["act"])
        elif case == "fsg-over-load":
            bad = dict(fsg=buf[:m], load=buf[1:n + 1])
        elif case == "fsg-shifted-flows":
            buf[:m] = kw["flows"]
            bad = dict(flows=buf[:m], fsg=buf[1:])
        elif case == "act-is-flows":
            bad = dict(act=kw["flows"])
        else:
            bad = dict(act=buf[:m], load=buf[1:n + 1])
        self._refused(prov.round_edges, kw, **bad)

    @pytest.mark.parametrize(
        "case",
        ["counts-rows", "counts-cols", "adj-edges-size", "adj-signs-size",
         "dmax", "fsg-rows", "totals-size", "consts-size"],
    )
    def test_excess_counts_refuses_bad_extents(self, case):
        prov = kernels.get_provider("cffi")
        kw = self._excess_args()
        for key in ("rngs", "act", "cums"):
            del kw[key]
        n, B = self.N, self.B
        bad = {
            "counts-rows": dict(counts=np.zeros((n + 1, B), dtype=np.int32)),
            "counts-cols": dict(counts=np.zeros((n, B + 1), dtype=np.int32)),
            "adj-edges-size": dict(adj_edges=kw["adj_edges"][:-1].copy()),
            "adj-signs-size": dict(adj_signs=kw["adj_signs"][:-1].copy()),
            "dmax": dict(dmax=kw["dmax"] + 1),
            "fsg-rows": dict(fsg=kw["fsg"][:-1].copy()),
            "totals-size": dict(totals=np.zeros(B - 1, dtype=np.int64)),
            "consts-size": dict(consts=kw["consts"][:2].copy()),
        }[case]
        prov.excess_counts(**kw)  # the valid arguments run
        self._refused(prov.excess_counts, kw, **bad)

    @pytest.mark.parametrize(
        "case",
        ["counts-rows", "counts-cols", "adj-edges-size", "adj-signs-size",
         "fsg-rows", "act-rows", "act-is-fsg"],
    )
    def test_excess_dispatch_refuses_bad_extents(self, case):
        prov = kernels.get_provider("cffi")
        kw = self._excess_args()
        prov.excess_counts(
            kw["adj_edges"], kw["adj_signs"], kw["dmax"], kw["m"], kw["fsg"],
            kw["counts"], kw["totals"], kw["consts"],
        )
        assert kw["totals"].sum() > 0
        del kw["totals"]
        n, m, B = self.N, self.M, self.B
        bad = {
            "counts-rows": dict(counts=np.zeros((n - 1, B), dtype=np.int32)),
            "counts-cols": dict(counts=np.ones((n, B + 1), dtype=np.int32),
                                rngs=kw["rngs"] + [default_rng(99)]),
            "adj-edges-size": dict(adj_edges=kw["adj_edges"][:-1].copy()),
            "adj-signs-size": dict(adj_signs=kw["adj_signs"][:-1].copy()),
            "fsg-rows": dict(fsg=kw["fsg"][:-1].copy()),
            "act-rows": dict(act=np.zeros((m - 1, B))),
            "act-is-fsg": dict(act=kw["fsg"]),
        }[case]
        states = [g.bit_generator.state for g in kw["rngs"]]
        self._refused(prov.excess_dispatch, kw, **bad)
        assert [g.bit_generator.state for g in kw["rngs"]] == states

    def test_bind_generators_refuses_a_shared_generator(self):
        # One stream drawn for two replicas would not be drawn in the
        # numpy tier's replica-major order.
        prov = kernels.get_provider("cffi")
        shared = default_rng(0)
        with pytest.raises(ValueError, match="one bit generator per replica"):
            prov.bind_generators([default_rng(1), shared, shared])
        bound = prov.bind_generators([default_rng(k) for k in range(3)])
        assert len(set(bound.plane.tolist())) == len(bound) == 3

class TestRecordRounds:
    """Record columns the compiled record pass fills, against numpy."""

    @staticmethod
    def _check(cfg, kernel, topo=TORUS, loads=None):
        eng = make_engine("batched")
        loads = _batch(topo) if loads is None else loads
        for tile in (None, 11):
            c = replace(cfg, tile_size=tile)
            ref = eng.run_batch(topo, c, loads)
            got = _run_forced(
                lambda r: eng.run_batch(topo, r, loads), c, kernel
            )
            _assert_same_batch(ref, got)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("rounding", ["floor", EXCESS])
    def test_fractional_targets(self, rounding, kernel):
        # non-integral targets make the potential a non-integral sum
        loads = _batch(TORUS)
        targets = np.full(TORUS.n, loads[0].sum() / TORUS.n)
        targets[::5] += 0.37
        targets[1::5] -= 0.37
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=rounding, rounds=20,
            record_every=3, seed=3, targets=targets,
        )
        self._check(cfg, kernel, loads=loads)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize(
        "fields",
        [("potential_per_node",), ("max_minus_avg", "round_traffic"),
         ("min_transient", "max_local_diff"), ("total_load", "min_load")],
    )
    def test_trimmed_record_fields(self, fields, kernel):
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding="randomized-excess", rounds=20,
            record_every=4, seed=3, record_fields=fields,
        )
        self._check(cfg, kernel)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize(
        "fields", [None, ("max_minus_avg",)], ids=["fresh-mld", "own-mld"]
    )
    def test_local_diff_switch(self, fields, kernel):
        # The switch reads the recorded max local difference when the round
        # recorded it, and runs its own pass otherwise.
        cfg = EngineConfig(
            scheme="sos", beta=1.8, rounding="randomized-excess", rounds=40,
            record_every=1, seed=4, switch=("local-diff", 60.0, 5),
            record_fields=fields,
        )
        eng = make_engine("batched")
        loads = _batch(TORUS)
        ref = eng.run_batch(TORUS, cfg, loads)
        assert ((ref.switched_at > 0) & (ref.switched_at < 40)).any()
        self._check(cfg, kernel, loads=loads)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("precision", ["float64", "float32"])
    def test_tiled_record_walk_every_field(self, precision, kernel):
        # Four node tiles (the last one node wide), every record field,
        # records on the grid (every 3rd round) and off it (the last of
        # 31), heterogeneous speeds, and a local-diff switch that fires on
        # a record round (reading the walk's max local difference) and off
        # one (walking for its own).
        speeds = 1.0 + (np.arange(RR.n) % 3) * 0.5
        cfg = EngineConfig(
            scheme="sos", beta=1.8, rounding=EXCESS, rounds=31,
            record_every=3, seed=4, switch=("local-diff", 150.0, 2),
            speeds=speeds, tile_size=13, precision=precision,
        )
        loads = _batch(RR)
        eng = make_engine("batched")
        h = eng.prepare(RR, replace(cfg, kernel=kernel), loads)
        assert len(h.node_tiles) == 4 and h.kern_records
        ref = eng.run_batch(RR, replace(cfg, kernel="numpy"), loads)
        fired = set(ref.switched_at.tolist())
        assert any(r % 3 == 0 for r in fired if r > 0)
        assert any(r % 3 for r in fired if r > 0)
        got = eng.run_batch(RR, replace(cfg, kernel=kernel), loads)
        assert sorted(got.columns) == sorted(resolve_record_fields(None))
        _assert_same_batch(ref, got)

    @pytest.mark.parametrize("kernel", PROVIDERS)
    @pytest.mark.parametrize("tile", [None, 11])
    def test_step_protocol(self, tile, kernel):
        # step() computes the transient/traffic info pass every round.
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding="randomized-excess", rounds=12,
            record_every=4, seed=6, tile_size=tile,
        )
        loads = _batch(TORUS)
        eng = make_engine("batched")
        hs = [eng.prepare(TORUS, replace(cfg, kernel=k), loads)
              for k in ("numpy", kernel)]
        for _ in range(cfg.rounds):
            a, b = (eng.step(h) for h in hs)
            for field in ("loads", "flows", "min_transient", "traffic"):
                np.testing.assert_array_equal(getattr(a, field), getattr(b, field))
        _assert_same_batch(eng.metrics(hs[0]), eng.metrics(hs[1]))

    @pytest.mark.parametrize("kernel", PROVIDERS)
    def test_float32_totals_above_2_24(self, kernel):
        # float32 sums of these totals round: the order is part of the result
        loads = _batch(TORUS, total=3.0e7)
        loads[1:] *= 3.0e5  # 100 tokens -> 3e7, still exact in float32
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=EXCESS, rounds=20,
            record_every=2, seed=3, precision="float32",
        )
        ref = make_engine("batched").run_batch(TORUS, cfg, loads)
        assert (ref.columns["total_load"] > 2**24).all()
        self._check(cfg, kernel, loads=loads)


@pytest.mark.parametrize("kernel", PROVIDERS)
def test_hypothesis_adversarial_integer_loads(kernel):
    """numpy and the provider agree on adversarial integer load batches."""
    hypothesis = pytest.importorskip("hypothesis")
    from hypothesis import given, settings
    from hypothesis import strategies as st

    eng = make_engine("batched")
    n = TORUS.n

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.integers(min_value=-500, max_value=10_000),
            min_size=n, max_size=n,
        ),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def check(values, seed):
        loads = np.array([values, values[::-1]], dtype=np.float64)
        cfg = EngineConfig(
            scheme="sos", beta=1.7, rounding=EXCESS, rounds=12,
            record_every=3, seed=seed,
        )
        ref = eng.run_batch(TORUS, cfg, loads)
        got = eng.run_batch(TORUS, replace(cfg, kernel=kernel), loads)
        _assert_same_batch(ref, got)

    check()
