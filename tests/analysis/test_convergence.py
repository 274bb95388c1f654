"""Tests for convergence measurement and FOS/SOS speed-up comparison."""

import numpy as np
import pytest

from repro import (
    ConfigurationError,
    FirstOrderScheme,
    LoadBalancingProcess,
    SecondOrderScheme,
    Simulator,
    beta_opt,
    point_load,
    torus_2d,
    torus_lambda,
)
from repro.analysis import (
    convergence_round,
    decay_rate,
    measured_speedup,
    predicted_speedup,
)
from repro.core.records import FLOAT_FIELDS, RecordTable
from repro.core.simulator import SimulationResult
from repro.engines import EngineConfig, make_engine


def _run(topo, kind, rounds, beta=None, seed=0):
    scheme = (
        FirstOrderScheme(topo)
        if kind == "fos"
        else SecondOrderScheme(topo, beta=beta)
    )
    proc = LoadBalancingProcess(
        scheme, rounding="randomized-excess", rng=np.random.default_rng(seed)
    )
    return Simulator(proc).run(point_load(topo, 1000 * topo.n), rounds)


class TestConvergenceRound:
    def test_finds_first_sustained_round(self, small_torus):
        result = _run(small_torus, "fos", 400)
        r1 = convergence_round(result, threshold=50.0)
        r2 = convergence_round(result, threshold=10.0)
        assert r1 is not None and r2 is not None
        assert r1 <= r2

    def test_returns_none_when_never_reached(self, small_torus):
        result = _run(small_torus, "fos", 5)
        assert convergence_round(result, threshold=1e-9) is None

    def test_sustained_requirement(self, small_torus):
        result = _run(small_torus, "fos", 300)
        loose = convergence_round(result, threshold=20.0, sustained=1)
        strict = convergence_round(result, threshold=20.0, sustained=5)
        assert loose <= strict

    def test_validation(self, small_torus):
        result = _run(small_torus, "fos", 5)
        with pytest.raises(ConfigurationError):
            convergence_round(result, sustained=0)


def _row_loop_round(result, field, threshold, sustained):
    """The record-object scan ``convergence_round`` used to run: the
    oracle for the columnar version."""
    streak = 0
    for rec in result.records:
        if getattr(rec, field) <= threshold:
            streak += 1
            if streak >= sustained:
                return rec.round_index
        else:
            streak = 0
    return None


def _table_result(values, field="max_minus_avg", every=1):
    """A result whose ``field`` column is ``values`` (others random)."""
    size = len(values)
    rng = np.random.default_rng(size)
    floats = {name: rng.uniform(0.0, 50.0, size) for name in FLOAT_FIELDS}
    floats[field] = np.asarray(values, dtype=np.float64)
    table = RecordTable.from_columns(
        np.arange(size) * every, np.full(size, "sos"), floats
    )
    return SimulationResult(table=table, final_state=None)


class TestConvergenceRoundColumnar:
    """The column scan agrees with the record-object loop it replaced."""

    @pytest.mark.parametrize("threshold", [10, 9.5, 10.25])
    def test_matches_row_loop_on_random_series(self, threshold):
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(40):
            size = int(rng.integers(1, 120))
            field = str(rng.choice(FLOAT_FIELDS))
            # runs of hits and misses, values exactly at the threshold
            # and NaNs (which never count as a hit)
            hit = rng.random(size) < rng.uniform(0.3, 0.95)
            values = np.where(
                hit, threshold - rng.uniform(0.0, 5.0, size),
                threshold + rng.uniform(0.01, 5.0, size),
            )
            values[rng.random(size) < 0.1] = threshold
            values[rng.random(size) < 0.08] = np.nan
            result = _table_result(values, field, every=int(rng.integers(1, 4)))
            for sustained in range(1, 6):
                got = convergence_round(result, field, threshold, sustained)
                want = _row_loop_round(result, field, threshold, sustained)
                assert got == want
                assert type(got) is type(want)
                checked += want is not None
        assert checked > 50  # most cases converge, so round numbers are compared

    @pytest.mark.parametrize("sustained", [1, 2, 3, 4, 5])
    def test_streaks_at_first_and_last_row(self, sustained):
        # the round reported is the one that completes the streak
        head = [1.0] * sustained + [50.0, np.nan] + [1.0] * (sustained - 1)
        result = _table_result(head, every=2)
        assert convergence_round(result, sustained=sustained) == 2 * (sustained - 1)
        assert _row_loop_round(result, "max_minus_avg", 10.0, sustained) == 2 * (
            sustained - 1
        )
        tail = [50.0, np.nan] + [1.0] * (sustained - 1) + [50.0] + [1.0] * sustained
        result = _table_result(tail, every=3)
        want = 3 * (len(tail) - 1)
        assert convergence_round(result, sustained=sustained) == want
        assert _row_loop_round(result, "max_minus_avg", 10.0, sustained) == want
        short = [1.0] * (sustained - 1) + [np.nan] + [1.0] * (sustained - 1)
        assert convergence_round(_table_result(short), sustained=sustained) is None

    def test_round_index_field(self):
        result = _table_result([5.0, 6.0, 7.0], every=4)
        for sustained in range(1, 6):
            for threshold in (0, 3.5, 4, 100.0):
                assert convergence_round(
                    result, "round_index", threshold, sustained
                ) == _row_loop_round(result, "round_index", threshold, sustained)

    def test_summary_mode_single_row(self, small_torus):
        cfg = EngineConfig(
            scheme="fos", rounding="randomized-excess", rounds=60,
            record_mode="summary",
        )
        loads = np.stack([point_load(small_torus, 1000.0 * small_torus.n)] * 2)
        for result in make_engine("batched").run(small_torus, cfg, loads):
            assert len(result.table) == 1
            last = float(result.series("max_minus_avg")[0])
            for threshold in (last, last - 0.5, 1e6):
                for sustained in range(1, 6):
                    got = convergence_round(result, threshold=threshold, sustained=sustained)
                    want = _row_loop_round(result, "max_minus_avg", threshold, sustained)
                    assert got == want
            assert convergence_round(result, threshold=last) == 60

    def test_empty_table(self):
        empty = SimulationResult(table=RecordTable(), final_state=None)
        for sustained in range(1, 6):
            assert convergence_round(empty, sustained=sustained) is None
            assert _row_loop_round(empty, "max_minus_avg", 10.0, sustained) is None

    def test_unknown_field_raises(self):
        for result in (
            _table_result([1.0, 2.0]),
            SimulationResult(table=RecordTable(), final_state=None),
        ):
            with pytest.raises(ConfigurationError, match="unknown record field"):
                convergence_round(result, field="max_minus_average")


class TestDecayRate:
    def test_pure_exponential(self):
        series = 100.0 * np.exp(-0.05 * np.arange(50))
        assert decay_rate(series) == pytest.approx(0.05, rel=1e-6)

    def test_skip_prefix(self):
        series = np.concatenate([np.full(10, 100.0), 100.0 * np.exp(-0.1 * np.arange(40))])
        rate = decay_rate(series, skip=10)
        assert rate == pytest.approx(0.1, rel=1e-6)

    def test_needs_two_positive_points(self):
        with pytest.raises(ConfigurationError):
            decay_rate([0.0, 0.0, 0.0])

    def test_continuous_fos_rate_matches_lambda(self):
        """Continuous FOS max-avg decays ~ lambda^t in the long run.

        Fit a window after transients have died but long before float noise
        dominates (the signal reaches ~1e-9 * initial by round ~90 here).
        """
        topo = torus_2d(6, 6)
        lam = torus_lambda((6, 6))
        proc = LoadBalancingProcess(FirstOrderScheme(topo))
        result = Simulator(proc).run(point_load(topo, 3600.0), rounds=80)
        series = result.series("max_minus_avg")[30:80]
        rate = decay_rate(series)
        assert rate == pytest.approx(-np.log(lam), rel=0.15)


class TestSpeedup:
    def test_predicted_formula(self):
        assert predicted_speedup(0.99) == pytest.approx(10.0)
        with pytest.raises(ConfigurationError):
            predicted_speedup(1.0)

    def test_sos_beats_fos_on_torus(self):
        topo = torus_2d(16, 16)
        lam = torus_lambda((16, 16))
        fos = _run(topo, "fos", 1500)
        sos = _run(topo, "sos", 1500, beta=beta_opt(lam))
        report = measured_speedup(fos, sos, lam, threshold=10.0)
        assert report.sos_round is not None
        assert report.fos_round is not None
        assert report.measured is not None
        assert report.measured > 1.5  # SOS clearly faster
        assert "speedup" in str(report)

    def test_speedup_none_when_unconverged(self, small_torus):
        fos = _run(small_torus, "fos", 3)
        sos = _run(small_torus, "sos", 3, beta=1.6)
        report = measured_speedup(fos, sos, 0.9, threshold=1e-9)
        assert report.measured is None
        assert "n/a" in str(report)
