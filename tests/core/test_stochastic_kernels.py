"""Statistical tests for the stochastic kernels, at fixed seeds.

Two kernels carry the dynamic/stochastic machinery and are checked against
their *target distributions* (not just for conservation):

* the batched engine's sort-free multinomial excess-token rounding — by
  Observation 1 each of a sender's ``c = ceil(r)`` excess tokens lands on
  outgoing edge ``j`` with probability ``{Yhat_j} / c`` and stays home
  otherwise, so the per-edge counts over many trials form a multinomial
  whose cell probabilities are the fractional flow parts.  A chi-square
  test at a fixed seed verifies the routing probabilities, and the sample
  mean verifies unbiasedness (``E[act] == sched``);
* ``PoissonArrivals`` sampling — moments and a binned chi-square against
  the Poisson pmf.

All draws use fixed seeds, so these tests are deterministic; the acceptance
thresholds are the 99.9% chi-square quantiles (they would flag a broken
kernel, not an unlucky stream).
"""

import numpy as np
import pytest
from scipy import stats

from repro import PoissonArrivals, arrival_stream, star, torus_2d, uniform_load
from repro.engines import EngineConfig
from repro.engines.batched import BatchedVectorEngine


# ----------------------------------------------------------------------
# sort-free multinomial excess-token rounding (batched engine kernel)
# ----------------------------------------------------------------------
def _excess_handle(seed=13):
    """A numpy-tier batched handle on the 5-node star: node 0 sends on all
    4 edges (``_round_flows`` is the numpy tier's rounding entry point)."""
    topo = star(5)
    engine = BatchedVectorEngine()
    config = EngineConfig(
        scheme="sos", beta=1.5, rounding="randomized-excess", rounds=1,
        seed=seed, kernel="numpy",
    )
    handle = engine.prepare(topo, config, uniform_load(topo, 10))
    return engine, handle


def test_excess_rounding_multinomial_chisquare():
    """Token routing matches the multinomial target: edge j with
    probability f_j / c, staying home with 1 - r / c."""
    engine, handle = _excess_handle()
    fracs = np.array([0.7, 0.6, 0.5, 0.4])  # surplus r = 2.2 -> c = 3
    r = fracs.sum()
    c = float(np.ceil(r))
    sched = np.empty((4, 1))
    trials = 4000
    edge_tokens = np.zeros(4)
    for _ in range(trials):
        sched[:, 0] = fracs
        act = engine._round_flows(handle, sched)
        counts = act[:, 0]
        assert np.all(counts >= 0.0) and np.all(counts == np.round(counts))
        assert counts.sum() <= c
        edge_tokens += counts
    total = trials * c
    observed = np.append(edge_tokens, total - edge_tokens.sum())
    probs = np.append(fracs / c, 1.0 - r / c)
    expected = total * probs
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    # df = 5 categories - 1; 99.9% quantile
    assert chi2 < stats.chi2.ppf(0.999, df=4), (chi2, observed, expected)
    # Unbiasedness (Observation 1): the mean actual flow is the schedule.
    mean_act = edge_tokens / trials
    sigma = np.sqrt(probs[:4] * (1 - probs[:4]) * c / trials)
    assert np.all(np.abs(mean_act - fracs) < 5.0 * sigma)


def test_excess_rounding_zero_surplus_sends_nothing():
    engine, handle = _excess_handle()
    sched = np.full((4, 1), 2.0)  # integral flows: no fractional surplus
    act = engine._round_flows(handle, sched)
    np.testing.assert_array_equal(act[:, 0], sched[:, 0])


def test_excess_rounding_single_edge_is_bernoulli():
    """One outgoing fraction f: the token moves with probability exactly f."""
    engine, handle = _excess_handle(seed=29)
    f = 0.3
    sched = np.zeros((4, 1))
    trials = 5000
    moved = 0
    for _ in range(trials):
        sched[0, 0] = f
        sched[1:, 0] = 0.0
        act = engine._round_flows(handle, sched)
        assert act[0, 0] in (0.0, 1.0)
        assert np.all(act[1:, 0] == 0.0)
        moved += int(act[0, 0])
    sigma = np.sqrt(f * (1 - f) / trials)
    assert abs(moved / trials - f) < 5.0 * sigma


def test_excess_rounding_batch_columns_are_independent():
    """Replicas draw from per-replica spawned streams and must stay
    exchangeable: per-column token totals all hit the same ceil(r) budget
    and the joint mean matches the schedule."""
    topo = star(5)
    engine = BatchedVectorEngine()
    B = 64
    config = EngineConfig(
        scheme="sos", beta=1.5, rounding="randomized-excess", rounds=1, seed=7,
        kernel="numpy",
    )
    handle = engine.prepare(
        topo, config, np.tile(uniform_load(topo, 10), (B, 1))
    )
    fracs = np.array([0.25, 0.25, 0.25, 0.25])  # r = 1.0 -> c = 1
    trials = 800
    totals = np.zeros(B)
    for _ in range(trials):
        sched = np.tile(fracs[:, None], (1, B))
        act = engine._round_flows(handle, sched)
        totals += act.sum(axis=0)
    # every replica moves its single token with probability r / c = 1
    np.testing.assert_array_equal(totals, np.full(B, float(trials)))


# ----------------------------------------------------------------------
# PoissonArrivals sampling
# ----------------------------------------------------------------------
def test_poisson_arrivals_moments():
    topo = torus_2d(8, 8)
    model = PoissonArrivals(rate=3.0)
    rng = arrival_stream(123, 0)
    draws = np.concatenate(
        [model.deltas(topo, t, rng) for t in range(400)]
    )
    k = draws.size  # 25600 samples
    assert np.all(draws >= 0.0) and np.all(draws == np.round(draws))
    sigma_mean = np.sqrt(3.0 / k)
    assert abs(draws.mean() - 3.0) < 5.0 * sigma_mean
    # Poisson: variance == mean (4-sigma band for the sample variance)
    var_sigma = np.sqrt((3.0 + 2.0 * 3.0**2) / k)
    assert abs(draws.var() - 3.0) < 5.0 * var_sigma


def test_poisson_arrivals_chisquare_against_pmf():
    topo = torus_2d(8, 8)
    model = PoissonArrivals(rate=3.0)
    rng = arrival_stream(7, 0)
    draws = np.concatenate(
        [model.deltas(topo, t, rng) for t in range(400)]
    ).astype(np.int64)
    top = 10  # bins 0..9 plus a >= 10 tail
    observed = np.bincount(np.minimum(draws, top), minlength=top + 1)
    probs = stats.poisson.pmf(np.arange(top), 3.0)
    probs = np.append(probs, 1.0 - probs.sum())
    expected = draws.size * probs
    chi2 = float(((observed - expected) ** 2 / expected).sum())
    assert chi2 < stats.chi2.ppf(0.999, df=top), (chi2, observed, expected)


def test_poisson_departures_mean_shift():
    """With departures the deltas are a Skellam-like difference: the mean
    shifts to rate - departure_rate while arrivals/departures stay integral."""
    topo = torus_2d(8, 8)
    model = PoissonArrivals(rate=4.0, departure_rate=1.5)
    rng = arrival_stream(99, 0)
    draws = np.concatenate(
        [model.deltas(topo, t, rng) for t in range(400)]
    )
    k = draws.size
    sigma_mean = np.sqrt((4.0 + 1.5) / k)
    assert abs(draws.mean() - 2.5) < 5.0 * sigma_mean
    assert np.all(draws == np.round(draws))


def test_poisson_stream_layout_is_reproducible_and_independent():
    topo = torus_2d(4, 4)
    model = PoissonArrivals(rate=2.0)
    a = model.deltas(topo, 0, arrival_stream(5, 0))
    b = model.deltas(topo, 0, arrival_stream(5, 0))
    c = model.deltas(topo, 0, arrival_stream(5, 1))
    np.testing.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


# ----------------------------------------------------------------------
# Batch-wide arrival sampling (inverse-CDF / net-delta tables)
# ----------------------------------------------------------------------

def test_batch_poisson_inverse_cdf_chisquare():
    """The tabulated inverse-CDF sampler is Poisson to chi-square scrutiny."""
    from repro.core.dynamic import batch_arrival_stream

    topo = torus_2d(24, 24)
    model = PoissonArrivals(rate=3.0)
    counts = model.batch_deltas(
        topo, 0, batch_arrival_stream(0), 200
    ).ravel().astype(int)
    kmax = counts.max()
    observed = np.bincount(counts, minlength=kmax + 1).astype(float)
    expected = stats.poisson.pmf(np.arange(kmax + 1), 3.0) * counts.size
    expected[-1] += (1.0 - stats.poisson.cdf(kmax, 3.0)) * counts.size
    mask = expected > 5
    chi2 = ((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    pvalue = 1.0 - stats.chi2.cdf(chi2, mask.sum() - 1)
    assert pvalue > 0.005, (chi2, pvalue)


def test_batch_net_delta_is_skellam_chisquare():
    """With departures, the single net-delta draw follows the exact
    difference (Skellam) distribution of the two Poisson laws."""
    from repro.core.dynamic import batch_arrival_stream

    topo = torus_2d(24, 24)
    model = PoissonArrivals(rate=3.0, departure_rate=2.0)
    deltas = model.batch_deltas(
        topo, 0, batch_arrival_stream(1), 300
    ).ravel().astype(int)
    lo, hi = deltas.min(), deltas.max()
    observed = np.bincount(deltas - lo, minlength=hi - lo + 1).astype(float)
    expected = stats.skellam.pmf(np.arange(lo, hi + 1), 3.0, 2.0) * deltas.size
    mask = expected > 5
    chi2 = ((observed[mask] - expected[mask]) ** 2 / expected[mask]).sum()
    pvalue = 1.0 - stats.chi2.cdf(chi2, mask.sum() - 1)
    assert pvalue > 0.005, (chi2, pvalue)
    assert abs(deltas.mean() - 1.0) < 0.05
    assert abs(deltas.var() - 5.0) < 0.2


def test_batch_large_rate_falls_back_to_generator():
    from repro.core.dynamic import batch_arrival_stream

    topo = torus_2d(8, 8)
    model = PoissonArrivals(rate=100.0, departure_rate=90.0)
    deltas = model.batch_deltas(topo, 0, batch_arrival_stream(2), 100)
    assert abs(deltas.mean() - 10.0) < 1.0
