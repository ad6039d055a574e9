import math

import numpy as np
import pytest

from simocap import alloc as alloc_module
from simocap.alloc import PowerAllocation, equal_power, optimal_allocation, waterfill
from simocap.channel import ParallelChannel, build_decay_profile
from simocap.rates import exact_rate, jensen_upper, snr_db_to_power
from simocap.specfun import NumericError, gamma_expectation_batch


def test_waterfill_single_channel():
    alloc = waterfill([2.0], n0=1.0, p_total=3.0)
    assert np.allclose(alloc.powers, [3.0])
    assert math.isclose(alloc.water_level, 3.0 + 0.5, rel_tol=1e-15)


def test_waterfill_two_channel_hand_solution():
    alloc = waterfill([1.0, 2.0], n0=1.0, p_total=1.0)
    assert np.allclose(alloc.powers, [0.25, 0.75], rtol=0, atol=1e-12)
    assert abs(alloc.water_level - 1.25) <= 1e-12


def test_waterfill_with_inactive_channel():
    alloc = waterfill([1.0, 4.0, 0.1], n0=1.0, p_total=1.0)
    assert np.allclose(alloc.powers, [0.125, 0.875, 0.0], rtol=0, atol=1e-12)
    assert abs(alloc.water_level - 1.125) <= 1e-12


def test_waterfill_rejects_nonpositive_gains():
    with pytest.raises(ValueError):
        waterfill([1.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        waterfill([1.0, -2.0], 1.0, 1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_waterfill_and_equal_power_reject_a_bad_noise_or_budget(value):
    # the same wording as ParallelChannel's checks of n0 and p_total
    message = f"must be positive and finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^n0 {message}$"):
        waterfill([1.0, 2.0], value, 1.0)
    with pytest.raises(ValueError, match=f"^p_total {message}$"):
        waterfill([1.0, 2.0], 1.0, value)
    with pytest.raises(ValueError, match=f"^p_total {message}$"):
        equal_power(2, value)


def test_waterfill_leaves_a_subchannel_with_an_overflowing_threshold_unpowered():
    # n0/g overflows for g = 1e-320: that threshold is infinite, silently
    alloc = waterfill([1.0, 1e-320], 1.0, 1.0)
    assert np.array_equal(alloc.powers, [1.0, 0.0])
    assert alloc.water_level == 2.0
    with pytest.raises(ValueError, match="overflows for every gain"):
        waterfill([1e-320, 2e-320], 1.0, 1.0)


def test_waterfill_scale_invariance():
    gains = np.array([0.3, 1.1, 2.7, 0.9])
    a = waterfill(gains, n0=1.0, p_total=2.0)
    b = waterfill(gains * 7.5, n0=7.5, p_total=2.0)
    assert np.array_equal(a.powers, b.powers)


def test_waterfill_budget_and_complementary_slackness():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        gains = 10 ** rng.uniform(-1, 1, size=n)
        n0 = 10 ** rng.uniform(-0.5, 0.5)
        p_total = 10 ** rng.uniform(-1, 1)
        alloc = waterfill(gains, n0, p_total)
        assert abs(alloc.total - p_total) <= 1e-12 * p_total
        nu = alloc.water_level
        thresholds = n0 / gains
        for p, t in zip(alloc.powers, thresholds):
            if p > 0.0:
                assert abs(p - (nu - t)) <= 1e-12 * max(1.0, nu)
            else:
                assert nu <= t * (1.0 + 1e-12)


def test_waterfill_ties_activate_together():
    alloc = waterfill([1.0, 1.0, 4.0], n0=1.0, p_total=0.9)
    assert alloc.powers[0] == alloc.powers[1]


def test_waterfill_beats_random_feasible_allocations():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        mu = 10 ** rng.uniform(-1, 1, size=n)
        n0 = 1.0
        p_total = 10 ** rng.uniform(-0.5, 1)
        best = float(np.log1p(waterfill(mu, n0, p_total).powers * mu / n0).sum())
        candidates = rng.dirichlet(np.ones(n), size=1000) * p_total
        values = np.log1p(candidates * mu / n0).sum(axis=1)
        assert best >= values.max() - 1e-12


def test_equal_power_basics():
    alloc = equal_power(4, 1.0)
    assert np.array_equal(alloc.powers, np.full(4, 0.25))
    assert alloc.total == 1.0
    single = equal_power(1, 2.5)
    assert np.array_equal(single.powers, [2.5])
    with pytest.raises(ValueError):
        equal_power(0, 1.0)


def test_power_allocation_validation():
    with pytest.raises(ValueError):
        PowerAllocation(powers=np.array([1.0, -0.1]))
    with pytest.raises(ValueError):
        PowerAllocation(powers=np.array([[1.0]]))


def test_optimal_allocation_symmetric_channel_is_equal_power():
    ch = ParallelChannel(theta=[0.5, 0.5, 0.5], shape=2.0, n0=1.0, p_total=3.0)
    alloc = optimal_allocation(ch)
    assert np.allclose(alloc.powers, 1.0, rtol=1e-6)
    assert math.isclose(alloc.total, 3.0, rel_tol=1e-12)


def test_optimal_allocation_matches_grid_search():
    ch = ParallelChannel(theta=[1.0, 0.25], shape=2.0, n0=1.0, p_total=1.0)
    alloc = optimal_allocation(ch)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    best_p1, best_val = 0.0, -math.inf
    for p1 in grid:
        val = exact_rate(ch, PowerAllocation(np.array([p1, 1.0 - p1])))
        if val > best_val:
            best_p1, best_val = p1, val
    assert abs(alloc.powers[0] - best_p1) <= 5e-3
    assert abs(alloc.powers[1] - (1.0 - best_p1)) <= 5e-3


def test_optimal_allocation_dominates_simpler_strategies():
    rng = np.random.default_rng(3)
    for _ in range(20):
        subs = [
            (
                10 ** rng.uniform(-1, 1),
                float(rng.choice([0.5, 1.0, 2.0])) * int(rng.integers(1, 5)),
            )
            for _ in range(2)
        ]
        ch = ParallelChannel(*zip(*subs), n0=1.0, p_total=10 ** rng.uniform(-0.5, 1.0))
        opt = optimal_allocation(ch)
        swf = waterfill(ch.mean_gains, ch.n0, ch.p_total)
        eq = equal_power(ch.n, ch.p_total)
        opt_rate = exact_rate(ch, opt)
        assert opt_rate >= exact_rate(ch, swf) - 1e-9
        assert opt_rate >= exact_rate(ch, eq) - 1e-9


def test_optimal_allocation_flattens_with_diversity():
    def channel_for(L):
        return ParallelChannel(theta=[0.4, 0.8, 1.2, 1.6], shape=1.0 * L, n0=1.0, p_total=4.0)

    deviations = []
    for L in (2, 64):
        powers = optimal_allocation(channel_for(L)).powers
        deviations.append(np.max(np.abs(powers - 1.0)))
    assert deviations[1] < deviations[0]


def test_optimal_allocation_objective_beats_waterfilling_jensen_gap():
    # the optimum can only lose to waterfilling on the Jensen surrogate,
    # never on the exact objective
    ch = ParallelChannel(theta=[2.0, 0.1], shape=[0.5 * 1, 2.0 * 3], n0=1.0, p_total=2.0)
    opt = optimal_allocation(ch)
    swf = waterfill(ch.mean_gains, ch.n0, ch.p_total)
    assert exact_rate(ch, opt) >= exact_rate(ch, swf) - 1e-9
    assert jensen_upper(ch, swf) >= jensen_upper(ch, opt) - 1e-12


def _assert_kkt(ch, powers):
    # At the optimum the active marginal utilities E[g/(n0 + p*g)] share one
    # value lam, and every inactive subchannel's marginal at p = 0, mu/n0,
    # is at most lam.  The solver stops once the active marginals agree to
    # 1e-12 relative.
    active = powers > 0.0
    marginals = np.array(
        [
            gamma_expectation_batch(lambda g, rows, p=p: g / (ch.n0 + p * g), [shape], [theta])[0]
            for shape, theta, p in zip(ch.shape[active], ch.theta[active], powers[active])
        ]
    )
    lam = marginals.max()
    assert lam - marginals.min() <= 1e-12 * lam
    assert np.all(ch.mean_gains[~active] / ch.n0 <= lam)
    assert math.isclose(powers.sum(), ch.p_total, rel_tol=1e-12)
    return active


def test_optimal_allocation_meets_kkt_on_mixed_shapes():
    # Shapes m*L from {0.5, 1, 2} x {1, 3, 8}, mean gains over two decades,
    # so that about half of the subchannels are shut off.
    ms, ls = (0.5, 1.0, 2.0), (1, 3, 8)
    subs = []
    for i, mu in enumerate(np.geomspace(0.02, 3.0, 16)):
        m, L = ms[i % 3], ls[(i // 3) % 3]
        subs.append((mu / (m * L), m * L))
    ch = ParallelChannel(*zip(*subs), n0=1.0, p_total=16.0)
    active = _assert_kkt(ch, optimal_allocation(ch).powers)
    assert 2 <= active.sum() < ch.n


@pytest.mark.parametrize(
    "m, snr_db, n_active",
    [(0.5, 20.0, 588), (1.0, -20.0, 163)],
    ids=["m0.5-20dB", "m1--20dB"],
)
def test_optimal_allocation_meets_kkt_on_588_bin_profiles(m, snr_db, n_active):
    # the two slowest solves of the former multiplier bisection
    ch = build_decay_profile(588, 5e9, 6e9, 3.0, m=m, L=1, n0=1.0, p_total=1.0)
    ch = ch.with_power(snr_db_to_power(ch.n, ch.n0, snr_db))
    active = _assert_kkt(ch, optimal_allocation(ch).powers)
    assert active.sum() == n_active


def test_optimal_allocation_raises_at_the_iteration_cap(monkeypatch):
    ch = ParallelChannel(theta=[2.0, 0.1], shape=[0.5 * 1, 2.0 * 3], n0=1.0, p_total=2.0)
    _assert_kkt(ch, optimal_allocation(ch).powers)
    # with a cap of 1 the solver only evaluates statistical waterfilling,
    # which is not optimal here
    monkeypatch.setattr(alloc_module, "_ITER_CAP", 1)
    with pytest.raises(NumericError, match="did not converge"):
        optimal_allocation(ch)


def test_waterfill_is_the_unit_slope_active_set_solution():
    # ties included: every third gain repeats
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        gains = np.repeat(10 ** rng.uniform(-2, 2, size=n), 3)[: 2 * n]
        n0, p_total = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-3, 3)
        alloc = waterfill(gains, n0, p_total)
        thresholds = n0 / gains
        order = np.argsort(thresholds, kind="stable")
        k = np.arange(1, gains.size + 1, dtype=float)
        nu_candidates = (p_total + np.cumsum(thresholds[order])) / k
        k_star = int(np.flatnonzero(nu_candidates > thresholds[order]).max()) + 1
        nu = float(nu_candidates[k_star - 1])
        expected = np.zeros(gains.size)
        expected[order[:k_star]] = nu - thresholds[order][:k_star]
        assert alloc.water_level == nu
        assert np.array_equal(alloc.powers, expected)
