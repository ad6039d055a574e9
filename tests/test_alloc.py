import math
import tracemalloc
import warnings

import numpy as np
import pytest
from gamma_mean import gamma_mean

from simocap import alloc as alloc_module, channel as channel_module, specfun
from simocap.alloc import equal_power, optimal_allocation, waterfill
from simocap.channel import ParallelChannel, build_decay_profile
from simocap.rates import exact_rate, jensen_upper, markov_lower, snr_db_to_power
from simocap.specfun import NumericError


def test_waterfill_single_channel():
    powers, water_level = waterfill([2.0], n0=1.0, p_total=3.0)
    assert np.allclose(powers, [3.0])
    assert math.isclose(water_level, 3.0 + 0.5, rel_tol=1e-15)


def test_waterfill_two_channel_hand_solution():
    powers, water_level = waterfill([1.0, 2.0], n0=1.0, p_total=1.0)
    assert np.allclose(powers, [0.25, 0.75], rtol=0, atol=1e-12)
    assert abs(water_level - 1.25) <= 1e-12


def test_waterfill_with_inactive_channel():
    powers, water_level = waterfill([1.0, 4.0, 0.1], n0=1.0, p_total=1.0)
    assert np.allclose(powers, [0.125, 0.875, 0.0], rtol=0, atol=1e-12)
    assert abs(water_level - 1.125) <= 1e-12


def test_waterfill_rejects_nonpositive_gains():
    with pytest.raises(ValueError):
        waterfill([1.0, 0.0], 1.0, 1.0)
    with pytest.raises(ValueError):
        waterfill([1.0, -2.0], 1.0, 1.0)


@pytest.mark.parametrize("gains", [[[1.0, 2.0]], []], ids=["2-D", "empty"])
def test_waterfill_rejects_gains_that_are_not_a_nonempty_vector(gains):
    with pytest.raises(ValueError, match="^gains must be a 1-D vector$"):
        waterfill(gains, 1.0, 1.0)


@pytest.mark.parametrize("value", [math.inf, math.nan, 0.0, -1.0])
def test_waterfill_and_equal_power_reject_a_bad_noise_or_budget(value):
    # the same wording as ParallelChannel's check of n0
    message = f"must be positive and finite, got {value!r}"
    with pytest.raises(ValueError, match=f"^n0 {message}$"):
        waterfill([1.0, 2.0], value, 1.0)
    with pytest.raises(ValueError, match=f"^p_total {message}$"):
        waterfill([1.0, 2.0], 1.0, value)
    with pytest.raises(ValueError, match=f"^p_total {message}$"):
        equal_power(2, value)
    with pytest.raises(ValueError, match=f"^p_total {message}$"):
        optimal_allocation(ParallelChannel(theta=[1.0, 2.0], shape=1.0, n0=1.0), value)


def test_waterfill_leaves_a_subchannel_with_an_overflowing_threshold_unpowered():
    # n0/g overflows for g = 1e-320: that threshold is infinite, silently
    powers, water_level = waterfill([1.0, 1e-320], 1.0, 1.0)
    assert np.array_equal(powers, [1.0, 0.0])
    assert water_level == 2.0
    with pytest.raises(ValueError, match="overflows for every gain"):
        waterfill([1e-320, 2e-320], 1.0, 1.0)


def test_waterfill_scale_invariance():
    gains = np.array([0.3, 1.1, 2.7, 0.9])
    a = waterfill(gains, n0=1.0, p_total=2.0)[0]
    b = waterfill(gains * 7.5, n0=7.5, p_total=2.0)[0]
    assert np.array_equal(a, b)


def test_waterfill_budget_and_complementary_slackness():
    rng = np.random.default_rng(1)
    for _ in range(1000):
        n = int(rng.integers(1, 17))
        gains = 10 ** rng.uniform(-1, 1, size=n)
        n0 = 10 ** rng.uniform(-0.5, 0.5)
        p_total = 10 ** rng.uniform(-1, 1)
        powers, nu = waterfill(gains, n0, p_total)
        assert abs(powers.sum() - p_total) <= 1e-12 * p_total
        thresholds = n0 / gains
        for p, t in zip(powers, thresholds):
            if p > 0.0:
                assert abs(p - (nu - t)) <= 1e-12 * max(1.0, nu)
            else:
                assert nu <= t * (1.0 + 1e-12)


def test_waterfill_ties_activate_together():
    powers = waterfill([1.0, 1.0, 4.0], n0=1.0, p_total=0.9)[0]
    assert powers[0] == powers[1]


def test_waterfill_meets_its_budget_at_low_snr():
    # far below the thresholds n0/g the powers are tiny next to the water
    # level; measured from the lowest threshold they still sum to the budget
    # within n*eps relative (the direct nu - n0/g missed by up to 2.3e-9)
    eps = np.finfo(float).eps
    assert waterfill([1e-3], 1.0, 1e-5)[0][0] == 1e-5
    rng = np.random.default_rng(0)
    for _ in range(2000):
        means, p_total = 10 ** rng.uniform(-3, -2, 8), 10 ** rng.uniform(-5, -3)
        powers = waterfill(means, 1.0, p_total)[0]
        assert abs(powers.sum() / p_total - 1.0) <= 8 * eps


def test_waterfill_beats_random_feasible_allocations():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(2, 9))
        mu = 10 ** rng.uniform(-1, 1, size=n)
        n0 = 1.0
        p_total = 10 ** rng.uniform(-0.5, 1)
        best = float(np.log1p(waterfill(mu, n0, p_total)[0] * mu / n0).sum())
        candidates = rng.dirichlet(np.ones(n), size=1000) * p_total
        values = np.log1p(candidates * mu / n0).sum(axis=1)
        assert best >= values.max() - 1e-12


def test_equal_power_basics():
    powers = equal_power(4, 1.0)
    assert np.array_equal(powers, np.full(4, 0.25))
    assert powers.sum() == 1.0
    single = equal_power(1, 2.5)
    assert np.array_equal(single, [2.5])
    with pytest.raises(ValueError):
        equal_power(0, 1.0)
    with pytest.raises(ValueError, match="^n must be a positive integer at most "):
        equal_power(10**20, 1.0)  # past the longest array numpy can index


def test_optimal_allocation_symmetric_channel_is_equal_power():
    ch = ParallelChannel(theta=[0.5, 0.5, 0.5], shape=2.0, n0=1.0)
    powers = optimal_allocation(ch, 3.0)
    assert np.allclose(powers, 1.0, rtol=1e-6)
    assert math.isclose(powers.sum(), 3.0, rel_tol=1e-12)


def test_optimal_allocation_matches_grid_search():
    ch = ParallelChannel(theta=[1.0, 0.25], shape=2.0, n0=1.0)
    powers = optimal_allocation(ch, 1.0)
    grid = np.arange(0.0, 1.0 + 1e-12, 1e-3)
    best_p1, best_val = 0.0, -math.inf
    for p1 in grid:
        val = exact_rate(ch, [p1, 1.0 - p1])
        if val > best_val:
            best_p1, best_val = p1, val
    assert abs(powers[0] - best_p1) <= 5e-3
    assert abs(powers[1] - (1.0 - best_p1)) <= 5e-3


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
        ch, p_total = ParallelChannel(*zip(*subs), n0=1.0), 10 ** rng.uniform(-0.5, 1.0)
        opt = optimal_allocation(ch, p_total)
        swf = waterfill(ch.mean_gains, ch.n0, p_total)[0]
        eq = equal_power(ch.n, p_total)
        opt_rate = exact_rate(ch, opt)
        assert opt_rate >= exact_rate(ch, swf) - 1e-9
        assert opt_rate >= exact_rate(ch, eq) - 1e-9


def test_optimal_allocation_flattens_with_diversity():
    def channel_for(L):
        return ParallelChannel(theta=[0.4, 0.8, 1.2, 1.6], shape=1.0 * L, n0=1.0)

    deviations = []
    for L in (2, 64):
        powers = optimal_allocation(channel_for(L), 4.0)
        deviations.append(np.max(np.abs(powers - 1.0)))
    assert deviations[1] < deviations[0]


def test_optimal_allocation_objective_beats_waterfilling_jensen_gap():
    # the optimum can only lose to waterfilling on the Jensen surrogate,
    # never on the exact objective
    ch = ParallelChannel(theta=[2.0, 0.1], shape=[0.5 * 1, 2.0 * 3], n0=1.0)
    opt = optimal_allocation(ch, 2.0)
    swf = waterfill(ch.mean_gains, ch.n0, 2.0)[0]
    assert exact_rate(ch, opt) >= exact_rate(ch, swf) - 1e-9
    assert jensen_upper(ch, swf) >= jensen_upper(ch, opt) - 1e-12


def _assert_kkt(ch, p_total, powers):
    # At the optimum the active marginal utilities E[g/(n0 + p*g)] share one
    # value lam, and every inactive subchannel's marginal at p = 0, mu/n0,
    # is at most lam.  The solver stops once the active marginals agree to
    # 1e-12 relative.  The marginals here are g/(n0 + p*g) at the gains of the
    # library's rule, in natural units, not the solver's scaled quotient.
    active = powers > 0.0
    marginals = gamma_mean(lambda g, p: g / (ch.n0 + p * g),
                           ch.shape[active], ch.theta[active], powers[active])
    lam = marginals.max()
    assert lam - marginals.min() <= 1e-12 * lam
    assert np.all(ch.mean_gains[~active] / ch.n0 <= lam)
    assert math.isclose(powers.sum(), p_total, rel_tol=1e-12)
    return active


def test_optimal_allocation_meets_kkt_on_mixed_shapes():
    # Shapes m*L from {0.5, 1, 2} x {1, 3, 8}, mean gains over two decades,
    # so that about half of the subchannels are shut off.
    ms, ls = (0.5, 1.0, 2.0), (1, 3, 8)
    subs = []
    for i, mu in enumerate(np.geomspace(0.02, 3.0, 16)):
        m, L = ms[i % 3], ls[(i // 3) % 3]
        subs.append((mu / (m * L), m * L))
    ch = ParallelChannel(*zip(*subs), n0=1.0)
    active = _assert_kkt(ch, 16.0, optimal_allocation(ch, 16.0))
    assert 2 <= active.sum() < ch.n


@pytest.mark.parametrize(
    "m, snr_db, n_active",
    [(0.5, 20.0, 588), (1.0, -20.0, 163)],
    ids=["m0.5-20dB", "m1--20dB"],
)
def test_optimal_allocation_meets_kkt_on_588_bin_profiles(m, snr_db, n_active):
    # the two slowest solves of the former multiplier bisection
    ch = build_decay_profile(588, 5e9, 6e9, 3.0, m=m, L=1, n0=1.0)
    p_total = snr_db_to_power(ch.n, ch.n0, snr_db)
    active = _assert_kkt(ch, p_total, optimal_allocation(ch, p_total))
    assert active.sum() == n_active


@pytest.mark.parametrize("snr_db", [-30.0, -10.0, 0.0, 10.0, 30.0, 200.0])
def test_optimal_allocation_meets_kkt_over_a_wide_spread_of_mean_gains(snr_db):
    # mean gains in the ratio (f/5e9)**-300 over 5-6 GHz span 24 decades, so
    # the weakest bins' curvatures lie 48 decades below the strongest's: a
    # water-level test that counted a level's own slope is rounding noise there
    f = np.linspace(5e9, 6e9, 64)
    mu = (f / 5e9) ** -300.0
    ch = ParallelChannel(theta=mu / mu.mean() / 4.0, shape=4.0, n0=1.0, freqs_hz=f)
    p_total = snr_db_to_power(ch.n, ch.n0, snr_db)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        powers = optimal_allocation(ch, p_total)
    _assert_kkt(ch, p_total, powers)
    assert exact_rate(ch, powers) >= exact_rate(ch, waterfill(ch.mean_gains, ch.n0, p_total)[0])


def _mpmath_marginal(mpmath, mu, k, n0, p):
    # E[g/(n0 + p*g)] for g ~ Gamma(k, mu/k), in 30 digits, where mu/n0 may pass DBL_MAX:
    # mu/n0 at p = 0, else (1 - z**k * U(k, k, z))/p at z = k*n0/(p*mu), since
    # E[1/(1 + t/z)] = z**k * U(k, k, z) for t ~ Gamma(k, 1)
    with mpmath.workdps(30):
        mu, k, n0, p = (mpmath.mpf(v) for v in (mu, k, n0, p))
        if p == 0:
            return mu / n0
        z = k * n0 / (p * mu)
        return (1 - z**k * mpmath.hyperu(k, k, z)) / p


def test_optimal_allocation_solves_bins_whose_mu_over_n0_is_near_or_past_dbl_max():
    # a bin's marginal utility at zero power is mu/n0.  At mu/n0 = 1e308 the top
    # quadrature node of the shape-0.1 law, about 600 times its mean, is past DBL_MAX
    # over n0, and at 1e309 mu/n0 itself is; but the solver reads only the loads and
    # mu/n0 in units of a power of two below the water level, so it solves both
    mpmath = pytest.importorskip("mpmath")
    ch = ParallelChannel(theta=[1.0, 1e306], shape=0.1, n0=1e-3)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        powers = optimal_allocation(ch, 1.0)
        assert math.isclose(powers.sum(), 1.0, rel_tol=1e-12) and np.all(powers > 0.0)
        assert 0.0 < exact_rate(ch, powers) <= jensen_upper(ch, powers)
        ch = ParallelChannel(theta=[1.0, 1e307], shape=0.1, n0=1e-3)
        low, high = optimal_allocation(ch, 1e-10), optimal_allocation(ch, 0.05)
        swf = waterfill(ch.mean_gains, ch.n0, 0.05)[0]
        gain = exact_rate(ch, high) - exact_rate(ch, swf)
    assert low.tolist() == [0.0, 1e-10]
    assert np.all(high > 0.0) and 0.16 < gain < 0.161, (high, gain)
    # the KKT stop on 30-digit marginals: the natural-units rule that _assert_kkt uses
    # cannot take the gains at the nodes of bin 1, which lie past DBL_MAX
    for p_total, powers in ((1e-10, low), (0.05, high)):
        marginals = [_mpmath_marginal(mpmath, mu, 0.1, ch.n0, p)
                     for mu, p in zip(ch.mean_gains, powers)]
        active = [m for m, p in zip(marginals, powers) if p > 0.0]
        # the active marginals, and any inactive mu/n0 above them, agree to 1e-12
        assert max(marginals) - min(active) <= 1e-12 * max(active)
        assert math.isclose(powers.sum(), p_total, rel_tol=1e-12)


def test_exact_rate_reads_nodes_past_dbl_max_at_a_finite_load_and_refuses_its_overflow():
    # the mean gain 1e306 is finite; the top node of the shape-0.1 law, about 6e308, is
    # not, but the exact rate reads the load 1e-10 * 1e306 and the unit-mean nodes alone
    ch = ParallelChannel(theta=[1.0, 1e307], shape=0.1, n0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        exact = exact_rate(ch, [1.0, 1e-10])
        assert markov_lower(ch, [1.0, 1e-10]) <= exact <= jensen_upper(ch, [1.0, 1e-10])
        assert 673.0 < exact < 674.0
        # at n0 = 1e-300 the load of bin 1 overflows: the bin is refused by name, for it
        ch = ParallelChannel(theta=[1.0, 1e307], shape=0.1, n0=1e-300)
        with pytest.raises(ValueError, match=r"^p\*mu/n0 overflows in bin 1: 1e-10 \* 1e\+306 / "):
            exact_rate(ch, [1.0, 1e-10])
        # and so is the load that waterfilling gives it
        with pytest.raises(ValueError,
                           match=r"^p\*mu/n0 overflows in bin 1: 0\.5 \* 1e\+306 / 1e-300$"):
            optimal_allocation(ch, 1.0)


def test_optimal_allocation_refuses_a_budget_that_waterfilling_splits_into_zeros():
    # 5e-324 over two bins at one level is two halves that round to 0: refused, naming
    # p_total, where mu/n0 is 1 and where it is 1e600
    for theta, n0 in (([1.0, 1.0], 1.0), ([1e300, 5e299], 1e-300)):
        ch = ParallelChannel(theta, 1.0, n0=n0)
        with pytest.raises(ValueError, match=r"^p_total 5e-324 is too small: "):
            optimal_allocation(ch, 5e-324)
    # at mu/n0 = 1e310 the water levels of 1e-323 and 1e-310 are subnormal, and so is the
    # solve's unit, never 0: 1e-310 is not waterfilling's equal split but the normal-range
    # solve scaled by 1e-300
    ch = ParallelChannel([1e11, 1e9], [0.1, 10.0], n0=1e-300)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert optimal_allocation(ch, 1e-323).tolist() == [5e-324, 5e-324]
        powers = optimal_allocation(ch, 1e-310)
        normal = optimal_allocation(ParallelChannel([1e11, 1e9], [0.1, 10.0], n0=1.0), 1e-10)
    assert np.allclose(powers, 1e-300 * normal, rtol=1e-12, atol=0.0), (powers, normal)
    assert powers[1] > 6.0 * powers[0]
    # with n0 subnormal too, the water level is 5e-324 and so is the unit, 2**-1074, so
    # s*mu/n0 is the finite load 5e-324 * 1e300 / 5e-324: the one bin takes the budget
    ch = ParallelChannel([1e300], 1.0, n0=5e-324)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers = optimal_allocation(ch, 5e-324)
        rate = exact_rate(ch, powers)
        assert rate == exact_rate(ch, waterfill(ch.mean_gains, ch.n0, 5e-324)[0])
    assert powers.tolist() == [5e-324] and 690.198 < rate < 690.199


def test_waterfill_keeps_the_water_level_finite_near_the_largest_budget():
    # the numerator of the water level, 1.7e308 + 5e307, passes DBL_MAX; the powers do not
    ch = ParallelChannel(theta=[2e-308, 1e-308], shape=1.0, n0=1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        powers, water_level = waterfill(ch.mean_gains, ch.n0, 1.7e308)
        assert powers.tolist() == [1.1e308, 6e307] and powers.sum() == 1.7e308
        assert water_level == 1.1e308 + 5e307
        _assert_kkt(ch, 1.7e308, optimal_allocation(ch, 1.7e308))


def test_optimal_allocation_raises_at_the_iteration_cap(monkeypatch):
    ch = ParallelChannel(theta=[2.0, 0.1], shape=[0.5 * 1, 2.0 * 3], n0=1.0)
    _assert_kkt(ch, 2.0, optimal_allocation(ch, 2.0))
    # with a cap of 1 the solver only evaluates statistical waterfilling,
    # which is not optimal here
    monkeypatch.setattr(alloc_module, "_ITER_CAP", 1)
    with pytest.raises(NumericError, match="did not converge"):
        optimal_allocation(ch, 2.0)


def test_optimal_allocation_reads_the_channel_rule(monkeypatch):
    # the quadrature rule depends on the channel only, so every Newton step of
    # every solve applies the one rule the channel built at its first use
    built, applied = [], []

    def rule(*args):
        built.append(args)
        return specfun._gamma_rule(*args)

    def rule_sums(*args):
        applied.append(args)
        return specfun._rule_sums(*args)

    monkeypatch.setattr(channel_module, "_gamma_rule", rule)
    monkeypatch.setattr(alloc_module, "_rule_sums", rule_sums)
    ch = ParallelChannel(theta=[2.0, 0.1, 1e-3], shape=[0.5, 6.0, 1e3], n0=1.0)
    _assert_kkt(ch, 2.0, optimal_allocation(ch, 2.0))
    assert len(built) == 1
    assert len(applied) >= 3  # three Newton steps at least, one pass each
    _assert_kkt(ch, 5.0, optimal_allocation(ch, 5.0))
    assert len(built) == 1


def test_optimal_allocation_reads_its_rule_once_a_newton_step(monkeypatch):
    # each step takes its marginals and curvatures from one pass with two integrands, the
    # quotient and then its square, in place; a water level is solved at waterfilling's start
    # and at each step that fails its stop, so the two counts agree
    passes, levels, waterlevel = [], [], alloc_module._waterlevel

    def rule_sums(*args):
        passes.append(len(args[3]))
        return specfun._rule_sums(*args)

    def counted_waterlevel(*args):
        levels.append(args)
        return waterlevel(*args)

    monkeypatch.setattr(alloc_module, "_rule_sums", rule_sums)
    monkeypatch.setattr(alloc_module, "_waterlevel", counted_waterlevel)
    ch = ParallelChannel(theta=[2.0, 0.1, 1e-3], shape=[0.5, 6.0, 1e3], n0=1.0)
    _assert_kkt(ch, 2.0, optimal_allocation(ch, 2.0))
    assert len(levels) >= 2  # at least one step fails its stop
    assert passes == [2] * len(levels)


def test_optimal_allocation_working_set_is_its_rule_its_vectors_and_a_bounded_pass():
    # 4,096 bins at shape 0.5 (480 nodes a bin): the rule is one row, 7.5 KiB,
    # and a row index a bin.  Beyond it, a Newton step holds at most 24 arrays
    # of one entry a bin (the powers, loads and their temporaries, marginals,
    # curvatures and the waterfilling's sorted copies) and, per pass, 3 arrays
    # of at most _NODE_CHUNK nodes (the nodes, turned in place into the
    # integrand, and the weights), not a 4,096-by-480 table of 15 MiB.
    ch = build_decay_profile(4096, 5e9, 6e9, 3.0, 0.5, 1, 1.0)
    rule_bytes = sum(part.nbytes for part in specfun._gamma_rule(ch.shape))
    tracemalloc.start()
    try:
        optimal_allocation(ch, 4096.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rule_bytes + 24 * 8 * ch.n + 3 * 8 * specfun._NODE_CHUNK, peak


@pytest.mark.parametrize("rows_a_pass", [1, 5])
def test_optimal_allocation_does_not_depend_on_where_its_passes_cut(rows_a_pass, monkeypatch):
    # mixed shapes pad the rule's rows to the longest; a pass of one row, or of
    # 5 rows, cuts the marginals and curvatures between every bin or inside
    # the channel, and each bin's sums, so the powers, stay bit for bit
    ch = ParallelChannel(theta=np.geomspace(1e-2, 1e2, 12), shape=[0.5, 6.0, 1e3] * 4, n0=1.0)
    whole = optimal_allocation(ch, 3.0)
    nodes_per_bin = specfun._gamma_rule(ch.shape)[0].shape[1]
    monkeypatch.setattr(specfun, "_NODE_CHUNK", rows_a_pass * nodes_per_bin)
    assert optimal_allocation(ch, 3.0).tolist() == whole.tolist()


def test_waterlevel_gives_no_negative_power_at_a_budget_just_past_a_level():
    # a level is reached when the power that lifts the water to it is below
    # the budget, and the water level is a sum of its own, so an ulp's
    # rounding may put the water a hair below the last level reached, as it
    # does for about one budget in twenty here: that bin gets 0, not less
    rng = np.random.default_rng(1)
    for _ in range(2000):
        n = int(rng.integers(2, 8))
        levels = np.sort(rng.uniform(0.0, 1.0, n) * 10 ** rng.uniform(-3, 3))
        slopes = 10 ** rng.uniform(-3, 3, n)
        fill = np.cumsum(np.cumsum(slopes[:-1]) * np.diff(levels))
        total = fill[rng.integers(n - 1)] * (1.0 + rng.choice([1e-16, 2e-16, 4e-16, 1e-15]))
        assert np.all(alloc_module._waterlevel(levels, slopes, total)[0] >= 0.0)


def test_waterfill_is_the_unit_slope_active_set_solution():
    # ties included: every third gain repeats
    rng = np.random.default_rng(5)
    for _ in range(200):
        n = int(rng.integers(1, 30))
        gains = np.repeat(10 ** rng.uniform(-2, 2, size=n), 3)[: 2 * n]
        n0, p_total = 10 ** rng.uniform(-1, 1), 10 ** rng.uniform(-3, 3)
        powers, water_level = waterfill(gains, n0, p_total)
        # the thresholds and the water level measured from the lowest threshold
        low = (n0 / gains).min()
        thresholds = n0 / gains - low
        order = np.argsort(thresholds, kind="stable")
        k = np.arange(1, gains.size + 1, dtype=float)
        nu_candidates = (p_total + np.cumsum(thresholds[order])) / k
        k_star = int(np.flatnonzero(nu_candidates > thresholds[order]).max()) + 1
        nu = float(nu_candidates[k_star - 1])
        expected = np.zeros(gains.size)
        expected[order[:k_star]] = nu - thresholds[order][:k_star]
        assert water_level == nu + low
        assert np.array_equal(powers, expected)
