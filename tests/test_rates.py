import math
import warnings

import numpy as np
import pytest

from simocap import rates
from simocap.alloc import PowerAllocation, equal_power, waterfill
from simocap.channel import ParallelChannel, build_decay_profile, sample_gains
from simocap.rates import (
    MetricUndefinedError,
    RatioParams,
    awgn_reference,
    bound_ratio,
    bound_ratio_expansion,
    convergence_study,
    empirical_rate,
    evaluate_bounds,
    exact_rate,
    jensen_upper,
    markov_lower,
    mpe,
    ratio_gamma_term,
    ratio_log_term,
    snr_db_to_power,
)
from simocap.specfun import NumericError, _gamma_q


def _single(theta=1.0, m=1.0, L=1, n0=1.0, p=1.0):
    ch = ParallelChannel(theta=[theta], shape=m * L, n0=n0, p_total=p)
    return ch, PowerAllocation(np.array([p]))


def _rate_of_one(theta, m, L, p, n0):
    # E[log(1 + p*g/n0)] for g ~ Gamma(m*L, theta): the exact rate of one subchannel
    ch = ParallelChannel(theta=[theta], shape=m * L, n0=n0, p_total=1.0)
    return exact_rate(ch, PowerAllocation(np.array([p])))


def test_ergodic_mi_exponential_closed_form():
    mpmath = pytest.importorskip("mpmath")
    spec = (1.0, 1.0, 1)  # theta, m, L
    value = _rate_of_one(*spec, 1.0, 1.0)
    assert math.isclose(value, math.e * float(mpmath.e1(1.0)), rel_tol=1e-9)
    assert _rate_of_one(*spec, 0.0, 1.0) == 0.0


def test_ergodic_mi_never_exceeds_rate_at_mean_gain():
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta, m, L = (
            10 ** rng.uniform(-1, 1),
            float(rng.choice([0.5, 1.0, 2.0, 4.0])),
            int(rng.integers(1, 9)),
        )
        p = 10 ** rng.uniform(-1, 1)
        mu = theta * m * L
        assert _rate_of_one(theta, m, L, p, 1.0) <= math.log1p(p * mu / 1.0) + 1e-12


def test_ergodic_mi_matches_monte_carlo():
    theta, m, L = 0.5, 2.0, 3
    p, n0 = 1.7, 0.8
    value = _rate_of_one(theta, m, L, p, n0)
    rng = np.random.default_rng(42)
    draws = np.log1p(p * rng.gamma(m * L, theta, 200_000) / n0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(value - draws.mean()) <= 3.0 * se


def test_jensen_upper_basics():
    ch, alloc = _single()
    assert math.isclose(jensen_upper(ch, alloc), math.log(2.0), rel_tol=1e-15)
    ch2 = ParallelChannel(theta=[1.0, 2.0], shape=1.0, n0=1.0, p_total=1.0)
    zero_second = PowerAllocation(np.array([1.0, 0.0]))
    assert math.isclose(jensen_upper(ch2, zero_second), math.log(2.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        jensen_upper(ch2, alloc)


def test_jensen_at_waterfill_beats_random_allocations():
    rng = np.random.default_rng(1)
    ch = ParallelChannel(theta=[0.2, 0.7, 1.9], shape=2.0, n0=1.0, p_total=2.0)
    swf = waterfill(ch.mean_gains, ch.n0, ch.p_total)
    best = jensen_upper(ch, swf)
    for powers in rng.dirichlet(np.ones(3), size=1000) * ch.p_total:
        assert best >= jensen_upper(ch, PowerAllocation(powers)) - 1e-12


def test_markov_lower_single_exponential_value():
    # one exponential subchannel, a = ln 2: the bound is ln(2) * Q(1, 1) = ln(2)/e
    ch, alloc = _single()
    value = markov_lower(ch, alloc, a_values=[math.log(2.0)])
    assert math.isclose(value, math.log(2.0) * math.exp(-1.0), rel_tol=1e-12)


def test_markov_lower_is_a_valid_lower_bound():
    rng = np.random.default_rng(2)
    for _ in range(25):
        n = int(rng.integers(1, 5))
        subs = [
            (
                10 ** rng.uniform(-1, 1),
                float(rng.choice([0.5, 1.0, 2.0])) * int(rng.integers(1, 6)),
            )
            for _ in range(n)
        ]
        ch = ParallelChannel(*zip(*subs), n0=10 ** rng.uniform(-0.5, 0.5), p_total=10 ** rng.uniform(-0.5, 1))
        alloc = waterfill(ch.mean_gains, ch.n0, ch.p_total)
        rate = exact_rate(ch, alloc)
        for kwargs in ({}, {"alpha": 0.5}, {"a_values": [0.3] * n}):
            assert markov_lower(ch, alloc, **kwargs) <= rate + 1e-9


def test_markov_lower_overflowing_a_values_give_zero_terms_without_warning():
    # e^a overflows past a = 709.78, so x = (n0/p)(e^a - 1)/theta is
    # infinite and the term is a*Q(k, inf) = 0, not a warning or a nan
    ch = ParallelChannel(theta=[1.0, 1.0, 1.0], shape=1.0, n0=1.0, p_total=3.0)
    alloc = equal_power(3, 3.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        value = markov_lower(ch, alloc, a_values=[800.0, math.log(2.0), 1e300])
    assert math.isclose(value, math.log(2.0) * math.exp(-1.0), rel_tol=1e-12)


def test_markov_lower_vanishes_as_a_goes_to_zero():
    ch, alloc = _single()
    assert markov_lower(ch, alloc, a_values=[1e-12]) < 1e-11


def test_markov_lower_argument_validation():
    ch, alloc = _single()
    with pytest.raises(ValueError):
        markov_lower(ch, alloc, a_values=[-1.0])
    with pytest.raises(ValueError):
        markov_lower(ch, alloc, alpha=1.5)
    with pytest.raises(ValueError):
        markov_lower(ch, alloc, a_values=[0.5], alpha=0.5)


def test_markov_lower_skips_zero_power_subchannels():
    ch = ParallelChannel(theta=[1.0, 1.0], shape=1.0, n0=1.0, p_total=1.0)
    alloc = PowerAllocation(np.array([1.0, 0.0]))
    with_zero = markov_lower(ch, alloc, a_values=[math.log(2.0), -5.0])
    # the a value on the unpowered subchannel is irrelevant
    assert math.isclose(with_zero, math.log(2.0) * math.exp(-1.0), rel_tol=1e-12)


def _mixed_channel_12():
    # the shape m*L of every (m, L) pair of {0.5, 1, 2} x {1, 3, 8}, three
    # of them twice; equal power except one unpowered subchannel
    ms, ls = (0.5, 1.0, 2.0), (1, 3, 8)
    subs = [
        (theta, ms[i % 3] * ls[(i // 3) % 3])
        for i, theta in enumerate(np.geomspace(0.05, 3.0, 12))
    ]
    powers = np.full(12, 0.5)
    powers[4] = 0.0
    return ParallelChannel(*zip(*subs), n0=1.0, p_total=powers.sum()), PowerAllocation(powers)


def test_markov_lower_mixed_channel_is_sum_of_single_subchannels():
    ch, alloc = _mixed_channel_12()
    a_values = np.linspace(0.2, 2.0, 12)
    a_values[4] = -1.0  # ignored on the unpowered subchannel
    for rule in ({}, {"alpha": 0.5}, {"a_values": a_values}):
        parts = []
        for i, p in enumerate(alloc.powers):
            single = ParallelChannel([ch.theta[i]], ch.shape[i], n0=ch.n0, p_total=1.0)
            one = {"a_values": [a_values[i]]} if "a_values" in rule else rule
            parts.append(markov_lower(single, PowerAllocation(np.array([p])), **one))
        assert parts[4] == 0.0
        assert math.isclose(markov_lower(ch, alloc, **rule), math.fsum(parts), rel_tol=1e-14)


def test_markov_lower_max_rule_beats_a_fine_grid():
    # The maximised term must be at least the term at every point of a
    # grid 40x finer than the one the maximisation starts from; the slack
    # is a few ulps of rounding in Q.  The grid includes both ends of the
    # range (0, 50], where the maxima of the last two channels sit: at
    # huge power the term is a*Q(k, ~0) = a, at tiny power it falls from
    # the first grid point on.
    ch, alloc = _mixed_channel_12()
    singles = [
        (ch.theta[i], ch.shape[i], ch.n0, p) for i, p in enumerate(alloc.powers) if p > 0.0
    ]
    singles += [(1.0, 2.0 * 64, 1.0, 1e25), (1.0, 2.0 * 64, 1.0, 1e-9)]
    grid = np.geomspace(1e-6, 50.0, 2000)
    for theta, shape, n0, p in singles:
        single = ParallelChannel([theta], shape, n0=n0, p_total=1.0)
        best = markov_lower(single, PowerAllocation(np.array([p])))
        # Q over the whole grid in one kernel call, at x formed with
        # math.expm1: np.expm1 can differ by an ulp, which moves tail terms
        x = np.array([(n0 / p) * math.expm1(a) / theta for a in grid.tolist()])
        terms = grid * _gamma_q(shape, x)[0]
        worst = int(np.argmax(terms))
        assert best >= terms[worst] * (1.0 - 4e-16), (theta, shape, p, grid[worst])


def _mpmath_max_markov_term(mpmath, k, c):
    """30-digit max over a in (0, 50] of a*Q(k, c*expm1(a)), from h'(a) = 0.

    h'(a) = Q(k, x) - a*(x + c)*phi(x), with x = c*expm1(a) and phi the
    Gamma(k, 1) density, is positive near a = 0 and negative at 50 for the
    cases below.  Geometric bisection brackets its root to about 1e-11
    relative, then ``findroot`` polishes it; bisecting first keeps the
    solver away from the far right, where h' underflows to a flat zero.
    """
    with mpmath.workdps(30):
        k, c = mpmath.mpf(k), mpmath.mpf(c)
        log_gamma_k = mpmath.loggamma(k)

        def q(a):
            return mpmath.gammainc(k, c * mpmath.expm1(a), regularized=True)

        def dh(a):
            x = c * mpmath.expm1(a)
            return q(a) - a * (x + c) * mpmath.exp((k - 1) * mpmath.log(x) - x - log_gamma_k)

        lo, hi = mpmath.mpf("1e-8"), mpmath.mpf(50)
        assert dh(lo) > 0 > dh(hi)
        for _ in range(40):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if dh(mid) > 0 else (lo, mid)
        a = mpmath.findroot(dh, (lo, hi), solver="anderson")
        assert lo <= a <= hi
        return float(a * q(a))


@pytest.mark.parametrize("k", [0.1, 0.33, 0.5, 1.0, 4.0, 64.0, 1e3])
def test_markov_max_rule_matches_mpmath_maximiser(k):
    # one subchannel with theta = n0 = 1 and p = 1/c, so the term is
    # a*Q(k, c*expm1(a)); the tolerance is the one reg_gamma_q is held to
    mpmath = pytest.importorskip("mpmath")
    for c in (1e-3, 0.15, 1.0, 30.0):
        ch, alloc = _single(theta=1.0, m=k, L=1, p=1.0 / c)
        assert math.isclose(
            markov_lower(ch, alloc), _mpmath_max_markov_term(mpmath, k, c), rel_tol=1e-10
        ), c


def test_markov_alpha_rule_matches_mpmath_on_a_mixed_channel():
    # a_n = log(1 + alpha*p_n*mu_n/n0), mu_n = theta_n*k_n, and the term is
    # a_n*Q(k_n, x_n) with x_n = (n0/p_n)*(e^a_n - 1)/theta_n.  The shapes
    # cover m = 0.5 with L = 1, m = 0.7 with L = 3 (not a power of two) and
    # m = 1 with L = 64; the fourth subchannel is unpowered.
    mpmath = pytest.importorskip("mpmath")
    shapes = [0.5, 0.7 * 3, 64.0, 4.0, 1.0]
    thetas = [1.7, 0.35, 0.02, 0.5, 3.0]
    powers = np.array([0.4, 2.5, 7.0, 0.0, 0.05])
    n0, alpha = 0.8, 0.5
    ch = ParallelChannel(thetas, shapes, n0=n0, p_total=powers.sum())
    with mpmath.workdps(30):
        terms = []
        for k, theta, p in zip(shapes, thetas, powers.tolist()):
            if p > 0.0:
                k, theta, p = mpmath.mpf(k), mpmath.mpf(theta), mpmath.mpf(p)
                a = mpmath.log1p(alpha * p * theta * k / n0)
                x = (n0 / p) * mpmath.expm1(a) / theta
                terms.append(a * mpmath.gammainc(k, x, mpmath.inf, regularized=True))
        oracle = float(mpmath.fsum(terms))
    value = markov_lower(ch, PowerAllocation(powers), alpha=alpha)
    assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_markov_max_rule_raises_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(rates, "_ITER_CAP", 1)
    ch, alloc = _single(theta=1.0, m=2.0, L=4, p=3.0)
    with pytest.raises(NumericError):
        markov_lower(ch, alloc)


def test_exact_rate_additivity_and_jensen_domination():
    mpmath = pytest.importorskip("mpmath")
    ch = ParallelChannel(theta=[1.0, 1.0], shape=1.0, n0=1.0, p_total=2.0)
    alloc = equal_power(2, 2.0)
    rate = exact_rate(ch, alloc)
    assert math.isclose(rate, 2.0 * math.e * float(mpmath.e1(1.0)), rel_tol=1e-9)
    assert rate <= jensen_upper(ch, alloc)
    half = PowerAllocation(np.array([2.0, 0.0]))
    assert math.isclose(exact_rate(ch, half), _rate_of_one(1.0, 1.0, 1, 2.0, 1.0), rel_tol=1e-12)


def test_exact_rate_matches_integer_shape_closed_form_at_20_db():
    # the CLI's default profile (64 bins, m = 1, L = 4) under statistical
    # waterfilling at 20 dB.  For g ~ Gamma(k, theta) with integer k,
    # E[log(1 + c*g)] = e^s * sum_{j<k} s^j * Gamma(-j, s), s = 1/(c*theta)
    mp = pytest.importorskip("mpmath")
    ch = build_decay_profile(64, 5e9, 6e9, 3.0, 1.0, 4, 1.0, 1.0)
    ch = ch.with_power(snr_db_to_power(ch.n, ch.n0, 20.0))
    alloc = waterfill(ch.mean_gains, ch.n0, ch.p_total)
    with mp.workdps(30):
        ref = mp.mpf(0)
        for theta, p in zip(ch.theta, alloc.powers):
            if p > 0.0:
                s = ch.n0 / (mp.mpf(float(p)) * mp.mpf(float(theta)))
                ref += mp.exp(s) * mp.fsum(s**j * mp.gammainc(-j, s) for j in range(4))
    assert exact_rate(ch, alloc) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


def test_empirical_rate_matches_exact_rate():
    ch = build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, 2, 1.0, 4.0)
    alloc = waterfill(ch.mean_gains, ch.n0, ch.p_total)
    gains = sample_gains(ch, 100_000, seed=77)
    emp = empirical_rate(gains, alloc, ch.n0)
    per_snapshot = np.log1p(gains.values * (alloc.powers / ch.n0)).sum(axis=1)
    se = per_snapshot.std(ddof=1) / math.sqrt(per_snapshot.size)
    assert abs(emp - exact_rate(ch, alloc)) <= 3.0 * se


def test_empirical_rate_single_snapshot_and_permutation_invariance():
    ch = build_decay_profile(3, 5e9, 6e9, 3.0, 1.0, 2, 1.0, 1.0)
    alloc = equal_power(3, 1.0)
    gains = sample_gains(ch, 50, seed=5)
    single = empirical_rate(
        type(gains)(values=gains.values[:1]), alloc, ch.n0
    )
    expected = sum(
        math.log1p(float(p) * float(g) / ch.n0)
        for g, p in zip(gains.values[0], alloc.powers)
    )
    assert math.isclose(single, expected, rel_tol=1e-12)
    rng = np.random.default_rng(0)
    shuffled = type(gains)(values=gains.values[rng.permutation(50)])
    assert math.isclose(
        empirical_rate(gains, alloc, ch.n0), empirical_rate(shuffled, alloc, ch.n0), rel_tol=1e-12
    )


def test_mpe_values_and_errors():
    assert mpe(1.0, 1.0) == 0.0
    assert math.isclose(mpe(1.1, 1.0), 10.0, rel_tol=1e-12)
    with pytest.raises(MetricUndefinedError):
        mpe(1.0, 0.0)
    with pytest.raises(ValueError):
        mpe(0.9, 1.0)


def test_bound_ratio_direct_value():
    # m=1, L=1, beta=1, alpha=0.5: log(1.5)/log(2) * exp(-1/2)
    value = bound_ratio(RatioParams(m=1.0, L=1, beta=1.0, alpha=0.5))
    expected = math.log(1.5) / math.log(2.0) * math.exp(-0.5)
    assert math.isclose(value, expected, rel_tol=1e-12)


def test_bound_ratio_stays_inside_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(50):
        params = RatioParams(
            m=float(rng.choice([0.5, 1.0, 2.0, 4.0])),
            L=int(rng.integers(1, 50)),
            beta=10 ** rng.uniform(-1, 2),
            alpha=float(rng.uniform(0.05, 0.95)),
        )
        value = bound_ratio(params)
        assert 0.0 < value < 1.0


def test_bound_ratio_increases_toward_one():
    values = [
        bound_ratio(RatioParams(m=1.0, L=L, beta=1.0, alpha=0.5)) for L in (10, 100, 1000)
    ]
    assert values[0] < values[1] < values[2]
    # closed-form cross-check of the L=10 point through the Poisson sum
    poisson_tail = math.exp(-5.0) * sum(5.0**j / math.factorial(j) for j in range(10))
    direct = math.log1p(5.0) / math.log1p(10.0) * poisson_tail
    assert math.isclose(values[0], direct, rel_tol=1e-12)


def test_bound_ratio_equals_bound_quotient_for_single_subchannel():
    rng = np.random.default_rng(4)
    for _ in range(20):
        m = float(rng.choice([0.5, 1.0, 2.0, 4.0]))
        L = int(rng.integers(1, 9))
        theta = 10 ** rng.uniform(-1, 1)
        n0 = 10 ** rng.uniform(-0.5, 0.5)
        p = 10 ** rng.uniform(-1, 1)
        alpha = float(rng.uniform(0.1, 0.9))
        ch, alloc = _single(theta=theta, m=m, L=L, n0=n0, p=p)
        quotient = markov_lower(ch, alloc, alpha=alpha) / jensen_upper(ch, alloc)
        direct = bound_ratio(RatioParams(m=m, L=L, beta=p * theta * m / n0, alpha=alpha))
        assert abs(quotient - direct) <= 1e-12


def test_ratio_expansion_terms():
    assert math.isclose(
        ratio_log_term(0.5, math.exp(2.0)), 1.0 + math.log(0.5) / 2.0, rel_tol=1e-12
    )
    expected_gamma = 1.0 - (0.5 * math.exp(0.5)) / (0.5 * math.sqrt(2.0 * math.pi))
    assert math.isclose(ratio_gamma_term(1.0, 1.0, 0.5), expected_gamma, rel_tol=1e-12)
    assert ratio_gamma_term(1.0, 100.0, 0.5) > 0.999999
    with pytest.raises(ValueError):
        ratio_log_term(0.5, 1.5)
    log_term, gamma_term = bound_ratio_expansion(1.0, 100.0, 0.5)
    assert math.isclose(log_term * gamma_term, ratio_log_term(0.5, 100.0) * ratio_gamma_term(1.0, 100.0, 0.5), rel_tol=1e-15)


def test_ratio_expansion_tracks_exact_ratio_at_large_diversity():
    for L in (10_000, 30_000, 100_000):
        exact = bound_ratio(RatioParams(m=1.0, L=L, beta=1.0, alpha=0.5))
        log_term, gamma_term = bound_ratio_expansion(1.0, float(L), 0.5)
        assert abs(exact - log_term * gamma_term) <= 0.02


def test_awgn_reference_symmetric_case_and_identity():
    ch = ParallelChannel(theta=[1.0, 1.0], shape=1.0, n0=1.0, p_total=2.0)
    assert math.isclose(awgn_reference(ch), 2.0 * math.log(2.0), rel_tol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        subs = [
            (10 ** rng.uniform(-1, 1), 1.0 * int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        chr_ = ParallelChannel(*zip(*subs), n0=1.0, p_total=10 ** rng.uniform(-0.5, 1))
        swf = waterfill(chr_.mean_gains, chr_.n0, chr_.p_total)
        assert math.isclose(awgn_reference(chr_), jensen_upper(chr_, swf), rel_tol=1e-15)


def test_evaluate_bounds_report():
    # the report is in nats; the CLI's bits tests cover the conversion
    ch = build_decay_profile(8, 5e9, 6e9, 3.0, 1.0, 4, 1.0, 1.0).with_power(
        snr_db_to_power(8, 1.0, 5.0)
    )
    alloc = waterfill(ch.mean_gains, ch.n0, ch.p_total)
    report = evaluate_bounds(ch, alloc, snr_db=5.0)
    assert report.c_upper >= report.c_lower_exact >= report.c_lower_markov >= 0.0
    assert report.normalized_upper == 1.0
    assert 0.0 < report.normalized_lower <= 1.0
    assert report.c_upper == jensen_upper(ch, alloc)
    assert report.c_lower_exact == exact_rate(ch, alloc)
    assert report.c_lower_markov == markov_lower(ch, alloc)
    assert report.c_awgn_ref == awgn_reference(ch)
    assert report.mpe_percent == mpe(report.c_upper, report.c_lower_exact)


def test_bound_sandwich_on_random_instances():
    rng = np.random.default_rng(6)
    for _ in range(40):
        n = int(rng.integers(1, 17))
        subs = [
            (
                10 ** rng.uniform(-1, 1),
                float(rng.choice([0.5, 1.0, 2.0, 4.0])) * int(rng.integers(1, 9)),
            )
            for _ in range(n)
        ]
        n0 = 1.0
        snr_db = rng.uniform(-20, 20)
        ch = ParallelChannel(*zip(*subs), n0=n0, p_total=snr_db_to_power(n, n0, snr_db))
        alloc = waterfill(ch.mean_gains, ch.n0, ch.p_total)
        lower = markov_lower(ch, alloc)
        rate = exact_rate(ch, alloc)
        upper = jensen_upper(ch, alloc)
        assert rate - lower >= -1e-9
        assert upper - rate >= -1e-9


def _cubic_profile(n_bins=64):
    def profile(L):
        return build_decay_profile(n_bins, 5e9, 6e9, 3.0, 1.0, L, 1.0, 1.0)

    return profile


def test_convergence_study_gap_shrinks_with_diversity():
    study = convergence_study(_cubic_profile(), "statistical-waterfill", [1, 2, 4, 8, 16], 5.0)
    mpes = [p.mpe_percent for p in study.points]
    assert all(b < a for a, b in zip(mpes, mpes[1:]))
    assert mpes[3] / mpes[2] < 0.6
    assert study.slope < 0.0


def test_convergence_study_separates_waterfilling_from_fixed_allocation():
    profile = _cubic_profile()
    weights = 1.0 + 0.3 * np.cos(2.0 * np.pi * np.arange(64) / 64.0)
    weights /= weights.sum()

    def fixed_custom(ch):
        return PowerAllocation(weights * ch.p_total, strategy_tag="custom")

    swf = convergence_study(profile, "statistical-waterfill", [1, 2, 4, 8, 16], 5.0)
    custom = convergence_study(profile, fixed_custom, [1, 2, 4, 8, 16], 5.0)
    assert swf.slope < custom.slope


def test_convergence_study_input_validation():
    profile = _cubic_profile(4)
    with pytest.raises(ValueError):
        convergence_study(profile, "statistical-waterfill", [1, 2], 5.0)
    with pytest.raises(ValueError):
        convergence_study(profile, "statistical-waterfill", [1, 4, 2], 5.0)


def test_waterfill_rate_ratio_is_insensitive_to_perturbations():
    profile = _cubic_profile()
    ch = profile(64).with_power(snr_db_to_power(64, 1.0, 5.0))
    swf = waterfill(ch.mean_gains, ch.n0, ch.p_total)
    upper = jensen_upper(ch, swf)
    base = exact_rate(ch, swf) / upper
    rng = np.random.default_rng(7)
    for _ in range(5):
        perturbed = swf.powers * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, ch.n))
        perturbed = PowerAllocation(perturbed * ch.p_total / perturbed.sum())
        ratio = exact_rate(ch, perturbed) / upper
        assert abs(ratio - base) <= 0.01
