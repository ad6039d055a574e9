import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from gamma_mean import log1p_mean_expansion

from simocap import channel as channel_module, rates, specfun
from simocap.alloc import equal_power, optimal_allocation, waterfill
from simocap.channel import ParallelChannel, build_decay_profile
from simocap.ingest import generate_snapshots, simo_gains
from simocap.rates import (
    MetricUndefinedError,
    bound_ratio,
    bound_ratio_expansion,
    empirical_rate,
    exact_rate,
    jensen_upper,
    markov_lower,
    mpe,
    mpe_slope,
    rate_table,
    snr_db_to_power,
)
from simocap.specfun import NumericError, _gamma_q, reg_gamma_q


def _single(theta=1.0, m=1.0, L=1, n0=1.0, p=1.0):
    ch = ParallelChannel(theta=[theta], shape=m * L, n0=n0)
    return ch, np.array([p])


def _markov_at(ch, powers, a):
    # the Markov bound at explicit parameters a, from the public Q: a*Q(k, (k/load)*(e^a - 1))
    # summed over the powered bins
    loads = (np.asarray(powers, dtype=float) * ch.mean_gains / ch.n0).tolist()
    return math.fsum(a_n * reg_gamma_q(k, k / load * math.expm1(a_n))
                     for a_n, k, load in zip(a, ch.shape.tolist(), loads) if load > 0.0)


def _rate_of_one(theta, m, L, p, n0):
    # E[log(1 + p*g/n0)] for g ~ Gamma(m*L, theta): the exact rate of one subchannel
    ch = ParallelChannel(theta=[theta], shape=m * L, n0=n0)
    return exact_rate(ch, [p])


def test_exact_rate_of_an_exponential_subchannel_is_its_closed_form():
    mpmath = pytest.importorskip("mpmath")
    spec = (1.0, 1.0, 1)  # theta, m, L
    value = _rate_of_one(*spec, 1.0, 1.0)
    assert math.isclose(value, math.e * float(mpmath.e1(1.0)), rel_tol=1e-9)
    assert _rate_of_one(*spec, 0.0, 1.0) == 0.0


def test_exact_rate_of_a_subchannel_never_exceeds_its_rate_at_the_mean_gain():
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


def test_exact_rate_of_a_subchannel_matches_monte_carlo():
    theta, m, L = 0.5, 2.0, 3
    p, n0 = 1.7, 0.8
    value = _rate_of_one(theta, m, L, p, n0)
    rng = np.random.default_rng(42)
    draws = np.log1p(p * rng.gamma(m * L, theta, 200_000) / n0)
    se = draws.std(ddof=1) / math.sqrt(draws.size)
    assert abs(value - draws.mean()) <= 3.0 * se


def test_jensen_upper_basics():
    ch, powers = _single()
    assert math.isclose(jensen_upper(ch, powers), math.log(2.0), rel_tol=1e-15)
    ch2 = ParallelChannel(theta=[1.0, 2.0], shape=1.0, n0=1.0)
    zero_second = np.array([1.0, 0.0])
    assert math.isclose(jensen_upper(ch2, zero_second), math.log(2.0), rel_tol=1e-15)
    with pytest.raises(ValueError):
        jensen_upper(ch2, powers)


def test_jensen_at_waterfill_beats_random_allocations():
    rng = np.random.default_rng(1)
    ch = ParallelChannel(theta=[0.2, 0.7, 1.9], shape=2.0, n0=1.0)
    swf = waterfill(ch.mean_gains, ch.n0, 2.0)[0]
    best = jensen_upper(ch, swf)
    for powers in rng.dirichlet(np.ones(3), size=1000) * 2.0:
        assert best >= jensen_upper(ch, powers) - 1e-12


def test_markov_lower_single_exponential_value():
    # one exponential subchannel, a = ln 2: the bound is ln(2) * Q(1, 1) = ln(2)/e
    ch, powers = _single()
    value = _markov_at(ch, powers, [math.log(2.0)])
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
        ch = ParallelChannel(*zip(*subs), n0=10 ** rng.uniform(-0.5, 0.5))
        powers = waterfill(ch.mean_gains, ch.n0, 10 ** rng.uniform(-0.5, 1))[0]
        rate = exact_rate(ch, powers)
        lowers = markov_lower(ch, powers), markov_lower(ch, powers, alpha=0.5)
        for lower in (*lowers, _markov_at(ch, powers, [0.3] * n)):
            assert lower <= rate + 1e-9


def test_markov_lower_vanishes_as_a_goes_to_zero():
    ch, powers = _single()
    assert _markov_at(ch, powers, [1e-12]) < 1e-11


def test_markov_lower_argument_validation():
    ch, powers = _single()
    with pytest.raises(ValueError):
        markov_lower(ch, powers, alpha=1.5)
    with pytest.raises(TypeError):  # the two rules of the paper are the only ones
        markov_lower(ch, powers, a_values=[0.5])


def test_markov_lower_skips_zero_power_subchannels():
    ch = ParallelChannel(theta=[1.0, 1.0], shape=1.0, n0=1.0)
    powers = np.array([1.0, 0.0])
    with_zero = _markov_at(ch, powers, [math.log(2.0), -5.0])
    # the a value on the unpowered subchannel is irrelevant
    assert math.isclose(with_zero, math.log(2.0) * math.exp(-1.0), rel_tol=1e-12)
    # and so is the subchannel itself, under either rule
    single, _ = _single()
    for rule in ({}, {"alpha": 0.5}):
        assert markov_lower(ch, powers, **rule) == markov_lower(single, [1.0], **rule)


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
    return ParallelChannel(*zip(*subs), n0=1.0), powers


def test_markov_lower_mixed_channel_is_sum_of_single_subchannels():
    ch, powers = _mixed_channel_12()
    a_values = np.linspace(0.2, 2.0, 12)
    a_values[4] = -1.0  # ignored on the unpowered subchannel
    for bound in (
        lambda c, p, a: markov_lower(c, p),
        lambda c, p, a: markov_lower(c, p, alpha=0.5),
        _markov_at,
    ):
        parts = []
        for i, p in enumerate(powers):
            single = ParallelChannel([ch.theta[i]], ch.shape[i], n0=ch.n0)
            parts.append(bound(single, [p], a_values[i : i + 1]))
        assert parts[4] == 0.0
        assert math.isclose(bound(ch, powers, a_values), math.fsum(parts), rel_tol=1e-14)


def test_markov_lower_max_rule_beats_a_fine_grid():
    # The maximised term must be at least the term at every point of a
    # fine grid over (0, 50]; the slack is a few ulps of rounding in Q.  At
    # huge power the term is a*Q(k, ~0) = a up to the grid's end and
    # beyond, at tiny power it falls from the first grid point on.  Below
    # shape 1 the term a*Q(k, c*(e^a - 1)) need not be log-concave in a,
    # so those shapes are checked too, for c = n0/(p*theta) from 1e-6 to 1e6.
    ch, powers = _mixed_channel_12()
    singles = [
        (ch.theta[i], ch.shape[i], ch.n0, p) for i, p in enumerate(powers) if p > 0.0
    ]
    singles += [(1.0, 2.0 * 64, 1.0, 1e25), (1.0, 2.0 * 64, 1.0, 1e-9)]
    singles += [
        (1.0, k, 1.0, 1.0 / c) for k in (0.1, 0.33, 0.5, 0.9) for c in np.geomspace(1e-6, 1e6, 13)
    ]
    grid = np.geomspace(1e-6, 50.0, 2000)
    for theta, shape, n0, p in singles:
        single = ParallelChannel([theta], shape, n0=n0)
        best = markov_lower(single, [p])
        # Q over the whole grid in one kernel call, at x formed with
        # math.expm1: np.expm1 can differ by an ulp, which moves tail terms
        x = np.array([(n0 / p) * math.expm1(a) / theta for a in grid.tolist()])
        terms = grid * _gamma_q(shape, x)[0]
        worst = int(np.argmax(terms))
        assert best >= terms[worst] * (1.0 - 4e-16), (theta, shape, p, grid[worst])


def _mpmath_max_markov_term(mpmath, k, c):
    """30-digit max over a > 0 of a*Q(k, c*expm1(a)), from h'(a) = 0.

    h'(a) = Q(k, x) - a*(x + c)*phi(x), with x = c*expm1(a) and phi the
    Gamma(k, 1) density, is positive at x = 1e-8 and negative at x = 1e7
    for the cases below.  Geometric bisection between them brackets its
    root to about 1e-10 relative, then ``findroot`` polishes it; bisecting
    first keeps the solver away from the far right, where h' underflows to
    a flat zero.  The bracket stays in x, not in a: at x near 1e35 the
    30-digit exponent of e^-x is off by far more than 1, which can flip
    the sign of h'.
    """
    with mpmath.workdps(30):
        k, c = mpmath.mpf(k), mpmath.mpf(c)
        log_gamma_k = mpmath.loggamma(k)

        def q(a):
            return mpmath.gammainc(k, c * mpmath.expm1(a), regularized=True)

        def dh(a):
            x = c * mpmath.expm1(a)
            return q(a) - a * (x + c) * mpmath.exp((k - 1) * mpmath.log(x) - x - log_gamma_k)

        lo, hi = mpmath.log1p(mpmath.mpf("1e-8") / c), mpmath.log1p(mpmath.mpf("1e7") / c)
        assert dh(lo) > 0 > dh(hi)
        for _ in range(40):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if dh(mid) > 0 else (lo, mid)
        a = mpmath.findroot(dh, (lo, hi), solver="anderson")
        assert lo <= a <= hi
        return float(a * q(a))


@pytest.mark.parametrize("k", [0.1, 0.33, 0.5, 1.0, 4.0, 64.0, 1e3, 1e5])
def test_markov_max_rule_matches_mpmath_maximiser(k):
    # one subchannel with theta = n0 = 1 and p = 1/c, so the term is
    # a*Q(k, c*expm1(a)); the tolerance is the one reg_gamma_q is held to
    mpmath = pytest.importorskip("mpmath")
    for c in (1e-3, 0.15, 1.0, 30.0):
        ch, powers = _single(theta=1.0, m=k, L=1, p=1.0 / c)
        assert math.isclose(
            markov_lower(ch, powers), _mpmath_max_markov_term(mpmath, k, c), rel_tol=1e-10
        ), c


@pytest.mark.parametrize("k", [0.1, 0.5, 4.0, 1e5])
def test_markov_max_rule_matches_mpmath_maximiser_at_extreme_powers(k):
    # c = n0/(p*theta) = 1e14 puts the maximising a near 1e-14*max(k, 1),
    # and c = 1e-14 near log(max(k, 1)/c), 32 to 44
    mpmath = pytest.importorskip("mpmath")
    for c in (1e-14, 1e14):
        ch, powers = _single(theta=1.0, m=k, L=1, p=1.0 / c)
        assert math.isclose(
            markov_lower(ch, powers), _mpmath_max_markov_term(mpmath, k, c), rel_tol=1e-10
        ), c


def test_markov_max_rule_at_shape_one_is_its_lambert_w_closed_form():
    # At k = 1, Q(1, x) = e^-x and c = 1/l, so h'(a) = e^-x*(1 - a*e^a/l) vanishes at
    # a = W(l), the Lambert W of the load (Corless et al., Adv. Comput. Math. 5, 1996),
    # where the term is W*exp(-expm1(W)/l).  The loads run from 1e-300 to 1e300, five
    # a decade; below about 1e-16, W(l) = l - l^2 + ... is within an ulp of the
    # derived bound log1p(l).  The oracle keeps -expm1(W)/l: its equal 1/l - 1/W
    # cancels to 0 at l = 1e-300, even at 40 digits.  The tolerance is the one
    # reg_gamma_q is held to.
    mpmath = pytest.importorskip("mpmath")
    loads = np.geomspace(1e-300, 1e300, 3001)
    terms = rates._max_markov_terms(np.ones(loads.size), loads)
    with mpmath.workdps(40):
        for load, term in zip(loads.tolist(), terms.tolist()):
            w = mpmath.lambertw(mpmath.mpf(load)).real
            oracle = float(w * mpmath.exp(-mpmath.expm1(w) / load))
            assert term == pytest.approx(oracle, rel=1e-13, abs=0.0), load


def test_markov_max_rule_raises_at_once_where_its_curvature_is_not_negative(monkeypatch):
    # a density of exactly 0 makes h' = Q > 0 and h'' = 0: the Newton point is
    # undefined, and the search raises at its first step rather than step elsewhere
    calls = []

    def gamma_q(k, x):
        calls.append(np.size(x))
        return _gamma_q(k, x)[0], np.full(np.size(x), -np.inf)

    monkeypatch.setattr(rates, "_gamma_q", gamma_q)
    k = np.array([0.5, 1.0, 4.0])
    with pytest.raises(NumericError, match=r"h'' >= 0 or a Newton point a <= 0"):
        rates._max_markov_terms(k, np.full(3, 2.0))
    assert calls == [3]


def test_markov_max_rule_beats_every_alpha_rule_and_no_more_than_the_exact_rate():
    # one subchannel per (shape, power) pair, p from 1e-300 to 1e300, each
    # bounded alone as one row of a diagonal stack.  Maximising over a can
    # only gain on the paper's a = log(1 + alpha*p*mu/n0), up to rounding
    # in Q; and the Markov bound is a lower bound on the exact rate, up to
    # the quadrature's 1e-13 relative accuracy.
    shapes = np.repeat([0.1, 0.5, 1.0, 4.0, 100.0, 1e5], 13)
    powers = np.tile(10.0 ** np.arange(-300.0, 301.0, 50.0), 6)
    ch, stack = ParallelChannel(theta=1.0 / shapes, shape=shapes, n0=1.0), np.diag(powers)
    best = markov_lower(ch, stack)
    for alpha in (0.1, 0.3, 0.5, 0.7, 0.9, 0.99):
        rule = markov_lower(ch, stack, alpha=alpha)
        low = best < rule * (1.0 - 1e-15)
        assert not low.any(), (alpha, shapes[low], powers[low])
    assert np.all(best > 0.0) and np.all(best <= exact_rate(ch, stack) * (1.0 + 1e-13))


def test_markov_max_rule_search_cost_is_bounded(monkeypatch):
    # every subchannel's search over shapes 0.1 to 1e5 and c = n0/(p*theta)
    # from 1e-12 to 1e12 converges within 20 steps, one call of the Q kernel
    # each, and the terms come from the Q of each converged step, so there
    # is no call after the last step.  A regression guard on the cost of the
    # search, not a bound on its accuracy.
    calls = []

    def gamma_q(k, x):
        calls.append(np.size(x))
        return _gamma_q(k, x)

    monkeypatch.setattr(rates, "_gamma_q", gamma_q)
    grid = np.meshgrid(np.geomspace(0.1, 1e5, 61), np.geomspace(1e-12, 1e12, 49))
    k, c = (v.ravel() for v in grid)
    terms = rates._max_markov_terms(k, k / c)
    assert np.all(terms > 0.0)
    assert len(calls) <= 20, calls
    # as many calls as steps: the grid converges at a cap of that many steps, not one fewer
    steps = len(calls)
    monkeypatch.setattr(rates, "_ITER_CAP", steps)
    assert rates._max_markov_terms(k, k / c).tolist() == terms.tolist()
    monkeypatch.setattr(rates, "_ITER_CAP", steps - 1)
    with pytest.raises(NumericError, match="did not converge"):
        rates._max_markov_terms(k, k / c)


def test_markov_alpha_rule_forms_q_once_per_shape_in_each_pass(monkeypatch):
    # Q(k, alpha*k) reads the shape alone: on the 588-bin one-shape profile
    # (m = 0.5, L = 1), the waterfilling stack of the default SNR grid, -20 to
    # 20 dB, has 19,597 powered pairs: 3 passes, each sending the Q kernel one entry
    calls = []

    def gamma_q(k, x):
        calls.append(np.size(x))
        return _gamma_q(k, x)

    ch = build_decay_profile(588, 5e9, 6e9, 3.0, 0.5, 1, 1.0)
    stack = [waterfill(ch.mean_gains, ch.n0, snr_db_to_power(ch.n, ch.n0, snr))[0]
             for snr in range(-20, 21)]
    assert np.count_nonzero(stack) == 19_597
    bounds = markov_lower(ch, stack, alpha=0.5)
    monkeypatch.setattr(rates, "_gamma_q", gamma_q)
    assert markov_lower(ch, stack, alpha=0.5).tolist() == bounds.tolist()
    assert calls == [1, 1, 1]
    # and a pass of several shapes sends each once
    ch2, powers = _mixed_channel_12()
    calls.clear()
    markov_lower(ch2, powers, alpha=0.5)
    assert calls == [np.unique(ch2.shape[powers > 0.0]).size]


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
    ch = ParallelChannel(thetas, shapes, n0=n0)
    with mpmath.workdps(30):
        terms = []
        for k, theta, p in zip(shapes, thetas, powers.tolist()):
            if p > 0.0:
                k, theta, p = mpmath.mpf(k), mpmath.mpf(theta), mpmath.mpf(p)
                a = mpmath.log1p(alpha * p * theta * k / n0)
                x = (n0 / p) * mpmath.expm1(a) / theta
                terms.append(a * mpmath.gammainc(k, x, mpmath.inf, regularized=True))
        oracle = float(mpmath.fsum(terms))
    value = markov_lower(ch, powers, alpha=alpha)
    assert value == pytest.approx(oracle, rel=1e-13, abs=0.0)


def test_markov_max_rule_raises_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(rates, "_ITER_CAP", 1)
    ch, powers = _single(theta=1.0, m=2.0, L=4, p=3.0)
    with pytest.raises(NumericError):
        markov_lower(ch, powers)


def _wide_channel_stack(rows):
    # the 12 shapes 0.1 to 1e5, unsorted, with mean gains 0.1 to 10, and a
    # stack of allocations: log-uniform powers 1e-4 to 1e4, a quarter of
    # them zero, one all-zero row and the two end-of-range powers
    k = np.geomspace(0.1, 1e5, 12)[[5, 0, 11, 3, 8, 1, 10, 6, 2, 9, 4, 7]]
    ch = ParallelChannel(theta=np.geomspace(0.1, 10.0, 12) / k, shape=k, n0=1.0)
    rng = np.random.default_rng(22)
    stack = 10.0 ** rng.uniform(-4.0, 4.0, (rows, 12))
    stack[rng.random((rows, 12)) < 0.25] = 0.0
    stack[1] = 0.0
    stack[2, :6], stack[2, 6:] = 1e25, 1e-9
    return ch, stack


@pytest.mark.parametrize("alpha", [None, 0.5])
@pytest.mark.parametrize("rows", [5, 1000], ids=["one-chunk", "past-one-chunk"])
def test_markov_lower_of_a_stack_is_its_rows_bound_by_bound(alpha, rows):
    # 1,000 rows hold about 9,000 powered subchannels, more than one chunk
    # of 8,192; each row checked equals its own 1-D call exactly.  Past one
    # chunk, every 25th row and the rows around the chunk's end are checked
    # (a 1-D call at shape 1e5 takes about 20 ms).
    ch, stack = _wide_channel_stack(rows)
    ends = np.cumsum(np.count_nonzero(stack, axis=1))
    cut = int(np.searchsorted(ends, rates._PAIR_CHUNK))  # the row the first chunk ends in
    assert (cut < rows) == (rows > 5)
    bounds = markov_lower(ch, stack, alpha=alpha)
    assert isinstance(bounds, np.ndarray) and bounds.shape == (rows,)
    checked = set(range(0, rows, 25)) | {1, 2, cut - 1, cut, cut + 1, rows - 1}
    for i in sorted(checked & set(range(rows))):
        assert bounds[i] == markov_lower(ch, stack[i], alpha=alpha), i
    assert bounds[1] == 0.0
    assert markov_lower(ch, stack[:0], alpha=alpha).shape == (0,)


@pytest.mark.parametrize("rate, node_budget", [
    (jensen_upper, None), (exact_rate, None),
    (exact_rate, lambda nodes_per_bin: 1), (exact_rate, lambda nodes_per_bin: 5 * nodes_per_bin),
    (exact_rate, "five pairs a call"), (jensen_upper, "five pairs a call"),
], ids=["jensen_upper", "exact_rate", "exact_rate-one-node-a-pass", "exact_rate-five-bins-a-pass",
        "exact_rate-five-pairs-a-call", "jensen_upper-five-pairs-a-call"])
def test_jensen_and_exact_rate_of_a_stack_are_its_rows_rate_by_rate(rate, node_budget, monkeypatch):
    # the stack has zero-power bins and an all-zero row; a vector gives a
    # float.  A budget of 1 node applies exact_rate's rule to one bin a pass,
    # and one of 5 bins' nodes cuts inside rows; each row still equals its
    # 1-D call at the default budget.  So it does where term calls of 5
    # powered (row, bin) pairs cut inside rows.
    ch, stack = _wide_channel_stack(40)
    alone = [rate(ch, row) for row in stack]
    if node_budget == "five pairs a call":
        monkeypatch.setattr(rates, "_PAIR_CHUNK", 5)
    elif node_budget is not None:
        nodes_per_bin = specfun._gamma_rule(ch.shape)[0].shape[1]
        monkeypatch.setattr(specfun, "_NODE_CHUNK", node_budget(nodes_per_bin))
    values = rate(ch, stack)
    assert isinstance(values, np.ndarray) and values.shape == (40,)
    assert all(type(v) is float for v in alone)
    assert values.tolist() == alone
    assert values[1] == 0.0
    assert rate(ch, stack[::-1]).tolist() == alone[::-1]
    assert rate(ch, stack[:0]).shape == (0,)


@pytest.mark.parametrize("rate", [jensen_upper, exact_rate, markov_lower])
def test_every_bound_of_a_stack_in_any_memory_layout_is_its_rows_bound_by_bound(rate):
    # 40 rows of 300 bins at shape 0.5, about 30 % of the powers zero, in C order,
    # in Fortran order and as a strided view: each row is summed over its own
    # bins alone, in C order, so each equals its own 1-D call exactly
    ch = build_decay_profile(300, 5e9, 6e9, 3.0, 0.5, 1, 1.0)
    rng = np.random.default_rng(39)
    stack = rng.uniform(0.0, 2.0, (40, 300))
    stack[rng.random(stack.shape) < 0.3] = 0.0
    alone = [rate(ch, row) for row in stack]
    spaced = np.zeros((40, 600))
    spaced[:, ::2] = stack
    for layout in (stack, np.asfortranarray(stack), spaced[:, ::2]):
        assert rate(ch, layout).tolist() == alone


def test_exact_rate_working_set_is_its_rule_its_stack_and_a_bounded_pass():
    # 8 rows over 4,096 bins at shape 0.5 (480 nodes a bin): the rule is one
    # row, 7.5 KiB, and a row index a bin, and all 32,768 bins are powered.
    # Beyond the rule, exact_rate holds at most 8 stack-sized arrays (the
    # loads and their temporary, the powered pairs' rows, bins, loads and
    # terms, and masks) and, per pass, 3 arrays of at most _NODE_CHUNK nodes
    # (the nodes, scaled in place to the integrand, and the weights), not a
    # row's 15 MiB.
    ch = build_decay_profile(4096, 5e9, 6e9, 3.0, 0.5, 1, 1.0)
    stack = np.geomspace(1e-3, 1e3, 8)[:, None] * np.ones(ch.n)
    rule_bytes = sum(part.nbytes for part in specfun._gamma_rule(ch.shape))
    tracemalloc.start()
    try:
        exact_rate(ch, stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= rule_bytes + 8 * stack.nbytes + 3 * 8 * specfun._NODE_CHUNK, peak


def test_rate_table_builds_one_rule_per_channel(monkeypatch):
    # the quadrature rule depends on the shapes only, so the channel builds it at first
    # use and the exact-rate stack and every optimal solve of the sweep read that one
    built = []

    def rule(*args):
        built.append(args)
        return specfun._gamma_rule(*args)

    monkeypatch.setattr(channel_module, "_gamma_rule", rule)
    ch = ParallelChannel(theta=np.geomspace(1e-2, 1e2, 12), shape=[0.5, 6.0, 1e3] * 4, n0=1.0)
    table = rate_table(lambda L: ch, [1], [-10.0, 0.0, 10.0, 20.0],
                       ["statistical-waterfill", "equal", "optimal"])
    assert table["c_lower_exact"].size == 12
    assert len(built) == 1
    for part in ch._rule:
        with pytest.raises(ValueError, match="read-only"):
            part[0] = part[0]


def test_markov_lower_does_not_depend_on_the_rows_that_share_its_stack(monkeypatch):
    ch, stack = _wide_channel_stack(8)
    alone = [markov_lower(ch, row) for row in stack]
    for mates in (stack[:0], stack[::-1], stack[[2, 2, 2]], np.full((3, 12), 1e-3)):
        both = np.vstack([mates, stack, mates])
        assert markov_lower(ch, both)[len(mates) : len(mates) + 8].tolist() == alone
    # and not on where the chunks cut it
    monkeypatch.setattr(rates, "_PAIR_CHUNK", 5)
    assert markov_lower(ch, stack).tolist() == alone
    # which holds because each subchannel's search stops on its own: its
    # maximised term is the one it gets alone
    p, on = stack[0], stack[0] > 0.0
    args = ch.shape[on], p[on] * ch.mean_gains[on] / ch.n0
    terms = rates._max_markov_terms(*args)
    singles = [rates._max_markov_terms(*(v[i : i + 1] for v in args))[0] for i in range(on.sum())]
    assert terms.tolist() == singles


def test_optimal_allocation_on_the_wide_channel_meets_its_budget_below_the_jensen_bound():
    # every row of the channel's rule but the longest is padded, in the solver's passes too
    ch = _wide_channel_stack(3)[0]
    powers = optimal_allocation(ch, 12.0)
    assert math.isclose(powers.sum(), 12.0, rel_tol=1e-12)
    assert 0.0 < exact_rate(ch, powers) < jensen_upper(ch, powers)


def test_exact_rate_additivity_and_jensen_domination():
    mpmath = pytest.importorskip("mpmath")
    ch = ParallelChannel(theta=[1.0, 1.0], shape=1.0, n0=1.0)
    powers = equal_power(2, 2.0)
    rate = exact_rate(ch, powers)
    assert math.isclose(rate, 2.0 * math.e * float(mpmath.e1(1.0)), rel_tol=1e-9)
    assert rate <= jensen_upper(ch, powers)
    half = np.array([2.0, 0.0])
    assert math.isclose(exact_rate(ch, half), _rate_of_one(1.0, 1.0, 1, 2.0, 1.0), rel_tol=1e-12)


def test_exact_rate_matches_integer_shape_closed_form_at_20_db():
    # the CLI's default profile (64 bins, m = 1, L = 4) under statistical
    # waterfilling at 20 dB.  For g ~ Gamma(k, theta) with integer k,
    # E[log(1 + c*g)] = e^s * sum_{j<k} s^j * Gamma(-j, s), s = 1/(c*theta)
    mp = pytest.importorskip("mpmath")
    ch = build_decay_profile(64, 5e9, 6e9, 3.0, 1.0, 4, 1.0)
    powers = waterfill(ch.mean_gains, ch.n0, snr_db_to_power(ch.n, ch.n0, 20.0))[0]
    with mp.workdps(30):
        ref = mp.mpf(0)
        for theta, p in zip(ch.theta, powers):
            if p > 0.0:
                s = ch.n0 / (mp.mpf(float(p)) * mp.mpf(float(theta)))
                ref += mp.exp(s) * mp.fsum(s**j * mp.gammainc(-j, s) for j in range(4))
    assert exact_rate(ch, powers) == pytest.approx(float(ref), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("shape", [1e3, 1e4, 1e5])
def test_exact_rate_matches_its_large_shape_expansion(shape):
    # With X = g/mu ~ Gamma(k, 1/k), Y = X - 1 and t = l/(1 + l),
    #   log1p(l*X) = log1p(l) + log1p(t*Y) = log1p(l) + sum_n (-1)^(n+1) t^n Y^n / n.
    # E[Y^n] is the sum over the set partitions of n things into blocks of two or more
    # of the products of the cumulants kappa_j = (j - 1)!/k^(j - 1), so b blocks give
    # order k^(b - n) (Johnson, Kotz and Balakrishnan, vol. 1, ch. 17).  Collecting:
    #   k^-1: E[Y^2] = 1/k;  k^-2: E[Y^3] -> 2 and E[Y^4] -> 3;
    #   k^-3: E[Y^4], E[Y^5], E[Y^6] -> 6, 20, 15, so c3(t) = -(3/2)t^4 + 4t^5 - (5/2)t^6;
    #   k^-4: E[Y^5] to E[Y^8] -> 24, 130, 210, 105, so
    #         c4(t) = (24/5)t^5 - (65/3)t^6 + 30t^7 - (105/8)t^8;
    #   k^-5: E[Y^6] to E[Y^10] -> 120, 924, 2380, 2520, 945, whose c5 has sup 0.0449.
    # E3 (gamma_mean.log1p_mean_expansion) stops at c3; its error is c4(t)/k^4 + c5(t)/k^5
    # + ..., held to sup|c4|/k^4 on [0, 1] plus the rule's 1e-13 relative.  From k = 1e3,
    # sup|c5|/k^5 < 5e-17 is below 1e-13 times the rate at the least load, 1e-3.  The bound
    # reaches one order past E2, since c3 vanishes at t = 0.6 and t = 1.
    c4 = np.polynomial.Polynomial([0, 0, 0, 0, 0, 24 / 5, -65 / 3, 30, -105 / 8])
    ends = [t.real for t in c4.deriv().roots() if t.imag == 0.0 and 0.0 <= t.real <= 1.0]
    sup = max(abs(c4(t)) for t in [*ends, 1.0])
    assert sup == pytest.approx(0.0299, abs=1e-4)  # at t = 0.950
    loads = np.geomspace(1e-3, 1e3, 61)
    ch = ParallelChannel(theta=[1.0 / shape], shape=shape, n0=1.0)
    assert ch.mean_gains.tolist() == [1.0]  # so each power is its load
    exact = exact_rate(ch, loads[:, None])
    error = np.abs(exact - log1p_mean_expansion(loads, shape))
    assert np.all(error <= sup / shape**4 + 1e-13 * exact)


def test_empirical_rate_matches_exact_rate():
    ch = build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, 2, 1.0)
    powers = waterfill(ch.mean_gains, ch.n0, 4.0)[0]
    gains = simo_gains(generate_snapshots(ch, 100_000, seed=77, n_branches=2), range(2))
    emp = empirical_rate(gains, powers, ch.n0)
    per_snapshot = np.log1p(gains * (powers / ch.n0)).sum(axis=1)
    se = per_snapshot.std(ddof=1) / math.sqrt(per_snapshot.size)
    assert abs(emp - exact_rate(ch, powers)) <= 3.0 * se


def test_empirical_rate_single_snapshot_and_permutation_invariance():
    ch = build_decay_profile(3, 5e9, 6e9, 3.0, 1.0, 2, 1.0)
    powers = equal_power(3, 1.0)
    gains = simo_gains(generate_snapshots(ch, 50, seed=5, n_branches=2), range(2))
    single = empirical_rate(gains[:1], powers, ch.n0)
    expected = sum(
        math.log1p(float(p) * float(g) / ch.n0)
        for g, p in zip(gains[0], powers)
    )
    assert math.isclose(single, expected, rel_tol=1e-12)
    rng = np.random.default_rng(0)
    shuffled = gains[rng.permutation(50)]
    assert math.isclose(
        empirical_rate(gains, powers, ch.n0), empirical_rate(shuffled, powers, ch.n0), rel_tol=1e-12
    )


def test_empirical_rate_validates_its_inputs():
    powers = equal_power(2, 1.0)
    gains = np.array([[1.0, 2.0], [0.5, 0.0]])
    assert empirical_rate(gains.tolist(), powers, 1.0) == empirical_rate(gains, powers, 1.0)
    # the noise level is checked as waterfill checks it: nan and inf are not noise levels
    for n0 in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="n0 must be positive and finite"):
            empirical_rate(gains, powers, n0)
    # a (snapshots, subchannels) array with one column per power, at least one row
    for shape_fault in (gains[0], gains[:, :1], gains[:0], gains[None]):
        with pytest.raises(ValueError, match=r"gains must be a \(snapshots, 2\) array"):
            empirical_rate(shape_fault, powers, 1.0)
    for bad in (-0.5, math.nan, math.inf):
        faulty = gains.copy()
        faulty[1, 0] = bad
        with pytest.raises(ValueError, match="gains must be finite and nonnegative"):
            empirical_rate(faulty, powers, 1.0)


def test_mpe_values_and_errors():
    assert mpe(1.0, 1.0) == 0.0
    assert math.isclose(mpe(1.1, 1.0), 10.0, rel_tol=1e-12)
    with pytest.raises(MetricUndefinedError):
        mpe(1.0, 0.0)
    with pytest.raises(ValueError):
        mpe(0.9, 1.0)


def test_mpe_forgives_an_exact_rate_above_jensen_by_its_accuracy_alone():
    # the exact rate is held to 1e-13 relative, so it may exceed the Jensen
    # bound by that much where the two agree to rounding; beyond, mpe raises
    slack = rates._RATE_RTOL
    assert slack == 1e-13
    assert -1e-13 < mpe(1.0, math.nextafter(1.0, 2.0)) < 0.0  # one ulp above
    assert -100.0 * slack <= mpe(1.0 - 0.5 * slack, 1.0) < 0.0
    # 1 - slack is c_lower*(1 - slack) to the bit, the edge of the accuracy: forgiven
    assert math.isclose(mpe(1.0 - slack, 1.0), -100.0 * slack, rel_tol=1e-3)
    with pytest.raises(ValueError, match="must not be below c_lower"):
        mpe(math.nextafter(1.0 - slack, 0.0), 1.0)
    with pytest.raises(ValueError, match=r"c_upper \(0.9999999999998\) must not be below c_lower"):
        mpe(1.0 - 2.0 * slack, 1.0)


@pytest.mark.parametrize("L", [1, 2, 4, 8, 16, 64])
def test_rate_table_at_very_low_snr_gives_an_mpe_near_zero(L):
    # at -300 dB the rates agree to rounding: the exact rate of L = 8 on the
    # default profile exceeds its Jensen bound by one ulp
    table = rate_table(_cubic_profile(), [L], [-300.0, -200.0], ["statistical-waterfill"],
                       markov=False)
    assert np.all(np.abs(table["mpe_percent"]) <= 100.0 * rates._RATE_RTOL)


def test_snr_db_to_power_names_an_snr_whose_power_is_not_finite_and_positive():
    assert snr_db_to_power(64, 1.0, 0.0) == 64.0
    for snr_db, fault in ((-4000.0, "underflows to 0"), (4000.0, "overflows"),
                          (3080.0, "overflows"),  # 10**308 is finite, 64 times it is not
                          (math.nan, "is not a number")):
        with pytest.raises(ValueError, match=rf"^SNR {snr_db!r} dB gives a power that {fault}$"):
            snr_db_to_power(64, 1.0, snr_db)


def test_bound_ratio_direct_value():
    # m=1, L=1, beta=1, alpha=0.5: log(1.5)/log(2) * exp(-1/2)
    value = bound_ratio(m=1.0, L=1, beta=1.0, alpha=0.5)
    expected = math.log(1.5) / math.log(2.0) * math.exp(-0.5)
    assert math.isclose(value, expected, rel_tol=1e-12)


def test_bound_ratio_validates_its_parameters():
    for m in (0.4, math.inf, math.nan):
        with pytest.raises(ValueError, match="m must be >= 0.5"):
            bound_ratio(m=m, L=1, beta=1.0, alpha=0.5)
    for L in (0, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="L must be a positive integer"):
            bound_ratio(m=1.0, L=L, beta=1.0, alpha=0.5)
    for beta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="beta must be positive and finite"):
            bound_ratio(m=1.0, L=1, beta=beta, alpha=0.5)


@pytest.mark.parametrize("alpha", [0.0, 1.0, -0.5, 1.5, math.inf, math.nan])
def test_every_alpha_rule_rejects_alpha_outside_the_unit_interval(alpha):
    ch, powers = _single()
    calls = (
        lambda: markov_lower(ch, powers, alpha=alpha),
        lambda: bound_ratio(m=1.0, L=4, beta=1.0, alpha=alpha),
        lambda: bound_ratio_expansion(1.0, 4.0, alpha),
    )
    for call in calls:
        with pytest.raises(ValueError, match="alpha must lie strictly between 0 and 1"):
            call()


def test_bound_ratio_stays_inside_unit_interval():
    rng = np.random.default_rng(3)
    for _ in range(50):
        value = bound_ratio(
            m=float(rng.choice([0.5, 1.0, 2.0, 4.0])),
            L=int(rng.integers(1, 50)),
            beta=10 ** rng.uniform(-1, 2),
            alpha=float(rng.uniform(0.05, 0.95)),
        )
        assert 0.0 < value < 1.0


def test_bound_ratio_increases_toward_one():
    values = [
        bound_ratio(m=1.0, L=L, beta=1.0, alpha=0.5) for L in (10, 100, 1000)
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
        ch, powers = _single(theta=theta, m=m, L=L, n0=n0, p=p)
        quotient = markov_lower(ch, powers, alpha=alpha) / jensen_upper(ch, powers)
        direct = bound_ratio(m=m, L=L, beta=p * theta * m / n0, alpha=alpha)
        assert abs(quotient - direct) <= 1e-12


def test_ratio_expansion_terms():
    log_term = bound_ratio_expansion(1.0, math.exp(2.0), 0.5)[0]
    assert math.isclose(log_term, 1.0 + math.log(0.5) / 2.0, rel_tol=1e-12)
    # the gamma term depends on m*L only; m*L = 1 here
    expected_gamma = 1.0 - (0.5 * math.exp(0.5)) / (0.5 * math.sqrt(2.0 * math.pi))
    assert math.isclose(bound_ratio_expansion(0.5, 2.0, 0.5)[1], expected_gamma, rel_tol=1e-12)
    assert bound_ratio_expansion(1.0, 100.0, 0.5)[1] > 0.999999
    with pytest.raises(ValueError, match="needs L >= 2"):
        bound_ratio_expansion(1.0, 1.5, 0.5)
    with pytest.raises(ValueError, match="m must be >= 0.5"):
        bound_ratio_expansion(0.4, 100.0, 0.5)


def test_ratio_expansion_tracks_exact_ratio_at_large_diversity():
    for L in (10_000, 30_000, 100_000):
        exact = bound_ratio(m=1.0, L=L, beta=1.0, alpha=0.5)
        log_term, gamma_term = bound_ratio_expansion(1.0, float(L), 0.5)
        assert abs(exact - log_term * gamma_term) <= 0.02


def test_rate_table_c_upper_is_the_jensen_bound_at_waterfilling():
    # the table's c_upper is the AWGN reference: waterfilling on the means is
    # optimal for the channel with gains fixed there, and 0 dB gives p_total = 2
    ch = ParallelChannel(theta=[1.0, 1.0], shape=1.0, n0=1.0)
    table = rate_table(lambda L: ch, [1], [0.0], ["equal"], markov=False)
    assert math.isclose(table["c_upper"][0], 2.0 * math.log(2.0), rel_tol=1e-12)
    rng = np.random.default_rng(5)
    for _ in range(10):
        subs = [
            (10 ** rng.uniform(-1, 1), 1.0 * int(rng.integers(1, 5)))
            for _ in range(int(rng.integers(1, 6)))
        ]
        chr_ = ParallelChannel(*zip(*subs), n0=1.0)
        snr_db = 10.0 * math.log10(10 ** rng.uniform(-0.5, 1) / chr_.n)  # budget 10**U(-0.5, 1)
        table = rate_table(lambda L: chr_, [1], [snr_db], ["equal"], markov=False)
        swf = waterfill(chr_.mean_gains, chr_.n0, snr_db_to_power(chr_.n, chr_.n0, snr_db))[0]
        assert table["c_upper"][0] == jensen_upper(chr_, swf)


def test_rate_table_columns_equal_the_primitives():
    # the table is in nats; the CLI's bits tests cover the conversion
    profile = _cubic_profile(8)
    strategies = ["statistical-waterfill", "equal", "optimal"]
    for alpha in (None, 0.5):
        table = rate_table(profile, [2, 4], [-5.0, 5.0], strategies, alpha=alpha)
        assert list(table) == [
            "L", "snr_db", "strategy", "c_upper", "c_lower_exact", "c_lower_markov", "mpe_percent"
        ]
        assert all(column.shape == (12,) for column in table.values())
        row = 0
        for L in (2, 4):
            for snr_db in (-5.0, 5.0):
                ch, p_total = profile(L), snr_db_to_power(8, 1.0, snr_db)
                swf = waterfill(ch.mean_gains, ch.n0, p_total)[0]
                allocs = (swf, equal_power(ch.n, p_total), optimal_allocation(ch, p_total))
                for strategy, powers in zip(strategies, allocs):
                    assert table["L"][row] == L
                    assert table["snr_db"][row] == snr_db
                    assert table["strategy"][row] == strategy
                    c_upper = table["c_upper"][row]
                    c_exact = table["c_lower_exact"][row]
                    c_markov = table["c_lower_markov"][row]
                    assert c_upper == jensen_upper(ch, swf)
                    assert c_exact == exact_rate(ch, powers)
                    assert c_markov == markov_lower(ch, powers, alpha=alpha)
                    assert table["mpe_percent"][row] == mpe(c_upper, c_exact)
                    assert c_upper >= c_exact >= c_markov >= 0.0
                    row += 1


def test_rate_table_calls_each_bound_once_per_diversity_order(monkeypatch):
    # on the stack of its SNRs' waterfilling powers, or of every (SNR, strategy) allocation
    calls = []
    for name in ("jensen_upper", "exact_rate", "markov_lower"):
        def counted(ch, powers, _rate=getattr(rates, name), _name=name, **options):
            calls.append((_name, np.shape(powers)))
            return _rate(ch, powers, **options)

        monkeypatch.setattr(rates, name, counted)
    rate_table(_cubic_profile(8), [2, 4], [-5.0, 0.0, 5.0], ["statistical-waterfill", "equal"])
    assert calls == [("jensen_upper", (3, 8)), ("exact_rate", (6, 8)), ("markov_lower", (6, 8))] * 2


def test_rate_table_gives_both_lower_bounds_one_array_per_order(monkeypatch):
    # each order's allocations are one (rows, n) stack, which exact_rate and
    # markov_lower read as it is, not a list that each copies
    seen = {"exact_rate": [], "markov_lower": []}
    for name in seen:
        def recorded(ch, powers, _rate=getattr(rates, name), _seen=seen[name], **options):
            _seen.append(powers)
            return _rate(ch, powers, **options)

        monkeypatch.setattr(rates, name, recorded)
    rate_table(_cubic_profile(8), [2, 4], [-5.0, 0.0, 5.0], ["statistical-waterfill", "equal"])
    assert len(seen["exact_rate"]) == len(seen["markov_lower"]) == 2
    for exact, markov in zip(seen["exact_rate"], seen["markov_lower"]):
        assert type(exact) is np.ndarray and exact.shape == (6, 8)
        assert markov is exact


def test_rate_table_without_markov_and_with_a_callable_strategy():
    def fixed(ch, p_total):
        return np.full(ch.n, p_total / ch.n)

    table = rate_table(_cubic_profile(8), [4], [0.0, 10.0], [fixed, "equal"], markov=False)
    assert np.isnan(table["c_lower_markov"]).all()
    assert table["strategy"].tolist() == ["custom", "equal", "custom", "equal"]
    # the callable gives equal power, so its rows repeat the "equal" rows
    for name in ("c_upper", "c_lower_exact", "mpe_percent"):
        assert np.array_equal(table[name][0::2], table[name][1::2])


def test_rate_table_markov_column_survives_a_callable_that_reuses_its_buffer():
    # the Markov bounds of an L are taken after all its SNRs, so each
    # allocation must be the one its callable returned at that SNR
    buffer = np.empty(8)

    def reused(ch, p_total):
        buffer[:] = np.linspace(1.0, 2.0, ch.n) * (p_total / (1.5 * ch.n))
        return buffer

    profile = _cubic_profile(8)
    table = rate_table(profile, [4], [-5.0, 5.0, 15.0], [reused])
    ch = profile(4)
    for snr_db, c_markov in zip(table["snr_db"], table["c_lower_markov"]):
        fresh = np.linspace(1.0, 2.0, 8) * (snr_db_to_power(8, ch.n0, snr_db) / 12.0)
        assert c_markov == markov_lower(ch, fresh)


def test_rate_table_names_the_snr_of_an_allocation_its_strategy_refuses():
    # waterfilling accepts the channel and its loads are finite, but the strategy
    # refuses the budget by itself
    def refuses(ch, p_total):
        raise ValueError(f"no split of p_total {p_total!r}")

    ch = ParallelChannel(theta=[1.0, 1e307], shape=0.1, n0=1e-3)
    with pytest.raises(ValueError, match=r"^no split of p_total \S+ at SNR -10\.0 dB$"):
        rate_table(lambda L: ch, [1], [-10.0], ["statistical-waterfill", refuses])


def test_rate_table_rejects_an_unknown_tag_and_a_wrong_length_allocation():
    profile = _cubic_profile(8)
    with pytest.raises(ValueError, match="unknown strategy 'waterfill'"):
        rate_table(profile, [4], [0.0], ["equal", "waterfill"])

    def short(ch, p_total):
        return np.full(ch.n - 1, p_total / (ch.n - 1))

    with pytest.raises(ValueError, match="powers must be a 1-D vector of 8 entries"):
        rate_table(profile, [4], [0.0], [short])


@pytest.mark.parametrize("axis", ["l_values", "snr_db_values", "strategies"])
def test_rate_table_refuses_an_empty_axis_before_building_a_channel(axis):
    # an empty grid has no table: it is refused by name, before any profile is built
    built = []
    grid = {"l_values": [4], "snr_db_values": [0.0], "strategies": ["equal"], axis: []}
    with pytest.raises(ValueError, match=f"^{axis} must be non-empty$"):
        rate_table(lambda L: built.append(L) or _cubic_profile(8)(L), **grid)
    assert built == []


@pytest.mark.parametrize(
    "powers",
    [
        [[1.0, 1.0]], [[1.0], [1.0]], [[[1.0, 1.0]]],
        [1.0], [1.0, -0.1], [1.0, math.nan], [1.0, math.inf], 5.0,
    ],
    ids=["2-D", "2-D-short-rows", "3-D", "too-short", "negative", "nan", "inf", "0-d"],
)
def test_every_rate_rejects_bad_powers(powers):
    # an allocation is a plain array, so each rate checks the powers it is given;
    # the three bounds take a (rows, n) stack too, so only empirical_rate, which
    # takes one allocation, rejects the 2-D (1, n) case; the stack tests cover it
    ch = ParallelChannel(theta=[1.0, 2.0], shape=1.0, n0=1.0)
    calls = [lambda: empirical_rate(np.ones((3, 2)), powers, 1.0)]
    if np.shape(powers) != (1, 2):
        calls += [
            lambda: jensen_upper(ch, powers),
            lambda: exact_rate(ch, powers),
            lambda: markov_lower(ch, powers),
        ]
    for call in calls:
        with pytest.raises(ValueError, match=r"powers must be|gains must be a \(snapshots, 1\)"):
            call()
    for call in calls[1:] if np.ndim(powers) == 0 else []:  # a scalar's shape is named
        with pytest.raises(ValueError, match=r"^powers must be .*, got shape \(\)$"):
            call()


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
        ch = ParallelChannel(*zip(*subs), n0=n0)
        powers = waterfill(ch.mean_gains, ch.n0, snr_db_to_power(n, n0, snr_db))[0]
        lower = markov_lower(ch, powers)
        rate = exact_rate(ch, powers)
        upper = jensen_upper(ch, powers)
        assert rate - lower >= -1e-9
        assert upper - rate >= -1e-9


def _cubic_profile(n_bins=64):
    def profile(L):
        return build_decay_profile(n_bins, 5e9, 6e9, 3.0, 1.0, L, 1.0)

    return profile


def test_rate_table_mpe_of_waterfilling_shrinks_with_diversity():
    orders = [1, 2, 4, 8, 16]
    table = rate_table(_cubic_profile(), orders, [5.0], ["statistical-waterfill"], markov=False)
    mpes = table["mpe_percent"]
    assert table["L"].tolist() == orders
    assert all(b < a for a, b in zip(mpes, mpes[1:]))
    assert mpes[3] / mpes[2] < 0.6
    assert mpe_slope(orders, mpes) < 0.0


def test_mpe_slope_separates_waterfilling_from_a_fixed_allocation():
    profile = _cubic_profile()
    weights = 1.0 + 0.3 * np.cos(2.0 * np.pi * np.arange(64) / 64.0)
    weights /= weights.sum()

    def fixed_custom(ch, p_total):
        return weights * p_total

    orders = [1, 2, 4, 8, 16]
    table = rate_table(
        profile, orders, [5.0], ["statistical-waterfill", fixed_custom], markov=False
    )
    swf, custom = table["mpe_percent"].reshape(len(orders), 2).T
    assert mpe_slope(orders, swf) < mpe_slope(orders, custom)


def test_mpe_slope_needs_three_increasing_orders_and_fits_a_power_law():
    with pytest.raises(ValueError, match="need at least 3 diversity orders"):
        mpe_slope([1, 2], [2.0, 1.0])
    with pytest.raises(ValueError, match="^l_values must be strictly increasing$"):
        mpe_slope([1, 4, 2], [3.0, 2.0, 1.0])
    with pytest.raises(ValueError, match="^l_values must be strictly increasing$"):
        mpe_slope([1, 2, 2], [3.0, 2.0, 1.0])
    # a power law MPE = 8/L has slope -1
    assert math.isclose(mpe_slope([1, 2, 4, 8], [8.0, 4.0, 2.0, 1.0]), -1.0, rel_tol=1e-12)


@pytest.mark.parametrize(
    "l_values, mpes, error, message",
    [
        ([1, 2, 4], [1.0, 2.0], ValueError, "^need one MPE per diversity order, got 2 for 3$"),
        ([1, 2, 4], [[1.0, 2.0, 3.0]], ValueError, "^need one MPE per diversity order"),
        ([0, 2, 4], [3.0, 2.0, 1.0], ValueError, "^l_values must be finite and at least 1"),
        ([1, 2, math.inf], [3.0, 2.0, 1.0], ValueError, "^l_values must be finite and at least 1"),
        ([1, math.nan, 4], [3.0, 2.0, 1.0], ValueError, "^l_values must be finite and at least 1"),
        ([1, 2, 4], [3.0, 0.0, 1.0], MetricUndefinedError, "positive and finite"),
        ([1, 2, 4], [3.0, -1e-14, 1.0], MetricUndefinedError, "positive and finite"),
        ([1, 2, 4], [3.0, math.nan, 1.0], MetricUndefinedError, "positive and finite"),
        ([1, 2, 4], [3.0, math.inf, 1.0], MetricUndefinedError, "positive and finite"),
    ],
    ids=["short-mpes", "2-D-mpes", "L=0", "L=inf", "L=nan", "mpe=0", "mpe<0", "mpe=nan", "mpe=inf"],
)
def test_mpe_slope_rejects_inputs_without_a_slope(capfd, l_values, mpes, error, message):
    # a ValueError, with no warning and no LAPACK error on stderr
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            mpe_slope(l_values, mpes)
    assert capfd.readouterr().err == ""


def test_waterfill_rate_ratio_is_insensitive_to_perturbations():
    profile = _cubic_profile()
    ch, p_total = profile(64), snr_db_to_power(64, 1.0, 5.0)
    swf = waterfill(ch.mean_gains, ch.n0, p_total)[0]
    upper = jensen_upper(ch, swf)
    base = exact_rate(ch, swf) / upper
    rng = np.random.default_rng(7)
    for _ in range(5):
        perturbed = swf * (1.0 + 0.1 * rng.uniform(-1.0, 1.0, ch.n))
        perturbed = perturbed * p_total / perturbed.sum()
        ratio = exact_rate(ch, perturbed) / upper
        assert abs(ratio - base) <= 0.01


@pytest.mark.parametrize(
    "rate",
    [jensen_upper, exact_rate, markov_lower, lambda ch, p: markov_lower(ch, p, alpha=0.5)],
    ids=["jensen_upper", "exact_rate", "markov_lower", "markov_lower-alpha"],
)
def test_every_bound_refuses_an_overflowing_load_naming_its_bin(rate):
    # p*mu/n0 = 1e10 * 4e300 is past the float range: not inf, NaN or a failed search
    message = "p*mu/n0 overflows in bin {}: 10000000000.0 * 4e+300 / 1.0"
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(0))}$"):
        rate(ParallelChannel([1e300], 4.0, n0=1.0), [1e10])
    ch = ParallelChannel([1.0, 1e300], 4.0, n0=1.0)
    with pytest.raises(ValueError, match=f"^{re.escape(message.format(1))}$"):
        rate(ch, [[1.0, 1.0], [1.0, 1e10]])
    assert np.all(rate(ch, [[1.0, 1.0], [1.0, 1e-301]]) > 0.0)  # a finite load is a rate


@pytest.mark.parametrize(
    "rate",
    [jensen_upper, exact_rate, markov_lower, lambda ch, p: markov_lower(ch, p, alpha=0.5)],
    ids=["jensen_upper", "exact_rate", "markov_lower", "markov_lower-alpha"],
)
@pytest.mark.parametrize(
    "k, load", [(0.1, 1e-308), (1.0, 1e-308), (4.0, 1e-308), (100.0, 1e-308), (1e5, 1e-306), (1e5, 1e-304)]
)
def test_every_bound_refuses_a_load_below_the_markov_search_range_naming_its_bin(rate, k, load):
    # Unrefused, the max rule raises NumericError at shapes 0.1 and 1 and
    # returns 0.0 at shapes 4, 100 and 1e5, where the alpha rule is
    # positive.  The search's c = k/load, and c/x <= 2/load at its start
    # x >= k/2, stay finite only for a load of at least max(k, 2)/DBL_MAX,
    # and a factor 2 covers the rounding of the subnormal load and of a.
    message = r"^p\*mu/n0 = \S+ in bin {} is below 2\*max\(shape, 2\)/DBL_MAX$"
    assert load < 2.0 * max(k, 2.0) / np.finfo(float).max
    with pytest.raises(ValueError, match=message.format(0)):
        rate(ParallelChannel([1.0 / k], k, n0=1.0), [load])
    ch = ParallelChannel([1.0, 1.0 / k], [1.0, k], n0=1.0)
    with pytest.raises(ValueError, match=message.format(1)):
        rate(ch, [[1.0, 1.0], [1.0, load]])
    assert np.all(rate(ch, [[1.0, 0.0], [1.0, 1.0]]) > 0.0)  # an unpowered bin is not refused


@pytest.mark.parametrize("k", [0.1, 0.5, 1.0, 2.0, 4.0, 100.0, 1e5])
def test_the_least_accepted_load_gives_finite_ordered_rates_without_warnings(k):
    # the smallest power whose load reaches 2*max(k, 2)/DBL_MAX
    ch = ParallelChannel([1.0 / k], k, n0=1.0)
    least = 2.0 * max(k, 2.0) / np.finfo(float).max
    p = least / ch.mean_gains[0]
    while p * ch.mean_gains[0] < least:
        p = np.nextafter(p, 1.0)
    with pytest.raises(ValueError, match="is below"):
        jensen_upper(ch, [np.nextafter(p, 0.0)])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        upper, exact = jensen_upper(ch, [p]), exact_rate(ch, [p])
        best, closed = markov_lower(ch, [p]), markov_lower(ch, [p], alpha=0.5)
    assert 0.0 < closed <= best * (1.0 + 1e-15)
    assert best <= exact * (1.0 + 1e-13) and exact <= upper * (1.0 + 1e-13)


def test_the_alpha_rule_is_finite_at_the_largest_loads():
    # a = log1p(alpha*load) at the threshold x = alpha*k forms no product
    # past the float range, as p*theta/n0 = 1e309 would be here
    ch = ParallelChannel([10.0], 0.1, n0=1.0)
    closed = markov_lower(ch, [1e308], alpha=0.5)
    assert math.isclose(closed, 159.03, rel_tol=1e-4)
    assert closed <= jensen_upper(ch, [1e308]) < math.inf
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        load, k = mpmath.mpf(float(ch.mean_gains[0]) * 1e308), mpmath.mpf(0.1)
        ref = mpmath.log1p(load / 2) * mpmath.gammainc(k, mpmath.mpf(0.5 * 0.1), regularized=True)
    assert math.isclose(closed, float(ref), rel_tol=1e-13)


@pytest.mark.parametrize("k", [0.1, 1.0, 4.0, 1e5])
def test_exact_rate_is_finite_at_the_largest_loads(k):
    # at these loads p*g/n0 overflows at the rule's top nodes at shapes 0.1
    # to 4 (602 times the mean at shape 0.1), where its log is taken as the
    # sum of its factors' logs.  E[log(1 + load*g/mu)] = log(load) + psi(k)
    # - log(k) up to E[log1p(mu/(load*g))], below 1e-30 here.
    ch = ParallelChannel([1.0 / k], k, n0=1.0)
    loads = (1e307, 1.7e308)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        exact = [exact_rate(ch, [load]) for load in loads]
    for load, rate in zip(loads, exact):
        assert 0.0 < rate <= jensen_upper(ch, [load]) < math.inf, load
    mpmath = pytest.importorskip("mpmath")
    for load, rate in zip(loads, exact):
        with mpmath.workdps(30):
            ref = mpmath.log(load) + mpmath.digamma(k) - mpmath.log(k)
        assert math.isclose(rate, float(ref), rel_tol=1e-13), load


@pytest.mark.parametrize("c_upper, c_lower", [(math.inf, 1.0), (1.0, math.inf), (math.nan, 1.0)])
def test_mpe_refuses_a_bound_that_is_not_finite(c_upper, c_lower):
    with pytest.raises(ValueError, match=r"^bounds must be finite with c_lower >= 0$"):
        mpe(c_upper, c_lower)
