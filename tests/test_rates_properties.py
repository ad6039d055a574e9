"""Property tests of the capacity bounds on mixed random channels."""

import math
import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import example, given, settings, strategies as st  # noqa: E402

from simocap.alloc import equal_power, optimal_allocation, waterfill  # noqa: E402
from simocap.channel import ParallelChannel  # noqa: E402
from simocap.rates import empirical_rate, exact_rate, jensen_upper, markov_lower  # noqa: E402
from simocap.specfun import reg_gamma_q  # noqa: E402

subchannels = st.tuples(
    st.floats(-3.0, 3.0),  # log10 of the mean gain
    st.floats(0.5, 5.0),  # m
    st.integers(1, 128),  # L
    st.one_of(st.just(None), st.floats(-5.0, 5.0)),  # log10 of the power, None for zero
    st.floats(0.01, 20.0),  # the Markov parameter a of the explicit rule
)


@settings(max_examples=100, deadline=None)
@given(st.lists(subchannels, min_size=1, max_size=12), st.floats(0.01, 0.99))
def test_markov_lower_exact_and_jensen_are_ordered_for_every_a_rule(subs, alpha):
    log_mu, m, L, log_p, a = zip(*subs)
    m, L = np.array(m), np.array(L)
    ch = ParallelChannel(10.0 ** np.array(log_mu) / (m * L), m * L, n0=1.0)
    powers = np.array([0.0 if v is None else 10.0**v for v in log_p])
    # Both inequalities hold exactly (Markov's, then Jensen's); the slack is
    # the quadrature's 1e-13 relative accuracy on the exact rate.
    exact = exact_rate(ch, powers)
    assert exact <= jensen_upper(ch, powers) + 1e-13 * exact
    for rule in ({}, {"alpha": alpha}):
        assert markov_lower(ch, powers, **rule) <= exact * (1.0 + 1e-13), rule
    # the explicit rule, from the public Q: a*Q(k, (k/load)*(e^a - 1)) at the drawn a,
    # summed over the powered bins
    loads = (powers * ch.mean_gains / ch.n0).tolist()
    at_a = sum(a_n * reg_gamma_q(k, k / load * math.expm1(a_n))
               for a_n, k, load in zip(a, ch.shape.tolist(), loads) if load > 0.0)
    assert at_a <= exact * (1.0 + 1e-13), a


@settings(max_examples=200, deadline=None)
@given(st.floats(-1.0, 5.0), st.floats(-12.0, 12.0))
def test_markov_term_has_one_maximum_in_its_derived_bracket(log_k, log_c):
    # h(a) = a*Q(k, x), x = c*expm1(a), has h'(a) = Q(k, x) - a*(x + c)*phi(x),
    # phi the Gamma(k, 1) density.  The Markov search brackets its maximum
    # in (0, log1p(max(k, 1)/c)]; it assumes that h' changes sign once there,
    # from + to -, checked here with scipy's Q and density on 4,000 points
    # spaced geometrically from 1e-12 of the bracket's end to the end itself.
    special = pytest.importorskip("scipy.special")
    k, c = 10.0**log_k, 10.0**log_c
    hi = np.log1p(max(k, 1.0) / c)
    a = hi * np.geomspace(1e-12, 1.0, 4000)
    x = c * np.expm1(a)
    log_phi = (k - 1.0) * np.log(x) - x - special.gammaln(k)
    dh = special.gammaincc(k, x) - a * (x + c) * np.exp(log_phi)
    signs = np.sign(dh[dh != 0.0])
    assert dh[0] > 0.0 and dh[-1] <= 0.0, (dh[0], dh[-1])
    assert np.count_nonzero(signs[1:] != signs[:-1]) == 1


_DBL_MAX = float(np.finfo(float).max)
_NAMED = r"\bbin \d+\b|\b(theta|shape|n0|p_total)\b"  # a refusal names a bin or a parameter


@st.composite
def _channels(draw):
    # 1 to 5 bins sharing n0 = 10**U(-300, 300).  Per bin, the shape k, the load p*mu/n0 and
    # the share of log10(p*mu) that falls to p are drawn independently; theta is mu/k.
    log_n0 = draw(st.floats(-300.0, 300.0))
    bins = []
    for _ in range(draw(st.integers(1, 5))):
        log_k, log_load = draw(st.floats(-1.0, 5.0)), draw(st.floats(-330.0, 308.2))
        log_pmu = log_load + log_n0
        lo, hi = max(-300.0, log_pmu - 300.0), min(308.0, log_pmu + 300.0)
        log_p = lo + draw(st.floats(0.0, 1.0)) * (hi - lo) if lo <= hi else log_pmu / 2.0
        bins.append((10.0 ** (log_pmu - log_p - log_k), 10.0**log_k, 10.0**log_p))
    return bins, 10.0**log_n0


def _assert_refused_or_ordered(ch, powers):
    # The load rule of the rates, on loads formed exactly: a load past DBL_MAX, or a powered
    # load below 2*max(k, 2)/DBL_MAX (0 among them), is refused by every bound, naming its
    # bin; any other gives finite rates ordered within the slacks of the test above.  The
    # snapshot average over one snapshot at the mean gains forms its p*g/n0 as the loads are
    # formed: it refuses an overflow alike, and is otherwise the Jensen bound bit for bit.
    def realized():  # one snapshot at the mean gains
        return empirical_rate(ch.mean_gains[None], powers, ch.n0)

    loads = [Fraction(p) * Fraction(mu) / Fraction(ch.n0) for p, mu in zip(powers, ch.mean_gains)]
    over = any(load > _DBL_MAX for load in loads)
    tiny = any(0 < load < 2.0 * max(k, 2.0) / _DBL_MAX for load, k in zip(loads, ch.shape))
    rules = (jensen_upper, exact_rate, markov_lower, lambda c, p: markov_lower(c, p, alpha=0.5))
    if over or tiny:
        refusal = (r"^p\*mu/n0 overflows in bin \d+: " if over
                   else r"in bin \d+ is below 2\*max\(shape, 2\)/DBL_MAX$")
        for rate in rules:
            with pytest.raises(ValueError, match=refusal):
                rate(ch, powers)
        if over:
            with pytest.raises(ValueError, match=r"^p\*g/n0 overflows in bin \d+: "):
                realized()
        return
    upper, exact, best, closed = (rate(ch, powers) for rate in rules)
    assert all(np.isfinite([upper, exact, best, closed]))
    assert realized() == upper
    assert closed <= best * (1.0 + 1e-15)
    assert best <= exact * (1.0 + 1e-13)
    assert exact <= upper * (1.0 + 1e-13)


@settings(max_examples=300, deadline=None)
@given(_channels())
# p/n0 underflows to 0 at a load of 2.9e-275, where Jensen gives 2.9e-275; the snapshot
# average at the mean gains 6.4e63 formed g*(p/n0) and gave 0.0 too
@example(([(3.3e63, 1.95, 1.9e-221)], 4.2e117))
# p/n0 overflows at a load of 1e150, where a snapshot average of g*(p/n0) gave inf
@example(([(1e-200, 1.0, 1e250)], 1e-100))
# p/n0 = 3.3e-322 is subnormal, and an exact rate formed from it lies 1.5e-3 above Jensen
@example(([(9.6e278, 11931.53, 1.4e-294)], 4.3e27))
# p/n0 overflows where a node of the shape-0.12 law, scaled by theta, underflows to 0
@example(([(1.2e-233, 0.12, 1.4e248)], 6.8e-67))
# mu/n0 = 1e309 in bin 1 at finite loads: the optimal solver refused the bin where
# waterfilling's rates were accepted
@example(([(1.0, 0.1, 0.01), (1e307, 0.1, 0.04)], 1e-3))
def test_every_load_is_refused_or_gives_finite_ordered_rates(draw):
    # The drawn powers, and each allocator's split of their total, either are refused
    # naming a bin or a parameter, or give finite rates as _assert_refused_or_ordered
    # says; an allocation sums to its budget within 1e-12, or the subnormal spacing.
    # The optimal solver refuses what waterfilling refuses, or else a load past DBL_MAX.
    bins, n0 = draw
    theta, shape, powers = (np.array(v) for v in zip(*bins))
    budget = sum(powers.tolist())  # past DBL_MAX, inf: each allocator refuses it
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            ch = ParallelChannel(theta, shape, n0=n0)
        except ValueError as exc:
            assert re.search(_NAMED, str(exc)), exc
            return
        _assert_refused_or_ordered(ch, powers)
        refusals = {}
        for name, allocate in (("waterfill", lambda: waterfill(ch.mean_gains, n0, budget)[0]),
                               ("equal", lambda: equal_power(ch.n, budget)),
                               ("optimal", lambda: optimal_allocation(ch, budget))):
            try:
                split = allocate()
            except ValueError as exc:
                assert re.search(_NAMED, str(exc)), exc
                refusals[name] = str(exc)
                continue
            assert np.all(np.isfinite(split) & (split >= 0.0))
            assert abs(sum(split.tolist()) - budget) <= max(1e-12 * budget, ch.n * 5e-324), split
            _assert_refused_or_ordered(ch, split)
        if "optimal" in refusals and "waterfill" not in refusals:
            assert re.match(r"^p\*mu/n0 overflows in bin \d+: ", refusals["optimal"]), refusals
