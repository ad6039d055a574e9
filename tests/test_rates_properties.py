"""Property tests of the capacity bounds on mixed random channels."""

import warnings

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

from simocap.channel import ParallelChannel  # noqa: E402
from simocap.rates import _markov_terms, exact_rate, jensen_upper, markov_lower  # noqa: E402

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
    # the explicit rule: the bound's terms at the drawn a, summed over the powered bins
    on = powers > 0.0
    at_a = _markov_terms(np.array(a)[on], ch.shape[on], (powers * ch.mean_gains / ch.n0)[on]).sum()
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


@settings(max_examples=300, deadline=None)
@given(st.floats(-1.0, 5.0), st.floats(-330.0, 308.2))
def test_every_load_is_refused_or_gives_finite_ordered_rates(log_k, log_load):
    # One bin at shape k and load p*mu/n0 = 10**log_load, split evenly
    # between p and mu so that neither underflows alone.  A load below
    # 2*max(k, 2)/DBL_MAX (0 among them) is refused by every bound; any
    # other gives finite rates ordered within the slacks of the test above.
    k, half = 10.0**log_k, 10.0 ** (log_load / 2.0)
    ch = ParallelChannel([half / k], k, n0=1.0)
    refused = half * ch.mean_gains[0] < 2.0 * max(k, 2.0) / np.finfo(float).max
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rules = (jensen_upper, exact_rate, markov_lower, lambda c, p: markov_lower(c, p, alpha=0.5))
        if refused:
            for rate in rules:
                with pytest.raises(ValueError, match=r"in bin 0 is below 2\*max\(shape, 2\)/DBL_MAX$"):
                    rate(ch, [half])
            return
        upper, exact, best, closed = (rate(ch, [half]) for rate in rules)
    assert all(np.isfinite([upper, exact, best, closed]))
    assert closed <= best * (1.0 + 1e-15)
    assert best <= exact * (1.0 + 1e-13)
    assert exact <= upper * (1.0 + 1e-13)
