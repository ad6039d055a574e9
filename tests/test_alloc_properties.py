"""Property tests of the optimal power loading on mixed random channels."""

import numpy as np
import pytest

pytest.importorskip("hypothesis")
from gamma_mean import gamma_mean  # noqa: E402
from hypothesis import given, settings, strategies as st  # noqa: E402

from simocap.alloc import equal_power, optimal_allocation, waterfill  # noqa: E402
from simocap.channel import ParallelChannel  # noqa: E402
from simocap.rates import exact_rate  # noqa: E402

subchannels = st.tuples(
    st.floats(-3.0, 3.0),  # log10 of the mean gain
    st.floats(0.5, 5.0),  # m
    st.integers(1, 128),  # L
)


@settings(max_examples=100, deadline=None)
@given(st.lists(subchannels, min_size=1, max_size=12), st.floats(-5.0, 5.0))
def test_optimal_allocation_meets_kkt_and_beats_simpler_loadings(subs, log_p_total):
    log_mu, m, L = (np.array(v) for v in zip(*subs))
    ch, p_total = ParallelChannel(10.0**log_mu / (m * L), m * L, n0=1.0), 10.0**log_p_total
    powers = optimal_allocation(ch, p_total)
    marginals = gamma_mean(lambda g, p: g / (ch.n0 + p * g), ch.shape, ch.theta, powers)
    active = powers > 0.0
    lam = marginals[active].max()
    assert lam - marginals[active].min() <= 1e-12 * lam
    assert np.all(ch.mean_gains[~active] / ch.n0 <= lam)
    # The optimum of the same quadrature objective, up to rounding.  By
    # concavity a loading that overspends the budget by d gains at most
    # lam*d, and waterfilling's powers overspend by a few ulps of its water
    # level, which is far above p_total at low SNR.
    opt_rate = exact_rate(ch, powers)
    for other in (waterfill(ch.mean_gains, ch.n0, p_total)[0], equal_power(ch.n, p_total)):
        overspent = max(0.0, other.sum() - p_total)
        assert opt_rate >= exact_rate(ch, other) - lam * overspent - 1e-13 * opt_rate
