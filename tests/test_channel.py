import copy
import math
import pickle

import numpy as np
import pytest
from scipy import stats

from simocap.channel import (
    FitError,
    GainMatrix,
    ParallelChannel,
    build_decay_profile,
    fit_gamma_moments,
    sample_gains,
)


def _one(theta, shape):
    return ParallelChannel(theta=[theta], shape=shape, n0=1.0, p_total=1.0)


def test_mean_gain_is_theta_m_l():
    # the mean of Gamma(shape, theta) is theta*shape, with shape = m*L
    assert _one(theta=1.0, shape=1.0 * 1).mean_gains[0] == 1.0
    assert _one(theta=0.5, shape=2.0 * 4).mean_gains[0] == 4.0
    assert _one(theta=2.0, shape=0.5 * 3).mean_gains[0] == 3.0


def test_subchannel_spec_validation():
    # shape >= 0.1 covers every law m >= 0.5, L >= 1 gives, with or without
    # an integer L behind it, and the moment fits of measured bins below 0.5
    for theta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            _one(theta=theta, shape=1.0)
    for shape in (0.09, 0.0, -2.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="shape must be finite and >= 0.1"):
            _one(theta=1.0, shape=shape)
    for shape in (0.1, 0.33, 0.5, 0.7 * 3, 1.5, 64.0):
        assert _one(theta=1.0, shape=shape).shape[0] == shape


def test_parallel_channel_validation():
    with pytest.raises(ValueError):
        ParallelChannel(theta=[], shape=2.0, n0=1.0, p_total=1.0)
    with pytest.raises(ValueError):
        ParallelChannel(theta=[1.0], shape=2.0, n0=0.0, p_total=1.0)
    with pytest.raises(ValueError):
        ParallelChannel(theta=[1.0], shape=2.0, n0=1.0, p_total=-1.0)
    ch = ParallelChannel(theta=[1.0, 1.0], shape=2.0, n0=1.0, p_total=3.0)
    assert ch.n == 2
    assert np.allclose(ch.mean_gains, [2.0, 2.0])
    assert ch.with_power(5.0).p_total == 5.0


def test_parallel_channel_array_validation():
    # a shape given once is broadcast; per-subchannel arrays must match theta
    ch = ParallelChannel(theta=[1.0, 0.5], shape=3.0, n0=1.0, p_total=1.0)
    assert np.array_equal(ch.shape, [3.0, 3.0])
    assert np.array_equal(ch.mean_gains, [3.0, 1.5])
    ch = ParallelChannel(theta=[1.0, 0.5], shape=[3.0, 6.0], n0=1.0, p_total=1.0)
    assert np.array_equal(ch.mean_gains, [3.0, 3.0])
    with pytest.raises(ValueError, match="shape needs one entry per subchannel"):
        ParallelChannel(theta=[1.0, 0.5], shape=[3.0, 6.0, 12.0], n0=1.0, p_total=1.0)
    with pytest.raises(ValueError, match="shape needs one entry per subchannel"):
        ParallelChannel(theta=[1.0, 0.5], shape=[3.0], n0=1.0, p_total=1.0)
    with pytest.raises(ValueError, match="shape must be finite and >= 0.1"):
        ParallelChannel(theta=[1.0, 0.5], shape=[3.0, math.inf], n0=1.0, p_total=1.0)
    with pytest.raises(ValueError, match="freqs_hz needs one entry per subchannel"):
        ParallelChannel(theta=[1.0, 0.5], shape=1.0, n0=1.0, p_total=1.0, freqs_hz=[5e9])
    # the stored arrays are read-only copies
    theta = np.array([1.0, 0.5])
    ch = ParallelChannel(theta=theta, shape=1.0, n0=1.0, p_total=1.0)
    with pytest.raises(ValueError):
        ch.theta[0] = 2.0
    theta[0] = 2.0
    assert ch.theta[0] == 1.0 and ch.mean_gains[0] == 1.0


@pytest.mark.parametrize(
    "clone", [lambda ch: pickle.loads(pickle.dumps(ch)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_of_a_channel_stay_read_only(clone):
    ch = build_decay_profile(5, 5e9, 6e9, 3.0, 0.5, 3, 2.0, 7.0)
    twin = clone(ch)
    for name in ("theta", "shape", "freqs_hz", "mean_gains"):
        assert np.array_equal(getattr(twin, name), getattr(ch, name)), name
        assert not getattr(twin, name).flags.writeable, name
    assert (twin.n0, twin.p_total) == (ch.n0, ch.p_total)


def test_flat_profile_has_unit_gains():
    ch = build_decay_profile(8, 5e9, 6e9, 0.0, 1.0, 2, 1.0, 1.0)
    assert np.allclose(ch.mean_gains, 1.0, atol=1e-14)


def test_two_bin_cubic_decay_profile():
    # mean gains proportional to 1/5^3 and 1/6^3, renormalized to unit average
    ch = build_decay_profile(2, 5e9, 6e9, 3.0, 1.0, 1, 1.0, 1.0)
    w = np.array([5.0**-3, 6.0**-3])
    expected = w / w.mean()
    assert np.allclose(ch.mean_gains, expected, rtol=1e-14)
    assert np.allclose(ch.mean_gains, [1.26686, 0.73314], atol=1e-5)


def test_full_band_profile_is_unit_average():
    ch = build_decay_profile(588, 5e9, 6e9, 3.0, 1.0, 4, 1.0, 1.0)
    assert ch.n == 588
    assert abs(ch.mean_gains.mean() - 1.0) < 1e-12
    freqs = ch.freqs_hz
    assert freqs[0] == 5e9 and freqs[-1] == 6e9
    assert np.all(np.diff(freqs) > 0)
    # every bin has the law Gamma(m*L, mu/(m*L)), m = 1, L = 4
    assert np.array_equal(ch.shape, np.full(588, 4.0))
    for theta, mu in zip(ch.theta, ch.mean_gains):
        assert math.isclose(theta, mu / 4.0, rel_tol=1e-14)


def test_single_bin_profile_sits_at_band_center():
    ch = build_decay_profile(1, 5e9, 6e9, 3.0, 1.0, 2, 1.0, 1.0)
    assert ch.freqs_hz[0] == 5.5e9
    assert math.isclose(ch.mean_gains[0], 1.0, rel_tol=1e-14)


def test_decay_profile_rejects_bad_band():
    for f_lo, f_hi in ((6e9, 5e9), (0.0, 6e9), (5e9, math.inf), (math.nan, 6e9), (5e9, math.nan)):
        with pytest.raises(ValueError, match="need finite f_hi_hz > f_lo_hz > 0"):
            build_decay_profile(4, f_lo, f_hi, 3.0, 1.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_decay_profile(0, 5e9, 6e9, 3.0, 1.0, 1, 1.0, 1.0)
    with pytest.raises(ValueError):
        build_decay_profile(4, 5e9, 6e9, -1.0, 1.0, 1, 1.0, 1.0)


def test_decay_profile_checks_its_branch_structure():
    # m >= 0.5 and a positive integer L, as the channel itself checked
    # before it held only shape = m*L
    for m in (0.4, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="m must be >= 0.5"):
            build_decay_profile(4, 5e9, 6e9, 3.0, m, 1, 1.0, 1.0)
    for L in (0, -2, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="L must be a positive integer"):
            build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, L, 1.0, 1.0)
    ch = build_decay_profile(4, 5e9, 6e9, 3.0, 0.7, 3, 1.0, 1.0)
    assert np.array_equal(ch.shape, np.full(4, 0.7 * 3))
    mu = build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, 1, 1.0, 1.0).mean_gains
    assert np.array_equal(ch.theta, mu / (0.7 * 3))


def test_sample_gains_is_deterministic_per_seed():
    ch = build_decay_profile(3, 5e9, 6e9, 3.0, 1.0, 2, 1.0, 1.0)
    a = sample_gains(ch, 64, seed=42)
    b = sample_gains(ch, 64, seed=42)
    c = sample_gains(ch, 64, seed=43)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


def test_sample_gains_mean_matches_clt_bound():
    ch = ParallelChannel(theta=[1.0], shape=4.0, n0=1.0, p_total=1.0)
    draws = sample_gains(ch, 100_000, seed=7).values[:, 0]
    # Var(g) = shape*theta^2 = 4
    assert abs(draws.mean() - 4.0) <= 4.0 * math.sqrt(4.0 / 100_000)


def test_sample_gains_match_sum_of_exponentials():
    # integer shape: Gamma(3, 1) is the law of a sum of 3 unit exponentials
    ch = ParallelChannel(theta=[1.0], shape=3.0, n0=1.0, p_total=1.0)
    gamma_draws = sample_gains(ch, 10_000, seed=123).values[:, 0]
    rng = np.random.default_rng(321)
    exp_sums = rng.exponential(1.0, size=(10_000, 3)).sum(axis=1)
    statistic = stats.ks_2samp(gamma_draws, exp_sums).statistic
    critical_1pct = 1.628 * math.sqrt(2.0 / 10_000)
    assert statistic < critical_1pct


def test_sample_gains_rejects_zero_snapshots():
    ch = ParallelChannel(theta=[1.0], shape=1.0, n0=1.0, p_total=1.0)
    with pytest.raises(ValueError):
        sample_gains(ch, 0, seed=1)


def test_gain_matrix_validation():
    with pytest.raises(ValueError):
        GainMatrix(values=np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        GainMatrix(values=np.array([[1.0, -0.5]]))


def test_fit_gamma_moments_algebra():
    # mean 1, variance 0.5: shape 2, scale 0.5 by construction
    samples = np.array([1.0 - math.sqrt(0.5), 1.0 + math.sqrt(0.5)])
    shape, scale = fit_gamma_moments(samples)
    assert math.isclose(shape, 2.0, rel_tol=1e-12)
    assert math.isclose(scale, 0.5, rel_tol=1e-12)


def test_fit_gamma_moments_degenerate_inputs():
    with pytest.raises(FitError):
        fit_gamma_moments([3.0, 3.0, 3.0])
    with pytest.raises(FitError):
        fit_gamma_moments([1.0])
    with pytest.raises(ValueError):
        fit_gamma_moments([1.0, -2.0])


def test_fit_recovers_sampled_parameters():
    ch = ParallelChannel(theta=[0.25], shape=4.0, n0=1.0, p_total=1.0)
    draws = sample_gains(ch, 100_000, seed=5).values[:, 0]
    shape, scale = fit_gamma_moments(draws)
    assert abs(shape - 4.0) / 4.0 < 0.05
    assert abs(scale - 0.25) / 0.25 < 0.05


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("L", [1, 4])
@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_sampling_and_fitting_are_consistent(m, L, theta):
    ch = ParallelChannel(theta=[theta], shape=m * L, n0=1.0, p_total=1.0)
    draws = sample_gains(ch, 100_000, seed=int(1000 * m + 10 * L + theta)).values[:, 0]
    mu = ch.mean_gains[0]
    sigma = math.sqrt(m * L * theta**2 / 100_000)
    assert abs(draws.mean() - mu) <= 4.0 * sigma
    shape, scale = fit_gamma_moments(draws)
    assert abs(shape - m * L) / (m * L) < 0.05
    assert abs(scale - theta) / theta < 0.05
