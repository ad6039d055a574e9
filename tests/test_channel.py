import copy
import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest

from simocap.alloc import equal_power
from simocap.channel import (
    ParallelChannel,
    _positive_integer,
    build_decay_profile,
    fit_gamma_moments,
)
from simocap.ingest import generate_snapshots, simo_gains
from simocap.rates import bound_ratio, exact_rate


def _one(theta, shape):
    return ParallelChannel(theta=[theta], shape=shape, n0=1.0)


def _draws(theta, shape, n, seed, n_branches):
    # n realized gains of one Gamma(shape, theta) subchannel, summed over
    # n_branches branches of Gamma(shape/n_branches, theta) each
    snapshots = generate_snapshots(_one(theta, shape), n, seed, n_branches)
    return simo_gains(snapshots, range(n_branches))[:, 0]


def test_mean_gain_is_theta_m_l():
    # the mean of Gamma(shape, theta) is theta*shape, with shape = m*L
    assert _one(theta=1.0, shape=1.0 * 1).mean_gains[0] == 1.0
    assert _one(theta=0.5, shape=2.0 * 4).mean_gains[0] == 4.0
    assert _one(theta=2.0, shape=0.5 * 3).mean_gains[0] == 3.0


def test_subchannel_spec_validation():
    # shape >= 0.1 covers every law m >= 0.5, L >= 1 gives, with or without
    # an integer L behind it, and the moment fits of measured bins below 0.5;
    # 1e5 is the largest shape the quadrature is held to mpmath at
    for theta in (0.0, -1.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="theta must be positive and finite"):
            _one(theta=theta, shape=1.0)
    for shape in (0.09, 0.0, -2.0, 1.000001e5, 1e20, math.inf, math.nan):
        with pytest.raises(ValueError, match=r"shape must be finite and in \[0.1, 100000\]"):
            _one(theta=1.0, shape=shape)
    for shape in (0.1, 0.33, 0.5, 0.7 * 3, 1.5, 64.0, 1e5):
        assert _one(theta=1.0, shape=shape).shape[0] == shape


@pytest.mark.parametrize("shape", [0.01, 0.0999, 1.0001e5, 1e8, math.inf, math.nan])
def test_parallel_channel_refuses_a_shape_outside_the_rules_accurate_range(shape):
    # [0.1, 1e5] is where the gamma rule and Q are held to mpmath, and shape 1e8 would
    # take 20,024 nodes; one such shape among good ones refuses the channel, by value
    with pytest.raises(ValueError, match=r"^shape must be finite and in \[0.1, 100000\], got "
                                         + re.escape(repr(shape)) + "$"):
        ParallelChannel(theta=[1.0, 1.0, 1.0], shape=[2.0, shape, 1e5], n0=1.0)


def test_parallel_channel_validation():
    with pytest.raises(ValueError):
        ParallelChannel(theta=[], shape=2.0, n0=1.0)
    with pytest.raises(ValueError):
        ParallelChannel(theta=[1.0], shape=2.0, n0=0.0)
    with pytest.raises(TypeError):  # the power budget is an argument of the allocators
        ParallelChannel(theta=[1.0], shape=2.0, n0=1.0, p_total=1.0)
    ch = ParallelChannel(theta=[1.0, 1.0], shape=2.0, n0=1.0)
    assert ch.n == 2
    assert np.allclose(ch.mean_gains, [2.0, 2.0])
    assert [f.name for f in dataclasses.fields(ch)] == [
        "theta", "shape", "n0", "freqs_hz", "mean_gains"
    ]


def test_parallel_channel_array_validation():
    # a shape given once is broadcast; per-subchannel arrays must match theta
    ch = ParallelChannel(theta=[1.0, 0.5], shape=3.0, n0=1.0)
    assert np.array_equal(ch.shape, [3.0, 3.0])
    assert np.array_equal(ch.mean_gains, [3.0, 1.5])
    ch = ParallelChannel(theta=[1.0, 0.5], shape=[3.0, 6.0], n0=1.0)
    assert np.array_equal(ch.mean_gains, [3.0, 3.0])
    with pytest.raises(ValueError, match="shape needs one entry per subchannel"):
        ParallelChannel(theta=[1.0, 0.5], shape=[3.0, 6.0, 12.0], n0=1.0)
    with pytest.raises(ValueError, match="shape needs one entry per subchannel"):
        ParallelChannel(theta=[1.0, 0.5], shape=[3.0], n0=1.0)
    with pytest.raises(ValueError, match="shape must be finite and in"):
        ParallelChannel(theta=[1.0, 0.5], shape=[3.0, math.inf], n0=1.0)
    with pytest.raises(ValueError, match="freqs_hz needs one entry per subchannel"):
        ParallelChannel(theta=[1.0, 0.5], shape=1.0, n0=1.0, freqs_hz=[5e9])
    # the stored arrays are read-only copies
    theta = np.array([1.0, 0.5])
    ch = ParallelChannel(theta=theta, shape=1.0, n0=1.0)
    with pytest.raises(ValueError):
        ch.theta[0] = 2.0
    theta[0] = 2.0
    assert ch.theta[0] == 1.0 and ch.mean_gains[0] == 1.0


def test_parallel_channel_refuses_a_mean_gain_that_overflows_naming_its_bin():
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=r"^mean gain theta\*shape overflows in bin 1: "
                                             r"1e\+307 \* 100000\.0$"):
            ParallelChannel(theta=[1.0, 1e307], shape=1e5, n0=1.0)
        assert ParallelChannel(theta=[1e303], shape=1e5, n0=1.0).mean_gains[0] == 1e303 * 1e5


@pytest.mark.parametrize(
    "clone", [lambda ch: pickle.loads(pickle.dumps(ch)), copy.deepcopy], ids=["pickle", "deepcopy"]
)
def test_copies_of_a_channel_stay_read_only(clone):
    # a channel used once holds its quadrature rule; a copy starts without it and
    # builds the same one, so its rates are the same bit for bit
    ch = build_decay_profile(5, 5e9, 6e9, 3.0, 0.5, 3, 2.0)
    powers = np.linspace(0.5, 2.5, 5)
    rate = exact_rate(ch, powers)
    twin = clone(ch)
    for name in ("theta", "shape", "freqs_hz", "mean_gains"):
        assert np.array_equal(getattr(twin, name), getattr(ch, name)), name
        assert not getattr(twin, name).flags.writeable, name
    assert twin.n0 == ch.n0
    assert "_rule" in vars(ch) and "_rule" not in vars(twin)
    assert exact_rate(twin, powers) == rate


def test_flat_profile_has_unit_gains():
    ch = build_decay_profile(8, 5e9, 6e9, 0.0, 1.0, 2, 1.0)
    assert np.allclose(ch.mean_gains, 1.0, atol=1e-14)


def test_two_bin_cubic_decay_profile():
    # mean gains proportional to 1/5^3 and 1/6^3, renormalized to unit average
    ch = build_decay_profile(2, 5e9, 6e9, 3.0, 1.0, 1, 1.0)
    w = np.array([5.0**-3, 6.0**-3])
    expected = w / w.mean()
    assert np.allclose(ch.mean_gains, expected, rtol=1e-14)
    assert np.allclose(ch.mean_gains, [1.26686, 0.73314], atol=1e-5)


def test_full_band_profile_is_unit_average():
    ch = build_decay_profile(588, 5e9, 6e9, 3.0, 1.0, 4, 1.0)
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
    ch = build_decay_profile(1, 5e9, 6e9, 3.0, 1.0, 2, 1.0)
    assert ch.freqs_hz[0] == 5.5e9
    assert math.isclose(ch.mean_gains[0], 1.0, rel_tol=1e-14)


@pytest.mark.parametrize("decay_exponent", [0.0, 1.0, 3.0, 34.0, 100.0, 700.0, 2000.0])
def test_decay_profile_holds_its_law_at_any_representable_exponent(decay_exponent):
    # at 5-6 GHz f**-d underflows in every bin from d of about 34, but the
    # frequencies over 2**32 are 1.16 to 1.40, whose powers stay normal
    # floats up to d of about 2100: unit-average mean gains in the ratio
    # (f/5e9)**-d, with no RuntimeWarning
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        ch = build_decay_profile(64, 5e9, 6e9, decay_exponent, 1.0, 1, 1.0)
    assert math.isclose(ch.mean_gains.mean(), 1.0, rel_tol=1e-12)
    ratio = (ch.freqs_hz / 5e9) ** -decay_exponent
    assert np.allclose(ch.mean_gains / ch.mean_gains[0], ratio, rtol=1e-9, atol=0.0)


@pytest.mark.parametrize(
    "f_lo, f_hi, decay_exponent",
    [(5e9, 6e9, 5000.0), (5e9, 6e9, 1e308), (1e-300, 1e300, 1.0), (5e-324, 1.7e308, 3.0)],
)
def test_decay_profile_refuses_mean_gains_that_underflow(f_lo, f_hi, decay_exponent):
    # the band's frequency ratio to the power d is past the float range
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(ValueError, match=re.escape(
            f"decay_exponent {decay_exponent!r} over [{f_lo!r}, {f_hi!r}] Hz gives mean gains "
            "that underflow"
        )):
            build_decay_profile(8, f_lo, f_hi, decay_exponent, 1.0, 1, 1.0)


def test_decay_profile_is_flat_at_exponent_0_over_any_band():
    for f_lo, f_hi in ((1e-300, 1e300), (5e-324, 1.7e308)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            ch = build_decay_profile(8, f_lo, f_hi, 0.0, 1.0, 1, 1.0)
        assert np.array_equal(ch.mean_gains, np.ones(8))


def test_decay_profile_rejects_bad_band():
    bands = ((6e9, 5e9), (5e9, 5e9), (0.0, 6e9), (5e9, math.inf), (math.nan, 6e9), (5e9, math.nan))
    for f_lo, f_hi in bands:
        with pytest.raises(ValueError, match="need finite f_hi_hz > f_lo_hz > 0"):
            build_decay_profile(4, f_lo, f_hi, 3.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        build_decay_profile(0, 5e9, 6e9, 3.0, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        build_decay_profile(4, 5e9, 6e9, -1.0, 1.0, 1, 1.0)


def test_decay_profile_takes_a_weight_of_exactly_the_least_normal_float():
    # over [1, 2] Hz the weights are f^-d exactly, so d = 1022 reaches 2^-1022 = DBL_MIN,
    # a normal float whose mean gain 2^-1021 is exact, and d = 1023 a subnormal one
    ch = build_decay_profile(2, 1.0, 2.0, 1022.0, 1.0, 1, 1.0)
    assert ch.mean_gains.tolist() == [2.0, 2.0**-1021]
    with pytest.raises(ValueError, match="gives mean gains that underflow"):
        build_decay_profile(2, 1.0, 2.0, 1023.0, 1.0, 1, 1.0)


def test_a_count_may_equal_its_ceiling():
    _positive_integer("n", 5, most=5)
    with pytest.raises(ValueError, match="^n must be a positive integer at most 4, got 5$"):
        _positive_integer("n", 5, most=4)


def test_decay_profile_checks_its_branch_structure():
    # m >= 0.5 and a positive integer L, as the channel itself checked
    # before it held only shape = m*L
    for m in (0.4, 0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="m must be >= 0.5"):
            build_decay_profile(4, 5e9, 6e9, 3.0, m, 1, 1.0)
    for L in (0, -2, 1.5, math.inf, math.nan):
        with pytest.raises(ValueError, match="L must be a positive integer"):
            build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, L, 1.0)
    ch = build_decay_profile(4, 5e9, 6e9, 3.0, 0.7, 3, 1.0)
    assert np.array_equal(ch.shape, np.full(4, 0.7 * 3))
    mu = build_decay_profile(4, 5e9, 6e9, 3.0, 1.0, 1, 1.0).mean_gains
    assert np.array_equal(ch.theta, mu / (0.7 * 3))


_CH3 = build_decay_profile(3, 5e9, 6e9, 3.0, 1.0, 2, 1.0)
_SNAPSHOTS = generate_snapshots(_CH3, 3, 0, 2)
_BAND = (5e9, 6e9, 3.0, 1.0, 2, 1.0)


@pytest.mark.parametrize("call, args, message", [
    (build_decay_profile, ("3", *_BAND), "n_bins must be a positive integer, got '3'"),
    (build_decay_profile, (None, *_BAND), "n_bins must be a positive integer, got None"),
    (generate_snapshots, (_CH3, "4", 0, 2), "n_snapshots must be a positive integer, got '4'"),
    (generate_snapshots, (_CH3, 3, 0, "2"), "n_branches must be a positive integer, got '2'"),
    (equal_power, ("2", 1.0), "n must be a positive integer, got '2'"),
    (bound_ratio, (1.0, "4", 1.0, 0.5), "L must be a positive integer, got '4'"),
    (simo_gains, (_SNAPSHOTS, [None]), "invalid branch id None (have 2 branches)"),
    (simo_gains, (_SNAPSHOTS, ["x"]), "invalid branch id 'x' (have 2 branches)"),
    (simo_gains, (_SNAPSHOTS, [math.nan]), "invalid branch id nan (have 2 branches)"),
    (simo_gains, (_SNAPSHOTS, [math.inf]), "invalid branch id inf (have 2 branches)"),
], ids=["n_bins-str", "n_bins-None", "n_snapshots-str", "n_branches-str", "n-str", "L-str",
        "branch-None", "branch-str", "branch-nan", "branch-inf"])
def test_a_count_or_branch_id_that_is_not_a_number_is_refused_by_name(call, args, message):
    # a string or None is no count and no branch id, and nan or inf no branch id;
    # each is refused as a ValueError that names the argument and the value
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(*args)


def test_simo_gains_match_sum_of_exponentials():
    # integer shape: Gamma(3, 1) is the law of a sum of 3 unit exponentials
    stats = pytest.importorskip("scipy.stats")
    gamma_draws = _draws(theta=1.0, shape=3.0, n=10_000, seed=123, n_branches=3)
    rng = np.random.default_rng(321)
    exp_sums = rng.exponential(1.0, size=(10_000, 3)).sum(axis=1)
    statistic = stats.ks_2samp(gamma_draws, exp_sums).statistic
    critical_1pct = 1.628 * math.sqrt(2.0 / 10_000)
    assert statistic < critical_1pct


def test_fit_gamma_moments_algebra():
    # mean 1, variance 0.5: shape 2, scale 0.5 by construction
    samples = np.array([1.0 - math.sqrt(0.5), 1.0 + math.sqrt(0.5)])
    shape, scale = fit_gamma_moments(samples)
    assert math.isclose(shape, 2.0, rel_tol=1e-12)
    assert math.isclose(scale, 0.5, rel_tol=1e-12)


def test_fit_gamma_moments_degenerate_inputs():
    # a column with zero variance or fewer than 2 samples has no fit: NaN, no warning
    shape, scale = fit_gamma_moments([3.0, 3.0, 3.0])
    assert np.isnan(shape) and np.isnan(scale)
    shape, scale = fit_gamma_moments([1.0])
    assert np.isnan(shape) and np.isnan(scale)
    for few in (np.ones((1, 3)), np.empty((0, 3))):
        shape, scale = fit_gamma_moments(few)
        assert shape.shape == scale.shape == (3,)
        assert np.isnan(shape).all() and np.isnan(scale).all()
    shape, scale = fit_gamma_moments([[0.0, 2.0], [0.0, 2.0]])  # zero mean, then constant
    assert np.isnan(shape).all() and np.isnan(scale).all()
    for bad in ([1.0, -2.0], [1.0, np.inf], [[1.0, np.nan], [2.0, 3.0]]):
        with pytest.raises(ValueError, match="nonnegative and finite"):
            fit_gamma_moments(bad)


def test_fit_gamma_moments_fits_every_column_at_once():
    # column j of a (snapshots, ...) array fits as if it were alone; a
    # degenerate column leaves the others untouched
    gains = np.random.default_rng(7).gamma(2.0, 0.5, size=(200, 3, 4))
    gains[:, 1, 2] = 0.75
    shape, scale = fit_gamma_moments(gains)
    assert shape.shape == scale.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        alone = fit_gamma_moments(gains[:, i, j].copy())
        if (i, j) == (1, 2):
            assert np.isnan([shape[i, j], scale[i, j], *alone]).all()
        else:
            assert np.allclose([shape[i, j], scale[i, j]], alone, rtol=1e-13, atol=0.0)


def test_fit_recovers_sampled_parameters():
    draws = _draws(theta=0.25, shape=4.0, n=100_000, seed=5, n_branches=4)
    shape, scale = fit_gamma_moments(draws)
    assert abs(shape - 4.0) / 4.0 < 0.05
    assert abs(scale - 0.25) / 0.25 < 0.05


@pytest.mark.parametrize("m", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("L", [1, 4])
@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_sampling_and_fitting_are_consistent(m, L, theta):
    draws = _draws(theta, m * L, n=100_000, seed=int(1000 * m + 10 * L + theta), n_branches=L)
    mu = theta * m * L
    sigma = math.sqrt(m * L * theta**2 / 100_000)
    assert abs(draws.mean() - mu) <= 4.0 * sigma
    shape, scale = fit_gamma_moments(draws)
    assert abs(shape - m * L) / (m * L) < 0.05
    assert abs(scale - theta) / theta < 0.05
