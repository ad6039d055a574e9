"""Mutual information, capacity bounds, and convergence diagnostics.

Rates are in nats throughout; conversion to bits (division by ``LN2``)
happens only when the CLI writes its CSV.  For a feasible allocation {p_n}
over a parallel channel with mean gains {mu_n}:

* upper bound (Jensen):        sum_n log(1 + p_n mu_n / n0), evaluated at
  the statistical-waterfilling allocation it upper-bounds the capacity;
* achievable rate:             sum_n E[log(1 + p_n g_n / n0)];
* lower bound (Markov):        sum_n a_n * Q(shape_n, x_n) with
  x_n = (n0/p_n)(e^{a_n} - 1)/theta_n, valid for any a_n > 0.

The single-subchannel ratio of the Markov lower to the Jensen upper bound
drives the large-diversity convergence results; ``bound_ratio`` evaluates
it and ``bound_ratio_expansion`` its leading-order factorization.
"""

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .alloc import PowerAllocation, equal_power, optimal_allocation, waterfill
from .channel import GainMatrix, ParallelChannel
from .specfun import NumericError, _gamma_q, gamma_expectation_batch, reg_gamma_q

__all__ = [
    "LN2",
    "STRATEGY_TAGS",
    "MetricUndefinedError",
    "BoundsReport",
    "RatioParams",
    "ConvergencePoint",
    "ConvergenceStudy",
    "jensen_upper",
    "markov_lower",
    "exact_rate",
    "empirical_rate",
    "mpe",
    "bound_ratio",
    "ratio_log_term",
    "ratio_gamma_term",
    "bound_ratio_expansion",
    "awgn_reference",
    "evaluate_bounds",
    "convergence_study",
    "resolve_strategy",
    "snr_db_to_power",
]

LN2 = math.log(2.0)
STRATEGY_TAGS = ("statistical-waterfill", "equal", "optimal")

_A_MAX = 50.0
_ITER_CAP = 50
_A_STEP_TOLERANCE = 1e-10  # relative Newton step in a; the term's error is its square


class MetricUndefinedError(ValueError):
    """The requested metric is undefined for the given inputs."""


def _alloc_powers(channel: ParallelChannel, alloc: PowerAllocation) -> np.ndarray:
    if alloc.n != channel.n:
        raise ValueError(
            f"allocation has {alloc.n} powers but the channel has {channel.n} subchannels"
        )
    return alloc.powers


def jensen_upper(channel: ParallelChannel, alloc: PowerAllocation) -> float:
    """Concavity bound sum_n log(1 + p_n*mu_n/n0) on the ergodic sum rate."""
    powers = _alloc_powers(channel, alloc)
    return float(np.log1p(powers * channel.mean_gains / channel.n0).sum())


def _markov_terms(a, shape, theta, p, n0: float) -> np.ndarray:
    # a * Q(shape, x), x = (n0/p)(e^a - 1)/theta; an overflowing x is inf, where Q = 0
    with np.errstate(over="ignore"):
        x = (n0 / p) * np.expm1(a) / theta
    return a * _gamma_q(shape, x)[0]


def _max_markov_terms(shape, theta, p, n0: float) -> np.ndarray:
    # Per subchannel: a coarse log-grid scan over a, then safeguarded Newton
    # steps on h'(a) = 0 for h(a) = a*Q(k, x), x = c*(e^a - 1), c = n0/(p*theta),
    # from the best grid point and inside the bracket of its neighbours.
    # With phi the gamma density at x, so that x*phi is the kernel's density,
    #   h'  = Q - a*(x + c)*phi,
    #   h'' = -(x + c)*phi*(2 + a + a*(x + c)*((k - 1)/x - 1)).
    # The sign of h' shrinks the bracket; where h'' >= 0 or the Newton point
    # leaves the closed bracket, the step bisects it instead.  A maximum at
    # an end of the range collapses the bracket onto that end, which is then
    # returned exactly.
    grid = np.geomspace(1e-6, _A_MAX, 48)
    i = np.argmax(_markov_terms(grid, shape[:, None], theta[:, None], p[:, None], n0), axis=1)
    lo = grid[np.maximum(i - 1, 0)]
    hi = grid[np.minimum(i + 1, grid.size - 1)]
    a = grid[i]
    c = (n0 / p) / theta
    for _ in range(_ITER_CAP):
        x = c * np.expm1(a)
        q, log_x_phi = _gamma_q(shape, x)
        xc_phi = (1.0 + c / x) * np.exp(log_x_phi)
        d1 = q - a * xc_phi
        d2 = -xc_phi * (2.0 + a + a * (x + c) * ((shape - 1.0) / x - 1.0))
        rising = d1 > 0.0
        lo = np.where(rising, a, lo)
        hi = np.where(rising, hi, a)
        with np.errstate(all="ignore"):  # d2 = 0 far past the maximum; bisected below
            newton = a - d1 / d2
        new = np.where((d2 < 0.0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.all(np.abs(new - a) <= _A_STEP_TOLERANCE * new)
        a = new
        if done:
            return _markov_terms(a, shape, theta, p, n0)
    raise NumericError(f"Markov parameter search did not converge in {_ITER_CAP} steps")


def markov_lower(
    channel: ParallelChannel,
    alloc: PowerAllocation,
    a_values: Sequence[float] | None = None,
    alpha: float | None = None,
) -> float:
    """Markov-inequality lower bound sum_n a_n * Pr(g_n >= (n0/p_n)(e^{a_n}-1)).

    The free parameters a_n > 0 are given explicitly (``a_values``), set by
    the rule a_n = log(1 + alpha*p_n*mu_n/n0), the paper's
    log(1 + alpha*beta*L) (``alpha``), or, by default, chosen per subchannel
    by numerical maximization of the term over a in [1e-6, 50].
    Zero-power subchannels contribute zero.  Raises ``NumericError`` if
    the maximization does not converge.
    """
    if a_values is not None and alpha is not None:
        raise ValueError("give at most one of a_values and alpha")
    powers = _alloc_powers(channel, alloc)
    if a_values is not None and len(a_values) != channel.n:
        raise ValueError("a_values length does not match the channel")
    if alpha is not None and not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")

    n0 = channel.n0
    on = powers > 0.0
    p = powers[on]
    theta = channel.theta[on]
    shape = channel.shape[on]
    if a_values is not None:
        a = np.asarray(a_values, dtype=float)
        bad = np.flatnonzero(on & (a <= 0.0))
        if bad.size:
            raise ValueError(f"a must be positive where power is positive (index {bad[0]})")
        terms = _markov_terms(a[on], shape, theta, p, n0)
    elif alpha is not None:
        terms = _markov_terms(np.log1p(alpha * (p * theta / n0) * shape), shape, theta, p, n0)
    else:
        terms = _max_markov_terms(shape, theta, p, n0)
    return float(terms.sum())


def exact_rate(channel: ParallelChannel, alloc: PowerAllocation) -> float:
    """Ergodic sum rate sum_n E[log(1 + p_n*g_n/n0)] of the allocation."""
    powers = _alloc_powers(channel, alloc)
    on = powers > 0.0
    c = powers[on] / channel.n0
    rates = gamma_expectation_batch(
        lambda g, rows: np.log1p(c[rows, None] * g), channel.shape[on], channel.theta[on]
    )
    return float(rates.sum())


def empirical_rate(gains: GainMatrix, alloc: PowerAllocation, n0: float) -> float:
    """Snapshot-averaged sum rate over realized gains."""
    if n0 <= 0.0:
        raise ValueError("n0 must be positive")
    if gains.snapshots < 1:
        raise ValueError("need at least one snapshot")
    if gains.n_subchannels != alloc.n:
        raise ValueError(
            f"gain matrix has {gains.n_subchannels} subchannels but the "
            f"allocation has {alloc.n}"
        )
    per_snapshot = np.log1p(gains.values * (alloc.powers / n0)).sum(axis=1)
    return float(per_snapshot.mean())


def mpe(c_upper: float, c_lower: float) -> float:
    """Maximum percent error 100 * (c_upper - c_lower) / c_lower of a bound pair."""
    if not (math.isfinite(c_upper) and math.isfinite(c_lower)) or c_lower < 0.0:
        raise ValueError("bounds must be finite with c_lower >= 0")
    if c_upper < c_lower:
        raise ValueError(f"c_upper ({c_upper}) must not be below c_lower ({c_lower})")
    if c_lower == 0.0:
        raise MetricUndefinedError("MPE is undefined for a zero lower bound")
    return 100.0 * (c_upper - c_lower) / c_lower


@dataclass(frozen=True)
class RatioParams:
    """Single-subchannel parameters of the lower/upper bound ratio.

    beta is the normalized SNR p*theta*m/n0 of the subchannel; alpha in
    (0, 1) selects the closed-form Markov parameter a = log(1 + alpha*beta*L).
    """

    m: float
    L: int
    beta: float
    alpha: float

    def __post_init__(self):
        if not (self.m >= 0.5 and math.isfinite(self.m)):
            raise ValueError("m must be >= 0.5")
        if int(self.L) != self.L or self.L < 1:
            raise ValueError("L must be a positive integer")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ValueError("beta must be positive and finite")
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("alpha must lie strictly between 0 and 1")


def bound_ratio(params: RatioParams) -> float:
    """Ratio of the Markov lower to the Jensen upper bound for one subchannel.

    log(1 + alpha*beta*L) / log(1 + beta*L) * Q(m*L, alpha*m*L); strictly
    inside (0, 1) and increasing to 1 as L grows.
    """
    m, L, beta, alpha = params.m, params.L, params.beta, params.alpha
    num = math.log1p(alpha * beta * L)
    den = math.log1p(beta * L)
    return (num / den) * reg_gamma_q(m * L, alpha * m * L)


def ratio_log_term(alpha: float, L: float) -> float:
    """Leading logarithmic factor 1 + log(alpha)/log(L) of the ratio expansion."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not (L >= 2.0):
        raise ValueError("the logarithmic term needs L >= 2")
    return 1.0 + math.log(alpha) / math.log(L)


def ratio_gamma_term(m: float, L: float, alpha: float) -> float:
    """Leading gamma-function factor 1 - (alpha*e^(1-alpha))^(mL) / ((1-alpha)*sqrt(2*pi*mL))."""
    if not (0.0 < alpha < 1.0):
        raise ValueError("alpha must lie strictly between 0 and 1")
    if not (m >= 0.5 and L >= 1.0):
        raise ValueError("need m >= 0.5 and L >= 1")
    mL = m * L
    # alpha*e^(1-alpha) < 1 on (0,1), so the exponent is always negative.
    geometric = math.exp(mL * (math.log(alpha) + 1.0 - alpha))
    return 1.0 - geometric / ((1.0 - alpha) * math.sqrt(2.0 * math.pi * mL))


def bound_ratio_expansion(m: float, L: float, alpha: float) -> tuple[float, float]:
    """Leading-order factors of the large-L expansion of ``bound_ratio``.

    Returns (log_term, gamma_term) without their vanishing corrections;
    their product approximates the exact ratio for large L.
    """
    return ratio_log_term(alpha, L), ratio_gamma_term(m, L, alpha)


def awgn_reference(channel: ParallelChannel) -> float:
    """Capacity of the deterministic parallel channel with gains fixed at the means.

    Waterfilling on the mean gains is optimal there, so this equals the
    Jensen upper bound evaluated at the statistical-waterfilling
    allocation.  Used to normalize rate sweeps.
    """
    swf = waterfill(channel.mean_gains, channel.n0, channel.p_total)
    return jensen_upper(channel, swf)


@dataclass(frozen=True)
class BoundsReport:
    """Bounds, achievable rate proxy, and normalized rates for one configuration."""

    snr_db: float
    strategy_tag: str
    c_upper: float
    c_lower_exact: float
    c_lower_markov: float
    mpe_percent: float
    c_awgn_ref: float
    normalized_upper: float
    normalized_lower: float


def snr_db_to_power(channel_n: int, n0: float, snr_db: float) -> float:
    """Total power giving the requested average per-subchannel transmit SNR.

    SNR is defined as p_total / (N * n0) under the unit-average-gain
    normalization of the channel profiles.  Raises ``ValueError`` if the
    power overflows.
    """
    try:
        return channel_n * n0 * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        raise ValueError(f"SNR {snr_db!r} dB gives a power that overflows") from None


def resolve_strategy(
    channel: ParallelChannel,
    strategy: str | Callable[[ParallelChannel], PowerAllocation],
) -> PowerAllocation:
    """Turn a strategy tag or callable into a concrete allocation."""
    if callable(strategy):
        return strategy(channel)
    if strategy == "statistical-waterfill":
        return waterfill(channel.mean_gains, channel.n0, channel.p_total)
    if strategy == "equal":
        return equal_power(channel.n, channel.p_total)
    if strategy == "optimal":
        return optimal_allocation(channel)
    raise ValueError(f"unknown strategy {strategy!r}")


def evaluate_bounds(
    channel: ParallelChannel,
    alloc: PowerAllocation,
    snr_db: float,
    alpha: float | None = None,
) -> BoundsReport:
    """Full bound report for one allocation on one channel.

    The upper bound is always the Jensen bound at the statistical-
    waterfilling allocation (the bound on capacity itself); the lower
    bounds are evaluated at the given allocation, so the MPE certifies how
    far that allocation can be from optimal.  The upper bound doubles as
    the AWGN reference (see ``awgn_reference``), so ``normalized_upper``
    is 1.
    """
    swf = waterfill(channel.mean_gains, channel.n0, channel.p_total)
    c_upper = jensen_upper(channel, swf)
    c_lower_exact = exact_rate(channel, alloc)
    c_lower_markov = markov_lower(channel, alloc, alpha=alpha)
    c_awgn = c_upper  # the same waterfill and Jensen sum as awgn_reference
    return BoundsReport(
        snr_db=snr_db,
        strategy_tag=alloc.strategy_tag,
        c_upper=c_upper,
        c_lower_exact=c_lower_exact,
        c_lower_markov=c_lower_markov,
        mpe_percent=mpe(c_upper, c_lower_exact),
        c_awgn_ref=c_awgn,
        normalized_upper=c_upper / c_awgn,
        normalized_lower=c_lower_exact / c_awgn,
    )


@dataclass(frozen=True)
class ConvergencePoint:
    L: int
    c_upper: float
    c_lower_exact: float
    mpe_percent: float


@dataclass(frozen=True)
class ConvergenceStudy:
    points: tuple
    slope: float


def convergence_study(
    profile: Callable[[int], ParallelChannel],
    strategy: str | Callable[[ParallelChannel], PowerAllocation],
    l_list: Sequence[int],
    snr_db: float,
) -> ConvergenceStudy:
    """Bound gap versus diversity order, with a fitted log-log MPE slope.

    ``profile`` maps a diversity order L to a parallel channel; its power
    budget is overridden to match ``snr_db``.  For each L the upper bound
    is the Jensen bound at statistical waterfilling and the lower bound is
    the exact rate of the requested strategy.  The slope is an unweighted
    least-squares fit of log(MPE) against log(L).
    """
    ls = list(l_list)
    if len(ls) < 3:
        raise ValueError("need at least 3 diversity orders to fit a slope")
    if any(b <= a for a, b in zip(ls, ls[1:])):
        raise ValueError("l_list must be strictly increasing")

    points = []
    for L in ls:
        ch = profile(int(L))
        ch = ch.with_power(snr_db_to_power(ch.n, ch.n0, snr_db))
        swf = waterfill(ch.mean_gains, ch.n0, ch.p_total)
        alloc = swf if strategy == "statistical-waterfill" else resolve_strategy(ch, strategy)
        c_upper = jensen_upper(ch, swf)
        c_lower = exact_rate(ch, alloc)
        points.append(ConvergencePoint(int(L), c_upper, c_lower, mpe(c_upper, c_lower)))

    slope = float(
        np.polyfit(
            np.log([p.L for p in points]), np.log([p.mpe_percent for p in points]), 1
        )[0]
    )
    return ConvergenceStudy(points=tuple(points), slope=slope)
