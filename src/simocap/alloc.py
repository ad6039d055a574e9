"""Power allocation strategies over a parallel channel.

``waterfill`` is the exact active-set water-level solver; fed the mean
gains it is statistical waterfilling, fed realized gains it is
instantaneous waterfilling.  ``optimal_allocation`` maximizes the exact
ergodic sum rate over the power simplex when only the gain distributions
are known at the transmitter.
"""

from dataclasses import dataclass

import numpy as np

from .channel import ParallelChannel, _positive
from .specfun import NumericError, gamma_expectation_batch

__all__ = [
    "PowerAllocation",
    "waterfill",
    "equal_power",
    "optimal_allocation",
]

_ITER_CAP = 50
_KKT_TOLERANCE = 1e-12  # relative spread of the active marginal utilities at the optimum


@dataclass(frozen=True, eq=False)
class PowerAllocation:
    """Nonnegative per-subchannel powers, optionally with a water level."""

    powers: np.ndarray
    water_level: float | None = None
    strategy_tag: str = "custom"

    def __post_init__(self):
        powers = np.asarray(self.powers, dtype=float)
        object.__setattr__(self, "powers", powers)
        if powers.ndim != 1 or powers.size < 1:
            raise ValueError("powers must be a 1-D vector")
        if not np.all(np.isfinite(powers)) or np.any(powers < 0.0):
            raise ValueError("powers must be nonnegative and finite")

    @property
    def n(self) -> int:
        return self.powers.size

    @property
    def total(self) -> float:
        return float(self.powers.sum())


def _waterlevel(levels: np.ndarray, slopes: np.ndarray, total: float):
    """Powers slopes_n * max(0, nu - levels_n) summing to total, and nu.

    The active-set method for weighted waterfilling (Palomar and Fonollosa,
    IEEE Trans. Signal Process. 53(2), 2005): with levels sorted ascending,
    the water level over a prefix A is (total + sum_A slopes*levels) /
    sum_A slopes, and the active set is the largest prefix keeping every
    active power strictly positive.  Tied levels activate all-or-none.
    """
    order = np.argsort(levels, kind="stable")
    sorted_levels, sorted_slopes = levels[order], slopes[order]
    nu_candidates = (total + np.cumsum(sorted_slopes * sorted_levels)) / np.cumsum(sorted_slopes)
    k_star = int(np.flatnonzero(nu_candidates > sorted_levels).max()) + 1
    nu = float(nu_candidates[k_star - 1])
    powers = np.zeros(levels.size)
    powers[order[:k_star]] = sorted_slopes[:k_star] * (nu - sorted_levels[:k_star])
    return powers, nu


def waterfill(
    gains, n0: float, p_total: float, strategy_tag: str = "statistical-waterfill"
) -> PowerAllocation:
    """Exact water-level allocation p_n = max(0, nu - n0/g_n), sum p_n = p_total.

    The active-set solution over the thresholds n0/g_n with unit slopes.
    Fed mean gains this is statistical waterfilling (the default tag);
    pass realized gains and ``strategy_tag="instantaneous-waterfill"``
    for the full-knowledge variant.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("gains must be a 1-D vector")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise ValueError("all gains must be positive and finite")
    n0, p_total = _positive("n0", n0), _positive("p_total", p_total)
    with np.errstate(over="ignore"):  # an infinite threshold is never reached
        levels = n0 / g
    if np.all(np.isinf(levels)):
        raise ValueError("n0/g overflows for every gain; no subchannel can be powered")
    powers, nu = _waterlevel(levels, np.ones(g.size), p_total)
    return PowerAllocation(powers=powers, water_level=nu, strategy_tag=strategy_tag)


def equal_power(n: int, p_total: float) -> PowerAllocation:
    """Balanced allocation: each of n subchannels gets p_total / n."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    p_total = _positive("p_total", p_total)
    return PowerAllocation(powers=np.full(int(n), p_total / n), strategy_tag="equal")


def optimal_allocation(channel: ParallelChannel) -> PowerAllocation:
    """Exact maximizer of the ergodic sum rate over the power simplex.

    The objective sum_n E[log(1 + p_n*g_n/n0)] is strictly concave, so the
    optimum is characterized by a shared multiplier lam on the marginal
    utilities M_n(p) = E[g/(n0 + p*g)]: M_n = lam on active subchannels,
    and mu_n/n0 = M_n(0) <= lam on the rest.  Newton's method solves these
    conditions from statistical waterfilling, which is within
    O(1/(L log L)) of the optimum.  Each step linearizes M_n with its
    derivative -D_n = -E[(g/(n0 + p*g))**2] and solves
    p_n = max(0, (M_n + p_n*D_n - lam)/D_n), sum p_n = p_total, as one
    waterfilling with slopes 1/D_n.  It stops once the active marginals
    agree to 1e-12 relative and no inactive mu_n/n0 exceeds them.
    """
    n0, p_total = channel.n0, channel.p_total
    powers = waterfill(channel.mean_gains, n0, p_total).powers

    def expectation(k):
        # E[(g/(n0 + p*g))**k] on every subchannel at the current powers, in
        # place: fresh (bins x nodes) temporaries cost more than the arithmetic
        def integrand(g, rows):
            x = powers[rows, None] * g
            x += n0
            np.divide(g, x, out=x)
            return x if k == 1 else np.square(x, out=x)
        return gamma_expectation_batch(integrand, channel.shape, channel.theta)

    for _ in range(_ITER_CAP):
        marginal = expectation(1)
        on = powers > 0.0
        lam = marginal[on].max()
        if lam - marginal[on].min() <= _KKT_TOLERANCE * lam and np.all(marginal[~on] <= lam):
            # waterfilling's powers, if already optimal, may cancel against its water level
            return PowerAllocation(powers * (p_total / powers.sum()), strategy_tag="optimal")
        # levels measured from lam keep the step free of cancellation
        curvature = expectation(2)
        powers = _waterlevel((lam - marginal) - powers * curvature, 1.0 / curvature, p_total)[0]
    raise NumericError(f"Newton iteration did not converge in {_ITER_CAP} steps")
