"""Power allocation strategies over a parallel channel.

An allocation is a float array of nonnegative per-subchannel powers, and
every allocator takes the total power budget ``p_total`` it splits.
``waterfill`` is the exact active-set water-level solver; fed the mean
gains it is statistical waterfilling, fed realized gains it is
instantaneous waterfilling.  ``optimal_allocation`` maximizes the exact
ergodic sum rate over the power simplex when only the gain distributions
are known at the transmitter.
"""

import math

import numpy as np

from .channel import _DBL_MAX, ParallelChannel, _loads, _positive, _positive_integer
from .specfun import NumericError, _rule_sums

__all__ = [
    "waterfill",
    "equal_power",
    "optimal_allocation",
]

_ITER_CAP = 50
_KKT_TOLERANCE = 1e-12  # relative spread of the active marginal utilities at the optimum


def _waterlevel(levels: np.ndarray, slopes: np.ndarray, total: float):
    """Powers slopes_n * max(0, nu - levels_n) summing to total, and nu.

    The active-set method for weighted waterfilling (Palomar and Fonollosa,
    IEEE Trans. Signal Process. 53(2), 2005): with levels sorted ascending,
    the water level over a prefix A is (total + sum_A slopes*levels) /
    sum_A slopes, and the active set is the largest prefix whose last
    level k the water reaches: the power that lifts it there,
    sum_{i<k} slopes_i*(levels_k - levels_i), is below total.  That sum of
    nonnegative terms leaves out slope k, so no steep subchannel swamps its
    own test.  Tied levels activate all-or-none.
    """
    order = np.argsort(levels, kind="stable")
    sorted_levels, sorted_slopes = levels[order], slopes[order]
    with np.errstate(over="ignore", invalid="ignore"):  # an infinite level is never reached
        fill = np.cumsum(np.cumsum(sorted_slopes[:-1]) * np.diff(sorted_levels))
    k_star = 1 + np.count_nonzero(fill < total)
    levels_on, slopes_on = sorted_levels[:k_star], sorted_slopes[:k_star]
    # waterfill's levels start at 0 with unit slopes, so each level reached is below total
    # and the numerator of nu below (k_star + 1) * total: within that factor of DBL_MAX,
    # nu is formed in units of an exact power of two s that keep it finite; elsewhere s = 1
    s = math.ldexp(1.0, min(0, 1023 - math.frexp(total)[1] - int(k_star).bit_length()))
    levels_on = s * levels_on
    nu = float((s * total + np.cumsum(slopes_on * levels_on)[-1]) / np.cumsum(slopes_on)[-1])
    powers = np.zeros(levels.size)
    # nu may round a hair below the last level reached, never below it by more
    powers[order[:k_star]] = np.maximum(slopes_on * (nu - levels_on), 0.0) / s
    return powers, nu / s  # a float quotient: past DBL_MAX, inf with no warning


def waterfill(gains, n0: float, p_total: float) -> tuple[np.ndarray, float]:
    """Exact water-level allocation p_n = max(0, nu - n0/g_n), sum p_n = p_total.

    Returns the powers and the water level nu: the active-set solution
    over the thresholds n0/g_n with unit slopes.  Fed mean gains this is
    statistical waterfilling; fed realized gains it is the full-knowledge
    instantaneous variant.  The powers are finite for any finite budget:
    near DBL_MAX the water level is formed in units of an exact power of
    two, and only a level past DBL_MAX itself is returned as inf.
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
    # thresholds measured from the lowest keep low-SNR powers free of cancellation
    powers, nu = _waterlevel(levels - levels.min(), np.ones(g.size), p_total)
    return powers, nu + float(levels.min())  # a float sum: past DBL_MAX, inf with no warning


def equal_power(n: int, p_total: float) -> np.ndarray:
    """Balanced allocation: each of n subchannels gets p_total / n."""
    _positive_integer("n", n)
    p_total = _positive("p_total", p_total)
    return np.full(int(n), p_total / n)


def optimal_allocation(channel: ParallelChannel, p_total: float) -> np.ndarray:
    """Exact maximizer of the ergodic sum rate over the power simplex sum p_n = p_total.

    The objective sum_n E[log(1 + p_n*g_n/n0)] is strictly concave, so the
    optimum is characterized by a shared multiplier lam on the marginal
    utilities M_n(p) = E[g/(n0 + p*g)]: M_n = lam on active subchannels,
    and mu_n/n0 = M_n(0) <= lam on the rest.  Newton's method solves these
    conditions from statistical waterfilling, which is within
    O(1/(L log L)) of the optimum.  Each step linearizes M_n with its
    derivative -D_n = -E[(g/(n0 + p*g))**2] and solves
    p_n = max(0, (M_n + p_n*D_n - lam)/D_n), sum p_n = p_total, as one
    waterfilling with slopes 1/D_n.  The solve runs in one unit s, the power
    of two in (nu/4, nu/2] at waterfilling's water level nu, but at least
    2**-1074, which scales M_n by s and the powers by 1/s, exactly.  On the
    rule's unit-mean nodes e^u = g/mu_n, s*M_n = (s*mu_n/n0)*E[1/(e^-u + l_n)]
    at the load l_n = p_n*mu_n/n0.  At waterfilling's powers s*mu_n/n0 is
    at most max(l_n, 2) on powered bins and 2 on the rest, so neither it nor
    s**2*D_n, the square of the same quotient times it, overflows where the
    loads do not.  Each step reads the channel's rule once for M_n and D_n,
    at most 65,536 nodes at a time.  It stops once the active marginals,
    and any inactive mu_n/n0 above them, agree to 1e-12 relative; it raises
    ``NumericError`` if 50 steps do not, and ``ValueError`` naming a budget
    that waterfilling splits into zeros, or a bin whose load overflows.
    """
    n0, p_total = channel.n0, _positive("p_total", p_total)
    powers, nu = waterfill(channel.mean_gains, n0, p_total)
    if not powers.any():
        raise ValueError(f"p_total {p_total!r} is too small: waterfilling splits it into zeros")
    s = math.ldexp(1.0, max(math.frexp(min(nu, _DBL_MAX))[1] - 2, -1074))  # never 0
    loads = _loads(powers, channel.mean_gains, n0)
    gain = _loads(s, channel.mean_gains, n0, "s*mu/n0")  # at most max(load, 2)
    nodes, weights, which = channel._rule
    inverse = 1.0 / nodes  # e^-u, at most 7e195, one row per distinct shape

    def quotient(e_inv, load, *_):  # 1/(e^-u + l), in place
        return np.divide(1.0, np.add(e_inv, load, out=e_inv), out=e_inv)

    for _ in range(_ITER_CAP):  # one pass: sums of q = 1/(e^-u + l), then of (s*mu/n0 * q)**2
        marginal, curvature = _rule_sums(inverse, weights, which, (quotient, lambda q, load, scale:
            np.square(np.multiply(q, scale, out=q), out=q)), loads, gain)
        marginal *= gain
        on = powers > 0.0
        lam = marginal[on].max()
        # an inactive bin's mu/n0 may exceed lam within the tolerance, where a step gives it 0
        if marginal.max() - marginal[on].min() <= _KKT_TOLERANCE * lam:
            # waterfilling's powers, if already optimal, may cancel against its water level
            return powers * (p_total / powers.sum())
        # a curvature that underflows gives its bin no power in this step; levels measured
        # from lam keep it free of cancellation
        slopes = np.divide(1.0, curvature, out=np.zeros(curvature.size),
                           where=curvature >= np.finfo(float).tiny)
        levels = (lam - marginal) - (powers / s) * curvature
        powers = s * _waterlevel(levels, slopes, p_total / s)[0]
        loads = _loads(powers, channel.mean_gains, n0)
    raise NumericError(f"Newton iteration did not converge in {_ITER_CAP} steps")
