"""Power allocation strategies over a parallel channel.

``waterfill`` is the exact active-set water-level solver; fed the mean
gains it is statistical waterfilling, fed realized gains it is
instantaneous waterfilling.  ``optimal_allocation`` maximizes the exact
ergodic sum rate over the power simplex when only the gain distributions
are known at the transmitter.
"""

import math
from dataclasses import dataclass

import numpy as np

from .channel import ParallelChannel
from .specfun import NumericError, gamma_expectation_batch

__all__ = [
    "PowerAllocation",
    "waterfill",
    "equal_power",
    "optimal_allocation",
]

_OUTER_ITER_CAP = 200
_INNER_ITER_CAP = 100
_BUDGET_TOLERANCE = 1e-8  # the multiplier search stops within this share of p_total


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


def waterfill(
    gains, n0: float, p_total: float, strategy_tag: str = "statistical-waterfill"
) -> PowerAllocation:
    """Exact water-level allocation p_n = max(0, nu - n0/g_n), sum p_n = p_total.

    Solved by the active-set method: with thresholds n0/g_n sorted
    ascending, the water level over the active prefix A is
    nu = (p_total + sum_A n0/g_n) / |A|, and the active set is the
    largest prefix keeping every active power strictly positive.  Tied
    thresholds activate all-or-none automatically.

    Fed mean gains this is statistical waterfilling (the default tag);
    pass realized gains and ``strategy_tag="instantaneous-waterfill"``
    for the full-knowledge variant.
    """
    g = np.asarray(gains, dtype=float)
    if g.ndim != 1 or g.size < 1:
        raise ValueError("gains must be a 1-D vector")
    if not np.all(np.isfinite(g)) or np.any(g <= 0.0):
        raise ValueError("all gains must be positive and finite")
    if not (n0 > 0.0 and p_total > 0.0):
        raise ValueError("n0 and p_total must be positive")

    thresholds = n0 / g
    order = np.argsort(thresholds, kind="stable")
    sorted_thr = thresholds[order]
    k = np.arange(1, g.size + 1, dtype=float)
    nu_candidates = (p_total + np.cumsum(sorted_thr)) / k
    active = nu_candidates > sorted_thr
    k_star = int(np.flatnonzero(active).max()) + 1
    nu = float(nu_candidates[k_star - 1])

    powers = np.zeros(g.size)
    powers[order[:k_star]] = nu - sorted_thr[:k_star]
    return PowerAllocation(powers=powers, water_level=nu, strategy_tag=strategy_tag)


def equal_power(n: int, p_total: float) -> PowerAllocation:
    """Balanced allocation: each of n subchannels gets p_total / n."""
    if n < 1 or int(n) != n:
        raise ValueError("n must be a positive integer")
    if not (p_total > 0.0):
        raise ValueError("p_total must be positive")
    return PowerAllocation(powers=np.full(int(n), p_total / n), strategy_tag="equal")


def _powers_at(channel: ParallelChannel, lam: float) -> np.ndarray:
    """Powers at which each subchannel's marginal utility equals lam (0 if never).

    The marginal utility d/dp E[log(1 + p*g/n0)] = E[g / (n0 + p*g)] falls
    strictly from mu/n0 at p = 0, so subchannels with mu/n0 <= lam stay off.
    The rest run one safeguarded Newton/bisection iteration together; each
    stops on its own tolerance and is left out of later evaluations.
    """
    n0 = channel.n0
    powers = np.zeros(channel.n)
    act = np.flatnonzero(channel.mean_gains / n0 > lam)
    if act.size == 0:
        return powers

    def marginal(rows, p_rows, power=1):
        # E[(g / (n0 + p*g))**power] on the active subchannels ``act[rows]``
        return gamma_expectation_batch(
            lambda g, idx: (g / (n0 + p_rows[idx, None] * g)) ** power,
            channel.shape[act[rows]],
            channel.theta[act[rows]],
        )

    hi = np.full(act.size, max(channel.p_total, 1.0))
    pending = np.arange(act.size)
    for _ in range(_INNER_ITER_CAP):
        pending = pending[marginal(pending, hi[pending]) > lam]
        if pending.size == 0:
            break
        hi[pending] *= 2.0
    else:
        raise NumericError("could not bracket the marginal-utility root")

    lo = np.zeros(act.size)
    p = 0.5 * hi
    live = np.arange(act.size)
    for _ in range(_INNER_ITER_CAP):
        p_live = p[live]
        val = marginal(live, p_live)
        # a hit on the root collapses the bracket onto p
        on_root = np.abs(val - lam) <= 1e-13 * lam
        lo[live] = np.where(on_root | (val > lam), p_live, lo[live])
        hi[live] = np.where(on_root | (val <= lam), p_live, hi[live])
        wide = hi[live] - lo[live] > 1e-13 * np.maximum(1.0, hi[live])
        live, val = live[wide], val[wide]
        if live.size == 0:
            break
        # Newton step on the strictly decreasing marginal, bisection fallback
        lo_l, hi_l, p_l = lo[live], hi[live], p[live]
        candidate = p_l + (val - lam) / marginal(live, p_l, power=2)
        inside = (lo_l < candidate) & (candidate < hi_l)
        p[live] = np.where(inside, candidate, 0.5 * (lo_l + hi_l))
    powers[act] = 0.5 * (lo + hi)
    return powers


def optimal_allocation(channel: ParallelChannel) -> PowerAllocation:
    """Exact maximizer of the ergodic sum rate over the power simplex.

    The objective sum_n E[log(1 + p_n*g_n/n0)] is strictly concave, so the
    optimum is characterized by a shared multiplier lam on the marginal
    utilities E[g/(n0 + p*g)]: subchannels with mu_n/n0 <= lam are shut
    off, the rest solve their marginal equation.  lam is found by outer
    bisection; the search stops once the allocated total is within
    1e-8 * p_total of the budget, and powers are then rescaled to sum to
    the budget exactly.
    """
    p_total = channel.p_total
    lam_hi = float(channel.mean_gains.max()) / channel.n0  # total allocated power is 0 here
    lam_lo = lam_hi
    for _ in range(_OUTER_ITER_CAP):
        lam_lo *= 0.5
        if _powers_at(channel, lam_lo).sum() >= p_total:
            break
    else:
        raise NumericError("could not bracket the water-level multiplier")

    powers = None
    residual = math.inf
    for _ in range(_OUTER_ITER_CAP):
        lam = 0.5 * (lam_lo + lam_hi)
        powers = _powers_at(channel, lam)
        total = powers.sum()
        residual = total - p_total
        if abs(residual) <= _BUDGET_TOLERANCE * p_total:
            break
        if total > p_total:
            lam_lo = lam
        else:
            lam_hi = lam
    else:
        raise NumericError(
            f"multiplier bisection did not converge; power residual {residual:.3e}"
        )

    powers = powers * (p_total / powers.sum())
    return PowerAllocation(powers=powers, strategy_tag="optimal")
