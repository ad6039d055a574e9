"""Parallel channels of gamma-fading SIMO subchannels.

A subchannel that combines L independent Nakagami-m branches of common
scale theta has power gain Gamma(m*L, theta), and the bounds depend on it
only through that law.  A parallel channel holds N such laws as arrays
``theta`` and ``shape`` (index n is subchannel n), sharing one noise
level; m and L are arguments of the builders only, and the total power
budget is an argument of the allocators.
"""

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .specfun import _check_shapes, _gamma_rule

__all__ = [
    "ParallelChannel",
    "build_decay_profile",
    "fit_gamma_moments",
]


def _per_subchannel(name: str, value, n: int) -> np.ndarray:
    # read-only float copy with one entry per subchannel; one value is repeated
    arr = np.array(value, dtype=float)
    if arr.ndim == 0:
        arr = np.full(n, arr)
    if arr.shape != (n,):
        raise ValueError(f"{name} needs one entry per subchannel ({n}), got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _positive(name: str, value) -> float:
    value = float(value)
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


_DBL_MAX = float(np.finfo(float).max)

# the entries of the longest float64 array numpy can address; past it, numpy's own
# errors name no input (linspace even raises IndexError within 512 of the intp maximum)
_COUNT_MAX = int(np.iinfo(np.intp).max) // np.dtype(float).itemsize


def _positive_integer(name: str, value, most=_COUNT_MAX) -> None:
    # a count, such as L or a number of bins: a whole number from 1 to the largest float,
    # and by default no more than the entries of the longest float array
    try:
        whole = value >= 1 and float(value).is_integer()
    except OverflowError:  # an integer past the largest float
        raise ValueError(
            f"{name} must be a positive integer below 1.8e308, got a larger one"
        ) from None
    except TypeError:  # not a number, such as a string or None
        whole = False
    if not whole:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")
    if value > most:
        raise ValueError(f"{name} must be a positive integer at most {most}, got {value!r}")


def _branch_shape(m: float, L) -> float:
    # shape m*L of the gain summed over L Nakagami-m branches; L sizes no array
    if not (m >= 0.5 and math.isfinite(m)):
        raise ValueError(f"m must be >= 0.5, got {m!r}")
    _positive_integer("L", L, most=math.inf)
    return m * L


@dataclass(frozen=True, eq=False)
class ParallelChannel:
    """N gamma-fading subchannels sharing one noise level.

    Subchannel n has power gain Gamma(shape[n], theta[n]) with scale
    theta[n] > 0 (linear power gain units) and shape[n] in [0.1, 1e5], and
    optionally a center frequency freqs_hz[n].  ``shape`` may be given once
    for all subchannels.  Every array is stored as a read-only 1-D float
    copy, next to the derived ``mean_gains`` = theta*shape.  A mean gain
    that overflows raises ``ValueError`` naming its bin and the product.  The
    gamma rule, built at first use, lives as long as the channel: (distinct
    shapes x widest row) x 16 B, a row for a profile, 6.5 MB at 588 fitted bins.
    """

    theta: np.ndarray
    shape: np.ndarray
    n0: float
    freqs_hz: np.ndarray | None = None
    mean_gains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = np.size(self.theta)
        if n < 1:
            raise ValueError("a parallel channel needs at least one subchannel")
        theta, shape = (_per_subchannel(k, getattr(self, k), n) for k in ("theta", "shape"))
        bad = theta[~(np.isfinite(theta) & (theta > 0.0))]
        if bad.size:
            raise ValueError(f"theta must be positive and finite, got {float(bad[0])!r}")
        _check_shapes(shape)
        n0 = _positive("n0", self.n0)
        freqs = None if self.freqs_hz is None else _per_subchannel("freqs_hz", self.freqs_hz, n)
        with np.errstate(over="ignore"):  # refused below, by bin
            mean_gains = _per_subchannel("mean_gains", theta * shape, n)
        top = np.flatnonzero(np.isinf(mean_gains))
        if top.size:
            i = int(top[0])
            raise ValueError(f"mean gain theta*shape overflows in bin {i}: "
                             f"{float(theta[i])!r} * {float(shape[i])!r}")
        fields = dict(theta=theta, shape=shape, n0=n0, freqs_hz=freqs)
        for name, value in dict(fields, mean_gains=mean_gains).items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__: copies stay read-only, with no rule yet
        return type(self), (self.theta, self.shape, self.n0, self.freqs_hz)

    @property
    def n(self) -> int:
        return self.theta.size

    @cached_property
    def _rule(self):  # _gamma_rule(shape) as read-only views: nodes, weights and rows
        return tuple(np.broadcast_to(part, part.shape) for part in _gamma_rule(self.shape))


def _loads(powers, gains, n0: float, product: str = "p*mu/n0") -> np.ndarray:
    # the loads p*g/n0 of broadcast powers and gains, such as an (n,) vector or (rows, n) stack
    # of powers over a channel's mean gains, all that the rates and the optimal solver read of
    # a power.  They are formed on significands so that p*g alone may leave the float range:
    # (p*g)/n0 bit for bit where both are normal.  An overflow names its bin and product
    (sp, ep), (sg, eg) = np.frexp(powers), np.frexp(gains)
    sn, en = math.frexp(n0)
    with np.errstate(over="ignore"):  # refused below, by bin
        loads = np.ldexp(sp * sg / sn, ep + eg - en)
    over = np.argwhere(np.isinf(loads))
    if over.size:
        at = tuple(over[0])
        p, g = (float(np.broadcast_to(v, loads.shape)[at]) for v in (powers, gains))
        raise ValueError(f"{product} overflows in bin {at[-1]}: {p!r} * {g!r} / {n0!r}")
    return loads


def build_decay_profile(
    n_bins: int,
    f_lo_hz: float,
    f_hi_hz: float,
    decay_exponent: float,
    m: float,
    L: int,
    n0: float,
) -> ParallelChannel:
    """Frequency-selective profile with mean gains falling off like f^(-decay_exponent).

    Bin frequencies span [f_lo_hz, f_hi_hz] uniformly (endpoints included;
    a single bin sits at the band center).  Mean gains mu average exactly
    one over bins, and L Nakagami-m branches give bin n Gamma(mL, mu_n/(mL)).
    An exponent whose gains underflow over the band, at 5-6 GHz one past
    about 2100, raises ``ValueError``.
    """
    shape = _branch_shape(m, L)
    # linspace counts its length in floats, which round the longest counts up past _COUNT_MAX
    _positive_integer("n_bins", n_bins, most=_COUNT_MAX // 2)
    if not (math.isfinite(f_hi_hz) and f_hi_hz > f_lo_hz > 0.0):
        raise ValueError(f"need finite f_hi_hz > f_lo_hz > 0, got [{f_lo_hz!r}, {f_hi_hz!r}]")
    if not (decay_exponent >= 0.0 and math.isfinite(decay_exponent)):
        raise ValueError("decay_exponent must be nonnegative and finite")
    if n_bins == 1:
        freqs = np.array([0.5 * (f_lo_hz + f_hi_hz)])
    else:
        freqs = np.linspace(f_lo_hz, f_hi_hz, int(n_bins))
    # over the power of two at or below f_lo_hz every frequency is at least 1, exactly, so
    # every weight is at most 1 and only a ratio past the float range can underflow it
    with np.errstate(over="ignore"):  # past DBL_MAX a frequency's weight is 0, or 1 at d = 0
        weights = np.ldexp(freqs, 1 - math.frexp(f_lo_hz)[1]) ** -float(decay_exponent)
    if not weights.min() >= np.finfo(float).tiny:
        raise ValueError(f"decay_exponent {decay_exponent!r} over [{f_lo_hz!r}, {f_hi_hz!r}] Hz "
                         f"gives mean gains that underflow")
    mu = weights / weights.mean()
    return ParallelChannel(theta=mu / shape, shape=shape, n0=n0, freqs_hz=freqs)


def fit_gamma_moments(samples) -> tuple[np.ndarray, np.ndarray]:
    """Method-of-moments gamma fits of every column: shape = mean^2/var, scale = var/mean.

    Samples run along axis 0 of a (snapshots, ...) array, so a (snapshots,
    bins) array of gains gives one (shape, scale) pair of arrays over bins.
    A column with fewer than 2 samples or zero variance has no fit: NaN.
    """
    arr = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("samples must be nonnegative and finite")
    if len(arr) < 2:
        return np.full(arr.shape[1:], np.nan), np.full(arr.shape[1:], np.nan)
    mean, var = arr.mean(axis=0), arr.var(axis=0)
    fit = var > 0.0  # nonnegative samples: a positive variance has a positive mean
    shape, scale = np.full_like(var, np.nan), np.full_like(var, np.nan)
    np.divide(mean * mean, var, out=shape, where=fit)
    np.divide(var, mean, out=scale, where=fit)
    return shape, scale
