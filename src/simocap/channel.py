"""Parallel channels of gamma-fading SIMO subchannels.

A subchannel that combines L independent Nakagami-m branches of common
scale theta has power gain Gamma(m*L, theta), and the bounds depend on it
only through that law.  A parallel channel holds N such laws as arrays
``theta`` and ``shape`` (index n is subchannel n), sharing one noise level
and one total power budget; m and L are arguments of the builders only.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

__all__ = [
    "FitError",
    "ParallelChannel",
    "GainMatrix",
    "build_decay_profile",
    "sample_gains",
    "fit_gamma_moments",
]


class FitError(ValueError):
    """A distribution fit is impossible on the given samples."""


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


@dataclass(frozen=True, eq=False)
class ParallelChannel:
    """N gamma-fading subchannels sharing one noise level and power budget.

    Subchannel n has power gain Gamma(shape[n], theta[n]) with scale
    theta[n] > 0 (linear power gain units) and shape[n] >= 0.1, and
    optionally a center frequency freqs_hz[n].  ``shape`` may be given once
    for all subchannels.  Every array is stored as a read-only 1-D float
    copy, next to the derived ``mean_gains`` = theta*shape.
    """

    theta: np.ndarray
    shape: np.ndarray
    n0: float
    p_total: float
    freqs_hz: np.ndarray | None = None
    mean_gains: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n = np.size(self.theta)
        if n < 1:
            raise ValueError("a parallel channel needs at least one subchannel")
        theta, shape = (_per_subchannel(k, getattr(self, k), n) for k in ("theta", "shape"))
        for name, values, ok, rule in (
            ("theta", theta, theta > 0.0, "positive and finite"),
            ("shape", shape, shape >= 0.1, "finite and >= 0.1"),
        ):
            bad = values[~(np.isfinite(values) & ok)]
            if bad.size:
                raise ValueError(f"{name} must be {rule}, got {float(bad[0])!r}")
        n0, p_total = _positive("n0", self.n0), _positive("p_total", self.p_total)
        freqs = None if self.freqs_hz is None else _per_subchannel("freqs_hz", self.freqs_hz, n)
        mean_gains = _per_subchannel("mean_gains", theta * shape, n)
        fields = dict(theta=theta, shape=shape, n0=n0, p_total=p_total, freqs_hz=freqs)
        for name, value in dict(fields, mean_gains=mean_gains).items():
            object.__setattr__(self, name, value)

    def __reduce__(self):
        # pickle and deepcopy rebuild through __init__, so copies stay read-only
        return type(self), (self.theta, self.shape, self.n0, self.p_total, self.freqs_hz)

    @property
    def n(self) -> int:
        return self.theta.size

    def with_power(self, p_total: float) -> "ParallelChannel":
        """Same channel under a different total power budget."""
        return replace(self, p_total=p_total)


def build_decay_profile(
    n_bins: int,
    f_lo_hz: float,
    f_hi_hz: float,
    decay_exponent: float,
    m: float,
    L: int,
    n0: float,
    p_total: float,
) -> ParallelChannel:
    """Frequency-selective profile with mean gains falling off like f^(-decay_exponent).

    Bin frequencies span [f_lo_hz, f_hi_hz] uniformly (endpoints included;
    a single bin sits at the band center).  Mean gains mu average exactly
    one over bins, and L Nakagami-m branches give bin n Gamma(mL, mu_n/(mL)).
    """
    if not (m >= 0.5 and math.isfinite(m)):
        raise ValueError(f"m must be >= 0.5, got {m!r}")
    if not (L >= 1 and float(L).is_integer()):
        raise ValueError(f"L must be a positive integer, got {L!r}")
    if n_bins < 1 or int(n_bins) != n_bins:
        raise ValueError("n_bins must be a positive integer")
    if not (math.isfinite(f_hi_hz) and f_hi_hz > f_lo_hz > 0.0):
        raise ValueError(f"need finite f_hi_hz > f_lo_hz > 0, got [{f_lo_hz!r}, {f_hi_hz!r}]")
    if not (decay_exponent >= 0.0 and math.isfinite(decay_exponent)):
        raise ValueError("decay_exponent must be nonnegative and finite")
    if n_bins == 1:
        freqs = np.array([0.5 * (f_lo_hz + f_hi_hz)])
    else:
        freqs = np.linspace(f_lo_hz, f_hi_hz, int(n_bins))
    weights = freqs ** (-float(decay_exponent))
    mu = weights / weights.mean()
    shape = m * L
    return ParallelChannel(theta=mu / shape, shape=shape, n0=n0, p_total=p_total, freqs_hz=freqs)


@dataclass(frozen=True, eq=False)
class GainMatrix:
    """Realized subchannel gains indexed by (snapshot, subchannel)."""

    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1 or values.shape[1] < 1:
            raise ValueError("values must be a (snapshots, subchannels) matrix")
        if not np.all(values >= 0.0):
            raise ValueError("gains must be nonnegative")

    @property
    def snapshots(self) -> int:
        return self.values.shape[0]

    @property
    def n_subchannels(self) -> int:
        return self.values.shape[1]


def sample_gains(channel: ParallelChannel, n_snapshots: int, seed: int) -> GainMatrix:
    """Draw i.i.d. gains, one Gamma(shape, theta) column per subchannel.

    The stream for subchannel n is derived from (seed, n) through a
    SeedSequence spawn key, so the result is bit-identical for identical
    inputs and independent of any evaluation order across subchannels.
    numpy's gamma generator implements the Marsaglia-Tsang squeeze with
    the shape<1 boost transform.
    """
    if n_snapshots < 1 or int(n_snapshots) != n_snapshots:
        raise ValueError("n_snapshots must be a positive integer")
    values = np.empty((int(n_snapshots), channel.n))
    for n in range(channel.n):
        rng = np.random.default_rng(np.random.SeedSequence(int(seed), spawn_key=(n,)))
        values[:, n] = rng.gamma(
            shape=channel.shape[n], scale=channel.theta[n], size=int(n_snapshots)
        )
    return GainMatrix(values=values)


def fit_gamma_moments(samples) -> tuple[float, float]:
    """Method-of-moments gamma fit: shape = mean^2/var, scale = var/mean."""
    arr = np.asarray(samples, dtype=float)
    if arr.ndim != 1:
        arr = arr.ravel()
    if arr.size < 2:
        raise FitError("need at least 2 samples to fit a gamma distribution")
    if not np.all(np.isfinite(arr)) or np.any(arr < 0.0):
        raise ValueError("samples must be nonnegative and finite")
    mean = float(arr.mean())
    var = float(arr.var())
    if var <= 0.0:
        raise FitError("sample variance is zero; gamma fit is degenerate")
    return mean * mean / var, var / mean
