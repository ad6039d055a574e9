"""Special functions and expectations against the gamma distribution.

Everything downstream (capacity bounds, water levels, convergence ratios)
reduces to two scalar ingredients plus one integral operator:

* ``reg_gamma_q`` -- the regularized upper incomplete gamma function
  Q(a, x), which is the CCDF of a unit-scale gamma variate with shape a,
* ``exp_integral_e1`` -- the exponential integral E1, giving closed forms
  for rates over exponentially distributed gains,
* ``gamma_expectation`` -- E[f(g)] for g ~ Gamma(shape, scale), by one
  fixed trapezoid rule in log g; ``gamma_expectation_batch`` does the
  same for many (shape, scale) pairs at once.

The rule has no stopping test and no node cap.  It converges
geometrically when f is analytic near the positive axis and grows at
most polynomially, as the library's log1p(c*g), g/(1 + c*g) and its
square do, and matches 30-digit mpmath to 1e-13 relative over shapes
0.5 to 1e4 and c from 1e-3 to 1e9.  A discontinuous f, such as an
indicator, gets an O(h) error.  All functions are pure and re-entrant.
scipy is imported on first use, so importing this module, and with it
the CSV paths of the package, loads numpy only.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericError",
    "reg_gamma_q",
    "exp_integral_e1",
    "gamma_expectation",
    "gamma_expectation_batch",
]


class NumericError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


def _as_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def reg_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) in [0, 1].

    Q(a, x) = Gamma(a, x) / Gamma(a) is the probability that a gamma
    variate with shape ``a`` and unit scale exceeds ``x``.  Evaluated by
    ``scipy.special.gammaincc``, whose uniform asymptotic expansion keeps
    large shapes (a up to 1e5 and beyond) accurate.
    """
    from scipy.special import gammaincc

    a = _as_positive("a", a)
    x = float(x)
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be nonnegative and finite, got {x!r}")
    return float(gammaincc(a, x))


def exp_integral_e1(x: float) -> float:
    """Exponential integral E1(x) = integral of exp(-t)/t from x to infinity, x > 0.

    Evaluated by ``scipy.special.exp1``.
    """
    from scipy.special import exp1

    return float(exp1(_as_positive("x", x)))


@lru_cache(maxsize=64)
def _gamma_grid(shape: float):
    """Nodes and probability weights for the Gamma(shape, 1) measure.

    The trapezoid rule in u = log(g / shape), where the density is
    proportional to exp(shape * (u - expm1(u))), an entire function of u.
    For integrands analytic in a strip around the real u axis the error
    falls geometrically in 1/h (Trefethen and Weideman, SIAM Review 56,
    2014).  h resolves the density's width 1/sqrt(shape); the window
    drops tails of relative weight below about 1e-19.  Normalizing the
    weights replaces 1/Gamma(shape), which cancels badly at large shapes.
    Shapes 0.5, 128 and 1e4 get 480, 51 and 224 nodes.
    """
    h = min(0.2, 0.5 / math.sqrt(shape))
    lo = -1.0 - 45.0 / shape
    hi = math.log1p(12.0 / math.sqrt(shape) + 60.0 / shape)
    u = h * np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    weights = np.exp(shape * (u - np.expm1(u)))
    nodes, weights = shape * np.exp(u), weights / weights.sum()
    nodes.flags.writeable = weights.flags.writeable = False  # shared through the cache
    return nodes, weights


def gamma_expectation(f, shape: float, scale: float) -> float:
    """E[f(g)] for g ~ Gamma(shape, scale).

    ``f`` must accept a 1-D numpy array of nonnegative gains and return
    its values elementwise (or one constant); errors it raises propagate.
    Accurate to about 1e-13 relative if ``f`` is analytic near the positive
    axis with at most polynomial growth; a discontinuous ``f`` gets an
    O(h) error.
    """
    # a constant integrand returns a scalar; spread it over the nodes
    values = gamma_expectation_batch(
        lambda g, rows: np.broadcast_to(np.asarray(f(g[0]), dtype=float), g.shape),
        [shape],
        [scale],
    )
    return float(values[0])


def gamma_expectation_batch(f, shapes, scales) -> np.ndarray:
    """E[f(g_i)] for g_i ~ Gamma(shapes[i], scales[i]), for every i at once.

    ``f(g, rows)`` gets the gains at the quadrature nodes as a
    ``(len(rows), nodes)`` array and returns its values in the same shape;
    ``rows`` indexes the entries evaluated, to gather per-entry parameters.
    Entries with equal shapes share one fixed trapezoid rule, and ``f`` is
    called once per distinct shape.  The accuracy contract is that of
    ``gamma_expectation``.  Raises ``NumericError`` if ``f`` returns a
    non-finite value at any node.
    """
    shapes = np.asarray(shapes, dtype=float)
    scales = np.asarray(scales, dtype=float)
    if shapes.ndim != 1 or shapes.shape != scales.shape:
        raise ValueError("shapes and scales must be 1-D vectors of equal length")
    if not np.all((shapes > 0.0) & (shapes < math.inf) & (scales > 0.0) & (scales < math.inf)):
        raise ValueError("shapes and scales must be positive and finite")
    out = np.empty(shapes.size)
    for shape in dict.fromkeys(shapes.tolist()):
        rows = np.flatnonzero(shapes == shape)
        nodes, weights = _gamma_grid(shape)
        values = f(scales[rows, None] * nodes, rows)
        if not np.all(np.isfinite(values)):
            raise NumericError("integrand produced non-finite values at quadrature nodes")
        out[rows] = values @ weights
    return out
