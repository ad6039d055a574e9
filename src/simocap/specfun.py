"""Special functions and expectations against the gamma distribution.

Everything downstream (capacity bounds, water levels, convergence ratios)
reduces to three scalar ingredients plus one integral operator:

* ``log_gamma`` -- the log of the gamma function,
* ``reg_gamma_q`` -- the regularized upper incomplete gamma function
  Q(a, x), which is the CCDF of a unit-scale gamma variate with shape a,
* ``exp_integral_e1`` -- the exponential integral E1, giving closed forms
  for rates over exponentially distributed gains,
* ``gamma_expectation`` -- E[f(g)] for g ~ Gamma(shape, scale), evaluated
  by generalized Gauss-Laguerre quadrature matched to the gamma weight.

``gamma_expectation_batch`` evaluates the same operator for many
(shape, scale) pairs at once.  All functions are pure and re-entrant.
scipy is imported on first use, so importing this module, and with it
the CSV paths of the package, loads numpy only.
"""

import math
from functools import lru_cache

import numpy as np

__all__ = [
    "NumericError",
    "log_gamma",
    "reg_gamma_q",
    "exp_integral_e1",
    "gamma_expectation",
    "gamma_expectation_batch",
]

_FPMIN = 1e-300
# gamma_expectation_batch starts at _START_NODES nodes and doubles until two
# successive estimates agree to _REL_TOL, or until _MAX_NODES nodes, after
# which the last estimate is returned
_START_NODES = 128
_REL_TOL = 1e-9
_MAX_NODES = 8192


class NumericError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


def _as_positive(name: str, value: float) -> float:
    value = float(value)
    if not math.isfinite(value) or value <= 0.0:
        raise ValueError(f"{name} must be positive and finite, got {value!r}")
    return value


def log_gamma(a: float) -> float:
    """Natural logarithm of the gamma function for a > 0."""
    return math.lgamma(_as_positive("a", a))


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
def _gamma_rule(shape: float, n: int):
    """Nodes and probability weights for the Gamma(shape, 1) measure.

    Golub-Welsch on the Jacobi matrix of the generalized Laguerre
    polynomials with alpha = shape - 1; weights come out already
    normalized to sum to one (the zeroth moment cancels), which keeps the
    construction overflow-free for arbitrarily large shapes.
    """
    from scipy.linalg import eigh_tridiagonal

    alpha = shape - 1.0
    idx = np.arange(n, dtype=float)
    diag = 2.0 * idx + alpha + 1.0
    off = np.sqrt(idx[1:] * (idx[1:] + alpha))
    nodes = eigh_tridiagonal(diag, off, eigvals_only=True)
    nodes = np.maximum(nodes, 0.0)
    # Christoffel weights 1 / sum_k p_k(x_i)^2 via the orthonormal
    # three-term recurrence.  Lanes whose partial sums overflow belong to
    # weights below 1e-300 and are zeroed.
    with np.errstate(over="ignore", invalid="ignore"):
        p_prev = np.zeros_like(nodes)
        p_cur = np.ones_like(nodes)
        ssq = np.ones_like(nodes)
        e_last = 0.0
        for j in range(1, n):
            e_j = math.sqrt(j * (j + alpha))
            p_next = ((nodes - diag[j - 1]) * p_cur - e_last * p_prev) / e_j
            ssq = ssq + p_next * p_next
            p_prev, p_cur, e_last = p_cur, p_next, e_j
        weights = np.where(np.isfinite(ssq), 1.0 / ssq, 0.0)
    if not abs(weights.sum() - 1.0) < 1e-6:
        raise NumericError(f"quadrature weight construction failed (shape={shape}, n={n})")
    return nodes, weights


def _eval_integrand(f, x: np.ndarray) -> np.ndarray:
    # a constant integrand returns a scalar; spread it over the nodes
    return np.broadcast_to(np.asarray(f(x), dtype=float), x.shape)


def gamma_expectation(f, shape: float, scale: float) -> float:
    """E[f(g)] for g ~ Gamma(shape, scale).

    ``f`` must accept a 1-D numpy array of nonnegative gains and return
    its values elementwise (or one constant); errors it raises propagate.
    """
    shape = _as_positive("shape", shape)
    scale = _as_positive("scale", scale)
    values = gamma_expectation_batch(
        lambda g, rows: _eval_integrand(f, g[0])[None, :], [shape], [scale]
    )
    return float(values[0])


def _quad_estimates(f, shape: float, scales: np.ndarray, rows: np.ndarray, n: int) -> np.ndarray:
    nodes, weights = _gamma_rule(shape, n)
    live = weights > 0.0
    values = f(scales[rows, None] * nodes, rows)[:, live]
    if not np.all(np.isfinite(values)):
        raise NumericError("integrand produced non-finite values at quadrature nodes")
    return values @ weights[live]


def gamma_expectation_batch(f, shapes, scales) -> np.ndarray:
    """E[f(g_i)] for g_i ~ Gamma(shapes[i], scales[i]), for every i at once.

    ``f(g, rows)`` gets the gains at the quadrature nodes as a
    ``(len(rows), nodes)`` array and returns its values in the same shape;
    ``rows`` indexes the entries evaluated, to gather per-entry parameters.
    Entries with equal shapes share one rule.  Each entry applies the
    stopping rule on its own, and only entries not yet converged are
    evaluated again at the next, doubled node count.
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
        n = _START_NODES
        prev = _quad_estimates(f, shape, scales, rows, n)
        while n < _MAX_NODES:
            n *= 2
            cur = _quad_estimates(f, shape, scales, rows, n)
            size = np.maximum(np.maximum(np.abs(cur), np.abs(prev)), _FPMIN)
            done = np.abs(cur - prev) <= _REL_TOL * size
            out[rows[done]] = cur[done]
            rows, prev = rows[~done], cur[~done]
            if rows.size == 0:
                break
        out[rows] = prev
    return out
