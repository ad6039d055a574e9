"""Special functions and expectations against the gamma distribution.

Everything downstream rests on one special function and one integral operator:

* ``reg_gamma_q`` -- the regularized upper incomplete gamma function
  Q(a, x), which is the CCDF of a unit-scale gamma variate with shape a,
* ``_gamma_rule`` and ``_rule_sums`` -- E[f(g_i)] for g_i ~ Gamma(shape_i,
  scale_i) by one fixed trapezoid rule in log g, built once per channel,
  in passes that chain integrands in place and check only their sums.

All functions are pure and re-entrant, and need numpy only.  Q is one numpy
kernel shared with the Markov bound: P's series below x = k + 1, Legendre's
continued fraction for Q above (DiDonato and Morris, ACM TOMS 12, 1986).
"""

import math

import numpy as np

__all__ = [
    "NumericError",
    "reg_gamma_q",
]


class NumericError(RuntimeError):
    """A numerical routine could not produce a trustworthy result."""


# shapes where Q and the gamma quadrature are held to mpmath: below 0.1,
# Q = 1 - P for x < k + 1 loses eps*P/Q relative, which grows without
# bound; the quadrature's node count grows like sqrt(shape), 656 at 1e5
_SHAPE_MIN, _SHAPE_MAX = 0.1, 1e5


def _check_shapes(shapes: np.ndarray) -> None:
    bad = shapes[~((shapes >= _SHAPE_MIN) & (shapes <= _SHAPE_MAX))]  # NaN fails both
    if bad.size:
        raise ValueError(
            f"shape must be finite and in [{_SHAPE_MIN:g}, {_SHAPE_MAX:g}], got {float(bad[0])!r}"
        )


def reg_gamma_q(a: float, x: float) -> float:
    """Regularized upper incomplete gamma function Q(a, x) in [0, 1].

    Q(a, x) = Gamma(a, x) / Gamma(a) is the probability that a gamma
    variate with shape ``a`` and unit scale exceeds ``x``.  Within 1e-13
    relative of mpmath for shapes 0.1 to 1e5 (3e-14 at shape 0.1, near
    x = 1.07), |log Q| eps deep in the tail.  Raises ``ValueError`` for a
    shape below 0.1, where Q = 1 - P for x < a + 1 would lose eps*P/Q
    relative without bound, and ``NumericError`` if its expansion does
    not converge.
    """
    a, x = float(a), float(x)
    if not (math.isfinite(a) and a >= _SHAPE_MIN):
        raise ValueError(f"a must be finite and >= {_SHAPE_MIN}, got {a!r}")
    if not math.isfinite(x) or x < 0.0:
        raise ValueError(f"x must be nonnegative and finite, got {x!r}")
    return float(_gamma_q(a, x)[0])


_EPS = float(np.finfo(float).eps)
_Q_ITER_CAP = 100_000  # series terms or fraction steps; shape 1e5 takes up to 2,700
# k times Stirling's correction to log Gamma(k), in 1/k^2; next term < 1.2e-16 at 16
_STIRLING = (1 / 1188, -1 / 1680, 1 / 1260, -1 / 360, 1 / 12)
_ATANH_TAIL = [1.0 / (2 * j + 3) for j in range(16, -1, -1)]  # u^2j/(2j+3); 9^-17 < eps


def _gamma_q(k, x):
    """Q(k, x) and log(x^k e^-x / Gamma(k)), elementwise over broadcast arrays.

    For k > 0 and x >= 0.  Where the prefactor x^k e^-x / Gamma(k)
    underflows, x = 0 and x = inf included, Q is an exact 1 or 0 with no
    iterations.  Raises ``NumericError`` after ``_Q_ITER_CAP`` iterations.
    """
    k = np.asarray(k, dtype=float)
    shapes, which = np.unique(k, return_inverse=True)
    log_gamma = np.array([math.lgamma(s) for s in shapes.tolist()])[which].reshape(k.shape)
    k, x, log_gamma = np.broadcast_arrays(k, np.asarray(x, dtype=float), log_gamma)
    shape, k, x = k.shape, k.ravel(), x.ravel()
    with np.errstate(divide="ignore", invalid="ignore"):  # log(0); inf - inf
        log_d = np.where(x < math.inf, k * np.log(x) - x - log_gamma.ravel(), -math.inf)
    big = (k >= 16.0) & (x > 0.0) & (x < math.inf)
    if big.any():
        # Stirling's form k*(log1p(t) - t) + log(k/(2 pi))/2 - S(k), t = x/k - 1;
        # the direct sum loses about k*eps.  With u = t/(2+t), log1p(t) - t is
        # u*(2u^2*(1/3 + u^2/5 + ...) - t), free of cancellation for |u| <= 1/3.
        kb, xb = k[big], x[big]
        t = (xb - kb) / kb
        r = np.log(xb / kb) - t
        near = (t >= -0.5) & (t <= 1.0)
        u = t[near] / (2.0 + t[near])
        r[near] = u * (2.0 * u * u * np.polyval(_ATANH_TAIL, u * u) - t[near])
        stirling = np.polyval(_STIRLING, kb**-2) / kb
        log_d[big] = kb * r + 0.5 * np.log(kb / (2.0 * math.pi)) - stirling
    pre, below = np.exp(log_d), x < k + 1.0
    q = below.astype(float)
    for rows, expand in ((below & (pre > 0.0), _p_series), (~below & (pre > 0.0), _q_fraction)):
        q[rows] = expand(k[rows], x[rows], pre[rows])
    return q.reshape(shape), log_d.reshape(shape)


def _p_series(k, x, pre):
    # 1 - pre * sum over n of x^n / (k (k+1) ... (k+n)), over the rows still
    # unconverged, in blocks of 8, 16, 32, 64, 64, ... terms, each one cumprod
    term, total = 1.0 / k, 1.0 / k
    todo, n, size = np.arange(k.size), 0, 8
    while todo.size:
        if n >= _Q_ITER_CAP:
            raise NumericError(f"incomplete gamma series did not converge in {_Q_ITER_CAP} terms")
        kt, xt = k[todo], x[todo]
        steps = np.arange(n + 1.0, n + size + 1.0)
        terms = term[todo, None] * np.cumprod(xt[:, None] / (kt[:, None] + steps), axis=1)
        total[todo] += terms.sum(axis=1)
        term[todo] = terms[:, -1]
        n, size = n + size, min(2 * size, 64)
        # later terms fall at least geometrically, by x/(k+n+1) < 1
        tail = term[todo] * xt / (kt + (n + 1.0) - xt)
        todo = todo[tail > 0.5 * _EPS * total[todo]]
    return 1.0 - pre * total


def _q_fraction(k, x, pre):
    # pre times Legendre's continued fraction for e^x x^-k Gamma(k, x), by
    # modified Lentz, over the rows still unconverged, in blocks of 8 steps
    out, b, c = np.empty_like(x), x + 1.0 - k, np.full_like(x, math.inf)
    h = d = 1.0 / b
    todo, n = np.arange(k.size), 0
    while todo.size:
        if n >= _Q_ITER_CAP:
            raise NumericError(f"incomplete gamma fraction did not converge in {_Q_ITER_CAP} steps")
        for n in range(n + 1, n + 9):
            an = n * (k - n)
            b = b + 2.0
            d = 1.0 / (an * d + b)
            c = b + an / c
            h = h * (c * d)
        done = np.abs(c * d - 1.0) <= 2.0 * _EPS
        out[todo[done]] = h[done]
        todo, k, b, c, d, h = (v[~done] for v in (todo, k, b, c, d, h))
    return pre * out


def _gamma_rule(shapes):
    """Unit-mean nodes e^u = g/(shape*scale) and weights per distinct shape, and each row index.

    The trapezoid rule in u = log(g/(shape*scale)), where the density is
    proportional to exp(shape*(u - expm1(u))), an entire function of u, so
    the error falls geometrically in 1/h for integrands analytic in a strip
    around the real axis (Trefethen and Weideman, SIAM Review 56, 2014).
    Each shape's step h resolves the density's width 1/sqrt(shape), and its
    window drops tails of relative weight below about 1e-19: 2288, 480, 51,
    224 and 656 nodes at shapes 0.1, 0.5, 128, 1e4 and 1e5.  Normalizing
    the weights replaces 1/Gamma(shape), which cancels at large shapes.
    There is no stopping test and no node cap.  On integrands analytic near
    the positive axis that grow at most polynomially, as the library's
    log1p(c*g), g/(1 + c*g) and its square do, it matches 30-digit mpmath to
    1e-13 relative over shapes 0.1 to 1e5 and c from 1e-3 to 1e9.  A
    discontinuous integrand gets an O(h) error with no signal: E[g >= 2] at
    shape 4, scale 0.5 is off by 7.8e-2.
    Both arrays are (distinct shapes, longest row), shorter rows padded with
    their last node at zero weight; ``shapes[i]`` is in row ``which[i]``.
    The nodes lie in [1.4e-196, 602].
    """
    k, which = np.unique(np.asarray(shapes, dtype=float), return_inverse=True)
    h = np.minimum(0.2, 0.5 / np.sqrt(k))
    first = np.ceil((-1.0 - 45.0 / k) / h)
    last = np.floor(np.log1p(12.0 / np.sqrt(k) + 60.0 / k) / h) - first
    j = np.arange(last.max(initial=0.0) + 1.0)
    u = h[:, None] * (first[:, None] + np.minimum(j, last[:, None]))
    weights = np.where(j <= last[:, None], np.exp(k[:, None] * (u - np.expm1(u))), 0.0)
    weights /= weights.sum(axis=1, keepdims=True)
    return np.exp(u), weights, which


_NODE_CHUNK = 1 << 16  # quadrature nodes per pass of _rule_sums, or one row if it is longer


def _rule_sums(nodes, weights, rows, integrands, *columns) -> np.ndarray:
    # sums[j, i]: weights[rows[i]] applied to integrands[j](x, *columns), x the nodes of rows[i] for
    # j = 0, else integrands[j - 1]'s values, overwritten; as each row of weights is nonnegative
    # and sums to 1, a non-finite value, even at a zero weight, spoils its sum: sums are checked
    sums, step = np.empty((len(integrands), rows.size)), max(1, _NODE_CHUNK // nodes.shape[1])
    for at in (slice(start, start + step) for start in range(0, rows.size, step)):
        values = nodes[rows[at]]
        for row, integrand in zip(sums, integrands):
            values = integrand(values, *(column[at, None] for column in columns))
            row[at] = np.einsum("ij,ij->i", values, weights[rows[at]])
        if not np.all(np.isfinite(sums[:, at])):
            raise NumericError("integrand produced non-finite values at quadrature nodes")
    return sums
