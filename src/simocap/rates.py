"""Mutual information, capacity bounds, and convergence diagnostics.

Rates are in nats throughout; conversion to bits (division by ``LN2``)
happens only when the CLI writes its CSV.  For a powers array {p_n} on a
parallel channel with mean gains {mu_n}, shapes {k_n} and loads
l_n = p_n mu_n / n0, each bound reads bin n through k_n and l_n alone:

* upper bound (Jensen):        sum_n log(1 + l_n), evaluated at the
  statistical-waterfilling allocation it upper-bounds the capacity;
* achievable rate:             sum_n E[log(1 + l_n g_n / mu_n)];
* lower bound (Markov):        sum_n a_n * Q(k_n, x_n) with
  x_n = c_n (e^{a_n} - 1), c_n = k_n / l_n, valid for any a_n > 0.

``jensen_upper``, ``exact_rate`` and ``markov_lower`` take one allocation,
an (n,) vector of powers, and return a float, or a (rows, n) stack of them,
and return one value per row, bit for bit the value of that row alone.
The exact rate and the Markov bound are one pass over the stack's powered
bins, a bounded number of them at a time.  Each bound raises ValueError
for a load that overflows, or a powered load below 2*max(k_n, 2)/DBL_MAX,
where c_n, or c_n/x_n at the Markov search's start x_n >= k_n/2, comes
within a subnormal's rounding of overflow.  Every load between, up to
DBL_MAX, gives finite rates with no floating-point warning: the exact
rate's quadrature nodes g_n/mu_n lie in [1.4e-196, 602], so l_n g_n/mu_n
overflows only for a load above DBL_MAX/602, where its log is the sum of
its factors' logs.

The single-subchannel ratio of the Markov lower to the Jensen upper bound
drives the large-diversity convergence results; ``bound_ratio`` evaluates
it and ``bound_ratio_expansion`` its leading-order factorization.
"""

import math
from typing import Callable, Sequence

import numpy as np

from .alloc import equal_power, optimal_allocation, waterfill
from .channel import _DBL_MAX, ParallelChannel, _branch_shape, _loads, _positive
from .specfun import _NODE_CHUNK, NumericError, _gamma_q, _gamma_rule, _rule_sums, reg_gamma_q

__all__ = [
    "LN2",
    "STRATEGY_TAGS",
    "MetricUndefinedError",
    "jensen_upper",
    "markov_lower",
    "exact_rate",
    "empirical_rate",
    "mpe",
    "bound_ratio",
    "bound_ratio_expansion",
    "rate_table",
    "mpe_slope",
    "snr_db_to_power",
]

LN2 = math.log(2.0)

_ITER_CAP = 50
_A_STEP_TOLERANCE = 1e-10  # relative Newton step in a; the term's error is its square
_MARKOV_CHUNK = 8192  # subchannels per pass of the Markov bound
_RATE_RTOL = 1e-13  # exact_rate's relative accuracy: that of the gamma quadrature rule


class MetricUndefinedError(ValueError):
    """The requested metric is undefined for the given inputs."""


def _alpha(value) -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"alpha must lie strictly between 0 and 1, got {value!r}")
    return value


def _stack(powers, n: int) -> np.ndarray:
    # the (rows, n) stack of nonnegative finite powers; a vector is a one-row stack
    powers = np.asarray(powers, dtype=float)
    stack = powers[None] if powers.ndim == 1 else powers
    if stack.ndim != 2 or stack.shape[1] != n:
        raise ValueError(
            f"powers must be a 1-D vector of {n} entries or a (rows, {n}) stack, "
            f"got shape {powers.shape}"
        )
    if not np.all(np.isfinite(stack)) or np.any(stack < 0.0):
        raise ValueError("powers must be nonnegative and finite")
    return stack


def _stack_on(channel: ParallelChannel, powers) -> tuple[np.ndarray, np.ndarray]:
    # _stack of powers on channel and its loads p*mu/n0, each refused as the module docstring says
    stack = _stack(powers, channel.n)
    loads = _loads(stack, channel.mean_gains, channel.n0)
    tiny = np.argwhere((stack > 0.0) & (loads < 2.0 * np.maximum(channel.shape, 2.0) / _DBL_MAX))
    if tiny.size:
        row, n = tiny[0]
        raise ValueError(
            f"p*mu/n0 = {float(loads[row, n])!r} in bin {n} is below 2*max(shape, 2)/DBL_MAX")
    return stack, loads


def _powered_sums(channel: ParallelChannel, powers, term, chunk: int) -> float | np.ndarray:
    # per row, the sum of term(bins, load) over its powered bins, chunk (row, bin) pairs a call
    stack, loads = _stack_on(channel, powers)
    rows, bins = np.nonzero(stack)
    load = loads[rows, bins]
    terms = np.empty(bins.size)
    for r in (slice(start, start + chunk) for start in range(0, bins.size, chunk)):
        terms[r] = term(bins[r], load[r])
    # each row's terms are one contiguous slice, summed alone, wherever the chunks cut
    ends = np.cumsum(np.count_nonzero(stack, axis=1)).tolist()
    sums = np.array([terms[s:e].sum() for s, e in zip([0] + ends, ends)])
    return float(sums[0]) if np.ndim(powers) == 1 else sums


def jensen_upper(channel: ParallelChannel, powers) -> float | np.ndarray:
    """Concavity bound sum_n log(1 + p_n*mu_n/n0) on the ergodic sum rate."""
    rates = np.log1p(_stack_on(channel, powers)[1]).sum(axis=1)
    return float(rates[0]) if np.ndim(powers) == 1 else rates


def _markov_terms(a, shape, load) -> np.ndarray:
    # a * Q(k, x), x = c*(e^a - 1), c = k/load; an overflowing x is inf, where Q = 0
    with np.errstate(over="ignore"):
        x = (shape / load) * np.expm1(a)
    return a * _gamma_q(shape, x)[0]


def _max_markov_terms(shape, load) -> np.ndarray:
    # Per subchannel: safeguarded Newton steps on h'(a) = 0 for h(a) = a*Q(k, x),
    # x = c*(e^a - 1), c = k/load.  With phi the gamma density at x (x*phi is the kernel's),
    #   h'  = Q - a*(x + c)*phi,
    #   h'' = -(x + c)*phi*(2 + a + a*(x + c)*((k - 1)/x - 1)).
    # At a stationary point Q/phi = (x + c)*log1p(x/c) >= x, while the gamma
    # Mills ratio Q/phi is at most x/(x - k + 1) for k >= 1 and x > k - 1, and
    # at most 1 for k < 1; so x <= max(k, 1) there, and as h'(0+) = 1 the
    # maximum lies in (0, log1p(max(k, 1)/c)], so in the bracket (0,
    # log1p(load) - log(min(k, 1))], whose end is never below that one and
    # never overflows.  The search starts from the paper's rule x = alpha_k*k,
    # alpha_k = max(1 - 1/sqrt(k), 1/2).  The sign of h' shrinks the bracket;
    # where h'' >= 0 or the Newton point leaves the closed bracket, the step
    # bisects it instead.  Each subchannel stops at its own converged step, so
    # its term does not depend on the other subchannels of the call.
    k, c = shape, shape / load
    lo, hi = np.zeros(k.size), np.log1p(load) - np.log(np.minimum(k, 1.0))
    a = np.log1p(np.maximum(1.0 - 1.0 / np.sqrt(k), 0.5) * k / c)
    out, todo = np.empty(k.size), np.arange(k.size)
    for _ in range(_ITER_CAP):
        x = c * np.expm1(a)
        q, log_x_phi = _gamma_q(k, x)
        xc_phi = (1.0 + c / x) * np.exp(log_x_phi)
        d1 = q - a * xc_phi
        d2 = -xc_phi * (2.0 + a + a * (x + c) * ((k - 1.0) / x - 1.0))
        rising = d1 > 0.0
        lo = np.where(rising, a, lo)
        hi = np.where(rising, hi, a)
        with np.errstate(all="ignore"):  # d2 = 0 far past the maximum; bisected below
            newton = a - d1 / d2
        new = np.where((d2 < 0.0) & (lo <= newton) & (newton <= hi), newton, 0.5 * (lo + hi))
        done = np.abs(new - a) <= _A_STEP_TOLERANCE * new
        out[todo[done]] = new[done]
        todo, a, k, c, lo, hi = (v[~done] for v in (todo, new, k, c, lo, hi))
        if not todo.size:
            return _markov_terms(out, shape, load)
    raise NumericError(f"Markov parameter search did not converge in {_ITER_CAP} steps")


def markov_lower(
    channel: ParallelChannel, powers, alpha: float | None = None
) -> float | np.ndarray:
    """Markov-inequality lower bound sum_n a_n * Pr(g_n >= (n0/p_n)(e^{a_n}-1)).

    A subchannel enters through its shape k and load l = p*mu/n0 alone: the
    term is a*Q(k, x), x = c*(e^a - 1), c = k/l.  Its a > 0 is the paper's
    closed form a = log(1 + alpha*l) (``alpha``), at the threshold x =
    alpha*k exactly, or, by default, the term's maximum over a, searched per
    subchannel from the paper's rule with alpha_k = max(1 - 1/sqrt(k), 1/2)
    until its own step converges.  Zero-power subchannels contribute zero; a
    stack is one pass over all its powered subchannels.  Raises ``ValueError``
    for a refused load, ``NumericError`` if the maximization does not converge.
    """
    k, alpha = channel.shape, None if alpha is None else _alpha(alpha)
    return _powered_sums(channel, powers, lambda bins, load: (
        _max_markov_terms(k[bins], load) if alpha is None
        else np.log1p(alpha * load) * _gamma_q(k[bins], alpha * k[bins])[0]), _MARKOV_CHUNK)


def exact_rate(channel: ParallelChannel, powers) -> float | np.ndarray:
    """Ergodic sum rate sum_n E[log(1 + p_n*g_n/n0)] of the allocation.

    A bin's term is E[log1p(l*e^u)] at its load l, over the unit-mean nodes
    e^u = g/mu of its shape's gamma rule: one rule per call, applied to at
    most ``_NODE_CHUNK`` nodes at a time (or one bin's, if more), so the
    working set beyond the rule and the stack does not grow with them.
    """
    nodes, weights, which = _gamma_rule(channel.shape)  # one rule per call

    def log1p_load(e_u, load):  # in place
        # l*e^u overflows at a row's last, largest node first, and then every node of the
        # row is past 1e109, where log1p(l*e^u) is log(l) + log(e^u) to the last bit
        with np.errstate(over="ignore"):  # past DBL_MAX/602 only; such rows are redone
            top = np.isinf(load[:, 0] * e_u[:, -1])
            redone = np.log(load[top]) + np.log(e_u[top])
            np.log1p(np.multiply(load, e_u, out=e_u), out=e_u)
        e_u[top] = redone
        return e_u

    return _powered_sums(channel, powers, lambda bins, load: _rule_sums(
        nodes, weights, which[bins], log1p_load, load), _NODE_CHUNK)


def empirical_rate(gains, powers, n0: float) -> float:
    """Snapshot-averaged sum rate over realized gains.

    ``gains`` is a (snapshots, subchannels) array of finite nonnegative
    gains, such as ``simo_gains`` returns, with one column per power.  Each
    p*g/n0 is formed as a load is, and one past DBL_MAX is refused by bin.
    """
    n0 = _positive("n0", n0)
    gains, powers = np.asarray(gains, dtype=float), np.asarray(powers, dtype=float)
    if gains.ndim != 2 or min(gains.shape) < 1 or gains.shape[1] != powers.size:
        raise ValueError(
            f"gains must be a (snapshots, {powers.size}) array with at least one snapshot, "
            f"got shape {gains.shape}"
        )
    (powers,) = _stack([powers], gains.shape[1])  # one allocation is a one-row stack
    if not np.all(np.isfinite(gains) & (gains >= 0.0)):
        raise ValueError("gains must be finite and nonnegative")
    return float(np.log1p(_loads(powers, gains, n0, "p*g/n0")).sum(axis=1).mean())


def mpe(c_upper: float, c_lower: float) -> float:
    """Maximum percent error 100 * (c_upper - c_lower) / c_lower of a bound pair.

    ``c_upper`` may fall below ``c_lower`` by ``exact_rate``'s accuracy, 1e-13
    relative, as at very low SNR, for an MPE above -1e-11 percent.
    """
    if not (math.isfinite(c_upper) and math.isfinite(c_lower)) or c_lower < 0.0:
        raise ValueError("bounds must be finite with c_lower >= 0")
    if c_upper < c_lower * (1.0 - _RATE_RTOL):
        raise ValueError(f"c_upper ({c_upper}) must not be below c_lower ({c_lower})")
    if c_lower == 0.0:
        raise MetricUndefinedError("MPE is undefined for a zero lower bound")
    return 100.0 * (c_upper - c_lower) / c_lower


def bound_ratio(m: float, L: int, beta: float, alpha: float) -> float:
    """Ratio of the Markov lower to the Jensen upper bound for one subchannel.

    The subchannel combines L Nakagami-m branches (m >= 0.5, L a positive
    integer) at normalized SNR beta = p*theta*m/n0 > 0, and alpha in (0, 1)
    selects the closed-form Markov parameter a = log(1 + alpha*beta*L).
    The ratio log(1 + alpha*beta*L) / log(1 + beta*L) * Q(m*L, alpha*m*L)
    is strictly inside (0, 1) and increases to 1 as L grows.
    """
    shape, beta, alpha = _branch_shape(m, L), _positive("beta", beta), _alpha(alpha)
    return math.log1p(alpha * beta * L) / math.log1p(beta * L) * reg_gamma_q(shape, alpha * shape)


def bound_ratio_expansion(m: float, L: float, alpha: float) -> tuple[float, float]:
    """Leading-order factors of the large-L expansion of ``bound_ratio``.

    Returns (log_term, gamma_term) without their vanishing corrections,
    for m >= 0.5 and L >= 2:

        log_term   = 1 + log(alpha)/log(L)
        gamma_term = 1 - (alpha*e^(1-alpha))^(mL) / ((1-alpha)*sqrt(2*pi*mL))

    Their product approximates the exact ratio for large L.
    """
    alpha = _alpha(alpha)
    if not (L >= 2.0):
        raise ValueError("the logarithmic term needs L >= 2")
    if not (m >= 0.5):
        raise ValueError(f"m must be >= 0.5, got {m!r}")
    mL = m * L
    # alpha*e^(1-alpha) < 1 on (0,1), so the exponent is always negative.
    geometric = math.exp(mL * (math.log(alpha) + 1.0 - alpha))
    log_term = 1.0 + math.log(alpha) / math.log(L)
    return log_term, 1.0 - geometric / ((1.0 - alpha) * math.sqrt(2.0 * math.pi * mL))


def snr_db_to_power(channel_n: int, n0: float, snr_db: float) -> float:
    """Total power giving the requested average per-subchannel transmit SNR.

    SNR is defined as p_total / (N * n0) under the unit-average-gain
    normalization of the channel profiles.  Raises ``ValueError`` naming
    the SNR if the power overflows, underflows to 0 or is not a number.
    """
    try:
        power = channel_n * n0 * 10.0 ** (snr_db / 10.0)
    except OverflowError:
        power = math.inf
    if not 0.0 < power < math.inf:  # NaN fails both
        fault = {0.0: "underflows to 0", math.inf: "overflows"}.get(power, "is not a number")
        raise ValueError(f"SNR {snr_db!r} dB gives a power that {fault}")
    return power


# each strategy tag's allocation of a power budget over a channel
_STRATEGIES = {
    "statistical-waterfill": lambda ch, p_total: waterfill(ch.mean_gains, ch.n0, p_total)[0],
    "equal": lambda ch, p_total: equal_power(ch.n, p_total),
    "optimal": lambda ch, p_total: optimal_allocation(ch, p_total),
}
STRATEGY_TAGS = tuple(_STRATEGIES)

_TABLE_COLUMNS = (
    "L", "snr_db", "strategy", "c_upper", "c_lower_exact", "c_lower_markov", "mpe_percent"
)


def _checked(channel: ParallelChannel, allocate, p_total: float, snr_db: float) -> np.ndarray:
    # allocate's powers as a one-row stack, copied (a callable may reuse its buffer),
    # with its loads refused as _stack_on does; a refusal names the SNR
    try:
        return _stack_on(channel, [allocate(channel, p_total)])[0][0]
    except ValueError as exc:
        raise ValueError(f"{exc} at SNR {snr_db!r} dB") from None


def rate_table(
    profile: Callable[[int], ParallelChannel],
    l_values: Sequence[int],
    snr_db_values: Sequence[float],
    strategies: Sequence[str | Callable[[ParallelChannel, float], np.ndarray]],
    *,
    alpha: float | None = None,
    markov: bool = True,
) -> dict[str, np.ndarray]:
    """Bounds and rates over a grid of diversity orders, SNRs and strategies.

    ``profile(L)`` gives the channel of diversity order L, built once per
    L; each SNR gives the power budget ``snr_db_to_power(n, n0, snr_db)``
    that every strategy splits.  A strategy is one of ``STRATEGY_TAGS`` or
    a callable ``(channel, p_total) -> powers``.

    ``c_upper`` is the Jensen bound at the statistical-waterfilling
    allocation, the bound on capacity itself.  Waterfilling on the mean
    gains is optimal for the deterministic channel with gains fixed at
    their means, so ``c_upper`` is also that channel's capacity: the AWGN
    reference that normalizes rate sweeps.  The lower bounds are taken at
    each strategy's allocation: ``c_lower_exact`` is its ``exact_rate``,
    and ``c_lower_markov`` its ``markov_lower`` with ``alpha``, or NaN
    without ``markov``.  So ``mpe_percent``, ``mpe(c_upper,
    c_lower_exact)``, certifies how far the allocation can be from optimal.
    The statistical-waterfilling powers of ``c_upper`` are that
    strategy's allocation too.  Each bound is one call per L, on the stack
    of its allocations.  An allocation refused, by its strategy or for its
    loads, raises ``ValueError`` naming its SNR.

    Returns the columns ``L``, ``snr_db``, ``strategy`` (the tag, or
    ``"custom"`` for a callable), ``c_upper``, ``c_lower_exact``,
    ``c_lower_markov`` and ``mpe_percent`` as arrays, one row per (L, SNR,
    strategy) in grid order.
    """
    try:
        allocators = [("custom", s) if callable(s) else (s, _STRATEGIES[s]) for s in strategies]
    except KeyError as exc:
        raise ValueError(f"unknown strategy {exc.args[0]!r}") from None
    rows = []
    for L in l_values:
        ch = profile(L)
        cells, swfs, allocations = [], [], []
        for snr_db in map(float, snr_db_values):
            p_total = snr_db_to_power(ch.n, ch.n0, snr_db)
            swfs.append(_checked(ch, _STRATEGIES["statistical-waterfill"], p_total, snr_db))
            for tag, allocate in allocators:
                cells.append((snr_db, tag))
                allocations.append(swfs[-1] if tag == "statistical-waterfill"
                                   else _checked(ch, allocate, p_total, snr_db))
        if not cells:
            continue
        c_upper = np.repeat(jensen_upper(ch, swfs), len(allocators)).tolist()
        c_exact = exact_rate(ch, allocations).tolist()
        c_markov = markov_lower(ch, allocations, alpha=alpha) if markov else [math.nan] * len(cells)
        rows += [(int(L), snr_db, tag, upper, exact, lower, mpe(upper, exact))
                 for (snr_db, tag), upper, exact, lower in zip(cells, c_upper, c_exact, c_markov)]
    columns = list(zip(*rows)) or [()] * len(_TABLE_COLUMNS)
    return {name: np.array(column) for name, column in zip(_TABLE_COLUMNS, columns)}


def mpe_slope(l_values: Sequence[int], mpe_percent) -> float:
    """Log-log slope of the MPE versus the diversity order.

    An unweighted least-squares fit of log(MPE) against log(L), over at
    least 3 strictly increasing finite orders L >= 1, one MPE per order.
    Raises ``MetricUndefinedError`` if an MPE is not positive and finite,
    as at very low SNR, where the bounds agree to rounding.
    """
    ls, mpes = np.asarray(l_values, dtype=float), np.asarray(mpe_percent, dtype=float)
    if ls.ndim != 1 or ls.size < 3:
        raise ValueError("need at least 3 diversity orders to fit a slope")
    if np.any(ls[1:] <= ls[:-1]):
        raise ValueError("l_values must be strictly increasing")
    if not np.all((ls >= 1.0) & (ls < math.inf)):  # NaN fails both
        raise ValueError(f"l_values must be finite and at least 1, got {l_values!r}")
    if mpes.shape != ls.shape:
        raise ValueError(f"need one MPE per diversity order, got {mpes.size} for {ls.size}")
    if not np.all((mpes > 0.0) & (mpes < math.inf)):
        raise MetricUndefinedError(
            f"the MPE slope is undefined unless every MPE is positive and finite, "
            f"got {mpes.tolist()}"
        )
    return float(np.polyfit(np.log(ls), np.log(mpes), 1)[0])
