import math

import numpy as np
import pytest
from gamma_mean import gamma_mean

from simocap import specfun
from simocap.specfun import NumericError, reg_gamma_q


def test_reg_gamma_q_total_mass_and_exponential_case():
    for a in (0.5, 1.0, 7.0, 1e4):
        assert reg_gamma_q(a, 0.0) == 1.0
    # shape 1 reduces to exp(-x)
    assert math.isclose(reg_gamma_q(1.0, 0.6931472), 0.5, rel_tol=1e-7)
    for x in (0.1, 1.0, 5.0):
        assert math.isclose(reg_gamma_q(1.0, x), math.exp(-x), rel_tol=1e-12)


def test_reg_gamma_q_integer_shape_closed_form():
    # Q(k, x) = exp(-x) * sum_{j<k} x^j / j! for integer shapes
    for k in range(1, 21):
        for x in (0.3, 1.0, float(k), 3.0 * k):
            term = 1.0
            total = 1.0
            for j in range(1, k):
                term *= x / j
                total += term
            closed = math.exp(-x) * total
            assert math.isclose(reg_gamma_q(float(k), x), closed, rel_tol=1e-10, abs_tol=1e-300)


def test_reg_gamma_q_monotone_and_vanishing():
    for a in (0.5, 1.0, 4.0, 100.0, 1e4):
        xs = np.linspace(0.0, 10.0 * a, 200)
        qs = [reg_gamma_q(a, x) for x in xs]
        assert all(0.0 <= q <= 1.0 for q in qs)
        assert all(q2 <= q1 + 1e-15 for q1, q2 in zip(qs, qs[1:]))
        assert reg_gamma_q(a, 50.0 * a) < 1e-9


def test_reg_gamma_q_matches_reference_including_large_shapes():
    special = pytest.importorskip("scipy.special")
    cases = [
        (0.5, 0.2), (1.0, 3.0), (2.5, 2.0), (20.0, 25.0), (100.0, 80.0),
        (1e4, 9.9e3), (1e5, 5e4), (1e5, 9.9e4), (1e5, 1.01e5), (1e5, 1.2e5),
    ]
    for a, x in cases:
        mine = reg_gamma_q(a, x)
        ref = float(special.gammaincc(a, x))
        if ref > 1e-290:
            assert math.isclose(mine, ref, rel_tol=1e-10)
        else:
            assert mine <= 1e-290


@pytest.mark.parametrize("k", [0.1, 0.33, 0.5, 1.0, 2.5, 4.0, 16.0, 64.0, 1e3, 1e4, 1e5])
def test_gamma_q_kernel_matches_mpmath(k, monkeypatch):
    # Q(k, x) and D = log(x^k e^-x / Gamma(k)) against 30-digit mpmath, for
    # x/k from 1e-3 to 30 and over the band k +- 5 sqrt(k).
    #
    # The tolerance is derived, not fitted.  D is a sum of a few terms, each
    # formed with a few roundings, so |error in D| <= 4 eps M, where M is the
    # size of its terms: k|ln x| + x + |ln Gamma(k)| below k = 16, and
    # k|ln(x/k)| + |x - k| + ln(k) / 2 + 1 on the Stirling form from 16 on.
    # exp(D) then carries that error relative, plus eps.  Each series term or
    # fraction step multiplies in a factor with at most 4 roundings, so N of
    # them add at most 4 N eps.  N is bounded by setting the kernel's cap:
    # below x = k + 1 the term ratio x/(k+n) is at most (k+1)/(k+n), so the
    # terms fall like exp(-n^2 / (2(k+n))) and reach eps within about
    # 9 sqrt(k) + 40 terms; the cap 10 sqrt(k) + 80 is checked at block ends,
    # so at most 64 more are taken.  Below x = k + 1, Q = 1 - P carries P's
    # error times P/Q.  Below the normal range only absolute error counts.
    mp = pytest.importorskip("mpmath")
    eps = np.finfo(float).eps
    cap = int(10.0 * math.sqrt(k) + 80.0)
    monkeypatch.setattr(specfun, "_Q_ITER_CAP", cap)
    xs = np.concatenate([k * np.geomspace(1e-3, 30.0, 41), k + 5.0 * math.sqrt(k) * np.linspace(-1, 1, 11)])
    xs = xs[xs > 0.0]
    q, log_d = specfun._gamma_q(k, np.append(xs, 0.0))
    assert q[-1] == 1.0 and log_d[-1] == -math.inf
    with mp.workdps(30):
        for x, got_q, got_d in zip(xs.tolist(), q, log_d):
            ref_q = mp.gammainc(k, x, mp.inf, regularized=True)
            ref_d = k * mp.log(x) - x - mp.loggamma(k)
            if k < 16.0:
                size = k * abs(math.log(x)) + x + abs(math.lgamma(k))
            else:
                size = k * abs(math.log(x / k)) + abs(x - k) + 0.5 * math.log(k) + 1.0
            tol_d = 4.0 * eps * size
            tol_q = tol_d + eps + 4.0 * eps * (cap + 64)
            if x < k + 1.0:
                tol_q *= max(1.0, float((1 - ref_q) / ref_q))
            assert abs(got_d - float(ref_d)) <= tol_d, x
            assert abs(got_q - float(ref_q)) <= tol_q * float(ref_q) + 2.0**-1072, x


def test_gamma_q_raises_at_its_iteration_cap(monkeypatch):
    # at shape 100 both the series (x = 99) and the fraction (x = 110) need
    # more than their first block of 8 terms or steps
    monkeypatch.setattr(specfun, "_Q_ITER_CAP", 1)
    for x in (99.0, 110.0):
        with pytest.raises(NumericError):
            reg_gamma_q(100.0, x)
    # Q(1, 1) = e^-1 takes the series two blocks (8 + 16 terms) and Q(9, 10)
    # the fraction two blocks of 8 steps (its numerators vanish at step 9):
    # the cap is checked before each block, so a cap of 8 refuses both and 9 admits them
    admitted = []
    for k, x in ((1.0, 1.0), (9.0, 10.0)):
        monkeypatch.setattr(specfun, "_Q_ITER_CAP", 8)
        with pytest.raises(NumericError, match="did not converge in 8 "):
            specfun._gamma_q(k, x)
        monkeypatch.setattr(specfun, "_Q_ITER_CAP", 9)
        admitted.append((k, x, specfun._gamma_q(k, x)[0]))
    special = pytest.importorskip("scipy.special")
    for k, x, q in admitted:
        assert math.isclose(q, special.gammaincc(k, x), rel_tol=1e-14)


def test_gamma_q_is_an_exact_0_at_an_infinite_x():
    # the prefactor is 0 with no iterations, for the direct and the Stirling form alike
    q, log_d = specfun._gamma_q([0.5, 20.0], [math.inf, math.inf])
    assert q.tolist() == [0.0, 0.0] and log_d.tolist() == [-math.inf, -math.inf]


def test_reg_gamma_q_rejects_shapes_below_its_accurate_range():
    # below shape 0.1, Q = 1 - P loses eps*P/Q relative without bound
    # (2.4e-6 at (1e-10, 0.5) against mpmath), so the function refuses it
    for a in (0.0999, 1e-3, 1e-10, 1e-300):
        with pytest.raises(ValueError, match="a must be finite and >= 0.1"):
            reg_gamma_q(a, 0.5)
    assert 0.0 < reg_gamma_q(0.1, 0.5) < 1.0  # the floor itself is in range


def test_reg_gamma_q_rejects_bad_domain():
    with pytest.raises(ValueError):
        reg_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_q(-2.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_q(1.0, -0.1)
    with pytest.raises(ValueError):
        reg_gamma_q(math.nan, 1.0)


def test_gamma_rule_gives_the_first_two_moments():
    for shape in (0.5, 1.0, 3.0, 40.0, 1e5):
        for scale in (0.25, 1.0, 4.0):
            mean = gamma_mean(lambda g: g, [shape], [scale])[0]
            assert math.isclose(mean, shape * scale, rel_tol=1e-9)
            second = gamma_mean(lambda g: g * g, [shape], [scale])[0]
            assert math.isclose(second, shape * (shape + 1.0) * scale**2, rel_tol=1e-9)


def test_gamma_rule_matches_the_exponential_log1p_closed_form():
    # E[log(1 + c*g)] for g ~ Exp(theta) equals exp(1/(c*theta)) * E1(1/(c*theta))
    mpmath = pytest.importorskip("mpmath")
    for c in (0.1, 1.0, 10.0):
        for theta in (0.1, 1.0, 10.0):
            est = gamma_mean(lambda g: np.log1p(c * g), [1.0], [theta])[0]
            ref = math.exp(1.0 / (c * theta)) * float(mpmath.e1(1.0 / (c * theta)))
            assert math.isclose(est, ref, rel_tol=1e-8)


def test_rule_sums_raise_on_a_divergent_integrand():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            gamma_mean(lambda g: g / (g - g), [2.0], [1.0])


def test_rule_sums_propagate_integrand_errors():
    # an integrand that cannot take an array is an error, not a cue to
    # evaluate it node by node
    with pytest.raises(TypeError):
        gamma_mean(lambda g: math.log1p(g), [2.0], [1.0])


# pass sizes against rows of 656 nodes: the whole call, one row, and whole or cut rows
_PASS_SIZES = pytest.mark.parametrize(
    "node_chunk", [1 << 16, 1, 656, 3 * 656 - 1, 3 * 656],
    ids=["default", "one-node", "one-row", "under-three-rows", "three-rows"])


@_PASS_SIZES
def test_rule_sums_applies_the_rule_in_passes_of_at_most_node_chunk_nodes(node_chunk, monkeypatch):
    # each pass hands the integrand its entries' rows of unit-mean nodes, padded to the
    # longest row (656 nodes at shape 1e5) with their last node, as a copy it may
    # overwrite, and each column's entries as (entries, 1); a pass takes at most
    # _NODE_CHUNK nodes, or one row.  E[e^u] = 1, so the sums are the column.
    shapes, scale = [0.5, 1e5, 0.5, 3.0, 1e5], np.array([1.0, 2.0, 3.0, 0.25, 7.0])
    nodes, weights, which = specfun._gamma_rule(shapes)
    kept = nodes.copy()
    calls = []

    def f(x, column):
        calls.append((x.copy(), column.copy()))
        x *= column
        return x

    monkeypatch.setattr(specfun, "_NODE_CHUNK", node_chunk)
    sums = specfun._rule_sums(nodes, weights, which, [f], scale)[0]
    step = max(1, node_chunk // 656)
    assert nodes.shape == (3, 656) and np.array_equal(nodes, kept)
    assert len(calls) == -(-len(shapes) // step)
    for start, (x, column) in zip(range(0, len(shapes), step), calls):
        at = slice(start, start + step)
        assert np.array_equal(x, nodes[which[at]]) and x.shape[0] * 656 <= max(node_chunk, 656)
        assert np.array_equal(column, scale[at, None])
    assert np.all(nodes[which[0], 480:] == nodes[which[0], 479])
    assert sums == pytest.approx(scale, rel=1e-13, abs=0.0)


def test_rule_sums_refuses_a_non_finite_value_in_any_pass(monkeypatch):
    # a pole at one node of the last entry: with one row a pass, every earlier pass
    # is summed and the last is refused; in one pass, the whole call is refused
    shapes = [0.5, 4.0, 0.5, 4.0]
    nodes, weights, which = specfun._gamma_rule(shapes)
    pole = np.array([-1.0, -1.0, -1.0, nodes[which[3], 10]])
    for node_chunk, passes in ((1 << 16, 1), (1, 4)):
        calls = []

        def f(x, at):
            calls.append(x.shape[0])
            return 1.0 / (x - at)

        monkeypatch.setattr(specfun, "_NODE_CHUNK", node_chunk)
        with np.errstate(divide="ignore"):
            with pytest.raises(NumericError, match="^integrand produced non-finite values"):
                specfun._rule_sums(nodes, weights, which, [f], pole)
        assert len(calls) == passes
    assert np.all(np.isfinite(specfun._rule_sums(nodes, weights, which[:3], [f], pole[:3])[0]))


@_PASS_SIZES
def test_rule_sums_chain_integrands_in_place_and_sum_each(node_chunk, monkeypatch):
    # in each pass the second integrand gets the array the first returned, with its values,
    # to overwrite, and each row of sums is bit for bit a one-integrand call's of the same
    # composition.  E[e^u] = 1 and E[e^2u] = 1 + 1/shape, so the sums are also known.
    shapes, scale = np.array([0.5, 1e5, 0.5, 3.0, 1e5]), np.array([1.0, 2.0, 3.0, 0.25, 7.0])
    nodes, weights, which = specfun._gamma_rule(shapes)
    handed = []

    def scaled(x, column):
        x *= column
        handed.append((x, x.copy()))
        return x

    def squared(x, column):
        returned, values = handed[-1]
        assert x is returned and np.array_equal(x, values)
        return np.square(x, out=x)

    monkeypatch.setattr(specfun, "_NODE_CHUNK", node_chunk)
    sums = specfun._rule_sums(nodes, weights, which, [scaled, squared], scale)
    assert sums.shape == (2, shapes.size)
    assert len(handed) == -(-shapes.size // max(1, node_chunk // 656))
    alone = [specfun._rule_sums(nodes, weights, which, [f], scale)[0]
             for f in (scaled, lambda x, column: np.square(x * column))]
    assert sums[0].tolist() == alone[0].tolist() and sums[1].tolist() == alone[1].tolist()
    assert sums[0] == pytest.approx(scale, rel=1e-13, abs=0.0)
    assert sums[1] == pytest.approx(scale**2 * (1.0 + 1.0 / shapes), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("node_chunk", [1 << 16, 1], ids=["one-pass", "one-row"])
@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_rule_sums_refuse_a_non_finite_value_from_either_integrand(bad, node_chunk, monkeypatch):
    # one non-finite value of the last entry, from the first integrand or the second, at a
    # weighted node or at a padded node of zero weight, is refused: the weights are
    # nonnegative and sum to 1, so it makes its entry's sum non-finite (0 * inf is nan)
    shapes = [0.5, 4.0, 0.5, 4.0]
    nodes, weights, which = specfun._gamma_rule(shapes)
    padded = nodes.shape[1] - 1  # shape 4's row is shorter than shape 0.5's
    assert weights[which[3], padded] == 0.0 and weights[which[3], 10] > 0.0
    entry = np.arange(4.0)

    def keep(x, at):
        return x

    def poison(node):
        def f(x, at):
            x[at[:, 0] == 3.0, node] = bad
            return x
        return f

    monkeypatch.setattr(specfun, "_NODE_CHUNK", node_chunk)
    for node in (10, padded):
        for integrands in ([poison(node), keep], [keep, poison(node)]):
            with pytest.raises(NumericError, match="^integrand produced non-finite values"):
                specfun._rule_sums(nodes, weights, which, integrands, entry)
    assert np.all(np.isfinite(specfun._rule_sums(nodes, weights, which, [keep, keep], entry)))


def _trapezoid_rule(shape, h):
    # the unit-mean nodes e^u of the trapezoid rule in u = log(g/shape) with
    # step h over the library's window, one shape at a time with Python's
    # math: the density exp(shape*(u - expm1(u))), normalized to probability
    # weights
    lo = -1.0 - 45.0 / shape
    hi = math.log1p(12.0 / math.sqrt(shape) + 60.0 / shape)
    u = h * np.arange(math.ceil(lo / h), math.floor(hi / h) + 1)
    weights = np.exp(shape * (u - np.expm1(u)))
    return np.exp(u), weights / weights.sum()


@pytest.mark.parametrize(
    "shape, count", [(0.1, 2288), (0.5, 480), (128.0, 51), (1e4, 224), (1e5, 656)]
)
def test_one_row_rule_is_the_per_shape_trapezoid_rule(shape, count):
    # the node counts the docstring and README state, and the unit-mean nodes
    # e^u and the weights of the one-shape formula bit for bit, in one row
    # that every entry of that shape reads
    nodes, weights, which = specfun._gamma_rule([shape] * 3)
    want_nodes, want_weights = _trapezoid_rule(shape, min(0.2, 0.5 / math.sqrt(shape)))
    assert nodes.shape == weights.shape == (1, count)
    assert which.tolist() == [0, 0, 0]
    assert np.array_equal(nodes[0], want_nodes)
    assert np.array_equal(weights[0], want_weights)
    for other in np.geomspace(0.1, 1e5, 61):
        nodes, weights, _ = specfun._gamma_rule([other])
        want_nodes, want_weights = _trapezoid_rule(other, min(0.2, 0.5 / math.sqrt(other)))
        assert np.array_equal(nodes[0], want_nodes) and np.array_equal(weights[0], want_weights)


# each integrand is built for a numeric library: numpy, or mpmath for the oracle
_ORACLE_INTEGRANDS = {
    "log1p(cg)": lambda c, lib: lambda g: lib.log1p(c * g),
    "g/(1+cg)": lambda c, lib: lambda g: g / (1 + c * g),
    "(g/(1+cg))^2": lambda c, lib: lambda g: (g / (1 + c * g)) ** 2,
}


@pytest.mark.parametrize("shape", [0.1, 0.33, 0.5, 1.0, 4.0, 128.0, 1e4, 1e5])
def test_gamma_rule_matches_mpmath_oracle(shape):
    # the library's three integrands for shapes 0.1 to 1e5 and twelve
    # decades of c, against a 30-digit quadrature of the gamma density; the
    # breakpoints let mpmath resolve the knee of each integrand at g = 1/c
    # and the density's peak near g = shape
    mp = pytest.importorskip("mpmath")
    with mp.workdps(30):
        a = mp.mpf(shape)
        log_norm = mp.loggamma(a)
        decades = [mp.mpf(10) ** k for k in range(-16, 2)]
        breaks = sorted(set([mp.mpf(0), a] + decades)) + [mp.inf]
        for c in (1e-3, 1.0, 1e3, 1e9):
            for name, integrand in _ORACLE_INTEGRANDS.items():
                f = integrand(mp.mpf(c), mp)
                ref = mp.quad(lambda g: f(g) * mp.exp((a - 1) * mp.log(g) - g - log_norm), breaks)
                est = gamma_mean(integrand(c, np), [shape], [1.0])[0]
                assert est == pytest.approx(float(ref), rel=1e-13, abs=0.0), (name, c)


@pytest.mark.parametrize("shape", [0.1, 0.33, 0.5, 1.0, 3.0, 16.0, 128.0, 1e3, 1e4, 1e5])
def test_gamma_rule_moves_by_at_most_1e13_when_h_is_halved(shape):
    # an independent rule at half the library's step: the same window and
    # density exp(shape*(u - expm1(u))) in u = log(g/shape), h/2 apart.  If
    # the library's step under-resolved an integrand, halving it would move
    # the value; 1e-13 is the accuracy the rule is held to against mpmath.
    nodes, weights = _trapezoid_rule(shape, min(0.2, 0.5 / math.sqrt(shape)) / 2.0)
    for c in np.geomspace(1e-3, 1e9, 7):
        for name, integrand in _ORACLE_INTEGRANDS.items():
            f = integrand(c, np)
            fine = float(f(shape * nodes) @ weights)
            est = gamma_mean(f, [shape], [1.0])[0]
            assert est == pytest.approx(fine, rel=1e-13, abs=0.0), (name, c)


def test_rule_sums_match_mpmath_on_mixed_shapes_wherever_passes_cut(monkeypatch):
    # one pass over unsorted, repeated shapes from 0.1 to 1e5, each entry with
    # its own scale and c, so that every entry has its own rule and parameters;
    # the breakpoints are the oracle test's, with the density's peak at
    # shape*scale.  Passes of one node, which take one row each, and of 5 rows'
    # nodes, which cut between shapes, give every sum of the whole pass bit for bit.
    mp = pytest.importorskip("mpmath")
    shapes = np.array([4.0, 1e5, 0.1, 128.0, 0.33, 4.0, 1e4, 0.5, 1.0, 0.1, 16.0, 1e3])
    scales = np.array([0.5, 2.0, 1.0, 0.01, 3.0, 1.0, 1e-4, 7.0, 1.0, 0.2, 1.0, 0.05])
    c = np.geomspace(1e-3, 1e9, shapes.size)[[5, 0, 11, 3, 8, 1, 10, 6, 2, 9, 4, 7]]
    nodes_per_row = specfun._gamma_rule(shapes)[0].shape[1]
    with mp.workdps(30):
        for name, integrand in _ORACLE_INTEGRANDS.items():
            def per_entry(g, ci, integrand=integrand):
                return integrand(ci, np)(g)

            est = gamma_mean(per_entry, shapes, scales, c)
            for node_chunk in (1, 5 * nodes_per_row):
                with monkeypatch.context() as patch:
                    patch.setattr(specfun, "_NODE_CHUNK", node_chunk)
                    cut = gamma_mean(per_entry, shapes, scales, c)
                assert cut.tolist() == est.tolist(), (name, node_chunk)
            for k, theta, ci, e in zip(shapes, scales, c, est):
                a, theta = mp.mpf(k), mp.mpf(theta)
                log_norm = mp.loggamma(a) + a * mp.log(theta)
                decades = [mp.mpf(10) ** j for j in range(-16, 2)]
                breaks = sorted(set([mp.mpf(0), a * theta] + decades)) + [mp.inf]
                f = integrand(mp.mpf(ci), mp)
                ref = mp.quad(
                    lambda g: f(g) * mp.exp((a - 1) * mp.log(g) - g / theta - log_norm), breaks
                )
                assert e == pytest.approx(float(ref), rel=1e-13, abs=0.0), (name, k, ci)
