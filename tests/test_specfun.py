import math

import numpy as np
import pytest
from scipy import special

from simocap.specfun import (
    NumericError,
    exp_integral_e1,
    gamma_expectation,
    reg_gamma_q,
)


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


def test_reg_gamma_q_rejects_bad_domain():
    with pytest.raises(ValueError):
        reg_gamma_q(0.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_q(-2.0, 1.0)
    with pytest.raises(ValueError):
        reg_gamma_q(1.0, -0.1)
    with pytest.raises(ValueError):
        reg_gamma_q(math.nan, 1.0)


def test_exp_integral_e1_reference_values():
    mpmath = pytest.importorskip("mpmath")
    assert math.isclose(exp_integral_e1(1.0), 0.21938393439552026, rel_tol=1e-10)
    assert math.isclose(exp_integral_e1(10.0), 4.156968929685324e-06, rel_tol=1e-10)
    with mpmath.workdps(30):
        for x in np.geomspace(1e-3, 50.0, 40):
            ref = float(mpmath.e1(mpmath.mpf(float(x))))
            assert math.isclose(exp_integral_e1(x), ref, rel_tol=1e-10)


def test_exp_integral_e1_envelope_bound():
    # E1(x) <= exp(-x)/x for x >= 1
    for x in np.linspace(1.0, 30.0, 30):
        assert exp_integral_e1(x) <= math.exp(-x) / x


def test_exp_integral_e1_rejects_bad_domain():
    for bad in (0.0, -1.0, math.nan):
        with pytest.raises(ValueError):
            exp_integral_e1(bad)


def test_gamma_expectation_moments():
    for shape in (0.5, 1.0, 3.0, 40.0, 1e5):
        for scale in (0.25, 1.0, 4.0):
            mean = gamma_expectation(lambda g: g, shape, scale)
            assert math.isclose(mean, shape * scale, rel_tol=1e-9)
            second = gamma_expectation(lambda g: g * g, shape, scale)
            assert math.isclose(second, shape * (shape + 1.0) * scale**2, rel_tol=1e-9)


def test_gamma_expectation_log_closed_form():
    # E[log(1 + c*g)] for g ~ Exp(theta) equals exp(1/(c*theta)) * E1(1/(c*theta))
    for c in (0.1, 1.0, 10.0):
        for theta in (0.1, 1.0, 10.0):
            est = gamma_expectation(lambda g: np.log1p(c * g), 1.0, theta)
            ref = math.exp(1.0 / (c * theta)) * exp_integral_e1(1.0 / (c * theta))
            assert math.isclose(est, ref, rel_tol=1e-8)


def test_gamma_expectation_detects_divergent_integrand():
    with np.errstate(divide="ignore", invalid="ignore"):
        with pytest.raises(NumericError):
            gamma_expectation(lambda g: g / (g - g), 2.0, 1.0)


def test_gamma_expectation_broadcasts_a_constant_integrand():
    assert gamma_expectation(lambda g: 2.5, 3.0, 0.5) == pytest.approx(2.5, rel=1e-14)


def test_gamma_expectation_propagates_integrand_errors():
    # an integrand that cannot take an array is an error, not a cue to
    # evaluate it node by node
    with pytest.raises(TypeError):
        gamma_expectation(lambda g: math.log1p(g), 2.0, 1.0)


def test_gamma_expectation_rejects_bad_parameters():
    with pytest.raises(ValueError):
        gamma_expectation(lambda g: g, 0.0, 1.0)
    with pytest.raises(ValueError):
        gamma_expectation(lambda g: g, 1.0, -1.0)


# each integrand is built for a numeric library: numpy, or mpmath for the oracle
_ORACLE_INTEGRANDS = {
    "log1p(cg)": lambda c, lib: lambda g: lib.log1p(c * g),
    "g/(1+cg)": lambda c, lib: lambda g: g / (1 + c * g),
    "(g/(1+cg))^2": lambda c, lib: lambda g: (g / (1 + c * g)) ** 2,
}


@pytest.mark.parametrize("shape", [0.5, 1.0, 4.0, 128.0, 1e4])
def test_gamma_expectation_matches_mpmath_oracle(shape):
    # the library's three integrands for shapes 0.5 to 1e4 and twelve
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
                est = gamma_expectation(integrand(c, np), shape, 1.0)
                assert est == pytest.approx(float(ref), rel=1e-13, abs=0.0), (name, c)
