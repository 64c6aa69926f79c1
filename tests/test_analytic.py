import mpmath
import numpy as np
import pytest

from semiflow_lab.analytic import (AnalyticFn, circle_coefficients, derivative, disk_samples,
                                   eps_ladder, neville_extrapolate, principal_power, unit_circle)
from semiflow_lab.errors import DomainError, PreconditionError
from semiflow_lab.spaces import RadialWeight, default_gamma

import oracles


def test_eval_square():
    f = AnalyticFn(lambda z: z ** 2, label="z^2")
    assert f(0.5) == pytest.approx(0.25)


def test_eval_geometric_at_zero():
    f = AnalyticFn(lambda z: 1.0 / (1.0 - z), label="geom")
    assert f(0.0) == pytest.approx(1.0)


def test_eval_euler():
    f = AnalyticFn(lambda z: np.exp(z), label="exp")
    assert f(0.3j) == pytest.approx(np.cos(0.3) + 1j * np.sin(0.3))


def test_eval_rejects_outside_domain():
    f = AnalyticFn(lambda z: z, r_max=0.5)
    with pytest.raises(DomainError):
        f(0.75)


def test_derivative_square():
    f = AnalyticFn(lambda z: z ** 2)
    assert derivative(f, 0.5, 0.1) == pytest.approx(1.0, abs=1e-10)


def test_derivative_constant():
    f = AnalyticFn.constant(3.0 - 1j)
    assert abs(derivative(f, 0.2 + 0.1j, 0.15)) < 1e-12


def test_derivative_geometric_against_closed_form():
    # oracle: d/dz 1/(1-z) = 1/(1-z)^2, evaluated independently
    f = AnalyticFn(lambda z: 1.0 / (1.0 - z))
    expected = 1.0 / (1.0 - 0.3) ** 2
    assert derivative(f, 0.3, 0.2) == pytest.approx(expected, abs=1e-8)


def test_derivative_circle_must_stay_inside():
    f = AnalyticFn(lambda z: z, r_max=0.9)
    with pytest.raises(DomainError):
        derivative(f, 0.85, 0.2)


def test_taylor_geometric():
    f = AnalyticFn(lambda z: 1.0 / (1.0 - z))
    coeffs = circle_coefficients(f(0.5 * unit_circle(256)), 0.5, 4)
    assert np.allclose(coeffs, np.ones(4), atol=1e-9)


def test_taylor_monomial():
    coeffs = circle_coefficients(AnalyticFn.monomial(3)(0.5 * unit_circle(256)), 0.5, 5)
    assert np.allclose(coeffs, [0, 0, 0, 1, 0], atol=1e-12)


def test_taylor_exponential():
    coeffs = circle_coefficients(AnalyticFn(lambda z: np.exp(z))(0.5 * unit_circle(256)), 0.5, 3)
    assert np.allclose(coeffs, [1.0, 1.0, 0.5], atol=1e-9)


def test_derivative_matches_coefficient_derivative_on_polynomials():
    rng = np.random.default_rng(42)
    pts = disk_samples(10, max_radius=0.6)
    for _ in range(5):
        coeffs = rng.standard_normal(11) + 1j * rng.standard_normal(11)
        f = AnalyticFn.from_coefficients(coeffs)
        dcoeffs = oracles.poly_derivative_coeffs(coeffs)
        expected = oracles.poly_eval(dcoeffs, pts)
        got = derivative(f, pts, 0.2)
        assert np.max(np.abs(got - expected)) < 1e-8


def test_evaluation_agrees_with_truncated_taylor_sum():
    # |f(z) - sum_{n<=N} a_n z^n| must sit inside twice the coefficient tail
    f = AnalyticFn(lambda z: 1.0 / (1.0 - 0.5 * z))
    n_terms = 12
    coeffs = 0.5 ** np.arange(n_terms)
    for z in (0.3, 0.5j, -0.6 + 0.2j):
        tail = sum(0.5 ** n * abs(z) ** n for n in range(n_terms, 200))
        partial = oracles.poly_eval(coeffs, z)
        assert abs(f(z) - partial) <= 2.0 * tail + 1e-14


def test_principal_power_safe_and_checked():
    base = AnalyticFn(lambda z: 1.0 - z, label="1-z")
    f = principal_power(base, 1.5)
    assert f(0.0) == pytest.approx(1.0)
    on_cut = AnalyticFn.constant(-1.0)
    with pytest.raises(DomainError):
        principal_power(on_cut, 0.5)


def test_neville_extrapolation_recovers_polynomial_limit():
    eps = eps_ladder(1e-2, 0.5, 8)
    vals = 3.0 + 2.0 * eps + 5.0 * eps ** 2
    value, corr = neville_extrapolate(eps, vals)
    assert value.real == pytest.approx(3.0, abs=1e-12)
    assert float(corr) < 1e-10


def test_neville_needs_samples():
    with pytest.raises(PreconditionError):
        neville_extrapolate([], [])


def test_polynomial_evaluation_is_bitwise_the_out_of_place_horner_sum():
    rng = np.random.default_rng(5)
    coeffs = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    z = disk_samples(200, max_radius=1.0, min_radius=0.0)
    expected = np.zeros_like(z)
    for a in coeffs[::-1]:
        expected = expected * z + a
    assert np.array_equal(AnalyticFn.from_coefficients(coeffs)(z), expected)


# the exponents of the Hardy trials, -2/p, and of the Bergman test functions,
# -(gamma + 1)/p with the default gamma of a standard weight
KERNEL_EXPONENTS = sorted({-2.0 / p for p in (1, 2, 3)}
                          | {-(default_gamma(p, RadialWeight.standard(alpha)) + 1.0) / p
                             for p in (1, 2, 3) for alpha in (0.0, 0.5, 1.0)})


@pytest.mark.parametrize("mod", [0.2, 0.5, 0.8, 0.95])
def test_kernel_power_matches_30_digit_principal_power(mod):
    a = mod * np.exp(0.7j)
    # rays through and near the spike at a / |a|, out to |z| = 1 - 1e-6
    radii = np.array([0.0, 0.3, 0.9, 0.999, 1.0 - 1e-6])
    angles = 0.7 + np.array([0.0, 1e-5, -1e-3, 0.1, 1.5, np.pi])
    z = (radii[:, None] * np.exp(1j * angles)[None, :]).ravel()
    scale = 0.37
    with mpmath.workdps(30):
        abar = mpmath.conj(mpmath.mpc(a))
        for s in KERNEL_EXPONENTS:
            got = AnalyticFn.kernel_power(a, s, scale)(z)
            want = np.array([complex(scale * mpmath.power(1 - abar * mpmath.mpc(w), s))
                             for w in z])
            assert np.max(np.abs(got - want) / np.abs(want)) <= 1e-13, s
