import numpy as np
import pytest

from semiflow_lab.analytic import (AnalyticFn, derivative, disk_samples, eps_ladder,
                                   neville_extrapolate, principal_power, taylor_coefficients)
from semiflow_lab.errors import DomainError, PreconditionError

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
    coeffs = taylor_coefficients(f, 4, radius=0.5)
    assert np.allclose(coeffs, np.ones(4), atol=1e-9)


def test_taylor_monomial():
    coeffs = taylor_coefficients(AnalyticFn.monomial(3), 5, radius=0.5)
    assert np.allclose(coeffs, [0, 0, 0, 1, 0], atol=1e-12)


def test_taylor_exponential():
    coeffs = taylor_coefficients(AnalyticFn(lambda z: np.exp(z)), 3, radius=0.5)
    assert np.allclose(coeffs, [1.0, 1.0, 0.5], atol=1e-9)


def test_taylor_rejects_bad_radius():
    with pytest.raises(DomainError):
        taylor_coefficients(AnalyticFn(lambda z: z), 3, radius=1.5)


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


def test_composition_stays_evaluable():
    outer = AnalyticFn(lambda z: 1.0 / (1.0 - z), label="geom")
    inner = AnalyticFn(lambda z: z / 2.0, label="half")
    comp = outer.compose(inner)
    assert comp(0.8) == pytest.approx(1.0 / (1.0 - 0.4))


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


def test_from_coefficients_provider():
    f = AnalyticFn.from_coefficients([1.0, 0.0, 2.0])
    assert f.coefficient(2) == pytest.approx(2.0)
    assert f.coefficient(7) == 0.0
