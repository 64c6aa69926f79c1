import os
import subprocess
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy.special import beta

import semiflow_lab
from semiflow_lab.analytic import AnalyticFn, neville_extrapolate, unit_circle
from semiflow_lab.errors import PreconditionError, QuadratureError, RegularityError
from semiflow_lab.operators import basis_scales
from semiflow_lab.spaces import (BOUNDARY_EPS, GradedDiskRule, RadialWeight, SpaceSpec,
                                 bergman_norm, carleson_measure, default_gamma,
                                 growth_bound_check, hardy_norm, is_regular, lagrange_at_zero,
                                 _jacobi_unit_rule, _radial_rule)
from semiflow_lab.spaces import test_function as anchor_test_function

import oracles


W0 = RadialWeight.standard(0.0)
ONE = RadialWeight.custom(lambda r: np.ones_like(r), label="one")

# exp(1/(1-z)) overflows on the circles and rings closest to z = 1
SPIKE = AnalyticFn(lambda z: np.exp(1.0 / (1.0 - z)), label="ess-sing")


def assert_witnesses_blowup(exc, sample):
    """The witness is a disk point where the quadrature sample is non-finite."""
    witness = exc.witness
    assert isinstance(witness, complex) and abs(witness) < 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        assert not np.isfinite(sample(witness))


def spike_squared(z):
    return np.abs(SPIKE(z)) ** 2


def test_hardy_norm_linear_polynomial():
    assert hardy_norm(AnalyticFn.from_coefficients([1.0, 1.0]), 2) == pytest.approx(
        np.sqrt(2.0), abs=1e-6)


def test_hardy_norm_constant_any_p():
    c = 2.5 - 1.0j
    for p in (1.0, 1.7, 3.0):
        assert hardy_norm(AnalyticFn.constant(c), p) == pytest.approx(abs(c), abs=1e-9)


def test_hardy_norm_geometric():
    f = AnalyticFn(lambda z: 1.0 / (1.0 - 0.5 * z))
    assert hardy_norm(f, 2) == pytest.approx(np.sqrt(4.0 / 3.0), abs=1e-6)


def test_hardy_norm_matches_coefficient_l2():
    rng = np.random.default_rng(5)
    for _ in range(15):
        coeffs = rng.standard_normal(21) + 1j * rng.standard_normal(21)
        f = AnalyticFn.from_coefficients(coeffs)
        assert hardy_norm(f, 2) == pytest.approx(oracles.coefficient_l2(coeffs), abs=1e-8)


def test_hardy_norm_rejects_overflowing_samples():
    with pytest.raises(QuadratureError) as info:
        with np.errstate(over="ignore"):
            hardy_norm(SPIKE, 2)
    assert_witnesses_blowup(info.value, spike_squared)


def test_bergman_norm_rejects_overflowing_samples():
    with pytest.raises(QuadratureError) as info:
        bergman_norm(SPIKE, 2, W0)
    assert_witnesses_blowup(info.value, spike_squared)


def test_bergman_norm_constant_is_one():
    for alpha in (0.0, 0.5, 2.0):
        w = RadialWeight.standard(alpha)
        for p in (1.0, 2.0, 4.0):
            assert bergman_norm(AnalyticFn.constant(1.0), p, w) == pytest.approx(1.0, abs=1e-12)


def test_bergman_norm_identity_alpha0():
    assert bergman_norm(AnalyticFn.identity(), 2, W0) == pytest.approx(
        1.0 / np.sqrt(2.0), abs=1e-12)


def test_bergman_norm_identity_alpha1_against_radial_oracle():
    got = bergman_norm(AnalyticFn.identity(), 2, RadialWeight.standard(1.0))
    assert got == pytest.approx(oracles.radial_monomial_norm(1, 2, 1.0), abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0])
@pytest.mark.parametrize("n", [0, 3, 9, 15])
def test_monomial_bergman_norms_match_oracle(n, alpha):
    got = bergman_norm(AnalyticFn.monomial(n), 2, RadialWeight.standard(alpha))
    assert got == pytest.approx(oracles.radial_monomial_norm(n, 2, alpha), abs=1e-8)
    scales = basis_scales(SpaceSpec.bergman(2, RadialWeight.standard(alpha)), n + 1)
    assert scales[n] == pytest.approx(oracles.radial_monomial_norm(n, 2, alpha), abs=1e-10)


def test_monomial_bergman_norms_match_mpmath_beta():
    for alpha in (0.0, 0.5, 1.0, 3.0):
        scales = basis_scales(SpaceSpec.bergman(2, RadialWeight.standard(alpha)), 64)
        for n in range(64):
            a = mpmath.mpf(alpha) + 1
            exact = float(mpmath.sqrt(a * mpmath.beta(n + 1, a)))
            assert scales[n] == pytest.approx(exact, rel=1e-13, abs=0)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 3.0])
@pytest.mark.parametrize("n", [64, 96, 192, 272])
def test_gauss_jacobi_rule_matches_mpmath(n, alpha):
    # the 4 nodes nearest each end, whose weights are smallest, and the 2 in the middle
    s, w = _jacobi_unit_rule(n, alpha)
    for i in (0, 1, 2, 3, n // 2 - 1, n // 2, n - 4, n - 3, n - 2, n - 1):
        node, weight = oracles.gauss_jacobi_unit_node(n, alpha, s[i])
        assert abs(s[i] - node) <= 1e-15, i
        assert w[i] == pytest.approx(weight, rel=1e-11, abs=0), i
    for k in range(11):
        exact = float(mpmath.beta(k + 1, mpmath.mpf(alpha) + 1))
        assert np.sum(w * s ** k) == pytest.approx(exact, rel=1e-14, abs=0), k


def test_the_package_runs_without_scipy():
    # every Gauss rule is numpy's: the CLI import and each quadrature path leave scipy unloaded
    code = """
import sys
import semiflow_lab.cli
from semiflow_lab.analytic import AnalyticFn
from semiflow_lab.operators import composition_op, matrix
from semiflow_lab.spaces import (RadialWeight, SpaceSpec, bergman_norm, carleson_measure,
                                 is_regular)
custom = RadialWeight.custom(lambda r: 2.0 * (1.0 - r * r))
bergman_norm(AnalyticFn.monomial(3), 2, RadialWeight.standard(0.5))
is_regular(custom)
carleson_measure(custom, 0.5)
matrix(composition_op(AnalyticFn(lambda z: 0.5 * z)), SpaceSpec.parse("bergman:2:0"), dim=16)
print(sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    src = os.path.dirname(os.path.dirname(semiflow_lab.__file__))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "[]"


def test_custom_weight_norm_against_oracle():
    fn = lambda r: 1.0 + r ** 2
    w = RadialWeight.custom(fn, label="1+r^2")
    got = bergman_norm(AnalyticFn.monomial(2), 2, w)
    expected = np.sqrt(oracles.radial_weighted_moment(4, fn))
    assert got == pytest.approx(expected, abs=1e-10)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 2.0, 5.0])
def test_standard_weights_are_regular(alpha):
    assert is_regular(RadialWeight.standard(alpha)).regular


def test_flat_exponential_weight_is_not_regular():
    w = RadialWeight.custom(lambda r: np.exp(-1.0 / np.maximum(1e-300, 1.0 - r)),
                            label="exp-flat")
    report = is_regular(w)
    assert not report.regular
    assert report.min_ratio < 0.1


def test_is_regular_rejects_zero_weight_point():
    w = RadialWeight.custom(lambda r: np.maximum(0.0, 0.6 - r), label="hits-zero")
    with pytest.raises(RegularityError):
        is_regular(w)


def test_carleson_measure_alpha0_against_2d_oracle():
    for a in (0.9, 0.99):
        got = carleson_measure(W0, a)
        expected = oracles.carleson_mass_2d(lambda r: np.ones_like(r), a)
        assert got == pytest.approx(expected, rel=1e-6)
    # arc length 1-|a|, radial mass (1-|a|^2)/2, normalized by pi
    assert carleson_measure(W0, 0.9) == pytest.approx(0.0095 / np.pi, abs=1e-12)


def test_carleson_measure_alpha_half_against_2d_oracle():
    w = RadialWeight.standard(0.5)
    got = carleson_measure(w, 0.8)
    expected = oracles.carleson_mass_2d(lambda r: 1.5 * (1.0 - r ** 2) ** 0.5, 0.8,
                                        n_r=8000)
    assert got == pytest.approx(expected, rel=1e-5)


def test_carleson_measure_shrinks_to_zero():
    vals = [carleson_measure(W0, 1.0 - 2.0 ** -k) for k in (2, 5, 8, 11)]
    assert all(np.diff(vals) < 0)
    assert vals[-1] < 1e-6


def test_carleson_measure_rejects_center():
    with pytest.raises(PreconditionError):
        carleson_measure(W0, 0.0)


def test_carleson_measure_of_unit_weight_is_the_square_area():
    # S(a) has radial range [|a|, 1) and arc length 1 - |a|, so its
    # normalized area is (1 - |a|)(1 - |a|^2) / (2 pi)
    a = 0.8 * np.exp(0.4j)
    area = (1.0 - abs(a)) * (1.0 - abs(a) ** 2) / (2.0 * np.pi)
    assert carleson_measure(W0, a) == pytest.approx(area, rel=1e-12)


def test_test_function_value_at_origin():
    a, p, gamma = 0.5, 2.0, 3.0
    f = anchor_test_function(a, p, gamma, W0)
    expected = (1.0 - abs(a)) ** ((gamma + 1.0) / p) / carleson_measure(W0, a) ** (1.0 / p)
    assert f(0.0) == pytest.approx(expected, abs=1e-12)


@pytest.mark.parametrize("p,gamma", [(0.0, None), (0.5, 3.0), (np.nan, None), (np.inf, None),
                                     (2.0, np.nan), (2.0, 0.0), (2.0, -1.0), (2.0, np.inf)])
def test_test_function_rejects_bad_exponents(p, gamma):
    # p = 0 once raised ZeroDivisionError, and a NaN p or gamma gave a NaN function
    with pytest.raises(PreconditionError, match="test-function"):
        anchor_test_function(0.5, p, gamma, W0)


def test_test_function_norms_uniformly_bounded():
    norms = []
    for k in range(1, 11):
        a = 1.0 - 2.0 ** -k
        rule = oracles.TensorRule(int(max(512, 64 / (1 - a))), W0,
                                  int(max(64, 8 / np.sqrt(1 - a))))
        f = anchor_test_function(a, 2, weight=W0)
        norms.append(np.sqrt(rule.integrate(np.abs(f(rule.nodes())) ** 2)))
    assert max(norms) < 2.0
    # flat tail as |a| -> 1
    assert abs(norms[-1] - norms[-2]) < 0.02 * norms[-1]


def test_test_function_grows_at_anchor():
    vals = [abs(anchor_test_function(1.0 - 2.0 ** -k, 2, weight=W0)(1.0 - 2.0 ** -k))
            for k in (2, 4, 6, 8)]
    assert all(np.diff(vals) > 0)


def test_growth_bound_constant():
    assert growth_bound_check(AnalyticFn.constant(1.0), 2, 0.0) == pytest.approx(
        1.0, abs=1e-9)


def test_growth_bound_concentrated_rational():
    f = AnalyticFn(lambda z: 1.0 / (1.0 - 0.9 * z))
    assert growth_bound_check(f, 2, 0.0) <= 1.05


def test_growth_bound_high_monomial():
    assert growth_bound_check(AnalyticFn.monomial(10), 2, 0.0) <= 1.05


def test_growth_bound_rejects_zero_norm():
    with pytest.raises(PreconditionError):
        growth_bound_check(AnalyticFn.constant(0.0), 2, 0.0)


def test_space_spec_parsing_round_trip():
    sp = SpaceSpec.parse("bergman:2:0.5")
    assert sp.weight.alpha == 0.5
    assert SpaceSpec.parse(sp.label()).weight.alpha == 0.5
    with pytest.raises(PreconditionError):
        SpaceSpec.parse("sobolev:2")
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionError, match="finite"):
            SpaceSpec.hardy(bad)
        with pytest.raises(PreconditionError, match="finite"):
            RadialWeight.standard(bad)


def test_default_gamma_formula():
    assert default_gamma(2.0, W0) == pytest.approx(5.0)
    assert default_gamma(2.0, RadialWeight.standard(1.0)) == pytest.approx(7.0)


def test_weight_table_round_trip(tmp_path):
    path = tmp_path / "w.csv"
    r = np.linspace(0.0, 1.0, 201)
    np.savetxt(path, np.column_stack([r, 1.0 + 0.0 * r]), delimiter=",")
    w = RadialWeight.from_table(path)
    assert w(0.37) == pytest.approx(1.0)
    # omega = 1 has mass one, the A^2_omega norm of f = 1 squared
    assert bergman_norm(AnalyticFn.constant(1.0), 2, w) == pytest.approx(1.0, abs=1e-12)


@settings(max_examples=20, deadline=None)
@given(st.lists(st.floats(min_value=-2.0, max_value=2.0), min_size=1, max_size=8))
def test_parseval_property(re_coeffs):
    coeffs = np.asarray(re_coeffs, dtype=complex)
    f = AnalyticFn.from_coefficients(coeffs)
    assert hardy_norm(f, 2) == pytest.approx(oracles.coefficient_l2(coeffs), abs=1e-8)


@pytest.mark.parametrize("weight,alpha", [(W0, 0.0), (RadialWeight.standard(0.5), 0.5),
                                          (RadialWeight.standard(-0.5), -0.5), (ONE, 0.0)],
                         ids=["alpha0", "alpha0.5", "alpha-0.5", "custom-one"])
@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (20, 20), (3, 5), (20, 19), (7, 0)])
def test_disk_rule_monomial_moments(n, m, weight, alpha):
    # int z^n conj(z)^m omega dA = (alpha+1) B(n+1, alpha+1) delta_nm; omega = 1 is alpha = 0
    # on the space's own rule: 64 Jacobi rings, or 256 Legendre rings for the custom weight
    z, masses = SpaceSpec.bergman(2, weight).rule().measure()
    expected = (alpha + 1.0) * beta(n + 1, alpha + 1.0) if n == m else 0.0
    assert abs(masses @ (z ** n * np.conj(z) ** m) - expected) < 1e-10


@pytest.mark.parametrize("weight,alpha", [(W0, 0.0), (RadialWeight.standard(0.5), 0.5),
                                          (RadialWeight.standard(-0.5), -0.5), (ONE, 0.0)],
                         ids=["alpha0", "alpha0.5", "alpha-0.5", "custom-one"])
@pytest.mark.parametrize("n,m", [(0, 0), (1, 1), (20, 20), (3, 5), (20, 19), (7, 0)])
def test_graded_disk_rule_monomial_moments(n, m, weight, alpha):
    # counts clip(ceil(4 / (1 - r)), 16, 200), rounded up to a power of two,
    # run from the base to 256
    rule = GradedDiskRule.weighted(weight, 64, 4.0, 16, 200)
    counts = 16 << rule.depth >> 1                    # base 2^(d_i - 1)
    assert sorted(set(counts.tolist())) == [16, 32, 64, 128, 256]
    assert rule.offsets[-1] == counts.sum()
    expected = (alpha + 1.0) * beta(n + 1, alpha + 1.0) if n == m else 0.0
    z, masses = rule.measure()
    assert abs(masses @ (z ** n * np.conj(z) ** m) - expected) < 1e-10


def test_graded_disk_rule_counts_follow_the_ring_law():
    rule = GradedDiskRule.weighted(W0, 32, 8.0, 4, 128)
    expected = np.clip(np.ceil(8.0 / (1.0 - rule.radii)), 4, 128)
    counts = 4 << rule.depth >> 1                     # base 2^(d_i - 1)
    assert np.array_equal(counts, 2 ** np.ceil(np.log2(expected)))
    assert counts.max() == 128                        # the cap binds past 1 - 2^-4
    # generations 0..d_i of ring i are its uniform grid of counts_i points,
    # the same floats
    rings = [[] for _ in rule.radii]
    for h in range(len(rule.offsets) - 1):
        z, masses = rule.generation(h)
        assert z.size == masses.size == rule.offsets[h + 1] - rule.offsets[h]
        members = np.flatnonzero(rule.depth >= h)
        assert members[0] == rule.first[h]
        for i, part in zip(members, np.split(z, members.size)):
            rings[i].append(part)
    for r, n, parts in zip(rule.radii, counts, rings):
        assert np.array_equal(np.sort_complex(np.concatenate(parts)),
                              np.sort_complex(r * np.exp(2j * np.pi * np.arange(n) / n)))


def test_space_rule_picks_radial_count():
    for space, rings in ((SpaceSpec.bergman(2, W0), 64), (SpaceSpec.bergman(2, ONE), 256),
                         (SpaceSpec.hardy(2), 12)):
        rule = space.rule()
        assert rule.radii.size == rings and np.all(rule.depth == 1)
        assert rule.offsets[-1] == rings * 512


@pytest.mark.parametrize("space", [SpaceSpec.hardy(2), SpaceSpec.bergman(2, W0),
                                   SpaceSpec.bergman(2, ONE)], ids=["hardy", "bergman", "custom"])
def test_space_rule_measure_is_the_uniform_grid(space):
    # generations 0 and 1 of a depth-1 family are radii x unit_circle(512), the
    # same floats, each node carrying its ring's weight / 512
    if space.is_hardy:
        radii, ring_w = 1.0 - BOUNDARY_EPS, lagrange_at_zero(BOUNDARY_EPS)
    else:
        radii, radial_w, scale = _radial_rule(space.weight, 64 if space.weight.is_standard else 256)
        ring_w = scale * radial_w
    z, masses = space.rule().measure()
    grid = (radii[:, None] * unit_circle(512)).ravel()
    got, want = np.argsort(z), np.argsort(grid)
    assert np.array_equal(z[got], grid[want])
    assert np.array_equal(masses[got], np.repeat(ring_w / 512, 512)[want])


def test_boundary_ladder_is_fixed():
    assert np.array_equal(BOUNDARY_EPS, 1e-2 * 0.5 ** np.arange(12))
    with pytest.raises(ValueError):
        BOUNDARY_EPS[0] = 0.5


@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_boundary_ladder_extrapolates_circle_means(n):
    rule = oracles.TensorRule(512)
    z = rule.nodes()
    assert np.allclose(np.abs(z), 1.0 - BOUNDARY_EPS[:, None], rtol=0, atol=1e-15)
    values = np.abs(z ** n) ** 2                        # (1 - eps)^(2n) on each circle
    assert abs(rule.integrate(values) - 1.0) < 1e-12
    _, correction = neville_extrapolate(BOUNDARY_EPS, np.mean(values, axis=1))
    assert correction < 1e-10


def test_boundary_ladder_weights_are_the_extrapolation_at_zero():
    eps = BOUNDARY_EPS
    c = lagrange_at_zero(eps)
    assert c.shape == eps.shape
    assert abs(np.sum(c) - 1.0) < 1e-14
    # a degree-11 polynomial in eps through the 12 rungs is recovered at 0
    coeffs = np.random.default_rng(3).normal(size=12)
    assert abs(c @ np.polyval(coeffs, eps) - coeffs[-1]) < 1e-13
    for rung_values in np.random.default_rng(4).uniform(0.5, 2.0, size=(20, 12)):
        value = neville_extrapolate(eps, rung_values)[0].real
        assert abs(c @ rung_values - value) < 1e-14


ORACLE_FNS = [AnalyticFn(lambda z: 1.0 / (1.0 - 0.7 * z), label="geom"),
              AnalyticFn(lambda z: np.exp(z) * (1.0 + 0.3j * z ** 3), label="exp-cubic"),
              AnalyticFn(lambda z: (1.0 - 0.9 * z) ** -0.4, label="power")]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
@pytest.mark.parametrize("f", ORACLE_FNS, ids=lambda f: f.label)
def test_hardy_norm_matches_the_circle_by_circle_oracle(f, p):
    expected = oracles.hardy_norm_by_circles(f, p)
    assert abs(hardy_norm(f, p) - expected) <= 1e-12 * expected
