from collections import Counter

import numpy as np
import pytest

from semiflow_lab.analytic import AnalyticFn, circle_coefficients, disk_samples, unit_circle
from semiflow_lab.cocycle import make_coboundary, resolve_cocycle
from semiflow_lab.errors import DomainError, PreconditionError, QuadratureError
from semiflow_lab.flow import dilation
from semiflow_lab.operators import (WeightedCompOp, composition_op,
                                    gallery_semigroups, load_matrix_csv, matrix,
                                    multiplication_op, norm2, norm_lower_bound,
                                    save_matrix_csv, semigroup_op)
from semiflow_lab.spaces import GradedDiskRule, RadialWeight, SpaceSpec

import oracles

H2 = SpaceSpec.hardy(2)
A0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))


def half_map():
    return AnalyticFn(lambda z: z / 2.0, label="z/2")


def test_apply_identity_operator():
    op = WeightedCompOp(AnalyticFn.constant(1.0), AnalyticFn.identity())
    f = AnalyticFn(lambda z: np.exp(z))
    zs = disk_samples(11)
    assert np.allclose(op.apply(f)(zs), f(zs))


def test_apply_multiplied_composition():
    op = WeightedCompOp(AnalyticFn.identity(), half_map())
    got = op.apply(AnalyticFn.monomial(2))(0.6)
    assert got == pytest.approx(0.6 * (0.3) ** 2)


def test_apply_substitution_formula():
    t = 0.4
    op = WeightedCompOp(AnalyticFn.constant(np.exp(-t)),
                        AnalyticFn(lambda z: np.exp(-t) * z, label="e^-t z"))
    f = AnalyticFn(lambda z: 1.0 / (1.0 - z))
    z = 0.35 - 0.2j
    assert op.apply(f)(z) == pytest.approx(np.exp(-t) / (1.0 - np.exp(-t) * z))


@pytest.mark.parametrize("space,expected", [(H2, 1.0), (A0, np.sqrt(5.0 / 9.0))],
                         ids=["hardy", "bergman"])
def test_tail_bound_is_the_largest_norm_outside_the_section(space, expected):
    # C_{z^2} e_j is a multiple of z^{2j}, outside the dim-8 section for j >= 4,
    # of norm 1 on H^2 and sqrt((j + 1) / (2j + 1)) on A^2_0
    a = matrix(composition_op(AnalyticFn(lambda z: z ** 2, label="z^2")), space, 8)
    assert abs(a.tail_bound - expected) < 1e-12


def test_hardy_section_matches_the_circle_by_circle_oracle():
    op = gallery_semigroups()[1].at(0.5)
    got = matrix(op, H2, 16).entries
    expected = oracles.hardy_section_by_circles(op.m, op.phi, 16)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("alpha", [0.0, 0.5])
@pytest.mark.parametrize("dim", [16, 64])
@pytest.mark.parametrize("pair", range(3))
def test_bergman_section_matches_the_ring_by_ring_oracle(pair, dim, alpha):
    op = gallery_semigroups()[pair].at(0.5)
    got = matrix(op, SpaceSpec.bergman(2, RadialWeight.standard(alpha)), dim).entries
    expected = oracles.bergman_section_by_rings(op.m, op.phi, dim, alpha)
    assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("t", [0.05, 0.3, 0.9])
@pytest.mark.parametrize("dim", [20, 64])
@pytest.mark.parametrize("alpha", [None, 0.0, 0.5], ids=["hardy", "bergman0", "bergman0.5"])
@pytest.mark.parametrize("pair", range(3))
def test_gallery_section_matches_its_closed_form(pair, alpha, dim, t):
    sg = gallery_semigroups()[pair]
    space = H2 if alpha is None else SpaceSpec.bergman(2, RadialWeight.standard(alpha))
    got = matrix(sg.at(t), space, dim).entries
    expected = oracles.gallery_section(sg.name, t, dim, alpha)
    assert np.max(np.abs(got - expected)) <= 2e-14 * np.max(np.abs(expected))


@pytest.mark.parametrize("alpha", [None, 0.0, 0.5], ids=["hardy", "bergman0", "bergman0.5"])
def test_sections_stop_at_dim_128(alpha):
    # the fixed coefficient circle |z| = 0.95 scales rounding by 0.95^-(2 dim - 1):
    # dim 128 keeps its digits, and dim 256 read 1.5e-11 off before it was refused
    space = H2 if alpha is None else SpaceSpec.bergman(2, RadialWeight.standard(alpha))
    for sg in gallery_semigroups():
        got = matrix(sg.at(0.3), space, 128).entries
        expected = oracles.gallery_section(sg.name, 0.3, 128, alpha)
        assert np.max(np.abs(got - expected)) <= 2.4e-14 * np.max(np.abs(expected)), sg.name
        with pytest.raises(PreconditionError, match="at most 128"):
            matrix(sg.at(0.3), space, 129)


@pytest.mark.parametrize("space,alpha", [(H2, None), (A0, 0.0)], ids=["hardy", "bergman"])
@pytest.mark.parametrize("gamma", [0.4, 1.0])
def test_boundary_singular_section_matches_its_coefficient_oracle(gamma, space, alpha,
                                                                  monkeypatch):
    # m_t = ((1 - e^-t z) / (1 - z))^gamma is singular at z = 1; the section reads
    # Taylor coefficients, so no quadrature rule of the space is ever built
    def no_quadrature(*args, **kwargs):
        raise AssertionError("matrix built a quadrature rule")

    flow = dilation()
    op = semigroup_op(flow, resolve_cocycle(f"coboundary:affine-power:{gamma}", flow), 0.5)
    monkeypatch.setattr(SpaceSpec, "rule", no_quadrature)
    monkeypatch.setattr(GradedDiskRule, "__init__", no_quadrature)
    got = matrix(op, space, 64).entries
    expected = oracles.affine_power_dilation_section(gamma, 0.5, 64, alpha)
    assert np.max(np.abs(got - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize("space", [H2, A0], ids=["hardy", "bergman"])
@pytest.mark.parametrize("pair", range(3))
def test_gallery_sections_have_no_tail(pair, space):
    # the gallery images m phi^j are polynomials of degree j, so the section
    # drops nothing and the tail must read rounding, not the square root of it
    a = matrix(gallery_semigroups()[pair].at(0.3), space, 16)
    assert a.tail_bound <= 1e-12


def test_operator_rejects_non_self_map():
    with pytest.raises(DomainError):
        WeightedCompOp(AnalyticFn.constant(1.0),
                       AnalyticFn(lambda z: 1.2 * z, label="1.2z"))


def test_matrix_composition_half_is_diagonal():
    a = matrix(composition_op(half_map()), H2, 4)
    assert np.allclose(a.entries, np.diag([1.0, 0.5, 0.25, 0.125]), atol=1e-8)


def test_matrix_shift_on_hardy():
    a = matrix(multiplication_op(AnalyticFn.identity()), H2, 4)
    assert np.allclose(a.entries, np.diag([1.0, 1.0, 1.0], -1), atol=1e-8)


def test_matrix_weighted_shift_on_bergman():
    a = matrix(multiplication_op(AnalyticFn.identity()), A0, 4)
    expected = np.diag([oracles.radial_monomial_norm(n + 1, 2, 0.0)
                        / oracles.radial_monomial_norm(n, 2, 0.0) for n in range(3)], -1)
    assert np.allclose(a.entries, expected, atol=1e-6)


def test_matrix_identity_invariant():
    op = multiplication_op(AnalyticFn.constant(1.0))
    for space in (H2, A0):
        a = matrix(op, space, 8)
        assert np.max(np.abs(a.entries - np.eye(8))) < 1e-8


def test_matrix_requires_p2():
    with pytest.raises(PreconditionError):
        matrix(multiplication_op(AnalyticFn.constant(1.0)), SpaceSpec.hardy(3), 4)


def test_norm2_identity():
    res = norm2(matrix(multiplication_op(AnalyticFn.constant(1.0)), H2, 8))
    assert res.converged
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_norm2_diagonal():
    res = norm2(np.diag([1.0, 0.5, 0.25, 0.125]).astype(complex))
    assert res.value == pytest.approx(1.0, abs=1e-10)


def test_norm2_multiplier_matches_boundary_maximum():
    op = multiplication_op(AnalyticFn(lambda z: 1.0 / (2.0 - z), label="1/(2-z)"))
    res = norm2(matrix(op, H2, 32))
    boundary_max = 1.0  # max over |z| = 1 of 1/|2 - z|
    assert abs(res.value - boundary_max) < 0.02 * boundary_max


def test_norm2_monotone_in_section_size():
    op = WeightedCompOp(AnalyticFn(lambda z: 1.0 / (2.0 - z), label="m"),
                        AnalyticFn(lambda z: 0.8 * z + 0.1, label="phi"))
    values = [norm2(matrix(op, H2, n)).value for n in (8, 16, 32, 64)]
    assert all(np.diff(values) >= -1e-10)


def test_norm_lower_bound_identity():
    op = multiplication_op(AnalyticFn.constant(1.0))
    assert norm_lower_bound(op, H2, trials=6) >= 1.0 - 1e-8


def test_norm_lower_bound_constant_multiplier():
    c = 0.7 + 0.1j
    op = multiplication_op(AnalyticFn.constant(c))
    assert norm_lower_bound(op, H2, trials=6) == pytest.approx(abs(c), abs=1e-8)


def test_norm_lower_bound_consistent_with_sections():
    op = composition_op(half_map())
    lower_h4 = norm_lower_bound(op, SpaceSpec.hardy(4), trials=8)
    assert 0.0 < lower_h4 <= 1.0 + 1e-9
    section = norm2(matrix(op, H2, 64)).value
    lower_h2 = norm_lower_bound(op, H2, trials=8)
    assert lower_h2 <= section + 1e-6


def counted(fn: AnalyticFn, calls: Counter, key: str) -> AnalyticFn:
    def evaluator(z):
        calls[key] += 1
        return fn(z)
    return AnalyticFn(evaluator, label=fn.label)


@pytest.mark.parametrize("spec", ["hardy:3", "bergman:3:0.5"])
def test_norm_lower_bound_evaluates_each_symbol_once(spec):
    op = gallery_semigroups()[1].at(0.5)
    calls = Counter()
    counting = WeightedCompOp(counted(op.m, calls, "m"), counted(op.phi, calls, "phi"),
                              validate=False, label=op.label)
    assert norm_lower_bound(counting, SpaceSpec.parse(spec)) == norm_lower_bound(
        op, SpaceSpec.parse(spec))
    assert calls == {"m": 1, "phi": 1}


# values recorded when each trial re-evaluated m and phi and the boundary
# trials ran the complex exp(s log(1 - conj(a) z)); seeds 0, 1, 2 at t = 0.5
NORM_LOWER_BOUND_PINS = {
    ("hardy:3", "dilation/coboundary-z"): (0.6012972797547927,) * 3,
    ("hardy:3", "attraction/derivative"): (0.6595736100286391,) * 3,
    ("hardy:3", "rotation/coboundary-z"): (1.0000000062092007, 1.0000000027767766,
                                           1.000000003101218),
    ("bergman:3:0.5", "dilation/coboundary-z"): (0.5775159783480622, 0.5615656376011234,
                                                 0.5615656376011234),
    ("bergman:3:0.5", "attraction/derivative"): (0.7656242437246178,) * 3,
    ("bergman:3:0.5", "rotation/coboundary-z"): (1.0000000004203484, 1.0000000005882437,
                                                 1.000000000507313),
}


@pytest.mark.parametrize("spec, name", sorted(NORM_LOWER_BOUND_PINS))
def test_norm_lower_bound_keeps_its_recorded_values(spec, name):
    op = {sg.name: sg for sg in gallery_semigroups()}[name].at(0.5)
    got = [norm_lower_bound(op, SpaceSpec.parse(spec), seed=seed) for seed in range(3)]
    assert got == pytest.approx(NORM_LOWER_BOUND_PINS[spec, name], rel=1e-13, abs=0.0)


@pytest.mark.parametrize("space", [H2, A0], ids=["hardy", "bergman"])
def test_norm_lower_bound_names_a_non_finite_image_node(space):
    op = WeightedCompOp(AnalyticFn(lambda z: np.exp(1.0 / (1.0 - z)), label="exp(1/(1-z))"),
                        AnalyticFn.identity())
    with pytest.raises(QuadratureError) as info:
        norm_lower_bound(op, space, trials=2)
    witness = info.value.witness
    assert witness in space.rule().measure()[0]
    # |m f(phi)|^2 overflows only near z = 1, where Re 1/(1 - z) is about 709.78 / 2 or more
    assert abs(1.0 - witness) < 1.0 / 300.0


def test_norm_lower_bound_checks_the_trials_domain_at_phi_of_the_nodes():
    op = WeightedCompOp(AnalyticFn.constant(1.0), AnalyticFn(lambda z: 1.2 * z, label="1.2z"),
                        validate=False)
    with pytest.raises(DomainError):
        norm_lower_bound(op, H2, trials=2)


def test_matrix_action_matches_taylor_of_applied_function():
    op = WeightedCompOp(AnalyticFn(lambda z: 1.0 / (2.0 - z), label="m"), half_map())
    n = 32
    a = matrix(op, H2, n)
    rng = np.random.default_rng(3)
    coeffs = np.zeros(n, dtype=complex)
    coeffs[: n // 2] = rng.standard_normal(n // 2) + 1j * rng.standard_normal(n // 2)
    image = op.apply(AnalyticFn.from_coefficients(coeffs))
    expected = circle_coefficients(image(0.7 * unit_circle(256)), 0.7, n)
    assert np.max(np.abs(a.entries @ coeffs - expected)) < 1e-6


def test_semigroup_operator_identity_at_zero():
    sg = gallery_semigroups()[0]
    op = sg.at(0.0)
    zs = disk_samples(17)
    for f in (AnalyticFn.monomial(3), AnalyticFn(lambda z: np.exp(z))):
        assert np.max(np.abs(op.apply(f)(zs) - f(zs))) < 1e-10


def test_semigroup_operator_dilation_example():
    flow = dilation()
    cob = make_coboundary(AnalyticFn.identity(), flow, zero_candidates=(0.0,))
    op = semigroup_op(flow, cob, np.log(2.0))
    assert op.apply(AnalyticFn.identity())(0.8) == pytest.approx(0.2)


@pytest.mark.parametrize("t", [-0.5, np.nan, np.inf])
def test_semigroup_operator_rejects_a_time_that_is_not_finite_and_nonnegative(t):
    sg = gallery_semigroups()[0]
    with pytest.raises(PreconditionError):
        semigroup_op(sg.flow, sg.cocycle, t)


def test_semigroup_law_on_functions():
    zs = disk_samples(50)
    fam = [AnalyticFn.monomial(k) for k in range(10)]
    pairs = [(t, s) for t in (0.0, 0.25, 0.6, 1.0) for s in (0.1, 0.5, 1.0)]
    for sg in gallery_semigroups():
        for t, s in pairs:
            for f in fam:
                lhs = sg.at(t + s, validate=False).apply(f)(zs)
                rhs = sg.at(t, validate=False).apply(sg.at(s, validate=False).apply(f))(zs)
                assert np.max(np.abs(lhs - rhs)) < 1e-8


def test_matrix_csv_round_trip(tmp_path):
    a = matrix(composition_op(half_map()), H2, 6)
    path = tmp_path / "m.csv"
    save_matrix_csv(a, path)
    back = load_matrix_csv(path)
    assert np.allclose(back, a.entries, atol=1e-15)


def test_semigroup_respects_negative_time():
    sg = gallery_semigroups()[0]
    with pytest.raises(PreconditionError):
        sg.at(-0.1)
