from collections import Counter

import numpy as np
import pytest

from semiflow_lab import intertwine
from semiflow_lab.analytic import AnalyticFn, derivative, disk_samples
from semiflow_lab.cocycle import Cocycle, make_coboundary
from semiflow_lab.errors import (DegenerateOperatorError, ExtractionError,
                                 PreconditionError)
from semiflow_lab.flow import attraction, dilation, rotation
from semiflow_lab.intertwine import (AbstractOperator, check_intertwiner,
                                     commutant_check, extract_semigroup, load_bundle,
                                     recover_symbols, save_bundle)
from semiflow_lab.operators import (OperatorSemigroup, WeightedCompOp, composition_op,
                                    gallery_semigroups, matrix, multiplication_op, norm2)
from semiflow_lab.spaces import RadialWeight, SpaceSpec

A0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
GRID = disk_samples(60, max_radius=0.9)
EXTRACT_GRID = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]


def wrap(op):
    return AbstractOperator.from_weighted_comp(op, A0)


def family_of(sg):
    return lambda t: wrap(sg.at(t, validate=False))


def diff_operator():
    def action(f):
        return AnalyticFn(lambda z, _f=f: derivative(_f, z, rho=0.04), label="f'")
    return AbstractOperator(action, A0, label="d/dz")


def test_commutant_multiplication_operator():
    g = AnalyticFn(lambda z: 1.0 / (2.0 - z), label="1/(2-z)")
    report = commutant_check(wrap(multiplication_op(g)))
    assert report.commute_residual < 1e-9
    assert report.multiplier_residual < 1e-9
    zs = disk_samples(9)
    assert np.max(np.abs(report.multiplier(zs) - g(zs))) < 1e-12


def test_commutant_rejects_composition_operator():
    phi = AnalyticFn(lambda z: z / 2.0, label="z/2")
    report = commutant_check(wrap(composition_op(phi)))
    assert report.multiplier_residual > 1e-2


def test_commutant_multiplier_is_recovered_for_shift():
    report = commutant_check(wrap(multiplication_op(AnalyticFn.identity())))
    zs = disk_samples(9)
    assert np.max(np.abs(report.multiplier(zs) - zs)) < 1e-12


def test_recover_symbols_constructed_operator():
    m_true = AnalyticFn(lambda z: 1.0 / (2.0 - z), label="m")
    phi_true = AnalyticFn(lambda z: z / 2.0, label="phi")
    m, phi, *_ = recover_symbols(wrap(WeightedCompOp(m_true, phi_true)))
    assert np.max(np.abs(m(GRID) - m_true(GRID))) < 1e-9
    assert np.max(np.abs(phi(GRID) - phi_true(GRID))) < 1e-9


def test_recover_symbols_shift():
    m, phi, *_ = recover_symbols(wrap(multiplication_op(AnalyticFn.identity())))
    assert np.max(np.abs(m(GRID) - GRID)) < 1e-12
    assert np.max(np.abs(phi(GRID) - GRID)) < 1e-9


def test_recover_symbols_identity():
    op = wrap(multiplication_op(AnalyticFn.constant(1.0)))
    m, phi, *_ = recover_symbols(op)
    assert np.max(np.abs(m(GRID) - 1.0)) < 1e-12
    assert np.max(np.abs(phi(GRID) - GRID)) < 1e-12


def test_recover_symbols_through_a_zero_of_T1():
    # T1 = z vanishes at 0: the tall least-squares quotient needs no shift
    # there, and phi = z/2 is read at 0 like anywhere else
    op = wrap(WeightedCompOp(AnalyticFn.identity(), AnalyticFn(lambda z: z / 2.0, label="z/2")))
    m, phi, a_phi, coeffs = recover_symbols(op)
    assert coeffs.shape == (64, 12) and a_phi.size == 32
    assert np.max(np.abs(a_phi - np.eye(32)[1] / 2.0)) < 1e-14
    assert np.max(np.abs(phi([0.0, 0.1, 0.5j]) - [0.0, 0.05, 0.25j])) < 1e-14
    assert np.max(np.abs(m(GRID) - GRID)) < 1e-14


@pytest.mark.parametrize("dim", [None, 20, 64], ids=["action", "dim20", "dim64"])
def test_check_intertwiner_passes_through_a_zero_of_T1_inside_the_disk(dim):
    # T1 = z - 0.2 vanishes at 0.2; the square series quotient C[:, 1] / C[:, 0]
    # reads residual 5.5e10 here at dim 64, the tall least-squares system 3e-16
    op = WeightedCompOp(AnalyticFn(lambda z: z - 0.2, label="z-0.2"),
                        AnalyticFn(lambda z: 0.5 * z + 0.2, label="0.5z+0.2"))
    t_op = wrap(op) if dim is None else AbstractOperator.from_matrix(matrix(op, A0, dim).entries, A0)
    report = check_intertwiner(t_op)
    assert report.passed
    assert report.intertwining_residual < 1e-14
    assert np.max(np.abs(report.self_map(GRID) - (0.5 * GRID + 0.2))) < 1e-13


def test_recover_symbols_degenerate():
    zero = AbstractOperator(lambda f: AnalyticFn.constant(0.0), A0, label="0")
    with pytest.raises(DegenerateOperatorError):
        recover_symbols(zero)


def test_check_intertwiner_passes_constructed():
    op = wrap(WeightedCompOp(AnalyticFn(lambda z: np.exp(z), label="e^z"),
                             AnalyticFn(lambda z: 0.7 * z, label="0.7z")))
    report = check_intertwiner(op)
    assert report.passed
    assert report.intertwining_residual < 1e-8
    assert np.max(np.abs(report.self_map(GRID) - 0.7 * GRID)) < 1e-8


def test_check_intertwiner_rejects_differentiation():
    report = check_intertwiner(diff_operator())
    assert not report.passed
    assert report.degenerate
    assert report.intertwining_residual > 1e-2
    assert "degenerate" in report.note


def test_check_intertwiner_mobius_composition():
    mob = AnalyticFn(lambda z: (z + 0.3) / (1.0 + 0.3 * z), label="mobius")
    report = check_intertwiner(wrap(composition_op(mob)))
    assert report.passed
    assert np.max(np.abs(report.self_map(GRID) - mob(GRID))) < 1e-8


def test_check_intertwiner_flags_boundary_valued_self_map():
    # T f = f(c) with |c| essentially on the circle: intertwining holds with
    # phi = c, but the self-map bound must fail the report
    c = 1.0 - 1e-12
    op = AbstractOperator(lambda f: AnalyticFn.constant(f(c)), A0, label="eval@c")
    report = check_intertwiner(op)
    assert not report.passed
    assert report.self_map_max >= 1.0 - 1e-9
    assert report.intertwining_residual < 1e-8


def test_check_intertwiner_flags_a_multiplier_growing_at_the_boundary():
    # the gate reads T1 itself on circles out to 1 - 8e-5, where a truncated
    # series of 1/(1 - z) would stay near its 64 coefficients' sum
    op = wrap(WeightedCompOp(AnalyticFn(lambda z: 1.0 / (1.0 - z), label="1/(1-z)"),
                             AnalyticFn(lambda z: z / 2.0, label="z/2")))
    report = check_intertwiner(op)
    assert report.intertwining_residual < 1e-12
    assert report.multiplier_bound_growing and not report.passed


def test_check_intertwiner_power_relation_spotchecks():
    # the coefficient identity gives T z^n = phi^n T1 by induction; read it
    # off the recovered symbols at n = 1, 2, 5, 10
    op = wrap(WeightedCompOp(AnalyticFn.constant(0.5), AnalyticFn(lambda z: 0.6 * z,
                                                                  label="0.6z")))
    report = check_intertwiner(op)
    assert report.passed
    m, phi = report.multiplier(GRID), report.self_map(GRID)
    for n in (1, 2, 5, 10):
        assert np.max(np.abs(op(AnalyticFn.monomial(n))(GRID) - phi ** n * m)) < 1e-9


def test_check_intertwiner_applies_each_monomial_at_most_once():
    # an operator given only by its action: the coefficient matrix reads
    # T z^0 ... T z^11, and every residual reads it
    sg = OperatorSemigroup(attraction(), Cocycle.derivative(attraction()))
    comp = sg.at(0.3, validate=False)
    op = AbstractOperator(comp.apply, A0, label=comp.label)
    applied, action = [], op.action
    op.action = lambda f: applied.append(f.label) or action(f)
    assert check_intertwiner(op).passed
    assert len(applied) <= 12
    assert len(set(applied)) == len(applied)
    assert all(label.startswith("z^") for label in applied)


def test_coefficients_of_a_weighted_composition_evaluate_each_symbol_once():
    comp = gallery_semigroups()[1].at(0.3, validate=False)
    calls = Counter()

    def counted(fn, key):
        def evaluator(z):
            calls[key] += 1
            return fn(z)
        return AnalyticFn(evaluator, label=fn.label)

    op = wrap(WeightedCompOp(counted(comp.m, "m"), counted(comp.phi, "phi"), validate=False,
                             label=comp.label))
    c, _ = op.coefficients()
    assert calls == {"m": 1, "phi": 1}
    # the columns m phi^j agree with T applied to z^j to rounding
    by_action, t1 = AbstractOperator(comp.apply, A0, label=comp.label).coefficients()
    assert np.max(np.abs(c - by_action)) <= 1e-13 * np.max(np.abs(c))
    assert np.max(np.abs(op.coefficients()[1](GRID) - t1(GRID))) <= 1e-15


def test_check_intertwiner_reads_a_bundle_without_applying_it():
    op = AbstractOperator.from_matrix(matrix(gallery_semigroups()[1].at(0.3, validate=False),
                                             A0, 20).entries, A0)
    assert op.action is None
    assert check_intertwiner(op).passed


@pytest.mark.parametrize("flow, w", [(rotation(1.0), 0.8), (rotation(1.0), 0.3), (dilation(), 0.8)],
                         ids=["rotation-w=1+0.8z", "rotation-w=1+0.3z", "dilation-w=1+0.8z"])
def test_true_sections_pass_at_dim_20(flow, w):
    # S_0.5 on A^2_0 with the coboundary of w; the grid check on these
    # sections read 5.6e-3, 3.0e-7 and 3.0e-4, and failed, by truncation alone
    sg = OperatorSemigroup(flow, make_coboundary(AnalyticFn.from_coefficients([1.0, w]), flow))
    section = matrix(sg.at(0.5, validate=False), A0, 20)
    report = check_intertwiner(AbstractOperator.from_matrix(section.entries, A0))
    assert report.passed
    assert report.intertwining_residual <= 1e-14


@pytest.mark.parametrize("action", [
    lambda f: AnalyticFn(lambda z, _f=f: _f(z) + derivative(_f, z, rho=0.04), label="f+f'"),
    lambda f: AnalyticFn(lambda z, _f=f: _f(z / 2.0) + 0.1 * _f(0.0), label="f(z/2)+0.1f(0)"),
    lambda f: AnalyticFn(lambda z, _f=f: _f(z / 2.0) + z * _f(z), label="f(z/2)+zf"),
    # Tz / T1 = z / (1 + z) leaves the disk; the check must not evaluate f there
    lambda f: AnalyticFn(lambda z, _f=f: _f(z) + _f(0.0) * z, label="f+f(0)z"),
], ids=["f+f'", "f(z/2)+0.1f(0)", "C_phi+M_z", "f+f(0)z"])
def test_check_intertwiner_rejects_non_intertwiners(action):
    report = check_intertwiner(AbstractOperator(action, A0, label="T"))
    assert not report.passed
    assert report.intertwining_residual > 1e-2


def _identity_but_nan_at(label):
    def action(f):
        if f.label == label:
            return AnalyticFn(lambda z: np.full_like(z, np.nan), label="nan")
        return f

    return AbstractOperator(action, A0, label=f"nan-at-{label}")


def test_nan_on_one_input_fails_the_check():
    # the identity except on z^3; a NaN residual must not read as 0
    op = _identity_but_nan_at("z^3")
    report = check_intertwiner(op)
    assert not report.passed
    assert np.isnan(report.intertwining_residual)
    assert np.isnan(commutant_check(op).multiplier_residual)


def test_nan_in_T1_is_reported_not_raised():
    # column 0 of C feeds the least-squares solve; a NaN there is a failed check
    report = check_intertwiner(_identity_but_nan_at("z^0"))
    assert not report.passed
    assert np.isnan(report.intertwining_residual)
    assert np.isnan(report.self_map_max)


def test_extraction_evaluates_each_symbol_on_the_probe_grid_once(monkeypatch):
    on_grid = Counter()
    check = intertwine.check_intertwiner

    def check_and_count(op):
        report = check(op)
        for name in ("multiplier", "self_map"):
            fn = getattr(report, name)

            def counted(z, _fn=fn, _key=(op.label, name)):
                # phi_0(grid) is the grid to rounding: phi_0 is a recovered series
                if z.shape == GRID.shape and np.allclose(z, GRID, rtol=0.0, atol=1e-12):
                    on_grid[_key] += 1
                return _fn(z)

            setattr(report, name, AnalyticFn(counted, label=fn.label))
        return report

    monkeypatch.setattr(intertwine, "check_intertwiner", check_and_count)
    sg = gallery_semigroups()[1]
    _, _, report = extract_semigroup(family_of(sg), EXTRACT_GRID)
    assert report.passed
    # once into the table, and once more where the t = 0 row of the laws
    # composes with phi_0(grid)
    assert len(on_grid) == 2 * len(EXTRACT_GRID)
    assert set(on_grid.values()) == {2}, on_grid


def test_extraction_round_trip_families():
    families = [
        gallery_semigroups()[0],
        OperatorSemigroup(attraction(), Cocycle.derivative(attraction())),
        OperatorSemigroup(attraction(), make_coboundary(
            AnalyticFn(lambda z: np.exp(1.5 * np.log(1.0 - z)), label="(1-z)^1.5"),
            attraction())),
    ]
    zs = disk_samples(100, max_radius=0.9)
    for sg in families:
        flow, cocycle, report = extract_semigroup(family_of(sg), EXTRACT_GRID)
        assert report.passed, sg.name
        for t in (0.1, 0.3, 0.7):
            assert np.max(np.abs(flow(t, zs) - sg.flow(t, zs))) < 1e-7
            assert np.max(np.abs(cocycle.eval(t, zs) - sg.cocycle.eval(t, zs))) < 1e-7
        assert report.min_multiplier_modulus > 0.0


def test_extraction_reports_cocycle_and_flow_laws():
    sg = gallery_semigroups()[1]
    _, _, report = extract_semigroup(family_of(sg), EXTRACT_GRID)
    assert report.flow_law_residual < 1e-7
    assert report.cocycle_law_residual < 1e-7
    assert report.identity_residual < 1e-9
    assert report.unit_residual < 1e-9
    assert report.continuity_residuals[0] < 0.2


def test_extraction_rejects_corrupted_family():
    sg = gallery_semigroups()[0]
    zero = AbstractOperator(lambda f: AnalyticFn.constant(0.0), A0, label="0")

    def corrupted(t):
        if abs(t - 0.5) < 1e-9:
            return zero
        return wrap(sg.at(t, validate=False))

    with pytest.raises(ExtractionError) as err:
        extract_semigroup(corrupted, EXTRACT_GRID)
    assert err.value.t == pytest.approx(0.5)
    assert "0.5" in str(err.value)


def test_extraction_requires_zero_start():
    sg = gallery_semigroups()[0]
    with pytest.raises(PreconditionError):
        extract_semigroup(family_of(sg), [0.1, 0.2, 0.3])


def test_extraction_norm_surrogate_reported(monkeypatch):
    calls = []
    monkeypatch.setattr(intertwine, "recover_symbols",
                        lambda *a, **k: calls.append(a) or recover_symbols(*a, **k))
    sg = gallery_semigroups()[0]
    _, _, report = extract_semigroup(family_of(sg), EXTRACT_GRID)
    assert report.norm_surrogate == pytest.approx(1.0, abs=1e-6)
    assert "surrogate" in report.note
    # symbols are recovered once per time, by the intertwiner check; the norm
    # sections are built from those symbols
    assert len(calls) == len(EXTRACT_GRID)


def test_extraction_on_a_custom_weight_has_no_norm_surrogate():
    # matrix sections need a standard weight; the extraction itself still passes
    custom = SpaceSpec.bergman(2, RadialWeight.custom(lambda r: 2.0 * (1.0 - r * r)))
    sg = gallery_semigroups()[0]
    _, _, report = extract_semigroup(
        lambda t: AbstractOperator.from_weighted_comp(sg.at(t, validate=False), custom),
        EXTRACT_GRID)
    assert report.passed
    assert np.isnan(report.norm_surrogate)


def test_extraction_raises_a_section_error_that_is_not_a_precondition(monkeypatch):
    def broken(_):
        raise ZeroDivisionError("a defect in the section code")

    monkeypatch.setattr(intertwine, "norm2", broken)
    with pytest.raises(ZeroDivisionError):
        extract_semigroup(family_of(gallery_semigroups()[0]), EXTRACT_GRID)


def test_intertwining_implies_the_weighted_composition_form():
    # numerical echo of the converse direction: a small intertwining residual
    # forces T f = m (f o phi) with the recovered symbols, here on functions
    # that are not monomials
    ops = [
        wrap(WeightedCompOp(AnalyticFn(lambda z: 1.0 / (2.0 - z), label="m"),
                            AnalyticFn(lambda z: 0.5 * z + 0.2, label="phi"))),
        wrap(composition_op(AnalyticFn(lambda z: (z + 0.3) / (1.0 + 0.3 * z),
                                       label="mobius"))),
    ]
    tests = [AnalyticFn(lambda z: 1.0 / (1.0 - 0.4 * z), label="1/(1-0.4z)"),
             AnalyticFn(lambda z: 1.0 / (2.0 - z), label="1/(2-z)")]
    for op in ops:
        report = check_intertwiner(op)
        assert report.intertwining_residual < 1e-8 and not report.degenerate
        m, phi = report.multiplier(GRID), report.self_map(GRID)
        for f in tests:
            assert np.max(np.abs(op(f)(GRID) - m * f(phi))) < 1e-6


def test_bundle_round_trip(tmp_path):
    sg = gallery_semigroups()[0]
    ts = EXTRACT_GRID
    mats = [matrix(sg.at(t, validate=False), A0, 20) for t in ts]
    manifest = save_bundle(tmp_path / "bundle", ts, mats, A0)
    t_family, t_values, space = load_bundle(manifest)
    assert t_values == ts
    assert space.label() == A0.label()
    flow, cocycle, report = extract_semigroup(t_family, t_values)
    assert report.passed
    zs = disk_samples(40, max_radius=0.8)
    assert np.max(np.abs(flow(0.3, zs) - sg.flow(0.3, zs))) < 1e-7


def test_a_dim_8_bundle_round_trips(tmp_path):
    # phi's 4 recovered coefficients hold dilation's e^-t z exactly
    sg = gallery_semigroups()[0]
    mats = [matrix(sg.at(t, validate=False), A0, 8) for t in EXTRACT_GRID]
    t_family, t_values, _ = load_bundle(save_bundle(tmp_path / "bundle", EXTRACT_GRID, mats, A0))
    _, _, report = extract_semigroup(t_family, t_values)
    assert report.passed


def test_bundle_norm_surrogate_reads_its_attached_sections(tmp_path, monkeypatch):
    # a bundle of dim >= 32 carries the sections; none is rebuilt from the symbols
    sg = gallery_semigroups()[1]
    mats = [matrix(sg.at(t, validate=False), A0, 40) for t in EXTRACT_GRID]
    t_family, t_values, _ = load_bundle(save_bundle(tmp_path / "bundle", EXTRACT_GRID, mats, A0))
    built = []
    monkeypatch.setattr(intertwine, "matrix", lambda *a, **k: built.append(a) or matrix(*a, **k))
    _, _, report = extract_semigroup(t_family, t_values)
    assert report.passed and not built
    leading = [norm2(t_family(t).section.entries[:32, :32]).value for t in t_values]
    assert report.norm_surrogate == max(leading)


def test_bundle_keeps_apart_times_its_manifest_tells_apart(tmp_path):
    ts = [0.1, 0.1000001]
    mats = [np.eye(4), 2.0 * np.eye(4)]
    t_family, _, _ = load_bundle(save_bundle(tmp_path / "bundle", ts, mats, A0))
    for t, mat in zip(ts, mats):
        assert np.array_equal(t_family(t).section.entries, mat)


@pytest.mark.parametrize("bad", [np.nan, np.inf], ids=["nan", "inf"])
def test_save_bundle_refuses_a_non_finite_time(tmp_path, bad):
    # a NaN time would be written as the non-JSON constant NaN, which
    # load_bundle and strict JSON readers reject
    with pytest.raises(PreconditionError, match="finite"):
        save_bundle(tmp_path / "bundle", [0.0, 0.1, 0.2, bad], [np.eye(4)] * 4, A0)
    assert not (tmp_path / "bundle").exists()


def test_bundle_rejects_malformed(tmp_path):
    bad = tmp_path / "manifest.json"
    bad.write_text('{"space": "hardy:2"}')
    with pytest.raises(PreconditionError):
        load_bundle(bad)
