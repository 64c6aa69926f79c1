import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from semiflow_lab.analytic import AnalyticFn, disk_samples, principal_power
from semiflow_lab.cocycle import (Cocycle, circle_maxima, exp_growth_cocycle, limsup_probe,
                                  make_coboundary, poisson_blowup_cocycle,
                                  resolve_cocycle, unit_cocycle, verify_cocycle)
from semiflow_lab.errors import AdmissibilityError, CocycleZeroError, PreconditionError
from semiflow_lab.flow import (GALLERY, Semiflow, attraction, broken_escape, dilation,
                               identity_flow, rotation)


@pytest.fixture
def grid():
    return disk_samples(25)


def test_coboundary_z_over_dilation_is_exponential(grid):
    m = make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,))
    vals = m.eval(0.5, grid)
    assert np.max(np.abs(vals - np.exp(-0.5))) < 1e-12


def test_derivative_cocycle_of_affine_flow_is_constant(grid):
    m = Cocycle.derivative(attraction())
    vals = m.eval(0.7, grid)
    assert np.max(np.abs(vals - np.exp(-0.7))) < 1e-10


def test_unit_at_zero_for_all_variants(grid):
    flows = {"coboundary": dilation(), "derivative": attraction()}
    variants = [
        make_coboundary(AnalyticFn.identity(), flows["coboundary"], zero_candidates=(0.0,)),
        Cocycle.derivative(flows["derivative"]),
        unit_cocycle(),
        exp_growth_cocycle(),
    ]
    for m in variants:
        assert np.max(np.abs(m.eval(0.0, 0.3 + 0.2j) - 1.0)) < 1e-12


def test_make_coboundary_power_weight(grid):
    m = make_coboundary(AnalyticFn.monomial(2), dilation(), zero_candidates=(0.0,))
    assert np.max(np.abs(m.eval(0.4, grid) - np.exp(-0.8))) < 1e-12


def test_make_coboundary_rejects_moving_zero():
    w = AnalyticFn(lambda z: z - 0.5, label="z-0.5")
    with pytest.raises(AdmissibilityError):
        make_coboundary(w, dilation(), zero_candidates=(0.5,))


def test_affine_power_coboundary_matches_pointwise_oracle(grid):
    # oracle: ((1 - phi_t(z))/(1 - z))^1.5 computed directly on the grid
    flow = attraction()
    w = principal_power(AnalyticFn(lambda z: 1.0 - z, label="1-z"), 1.5)
    m = make_coboundary(w, flow)
    t = 0.2
    base = (1.0 - flow(t, grid)) / (1.0 - grid)
    expected = np.exp(1.5 * np.log(base))
    assert np.max(np.abs(m.eval(t, grid) - expected)) < 1e-10
    assert np.max(np.abs(expected - np.exp(-1.5 * t))) < 1e-12


def test_coboundary_rejects_undeclared_zero():
    w = AnalyticFn(lambda z: z, label="z")
    m = Cocycle("coboundary", weight=w, flow=dilation(), zeros=())
    with pytest.raises(CocycleZeroError):
        m.eval(0.5, 0.0)


def test_coboundary_rejects_declared_zero_evaluation():
    m = make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,))
    with pytest.raises(CocycleZeroError):
        m.eval(0.5, 0.0)


def test_verify_coboundary_law_tight():
    m = make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,))
    report = verify_cocycle(m, dilation())
    assert report.passed
    assert report.max_law_residual < 1e-10


def test_verify_cocycle_evaluates_each_time_sum_once(monkeypatch):
    # the default grid's 64 sums t + s take 19 distinct floats; with the
    # 64 evaluations m_s(phi_t(z)) that makes 83 evaluations
    m = make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,))
    calls = []
    evaluate = Cocycle.eval
    monkeypatch.setattr(Cocycle, "eval", lambda self, t, z: calls.append(t) or evaluate(self, t, z))
    assert verify_cocycle(m, dilation()).passed
    assert len(calls) == 83


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_verify_cocycle_rejects_a_time_that_is_not_finite(t):
    m = make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,))
    with pytest.raises(PreconditionError):
        verify_cocycle(m, dilation(), t_grid=[0.0, 0.5, t])


def _outward():
    return Semiflow.from_generator(AnalyticFn.constant(2.0), name="outward")


@pytest.mark.parametrize("make_cocycle,make_flow", [
    (unit_cocycle, broken_escape), (unit_cocycle, _outward),
    # the declared zero's fixed-point check is the first to integrate the flow
    (lambda: make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,)),
     _outward)], ids=["broken-escape", "outward-generator", "outward-generator-coboundary"])
def test_verify_cocycle_reports_a_flow_that_leaves_the_disk(make_cocycle, make_flow):
    report = verify_cocycle(make_cocycle(), make_flow())
    assert not report.passed and not report.admissible
    assert report.max_law_residual == report.max_unit_residual == np.inf
    assert report.note.startswith("evaluation failed:") and "closed disk" in report.note


def test_verify_derivative_cocycle_over_dilation():
    m = Cocycle.derivative(dilation())
    report = verify_cocycle(m, dilation())
    assert report.passed
    assert report.max_law_residual < 1e-8


# d/dz phi_t of each gallery flow (and of its generator twin), as a function of t
GALLERY_DERIVATIVES = {"dilation": lambda t: np.exp(-t), "rotation": lambda t: np.exp(1j * t),
                       "attraction": lambda t: np.exp(-t), "identity": lambda t: 1.0,
                       "broken-escape": lambda t: 1.0}


@pytest.mark.parametrize("name", sorted(GALLERY))
def test_derivative_matches_closed_form_over_gallery(name, grid):
    flow = GALLERY[name]()
    exact = GALLERY_DERIVATIVES[name.removeprefix("generator-")]
    tol = 1e-9 if flow.is_generator_driven else 1e-14
    m = Cocycle.derivative(flow)
    for t in (0.0, 0.1, 0.5, 1.0):
        phi, dphi = flow.jet(t, grid)
        assert np.max(np.abs(phi - flow.at_times([t], grid, check=False)[0])) < tol, t
        assert np.max(np.abs(dphi - exact(t))) < tol, t
        assert np.max(np.abs(m.eval(t, grid) - exact(t))) < tol, t


@pytest.mark.parametrize("flow", [dilation(), attraction(), rotation(1.0)],
                         ids=lambda f: f.name)
def test_gallery_derivative_cocycle_law_is_exact(flow):
    report = verify_cocycle(Cocycle.derivative(flow), flow)
    assert report.passed
    assert report.max_law_residual < 1e-12


def test_derivative_cocycle_needs_a_flow_carrying_its_derivative():
    plain = Semiflow.closed_form(lambda t, z: np.exp(-t) * z, name="plain-dilation")
    with pytest.raises(PreconditionError):
        Cocycle.derivative(plain)
    with pytest.raises(PreconditionError):
        resolve_cocycle("derivative", plain)


def test_verify_flags_broken_family():
    broken = Cocycle.closed(lambda t, z: np.full_like(z, 1.0 + t), name="1+t")
    report = verify_cocycle(broken, dilation(), t_grid=[0.0, 1.0, 2.0])
    assert not report.passed
    # the law defect of 1 + t is exactly t*s
    assert report.max_law_residual == pytest.approx(4.0, abs=1e-12)


@settings(max_examples=15, deadline=None)
@given(st.integers(min_value=1, max_value=6))
def test_monomial_coboundary_scaling_law(k):
    m = make_coboundary(AnalyticFn.monomial(k), dilation(), zero_candidates=(0.0,))
    z = 0.4 + 0.25j
    for t in (0.1, 0.9):
        assert m.eval(t, z) == pytest.approx(np.exp(-k * t), abs=1e-12)


def test_sup_norm_constant_cocycle():
    m = make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,))
    assert circle_maxima(m, 0.5).max() == pytest.approx(np.exp(-0.5), abs=1e-12)
    assert circle_maxima(m, 0.0).max() == pytest.approx(1.0, abs=1e-12)


def test_sup_norm_affine_power_coboundary():
    w = principal_power(AnalyticFn(lambda z: 1.0 - z, label="1-z"), 1.5)
    m = make_coboundary(w, attraction())
    assert circle_maxima(m, 0.2).max() == pytest.approx(np.exp(-0.3), abs=1e-9)


def test_sup_norm_monotone_in_radius():
    m = Cocycle.closed(lambda t, z: np.exp(t * z), name="exp(tz)")
    profile = circle_maxima(m, 0.7, radii=(0.9, 0.99, 0.999))
    assert np.all(np.diff(profile) >= -1e-12)


def test_sup_norm_preconditions():
    m = unit_cocycle()
    with pytest.raises(PreconditionError):
        circle_maxima(m, 0.1, radii=(1.5,))
    with pytest.raises(PreconditionError):
        circle_maxima(m, 0.1, nodes=64)


def test_limsup_contractive():
    m = make_coboundary(AnalyticFn.identity(), dilation(), zero_candidates=(0.0,))
    probe = limsup_probe(m)
    assert probe.regime == "contractive"
    assert probe.tail_value <= 1.0 + 1e-6


def test_limsup_finite_above_one():
    probe = limsup_probe(exp_growth_cocycle())
    assert probe.regime == "finite"
    assert 1.0 < probe.tail_value < 1.05


def test_limsup_unimodular_rotation_coboundary():
    m = make_coboundary(AnalyticFn.identity(), rotation(1.0), zero_candidates=(0.0,))
    probe = limsup_probe(m)
    assert probe.regime == "contractive"
    assert probe.tail_value == pytest.approx(1.0, abs=1e-9)


def test_limsup_divergent_blowup():
    probe = limsup_probe(poisson_blowup_cocycle())
    assert probe.regime == "divergent"


def test_resolve_cocycle_gallery():
    flow = identity_flow()
    assert resolve_cocycle("unit", flow).eval(0.3, 0.1) == pytest.approx(1.0)
    m = resolve_cocycle("coboundary:affine-power:1.5", attraction())
    assert m.eval(0.2, 0.3) == pytest.approx(np.exp(-0.3), abs=1e-10)
    with pytest.raises(PreconditionError):
        resolve_cocycle("mystery", flow)


@pytest.mark.parametrize("k", [0, 2])
def test_resolve_coboundary_monomial_over_dilation(k, grid):
    # w = z^k over phi_t = e^-t z gives m_t = e^{-kt}; only k > 0 declares the zero at 0
    m = resolve_cocycle(f"coboundary:z^{k}", dilation())
    assert m.zeros == ((0j,) if k else ())
    assert np.max(np.abs(m.eval(0.7, grid) - np.exp(-0.7 * k))) < 1e-12


def _bound(flow, spec):
    return flow, resolve_cocycle(spec, flow)


SAMPLE_CASES = {
    "closed-unit": lambda: (attraction(), unit_cocycle()),
    "closed-exp-growth": lambda: (dilation(), exp_growth_cocycle()),
    "closed-poisson-blowup": lambda: (identity_flow(), poisson_blowup_cocycle()),
    "coboundary-z-rotation": lambda: _bound(rotation(1.0), "coboundary:z"),
    "coboundary-affine-power-attraction": lambda: _bound(attraction(),
                                                         "coboundary:affine-power:1.5"),
    "coboundary-z-generator-dilation": lambda: _bound(GALLERY["generator-dilation"](),
                                                      "coboundary:z"),
    "derivative-attraction": lambda: _bound(attraction(), "derivative"),
    "derivative-second-attraction": lambda: (attraction(), Cocycle.derivative(attraction())),
}


@pytest.mark.parametrize("case", sorted(SAMPLE_CASES))
def test_sample_matches_at_times_and_eval_bitwise(case, grid):
    flow, m = SAMPLE_CASES[case]()
    for t in (0.0, 0.5):
        phi, vals = m.sample(flow, t, grid)
        assert np.array_equal(phi, flow.at_times([t], grid, check=False)[0])
        assert np.array_equal(vals, m.eval(t, grid))
        square = grid[:16].reshape(4, 4)
        flat = m.sample(flow, t, square.ravel())
        for got, want in zip(m.sample(flow, t, square), flat):
            assert np.array_equal(got, want.reshape(4, 4))
