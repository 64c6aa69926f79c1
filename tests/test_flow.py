import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from semiflow_lab import flow as flow_module
from semiflow_lab.analytic import AnalyticFn, disk_samples, unit_circle
from semiflow_lab.cocycle import Cocycle, verify_cocycle
from semiflow_lab.errors import (IntegrationError, InvalidSemiflowError,
                                 PreconditionError)
from semiflow_lab.flow import (Semiflow, attraction, broken_escape, dilation,
                               estimate_generator, fixed_points_check,
                               generator_twin, resolve_flow, rotation,
                               verify_semiflow)
from semiflow_lab.spaces import SpaceSpec


def test_flow_point_dilation():
    assert dilation()(np.log(2.0), 0.5) == pytest.approx(0.25)


def test_flow_point_generator_driven():
    s = generator_twin("dilation")
    assert s(np.log(2.0), 0.5) == pytest.approx(0.25, abs=1e-9)


def test_flow_point_attraction():
    assert attraction()(1.0, 0.0) == pytest.approx(1.0 - np.exp(-1.0))


def test_flow_point_rejects_negative_time():
    with pytest.raises(PreconditionError):
        dilation()(-0.5, 0.1)


@pytest.mark.parametrize("t", [np.nan, np.inf, -np.inf])
def test_at_times_rejects_a_time_that_is_not_finite(t):
    # a NaN time would spin DP45 to its step budget, and an infinite one
    # passed the stop test of the integrator and returned an early position
    for flow in (generator_twin("dilation"), dilation()):
        with pytest.raises(PreconditionError):
            flow.at_times([0.1, t], [0.5])


@pytest.mark.parametrize("t", [np.nan, np.inf])
def test_jet_rejects_a_time_that_is_not_finite(t):
    for flow in (generator_twin("dilation"), dilation()):
        with pytest.raises(PreconditionError):
            flow.jet(t, [0.5])


def test_broken_flow_escapes_and_raises():
    with pytest.raises(InvalidSemiflowError):
        broken_escape()(1.0, 0.5)


def test_ode_escape_raises_invalid_semiflow():
    # constant outward drift is not the generator of a disk semiflow
    bad = Semiflow.from_generator(AnalyticFn.constant(2.0), name="outward")
    with pytest.raises(InvalidSemiflowError):
        bad(1.0, 0.5)


def test_plain_generator_escape_is_caught_on_an_accepted_state():
    # an AnalyticFn generator rejects stage points outside the disk first; a
    # plain callable evaluates them, so the check on accepted states fires
    bad = Semiflow.from_generator(lambda z: 2.0 + 0.0 * z)
    with pytest.raises(InvalidSemiflowError,
                       match=r"trajectory escaped the disk \(\|w\| = 1\.12 at t = 0\.31\)"):
        bad.at_times([0.5], [0.5])


def test_ode_step_budget(monkeypatch):
    monkeypatch.setattr(flow_module, "_MAX_STEPS", 3)
    s = Semiflow.from_generator(AnalyticFn(lambda z: -z))
    with pytest.raises(IntegrationError):
        s(5.0, 0.4)


def test_estimate_generator_dilation():
    assert estimate_generator(dilation(), 0.5) == pytest.approx(-0.5, abs=1e-6)


def test_estimate_generator_attraction():
    assert estimate_generator(attraction(), 0.3) == pytest.approx(0.7, abs=1e-6)


def test_estimate_generator_rotation():
    assert estimate_generator(rotation(2.0), 0.5) == pytest.approx(1j, abs=1e-6)


def test_verify_closed_form_flows_tight():
    for s in (dilation(), rotation(1.0), attraction()):
        report = verify_semiflow(s, tol=1e-12)
        assert report.passed, (s.name, report)
        assert report.max_law_residual < 1e-12


def test_generator_flow_matches_closed_form():
    # oracle: the closed form e^{-t} z + 1 - e^{-t}, evaluated independently
    s = generator_twin("attraction")
    ts = np.linspace(0.0, 2.0, 7)
    zs = disk_samples(25)
    got = s.at_times(ts, zs)
    expected = np.exp(-ts)[:, None] * zs[None, :] + (1.0 - np.exp(-ts))[:, None]
    assert float(np.max(np.abs(got - expected))) < 1e-8


def test_verify_reports_broken_family():
    report = verify_semiflow(broken_escape(), tol=1e-8)
    assert not report.passed
    assert report.max_selfmap_excess > 0.5


def test_verify_reports_discontinuity_at_zero():
    jump = Semiflow.closed_form(lambda t, z: z if t == 0 else 0.5 * z, name="jump")
    report = verify_semiflow(jump, tol=1e-8)
    assert not report.passed
    assert report.continuity_residual > 0.1


def test_fixed_points_dilation():
    s = dilation()
    assert fixed_points_check(s, [0.0]) == [True]
    assert fixed_points_check(s, [0.5]) == [False]


def test_fixed_points_attraction_origin_moves():
    assert fixed_points_check(attraction(), [0.0]) == [False]


def test_generator_round_trip():
    for closed, name in ((dilation(), "dilation"), (rotation(1.0), "rotation"),
                         (attraction(), "attraction")):
        fitted = AnalyticFn(lambda z, _s=closed: estimate_generator(_s, z),
                            label=f"fitted-G[{name}]")
        rebuilt = Semiflow.from_generator(fitted, name=f"fit-{name}")
        ts = [0.25, 0.5, 1.0]
        zs = disk_samples(12)
        err = float(np.max(np.abs(rebuilt.at_times(ts, zs) - closed.at_times(ts, zs))))
        assert err < 1e-6, (name, err)


def test_generator_driven_flow_satisfies_its_ode():
    # central difference of the integrated flow against G(phi_t(z))
    s = generator_twin("attraction")
    zs = disk_samples(8)
    t, h = 0.6, 1e-4
    w_plus, w_minus, w = s.at_times([t + h, t - h, t], zs)
    dphi = (w_plus - w_minus) / (2.0 * h)
    assert float(np.max(np.abs(dphi - (1.0 - w)))) < 1e-6


def test_at_times_handles_unsorted_times():
    s = generator_twin("dilation")
    ts = [0.7, 0.1, 0.4, 0.0]
    zs = np.array([0.3 + 0.2j])
    got = s.at_times(ts, zs)[:, 0]
    expected = np.exp(-np.asarray(ts)) * zs[0]
    assert np.max(np.abs(got - expected)) < 1e-9


def test_self_map_stays_inside_disk():
    for s in (dilation(), rotation(2.0), attraction()):
        vals = s.at_times(np.linspace(0, 3, 9), disk_samples(30))
        assert float(np.max(np.abs(vals))) < 1.0


def test_resolve_flow_accepts_params():
    s = resolve_flow("rotation:2.0")
    assert s(np.pi / 2.0, 0.5) == pytest.approx(0.5 * np.exp(1j * np.pi))


def test_resolve_flow_rejects_unknown():
    with pytest.raises(PreconditionError):
        resolve_flow("warp")


def test_map_fn_is_analytic_fn():
    fn = attraction().map_fn(0.5)
    zs = disk_samples(9)
    assert np.allclose(fn(zs), attraction()(0.5, zs))


@settings(max_examples=25, deadline=None)
@given(b_abs=st.floats(0.0, 0.9), b_arg=st.floats(0.0, 2.0 * np.pi),
       p_abs=st.floats(0.0, 2.0), p_arg=st.floats(-np.pi / 2.0, np.pi / 2.0),
       t=st.floats(0.05, 1.0))
def test_z_derivative_matches_berkson_porta_identity(b_abs, b_arg, p_abs, p_arg, t):
    # G(z) = (conj(b) z - 1)(z - b) p with Re p >= 0 generates a semiflow
    # (Berkson-Porta); differentiating phi_{t+s} = phi_s o phi_t in s gives
    # d/dz phi_t = G(phi_t) / G away from the zeros of G
    b = b_abs * np.exp(1j * b_arg)
    p = p_abs * np.exp(1j * p_arg)
    g = AnalyticFn(lambda z: (np.conj(b) * z - 1.0) * (z - b) * p, label="G")
    dg = AnalyticFn(lambda z: p * (2.0 * np.conj(b) * z - abs(b) ** 2 - 1.0), label="G'")
    flow = Semiflow.from_generator(g, derivative=dg)
    zs = disk_samples(40)
    keep = np.abs(g(zs)) >= 1e-2
    expected = g(flow.at_times([t], zs)[0][keep]) / g(zs[keep])
    phi, dphi = flow.jet(t, zs)
    assert np.all(np.abs(phi - flow.at_times([t], zs)[0]) <= 1e-9)
    got = dphi[keep]
    assert np.all(np.abs(got - expected) <= 1e-6 * np.abs(expected))


def test_z_derivative_needs_a_carried_derivative():
    plain = Semiflow.closed_form(lambda t, z: 0.5 * z, name="half")
    with pytest.raises(PreconditionError):
        plain.jet(0.5, 0.1)
    with pytest.raises(PreconditionError):
        dilation().jet(-0.5, 0.1)


@settings(max_examples=9, deadline=None)
@given(b_abs=st.floats(0.0, 0.9), b_arg=st.floats(0.0, 2.0 * np.pi),
       c1_abs=st.floats(0.0, 1.0), c1_arg=st.floats(0.0, 2.0 * np.pi),
       c0_excess=st.floats(0.0, 1.0), c0_im=st.floats(-1.0, 1.0), t=st.floats(0.05, 1.0))
# here the argmax of max_z |phi_t(z) - z| switches inside the continuity
# probe's last six times: extrapolating that max would read 1.2e-8
@example(b_abs=0.2237127958880846, b_arg=1.178083449758538, c1_abs=0.5670558183853956,
         c1_arg=0.24494803921062405, c0_excess=0.5903878678348518, c0_im=-0.6679776939055659,
         t=0.693980023138944)
def test_berkson_porta_flows_with_nonconstant_p(b_abs, b_arg, c1_abs, c1_arg, c0_excess,
                                                 c0_im, t):
    # G(z) = (conj(b) z - 1)(z - b)(c0 + c1 z) with Re c0 >= |c1|, so
    # Re(c0 + c1 z) >= 0 on the disk and G is a Berkson-Porta generator
    b = b_abs * np.exp(1j * b_arg)
    c1 = c1_abs * np.exp(1j * c1_arg)
    c0 = c1_abs + c0_excess + 1j * c0_im
    g = AnalyticFn(lambda z: (np.conj(b) * z - 1.0) * (z - b) * (c0 + c1 * z), label="G")
    dg = AnalyticFn(lambda z: (2.0 * np.conj(b) * z - abs(b) ** 2 - 1.0) * (c0 + c1 * z)
                    + (np.conj(b) * z - 1.0) * (z - b) * c1, label="G'")
    flow = Semiflow.from_generator(g, derivative=dg)
    assert verify_semiflow(flow, tol=1e-8).passed
    assert verify_cocycle(Cocycle.derivative(flow), flow, t_grid=np.linspace(0.0, 1.0, 5),
                          tol=1e-8).passed
    zs = disk_samples(40)
    keep = np.abs(g(zs)) >= 1e-2
    expected = g(flow.at_times([t], zs)[0][keep]) / g(zs[keep])
    got = flow.jet(t, zs)[1][keep]
    assert np.all(np.abs(got - expected) <= 1e-6 * np.abs(expected))


# the deepest circle of the Hardy quadrature ladder, |z| = 1 - 4.9e-6
DEEPEST_CIRCLE = SpaceSpec.hardy(2).rule().radii.max() * unit_circle(64)


@pytest.mark.parametrize("name", ["dilation", "attraction", "rotation", "identity"])
def test_gallery_generators_from_the_deepest_rung_circle(name):
    # explicit DP45 stages from there can land outside the disk; those steps
    # are rejected and retried, and the generator stays valid
    report = verify_semiflow(generator_twin(name), z_grid=DEEPEST_CIRCLE, tol=1e-8)
    assert report.passed, report


@settings(max_examples=10, deadline=None)
@given(b_abs=st.floats(0.0, 0.9), b_arg=st.floats(0.0, 2.0 * np.pi),
       c1_abs=st.floats(0.0, 1.0), c1_arg=st.floats(0.0, 2.0 * np.pi),
       c0_excess=st.floats(0.0, 1.0), c0_im=st.floats(-1.0, 1.0))
@example(b_abs=0.0, b_arg=0.0, c1_abs=0.0, c1_arg=0.0, c0_excess=0.0, c0_im=-1.0)  # G = iz
def test_berkson_porta_flows_from_the_deepest_rung_circle(b_abs, b_arg, c1_abs, c1_arg,
                                                          c0_excess, c0_im):
    # G(z) = (conj(b) z - 1)(z - b)(c0 + c1 z) with Re c0 >= |c1|
    b = b_abs * np.exp(1j * b_arg)
    c1 = c1_abs * np.exp(1j * c1_arg)
    c0 = c1_abs + c0_excess + 1j * c0_im
    g = AnalyticFn(lambda z: (np.conj(b) * z - 1.0) * (z - b) * (c0 + c1 * z), label="G")
    report = verify_semiflow(Semiflow.from_generator(g), z_grid=DEEPEST_CIRCLE, tol=1e-8)
    assert report.passed, report


@pytest.mark.parametrize("g", [AnalyticFn.constant(1.0), AnalyticFn.identity()],
                         ids=["G=1", "G=z"])
def test_non_berkson_porta_fields_fail_verification(g):
    report = verify_semiflow(Semiflow.from_generator(g, name="not-a-semiflow"))
    assert not report.passed
    assert report.note.startswith("evaluation failed")
