import json
import warnings
from collections import Counter

import numpy as np
import pytest

from semiflow_lab.analytic import AnalyticFn
from semiflow_lab import criteria, flow as flow_module
from semiflow_lab.cocycle import Cocycle, exp_growth_cocycle, limsup_probe, make_coboundary, \
    poisson_blowup_cocycle, resolve_cocycle, unit_cocycle, verify_cocycle
from semiflow_lab.criteria import (DEFAULT_T_GRID, SupScanConfig, bergman_criterion,
                                   criterion_sample, direct_decay_probe,
                                   default_decay_family, hardy_criterion, sufficiency_probe,
                                   uniform_bound_verdict)
from semiflow_lab.errors import PreconditionError, RegularityError
from semiflow_lab.flow import (attraction, dilation, identity_flow, resolve_flow, rotation,
                               verify_semiflow)
from semiflow_lab.operators import gallery_semigroups
from semiflow_lab.spaces import (DiskRule, GradedDiskRule, RadialWeight,
                                 SpaceSpec, carleson_measure, kernel_sums)

import oracles

H2 = SpaceSpec.hardy(2)
W0 = RadialWeight.standard(0.0)
A0 = SpaceSpec.bergman(2, W0)

FAST_SCAN = SupScanConfig(ladder_depth=7, n_angles=8, refine_rounds=1)


def cob_z(flow):
    return make_coboundary(AnalyticFn.identity(), flow, zero_candidates=(0.0,))


def deep_scan(a_abs):
    """A scan that evaluates the single anchor a = a_abs."""
    return SupScanConfig(small_radii=(a_abs,), ladder_depth=0, n_angles=1, refine_rounds=0)


def tensor_criterion(flow, cocycle, weight, t, a, gamma, n_rad, n_ang, p=2):
    """The Bergman criterion integral at ``a`` on a tensor DiskRule, a block of rings at a time."""
    rule = DiskRule.weighted(weight, n_rad, n_ang)
    total = 0.0
    for rows in np.array_split(np.arange(n_rad), max(1, n_rad * n_ang // 2_000_000)):
        z = (rule.radii[rows, None] * rule.circle[None, :]).ravel()
        phi = flow.at_times([t], z, check=False)[0]
        vals = np.abs(cocycle.eval(t, z)) ** p / np.abs(1.0 - np.conj(a) * phi) ** (gamma + 1.0)
        total += np.sum(rule.radial_w[rows] * vals.reshape(rows.size, n_ang).mean(axis=1))
    return (1.0 - abs(a)) ** (gamma + 1.0) / carleson_measure(weight, abs(a)) * rule.scale * total


def test_poisson_normalization_at_zero():
    sample = hardy_criterion(dilation(), unit_cocycle(), 2, 0.0)
    assert sample.value == pytest.approx(1.0, abs=1e-6)


def test_rotation_unimodular_criterion_is_one_for_positive_time():
    sample = hardy_criterion(rotation(1.0), cob_z(rotation(1.0)), 2, 0.6, FAST_SCAN)
    assert sample.value == pytest.approx(1.0, abs=1e-6)


def test_hardy_criterion_requires_p_above_one():
    with pytest.raises(PreconditionError):
        hardy_criterion(dilation(), unit_cocycle(), 1.0, 0.1)


def test_criteria_reject_a_nan_exponent():
    with pytest.raises(PreconditionError, match="p > 1"):
        hardy_criterion(dilation(), unit_cocycle(), np.nan, 0.1)
    with pytest.raises(PreconditionError, match="p > 1"):
        bergman_criterion(dilation(), unit_cocycle(), np.nan, W0, 0.1)


@pytest.mark.parametrize("t", [-0.5, np.nan, np.inf])
def test_criteria_reject_a_time_that_is_not_finite_and_nonnegative(t):
    flow = dilation()
    with pytest.raises(PreconditionError, match="t >= 0"):
        hardy_criterion(flow, cob_z(flow), 2, t, FAST_SCAN)
    with pytest.raises(PreconditionError, match="t >= 0"):
        bergman_criterion(flow, cob_z(flow), 2, W0, t, scan=FAST_SCAN)


def test_dilation_criterion_matches_norm_square():
    # Independent route: the squared finite-section norm of the same operator
    from semiflow_lab.operators import matrix, norm2, semigroup_op
    flow = dilation()
    m = cob_z(flow)
    t = 0.5
    crit = hardy_criterion(flow, m, 2, t).value
    sect = norm2(matrix(semigroup_op(flow, m, t), H2, 64)).value
    assert 1.0 / 50.0 < crit / sect ** 2 < 50.0


def test_bergman_criterion_zero_time_matches_normalization_sweep():
    # At t = 0 the criterion is the sup over anchors of the test-function
    # norms to the p; sweep the same anchor set with its own quadrature
    from semiflow_lab.spaces import test_function as anchor
    sample = bergman_criterion(dilation(), unit_cocycle(), 2, RadialWeight.standard(0.0),
                               0.0, scan=FAST_SCAN)
    anchors = list(FAST_SCAN.small_radii) + [1.0 - 2.0 ** -k for k in range(1, 8)]
    norms = []
    for a in anchors:
        rule = A0.rule(int(max(512, 64 / (1 - a))), int(max(64, 8 / np.sqrt(1 - a))))
        f = anchor(a, 2, weight=RadialWeight.standard(0.0))
        norms.append(rule.integrate(np.abs(f(rule.nodes())) ** 2))
    assert sample.value == pytest.approx(max(norms), rel=0.05)


@pytest.mark.parametrize("t", [0.0, 0.01, 0.1, 0.5, 0.99])
def test_hardy_criterion_deep_anchors_match_closed_form(t):
    # m_t = e^-t and phi_t = e^-t z: the integral is
    # q (1 - |a|^2) / (1 - q |a|^2) with q = e^-2t
    flow = dilation()
    m = cob_z(flow)
    q = np.exp(-2.0 * t)
    for k in range(1, 11):
        a = 1.0 - 2.0 ** -k
        value = hardy_criterion(flow, m, 2, t, deep_scan(a)).value
        assert value == pytest.approx(q * (1.0 - a * a) / (1.0 - q * a * a), rel=1e-10), k


def test_hardy_criterion_at_the_refinement_clip():
    # at |a| = 1 - 2^-11 the 32,768-point angular cap binds (about 2e-7 off),
    # and the sample says so: the half-grid sum there is 6.7e-4 off
    a = 1.0 - 2.0 ** -11
    sample = hardy_criterion(dilation(), cob_z(dilation()), 2, 0.0, deep_scan(a))
    assert abs(sample.value - 1.0) <= 1e-6
    assert sample.angular_indicator > 1e-8


@pytest.mark.parametrize("pair", ["dilation/coboundary:z", "rotation:1/coboundary:z",
                                  "attraction/derivative", "dilation/exp-growth"])
def test_bounded_hardy_pairs_report_small_angular_indicators(pair):
    # the law's counts resolve every level this scan reaches; the largest
    # indicator, 2.2e-7, is t = 0's Poisson mean on 32 / (1 - |a|) points
    flow = resolve_flow(pair.split("/")[0])
    report = uniform_bound_verdict(flow, resolve_cocycle(pair.split("/")[1], flow), H2,
                                   scan=FAST_SCAN)
    assert report.verdict == "BOUNDED"
    assert len(report.angular_indicator) == len(report.t_values)
    assert 0.0 < max(report.angular_indicator) <= 1e-6


@pytest.mark.parametrize("k", range(1, 8))
def test_nested_hardy_sums_match_the_closed_form_at_zero(k):
    # generations 0..k of the Hardy family are the n = 256 2^k point grid on
    # every circle and generations 0..k-1 its half grid; at t = 0 both sums
    # have a closed form (tests/oracles.py) at an anchor off every node
    a = (1.0 - 2.0 ** -10) * np.exp(0.3j)
    boundary = DiskRule.boundary()
    rule = GradedDiskRule(boundary.radii, boundary.radial_w, np.full(12, 7), 512)
    w, masses = (np.concatenate(parts) for parts in
                 zip(*(rule.generation(h) for h in range(len(rule.offsets) - 1))))
    sums = kernel_sums(abs(a), [np.angle(a)], w, masses, 1.0, rule.cuts)[0]
    head = 1.0 - abs(a) ** 2
    for g, n in ((k, 256 << k), (k - 1, 128 << k)):
        nested = head * np.sum(sums[:rule.first_cut[g + 1]]) * 0.5 ** g
        assert nested == pytest.approx(oracles.hardy_level_at_zero(a, n), rel=1e-12), n


def record_kernel_batches(monkeypatch):
    """Patch the scan driver and the criteria's kernel sum to record, per
    batch of anchors, the anchors and the kernel node-evaluations (anchors
    x nodes, summed over the batch's kernel calls)."""
    batches = []
    kernel_sums, scan_anchors = criteria.kernel_sums, criteria._scan_anchors

    def recorded(r, angles, w, masses, q, cuts):
        batches[-1][1] += len(angles) * w.size
        return kernel_sums(r, angles, w, masses, q, cuts)

    def scanned(integrals, scan):
        def batch(r, angles):
            batches.append([r * np.exp(1j * np.asarray(angles)), 0])
            return integrals(r, angles)
        return scan_anchors(batch, scan)

    monkeypatch.setattr(criteria, "kernel_sums", recorded)
    monkeypatch.setattr(criteria, "_scan_anchors", scanned)
    return batches


def test_every_anchor_of_a_rung_gets_the_rung_circle_count(monkeypatch):
    # rotation:1/coboundary:z needs the full count at every t > 0, so every
    # rung's batch refines to its law count: 12 circles of n_theta points
    batches = record_kernel_batches(monkeypatch)
    scan = SupScanConfig(refine_rounds=0)
    hardy_criterion(rotation(1.0), cob_z(rotation(1.0)), 2, 0.5, scan)
    seen = 0
    scale, base, cap = criteria._HARDY_ANGLES
    for k in range(1, scan.ladder_depth + 1):
        r = 1.0 - 2.0 ** -k
        n_theta = min(cap, max(base, int(scale) << k))
        for anchors, work in batches:
            on_rung = np.abs(np.abs(anchors) - r) < 1e-12
            if np.any(on_rung):
                assert np.all(on_rung) and work == anchors.size * 12 * n_theta, (k, work)
                seen += anchors.size
    assert seen == scan.ladder_depth * scan.n_angles


CLOSED_FORM_PAIRS = ("dilation/coboundary:z", "rotation:1/coboundary:z", "attraction/derivative",
                     "dilation/exp-growth", "identity/poisson-blowup")


def resolve_pair(pair):
    flow = resolve_flow(pair.split("/")[0])
    return flow, resolve_cocycle(pair.split("/")[1], flow)


@pytest.mark.parametrize("space", [H2, A0], ids=["hardy", "bergman"])
@pytest.mark.parametrize("pair", CLOSED_FORM_PAIRS)
def test_half_grid_stop_matches_the_forced_cap(pair, space, monkeypatch):
    # a batch that stops early on the indicator reads its law-count value
    flow, m = resolve_pair(pair)
    scan = SupScanConfig(ladder_depth=6)
    samples = [criterion_sample(flow, m, space, t, scan) for t in (0.0, 0.5, 0.99)]
    monkeypatch.setattr(criteria, "_HALF_GRID_TOL", 0.0)
    for t, sample in zip((0.0, 0.5, 0.99), samples):
        capped = criterion_sample(flow, m, space, t, scan)
        assert sample.value == pytest.approx(capped.value, rel=1e-12, abs=0.0), t
        np.testing.assert_allclose(sample.rung_profile, capped.rung_profile, rtol=1e-12, atol=0)


def test_kernel_work_falls_where_the_pullback_leaves_the_boundary(monkeypatch):
    # kernel node-evaluations (anchors x nodes over all batches) of a
    # default A^2_0 scan at t = 0.5, against every batch forced to its cap
    batches = record_kernel_batches(monkeypatch)

    def work(pair):
        batches.clear()
        criterion_sample(*resolve_pair(pair), A0, 0.5)
        return sum(work for _, work in batches)

    dilation_work, rotation_work = work("dilation/coboundary:z"), work("rotation:1/coboundary:z")
    monkeypatch.setattr(criteria, "_HALF_GRID_TOL", 0.0)
    assert dilation_work <= 0.45 * work("dilation/coboundary:z")
    assert rotation_work == work("rotation:1/coboundary:z")


def record_generations(monkeypatch):
    """Patch the nested rules to record each generation build as (rule, h)."""
    built = []
    generation = GradedDiskRule.generation

    def recorded(rule, h):
        built.append((rule, h))
        return generation(rule, h)

    monkeypatch.setattr(GradedDiskRule, "generation", recorded)
    return built


def test_default_hardy_scan_builds_seven_circle_levels(monkeypatch):
    # one family on the 12 boundary circles: generations 0..7 take 256, 256,
    # 512, ..., 16384 points per circle, and their prefixes 0..G for G >= 1
    # are the seven circle counts 512 ... 32768 of the level law, each
    # generation built once; rotation needs every one of them
    built = record_generations(monkeypatch)
    hardy_criterion(rotation(1.0), cob_z(rotation(1.0)), 2, 0.5)
    rules = {id(rule) for rule, _ in built}
    assert len(rules) == 1 and sorted(h for _, h in built) == list(range(8))
    rule = built[0][0]
    assert list(np.diff(rule.offsets) // 12) == [256, 256] + [256 << h for h in range(1, 7)]
    assert [rule.offsets[g + 1] // 12 for g in range(1, 8)] == [512 << i for i in range(7)]
    # a dilation pulls the measure inside the disk: fewer generations suffice
    built.clear()
    hardy_criterion(dilation(), cob_z(dilation()), 2, 0.5)
    assert sorted(h for _, h in built) == list(range(len(built))) and len(built) < 8


def test_default_bergman_scan_samples_each_grid_once(monkeypatch):
    # one family per radial grid: dyadic levels 1-6 all take 64 rings, so the
    # ladder's 10 levels read 5 families; each generation of a family is
    # built once, and no node array goes through the cocycle twice
    built = record_generations(monkeypatch)
    flowed = []
    sample = Cocycle.sample

    def recorded(self, flow, t, z):
        flowed.append(np.asarray(z).tobytes())
        return sample(self, flow, t, z)

    monkeypatch.setattr(Cocycle, "sample", recorded)
    for flow in (dilation(), rotation(1.0)):
        built.clear()
        flowed.clear()
        bergman_criterion(flow, cob_z(flow), 2, W0, 0.5, scan=SupScanConfig(refine_rounds=0))
        rules = {id(rule): rule for rule, _ in built}.values()
        assert sorted(rule.radii.size for rule in rules) == [64, 67, 96, 135, 192]
        assert len(set((id(rule), h) for rule, h in built)) == len(built)
        assert len(set(flowed)) == len(flowed)
        assert sum(map(len, flowed)) // 16 == sum(rule.offsets[h + 1] - rule.offsets[h]
                                                  for rule, h in built)


TWO_ONE_MINUS_R2 = RadialWeight.custom(lambda r: 2.0 * (1.0 - r ** 2), label="2(1-r^2)")


@pytest.mark.parametrize("weight", [W0, RadialWeight.standard(0.5), TWO_ONE_MINUS_R2],
                         ids=["alpha0", "alpha0.5", "custom"])
def test_bergman_levels_read_prefixes_of_one_family(weight, monkeypatch):
    # level k sums generations 0..G_k of the family on its ring count, and
    # they hold exactly the grid of level k on its own, ring counts floored
    # at 2^-k (tests/oracles.py), ring by ring and point by point
    summed = []
    kernel_sums = criteria.kernel_sums

    def recorded(r, angles, w, masses, q, cuts):
        summed.append(w.size)
        return kernel_sums(r, angles, w, masses, q, cuts)

    monkeypatch.setattr(criteria, "kernel_sums", recorded)
    monkeypatch.setattr(criteria, "_HALF_GRID_TOL", -1.0)    # no batch stops short of G_k
    for k in range(1, 12):
        summed.clear()
        levels = {}
        bergman_criterion(identity_flow(), unit_cocycle(), 2, weight, 0.0,
                          scan=deep_scan(1.0 - 2.0 ** -k), levels=levels)
        assert len(levels) == 1, k
        rule = next(iter(levels.values()))[0]
        radii, counts = oracles.floored_disk_level(
            k, lambda n: DiskRule.weighted(weight, n, 1).radii)
        assert np.array_equal(rule.radii, radii), k
        last = rule.offsets.index(sum(summed)) - 1              # generations 0..G_k summed
        assert rule.offsets[last + 1] == counts.sum(), k
        rings = [[] for _ in radii]
        for h in range(last + 1):
            z, _ = rule.generation(h)
            members = np.flatnonzero(rule.depth >= h)
            for i, part in zip(members, np.split(z, members.size)):
                rings[i].append(part)
        for r, n, parts in zip(radii, counts, rings):
            assert np.array_equal(np.sort_complex(np.concatenate(parts)),
                                  np.sort_complex(r * np.exp(2j * np.pi * np.arange(n) / n))), k


@pytest.mark.parametrize("space", [H2, A0], ids=["hardy", "bergman"])
def test_default_scan_integral_count(space, monkeypatch):
    # 13 rungs x 16 angles, then 3 refinement rounds around the running best
    # anchor, which is not evaluated again; the sup sits on the 0.05 floor,
    # so the inner radius clips onto the center row and is skipped: 2 + 3
    # anchors per round
    batches = record_kernel_batches(monkeypatch)
    criterion_sample(dilation(), cob_z(dilation()), space, 0.5)
    assert sum(anchors.size for anchors, _ in batches) == 13 * 16 + 3 * 5


def test_bergman_criterion_deep_anchor_matches_doubled_uncapped_tensor_grid():
    # |a| = 1 - 2^-11 is where refinement stops; twice the counts the old
    # tensor grid asked for there, with no cap, is 542 x 65536 nodes
    a = 1.0 - 2.0 ** -11
    flow = rotation(1.0)
    m = cob_z(flow)
    value = bergman_criterion(flow, m, 2, W0, 0.5, scan=deep_scan(a)).value
    reference = tensor_criterion(flow, m, W0, 0.5, a, 5.0,
                                 2 * int(6.0 / np.sqrt(1.0 - a)), 2 * int(16.0 / (1.0 - a)))
    assert value == pytest.approx(reference, rel=1e-8)
    # |m_t| = 1 and phi_t is a rotation, so the integral is the closed-form
    # ||(1 - |a| z)^-3||^2 = (2 + |a|^2) / (2 (1 - |a|^2)^4) of A^2_0
    x = a * a
    closed = (1.0 - a) ** 6 / carleson_measure(W0, a) * (2.0 + x) / (2.0 * (1.0 - x) ** 4)
    assert value == pytest.approx(closed, rel=1e-8)


def test_bergman_criterion_custom_weight_matches_tensor_grid():
    # omega = 2(1 - r^2) as a table-free custom weight takes the Legendre
    # radial rule; at |a| = 1 - 2^-9 the graded grid uses 135 rings
    weight = RadialWeight.custom(lambda r: 2.0 * (1.0 - r ** 2), label="2(1-r^2)")
    a = 1.0 - 2.0 ** -9
    flow = attraction()
    m = Cocycle.derivative(flow)
    value = bergman_criterion(flow, m, 2, weight, 0.5, scan=deep_scan(a)).value
    reference = tensor_criterion(flow, m, weight, 0.5, a, 7.0, 135, 2 * 16 * 512)
    assert value == pytest.approx(reference, rel=1e-8)
    # the same weight as the standard alpha = 1 weight, through the Jacobi rule
    standard = bergman_criterion(flow, m, 2, RadialWeight.standard(1.0), 0.5, scan=FAST_SCAN)
    custom = bergman_criterion(flow, m, 2, weight, 0.5, scan=FAST_SCAN)
    assert custom.value == pytest.approx(standard.value, rel=1e-10)


@pytest.mark.parametrize("flow_spec,cocycle_spec", [("generator-dilation", "coboundary:z"),
                                                    ("generator-attraction", "derivative")])
def test_each_grid_integrates_the_flow_once(flow_spec, cocycle_spec, monkeypatch):
    flow = resolve_flow(flow_spec)
    m = resolve_cocycle(cocycle_spec, flow)
    integrations = Counter()
    points = []
    integrate = flow_module._integrate_to_stops

    def counted(g, z0, stops, *rest):
        integrations[tuple(stops), z0[0].tobytes()] += 1
        points.append(z0.shape[-1])
        return integrate(g, z0, stops, *rest)

    monkeypatch.setattr(flow_module, "_integrate_to_stops", counted)
    built = record_generations(monkeypatch)
    scan = SupScanConfig(ladder_depth=3, n_angles=4, refine_rounds=1)
    hardy_criterion(flow, m, 2, 0.5, scan)
    assert set(integrations.values()) == {1}                # once per Hardy generation
    for scan in (scan, deep_scan(1.0 - 2.0 ** -10)):
        integrations.clear()
        points.clear()
        built.clear()
        bergman_criterion(flow, m, 2, W0, 0.5, scan=scan)
        # once per Bergman generation; levels 1-3 share one family, and a
        # run of generations of more than _ADVANCE_SLICE nodes (generations
        # 0 and 1 of the 192-ring family of level 10 have 49,152) advances
        # in slices, each integrated once
        assert set(integrations.values()) == {1}
        assert sum(points) == sum(rule.offsets[h + 1] - rule.offsets[h] for rule, h in built) > 0
    assert max(points) == criteria._ADVANCE_SLICE
    for space in (H2, A0):
        integrations.clear()
        direct_decay_probe(flow, m, space, t_seq=[0.5, 0.25])
        assert set(integrations.values()) == {1}            # once per decay grid


# unsorted, with a duplicate; the report keeps this order
MARCH_T_GRID = (0.6, 0.0, 0.95, 0.3, 0.99, 0.3, 0.1, 0.9)
MARCH_SCAN = SupScanConfig(ladder_depth=4, n_angles=4, refine_rounds=1)


@pytest.mark.parametrize("space", [H2, A0], ids=["hardy", "bergman"])
@pytest.mark.parametrize("flow_spec,cocycle_spec", [("generator-dilation", "coboundary:z"),
                                                    ("generator-attraction", "derivative")])
def test_marched_verdict_matches_per_t_samples(flow_spec, cocycle_spec, space):
    flow = resolve_flow(flow_spec)
    m = resolve_cocycle(cocycle_spec, flow)
    report = uniform_bound_verdict(flow, m, space, t_grid=MARCH_T_GRID, scan=MARCH_SCAN)
    assert report.t_values == list(MARCH_T_GRID)
    for t, value in zip(MARCH_T_GRID, report.criterion):
        fresh = criterion_sample(flow, m, space, t, MARCH_SCAN).value
        assert value == pytest.approx(fresh, rel=1e-9, abs=0.0), t
    assert report.criterion[3] == report.criterion[5]


def test_closed_form_verdict_is_bitwise_per_t():
    flow = attraction()
    m = Cocycle.derivative(flow)
    report = uniform_bound_verdict(flow, m, H2, t_grid=MARCH_T_GRID, scan=MARCH_SCAN)
    for t, value, witness in zip(MARCH_T_GRID, report.criterion, report.witness_a):
        fresh = criterion_sample(flow, m, H2, t, MARCH_SCAN)
        assert (value, witness) == (fresh.value, [fresh.witness.real, fresh.witness.imag])


def test_hardy_verdict_integrates_each_rung_to_max_t_once(monkeypatch):
    # in point-time: the DP45 calls integrate points x [0, stops[-1]], and a
    # generation that integrates [0, t] once, t the last time a batch sums
    # it, adds nodes x t; per-t builds would add nodes x (every t it
    # serves), and a generation flowed twice would add its nodes twice.
    # Generations 2-4 (rung 6 and the refinement's level 7) serve t = 0
    # only, so they are never flowed.
    flow = resolve_flow("generator-dilation")
    m = cob_z(flow)
    scan = SupScanConfig(ladder_depth=6, n_angles=4, refine_rounds=1)
    point_time, now = 0.0, 0.0
    served = {}                                   # generation -> (nodes, last t)
    integrate = flow_module._integrate_to_stops
    sample, kernel_sums = criteria.criterion_sample, criteria.kernel_sums
    built = record_generations(monkeypatch)

    def counted(g, z0, stops, *rest):
        nonlocal point_time
        point_time += z0.shape[-1] * stops[-1]
        return integrate(g, z0, stops, *rest)

    def timed(flow, cocycle, space, t, *rest):
        nonlocal now
        now = t
        return sample(flow, cocycle, space, t, *rest)

    def recorded(r, angles, w, masses, q, cuts):
        # w is a view of the family's storage: its offset names the generations
        rule = built[0][0]
        start = (w.__array_interface__["data"][0]
                 - w.base.__array_interface__["data"][0]) // w.itemsize
        for h in range(len(rule.offsets) - 1):
            if start <= rule.offsets[h] < start + w.size:
                served[h] = (rule.offsets[h + 1] - rule.offsets[h], now)
        return kernel_sums(r, angles, w, masses, q, cuts)

    monkeypatch.setattr(flow_module, "_integrate_to_stops", counted)
    monkeypatch.setattr(criteria, "criterion_sample", timed)
    monkeypatch.setattr(criteria, "kernel_sums", recorded)
    uniform_bound_verdict(flow, m, H2, t_grid=MARCH_T_GRID, scan=scan)
    assert len({id(rule) for rule, _ in built}) == 1
    assert sorted(served) == list(range(5))
    assert [t for _, t in served.values()] == [0.99, 0.99, 0.0, 0.0, 0.0]
    assert point_time == pytest.approx(sum(n * t for n, t in served.values()), rel=1e-12)


def test_generator_rotation_probe_is_bounded():
    # explicit stage points of the deepest ladder circle overshoot the disk;
    # they are rejected steps, and the exact criterion is identically one
    flow = resolve_flow("generator-rotation:1")
    scan = SupScanConfig(ladder_depth=2, n_angles=4, refine_rounds=0)
    report = uniform_bound_verdict(flow, unit_cocycle(), H2,
                                   t_grid=(0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99), scan=scan)
    assert report.verdict == "BOUNDED"
    assert max(abs(v - 1.0) for v in report.criterion) <= 1e-8


@pytest.mark.parametrize("field,value", [("ladder_depth", -3), ("refine_rounds", -1),
                                         ("n_angles", 0), ("ladder_depth", 11),
                                         ("small_radii", ()), ("small_radii", (np.nan,)),
                                         ("small_radii", (0.1, 1.5)), ("small_radii", (0.0,)),
                                         ("small_radii", (-0.2,)), ("n_angles", 2.5),
                                         ("ladder_depth", 2.5), ("refine_rounds", 1.5),
                                         ("n_angles", True), ("ladder_depth", np.float64(3.0))])
def test_scan_config_rejects_out_of_range_values(field, value):
    with pytest.raises(PreconditionError, match=field):
        SupScanConfig(**{field: value})


def test_scan_config_takes_numpy_integers():
    scan = SupScanConfig(ladder_depth=np.int64(3), n_angles=np.int32(4), refine_rounds=np.uint8(1))
    assert [type(v) for v in (scan.ladder_depth, scan.n_angles, scan.refine_rounds)] == [int] * 3
    assert json.loads(json.dumps(scan.to_dict()))["n_angles"] == 4


def test_bergman_criterion_insists_on_regular_weight():
    bad = RadialWeight.custom(lambda r: np.exp(-1.0 / np.maximum(1e-300, 1.0 - r)),
                              label="flat")
    with pytest.raises(RegularityError):
        bergman_criterion(identity_flow(), unit_cocycle(), 2, bad, 0.1, scan=FAST_SCAN)


def test_trivial_semigroup_criterion_time_independent():
    vals = [bergman_criterion(identity_flow(), unit_cocycle(), 2,
                              RadialWeight.standard(0.0), t, scan=FAST_SCAN).value
            for t in (0.0, 0.4, 0.8)]
    assert np.max(vals) - np.min(vals) < 1e-9 * max(vals)


def test_verdict_bounded_for_contracting_pair():
    report = uniform_bound_verdict(dilation(), cob_z(dilation()), H2, scan=FAST_SCAN)
    assert report.verdict == "BOUNDED"
    assert report.sup == pytest.approx(1.0, abs=1e-4)
    assert [round(t, 3) for t in report.t_values] == [round(t, 3) for t in DEFAULT_T_GRID]


def test_verdict_trend_reads_the_samples_in_ascending_t():
    flow = dilation()
    m = cob_z(flow)
    trend = uniform_bound_verdict(flow, m, H2, scan=FAST_SCAN).trend
    for grid in (DEFAULT_T_GRID[::-1], np.random.default_rng(0).permutation(DEFAULT_T_GRID)):
        assert uniform_bound_verdict(flow, m, H2, t_grid=grid, scan=FAST_SCAN).trend == trend
    # a repeated t is read once: the last three distinct t are 0.4, 0.5, 0.99
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = uniform_bound_verdict(flow, m, H2, scan=FAST_SCAN,
                                       t_grid=(0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.99, 0.5))
    v = dict(zip(report.t_values, report.criterion))
    assert report.trend["t_slope"] == pytest.approx(np.log(v[0.99] / v[0.4]) / 0.59, rel=1e-12)


def test_verdict_unbounded_for_blowup_cocycle():
    report = uniform_bound_verdict(identity_flow(), poisson_blowup_cocycle(), H2,
                                   scan=FAST_SCAN)
    assert report.verdict == "UNBOUNDED-TREND"
    assert not np.isfinite(report.sup)


def test_verdict_grid_preconditions():
    with pytest.raises(PreconditionError):
        uniform_bound_verdict(dilation(), cob_z(dilation()), H2, t_grid=[0.0])
    with pytest.raises(PreconditionError):
        uniform_bound_verdict(dilation(), cob_z(dilation()), H2,
                              t_grid=np.linspace(0.0, 1.0, 9))
    with pytest.raises(PreconditionError):
        uniform_bound_verdict(dilation(), cob_z(dilation()), H2,
                              t_grid=np.linspace(0.0, 0.5, 10))
    for bad in (np.nan, np.inf):
        with pytest.raises(PreconditionError, match="finite"):
            uniform_bound_verdict(dilation(), cob_z(dilation()), H2,
                                  t_grid=[0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, bad, 0.99])


def test_report_schema_and_witnesses():
    report = uniform_bound_verdict(dilation(), cob_z(dilation()), H2, scan=FAST_SCAN)
    payload = report.to_json_dict()
    assert set(payload) == {"space", "flow", "cocycle", "p", "t_values", "criterion",
                            "witness_a", "angular_indicator", "sup", "trend", "verdict",
                            "config"}
    assert len(payload["witness_a"]) == len(payload["angular_indicator"]) \
        == len(payload["t_values"])
    rows = report.csv_rows()
    assert rows[0] == ("t", "criterion", "witness_re", "witness_im")
    assert len(rows) == len(payload["t_values"]) + 1


def test_sufficiency_probe_contractive():
    assert sufficiency_probe(cob_z(dilation())).regime == "contractive"


def test_sufficiency_probe_finite():
    probe = sufficiency_probe(exp_growth_cocycle())
    assert probe.regime == "finite"
    assert probe.tail_value > 1.0


def test_sufficiency_probe_none_for_blowup():
    assert sufficiency_probe(poisson_blowup_cocycle()).regime == "none"


def test_decay_trivial_semigroup_is_identically_zero():
    table = direct_decay_probe(identity_flow(), unit_cocycle(), H2)
    assert float(np.max(table.entries)) == 0.0
    assert table.decayed


def test_decay_dilation_hardy1_matches_explicit_oracle():
    # S_t(1+z) - (1+z) = (e^-t - 1) + (e^-2t - 1) z; compare against a plain
    # high-resolution circle mean of that explicit function
    flow = dilation()
    m = cob_z(flow)
    fam = [AnalyticFn.from_coefficients([1.0, 1.0], label="1+z")]
    table = direct_decay_probe(flow, m, SpaceSpec.hardy(1), f_family=fam)
    for j, t in enumerate(table.t_values):
        explicit = lambda z, _t=t: (np.exp(-_t) - 1.0) + (np.exp(-2.0 * _t) - 1.0) * z
        expected = oracles.hardy_p_mean_at(explicit, 1.0 - 1e-9, 1.0)
        assert table.entries[0, j] == pytest.approx(expected, rel=1e-5)
    assert np.all(np.diff(table.entries[0]) < 0)


@pytest.mark.parametrize("name", ["dilation", "rotation:1"])
def test_hardy_decay_table_matches_the_circle_by_circle_oracle(name):
    flow = resolve_flow(name)
    m = cob_z(flow)
    table = direct_decay_probe(flow, m, H2)
    for j, t in enumerate(table.t_values):
        for k, f in enumerate(default_decay_family()):
            def circle_mean(z, _t=t, _f=f):
                phi, mul = m.sample(flow, _t, z)
                return np.mean(np.abs(mul * _f(phi) - _f(z)) ** 2)
            expected = np.sqrt(oracles.circle_ladder_limit(circle_mean)[0].real)
            assert abs(table.entries[k, j] - expected) <= 1e-12 * expected, (t, f.label)


@pytest.mark.parametrize("tol", [float("nan"), 0.0, -1e-3, float("inf")])
@pytest.mark.parametrize("probe", ["verify_semiflow", "verify_cocycle", "limsup_probe",
                                   "direct_decay_probe"])
def test_tolerance_must_be_finite_and_positive(probe, tol):
    flow = dilation()
    m = cob_z(flow)
    calls = {"verify_semiflow": lambda: verify_semiflow(flow, tol=tol),
             "verify_cocycle": lambda: verify_cocycle(m, flow, tol=tol),
             "limsup_probe": lambda: limsup_probe(m, tol=tol),
             "direct_decay_probe": lambda: direct_decay_probe(flow, m, H2, tol=tol)}
    with pytest.raises(PreconditionError, match="tolerance must be a finite number > 0"):
        calls[probe]()


def test_decay_attraction_derivative_bergman():
    table = direct_decay_probe(attraction(), Cocycle.derivative(attraction()), A0)
    assert table.decayed
    assert float(np.max(table.entries[:, -1])) < 1e-3


def test_decay_blowup_never_settles():
    table = direct_decay_probe(identity_flow(), poisson_blowup_cocycle(), H2)
    assert not table.decayed
    assert not np.all(np.isfinite(table.entries[:, -1]))


def test_decay_family_has_ten_members():
    assert len(default_decay_family()) == 10


@pytest.mark.parametrize("t_seq", [[], [0.5, np.nan], [np.inf, 0.5], [0.5, 0.0], [0.5, -0.25]],
                         ids=["empty", "nan", "inf", "zero", "negative"])
def test_decay_probe_rejects_bad_times(t_seq):
    with pytest.raises(PreconditionError, match="decay probe times"):
        direct_decay_probe(dilation(), cob_z(dilation()), H2, t_seq=t_seq)


def test_refinement_stability_one_extra_round():
    flow = attraction()
    m = Cocycle.derivative(flow)
    base = hardy_criterion(flow, m, 2, 0.5,
                           SupScanConfig(refine_rounds=3)).value
    more = hardy_criterion(flow, m, 2, 0.5,
                           SupScanConfig(refine_rounds=4)).value
    assert abs(more - base) < 0.01 * base


def test_verdict_consistency_gallery():
    for sg in gallery_semigroups():
        probe = sufficiency_probe(sg.cocycle)
        assert probe.regime in ("contractive", "finite")
        report = uniform_bound_verdict(sg.flow, sg.cocycle, H2, scan=FAST_SCAN)
        assert report.verdict == "BOUNDED", sg.name
        table = direct_decay_probe(sg.flow, sg.cocycle, H2)
        assert table.decayed, sg.name
