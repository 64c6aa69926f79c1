"""Strong-continuity criteria for weighted composition semigroups.

Both criteria test one pullback measure per t: the push-forward under
phi_t of |m_t|^p on boundary-approaching circles (Hardy) or of |m_t|^p
omega dA (Bergman).  A quadrature level of the measure is a set of points
w_j = phi_t(z_j) with real masses W_j, and the criterion is the sup over
anchors a in the disk of one kernel sum against it (Poisson-type for
Hardy, the boundary test functions for Bergman; see
:func:`spaces.kernel_sums`).  Uniform boundedness of the criterion over t
in [0, 1) is the numerical surrogate for strong continuity, reported as a
three-valued verdict with trend diagnostics, because a "< infinity"
statement is not decidable from finitely many samples.

For p = 1 only the sufficiency probe (small-time multiplier bounds) and the
direct decay probe are offered.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, asdict

import numpy as np

from .analytic import AnalyticFn, neville_extrapolate  # noqa: F401 (perfbench patches it here)
from .cocycle import Cocycle, limsup_probe
from .errors import PreconditionError, RegularityError, require_tolerance
from .flow import Semiflow
from .spaces import (DiskRule, GradedDiskRule, RadialWeight, SpaceSpec, carleson_measure,
                     default_gamma, is_regular, kernel_sums)


# Quadrature resolution per dyadic level k = ceil(-log2(1 - |a|)) as
# (scale, base, cap): level k reads the generations of its family that hold
# clip(scale 2^k, base, cap) points per ring, so the kernel's spike stays
# resolved.  A Bergman family has clip(int(6 2^(k/2)), 64, 272) rings and
# clip(ceil(32 / (1 - r)), 256, 65536) angles on ring r, rounded up to a
# power of two.  A batch stops short at a half-grid indicator <=
# _HALF_GRID_TOL: the trapezoid error of a periodic analytic integrand falls
# geometrically, so the finer sum is then off by about its square.
_HARDY_ANGLES = (32.0, 512, 32768)
_DISK_ANGLES = (32.0, 256, 65536)
_DISK_RINGS = (6.0, 64, 272)
_HALF_GRID_TOL = 1e-10

# Deepest rung of the anchor ladder: rung k takes 32 2^k points per Hardy
# circle, which meets the cap at k = 10.  A deeper rung reads a capped,
# under-resolved kernel: on rotation:1/coboundary:z, whose exact criterion
# is 1, rung 12 reads 0.9994 and rung 20 reads 0.017.
_MAX_LADDER_DEPTH = int(math.log2(_HARDY_ANGLES[2] / _HARDY_ANGLES[0]))

# Nodes per flow and cocycle evaluation when generations advance.
_ADVANCE_SLICE = 32768


@dataclass(frozen=True)
class SupScanConfig:
    """Discretization of sup over a in the disk, plus verdict thresholds.

    The anchor grid is a geometric radius ladder toward the boundary times
    a uniform fan of angles, followed by local refinement around the
    running argmax.  Anchors are grouped by dyadic level, and each level's
    quadrature grid follows from the level (``_HARDY_ANGLES``,
    ``_DISK_ANGLES``, ``_DISK_RINGS``) and the half-grid indicator.
    """

    small_radii: tuple = (0.05, 0.1, 0.25)
    ladder_depth: int = 10
    n_angles: int = 16
    refine_rounds: int = 3
    refine_contraction: float = 0.5
    bound_threshold: float = 1e8
    stability_rel: float = 0.01

    def __post_init__(self):
        for name, low in (("ladder_depth", 0), ("n_angles", 1), ("refine_rounds", 0)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < low:
                raise PreconditionError(
                    f"scan {name} must be >= {low} and an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.ladder_depth > _MAX_LADDER_DEPTH:
            raise PreconditionError(
                f"scan ladder_depth must be <= {_MAX_LADDER_DEPTH}, got {self.ladder_depth}")
        # written as "not 0 < r < 1" so that NaN fails too
        if len(self.small_radii) == 0 or not all(0 < r < 1 for r in self.small_radii):
            raise PreconditionError(
                f"scan small_radii must be a nonempty list in (0, 1), got {list(self.small_radii)}")
        # written as "not > 0" so that NaN fails too
        for name in ("bound_threshold", "stability_rel"):
            if not getattr(self, name) > 0:
                raise PreconditionError(f"scan {name} must be > 0, got {getattr(self, name)}")
        if not 0 < self.refine_contraction <= 1:
            raise PreconditionError(
                f"scan refine_contraction must be in (0, 1], got {self.refine_contraction}")

    def anchor_radii(self) -> np.ndarray:
        ladder = 1.0 - 2.0 ** -np.arange(1, self.ladder_depth + 1)
        return np.concatenate([np.asarray(self.small_radii, dtype=float), ladder])

    def to_dict(self) -> dict:
        d = asdict(self)
        d["small_radii"] = list(self.small_radii)
        return d


DEFAULT_SCAN = SupScanConfig()

DEFAULT_T_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass
class CriterionSample:
    """One sup-scan result: the value, its witness anchor and diagnostics (:func:`_sup_scan`)."""

    value: float
    witness: complex
    corrections: list = field(default_factory=list)
    rung_profile: list = field(default_factory=list)
    angular_indicator: float = 0.0


def _dyadic_level(a_abs: float) -> int:
    # k = ceil(-log2(1 - |a|)) (frexp writes 1 - |a| as m 2^e with m in
    # [0.5, 1), so k = 1 - e), and d = 2^-k <= 1 - |a|: the grid of a level
    # resolves every anchor on it, refinement anchors included.  Refinement
    # starts from |r e^{i theta}|, which can round a few ulps above a rung
    # radius r = 1 - 2^-k; the 1e-9 slack keeps it on level k.
    return 1 - math.frexp((1.0 - a_abs) * (1.0 + 1e-9))[1]


def _sup_scan(scan: SupScanConfig, t: float, flow: Semiflow, cocycle: Cocycle, p: float, law,
              family_of, rule_of, q: float, head, levels: dict | None = None) -> CriterionSample:
    """Maximize ``head(|a|)`` times the kernel sum at a over the anchor grid.

    An anchor on dyadic level k reads generations 0..G_k of the family
    ``family_of(k)``, a :class:`spaces.GradedDiskRule` built by
    ``rule_of(family)``; G_k is the first G that holds clip(scale 2^k, base,
    cap) points per ring, ``law`` = (scale, base, cap), or the family's
    depth if less.  Each generation keeps its own s and is moved in place
    by the flow and cocycle laws, w <- phi_dt(w) and masses <- masses
    |m_dt(w)|^p, ``_ADVANCE_SLICE`` nodes per evaluation, when a batch
    needs it at t (rebuilt if past t).
    ``levels`` caches the families; pass one dict to the scans of one flow,
    cocycle and space in ascending t and each generation integrates [0,
    last t it serves] once.

    Anchors go to :func:`spaces.kernel_sums` (exponent ``q``) in batches of
    one modulus: a rung's fan, and the candidates of one refinement radius.
    A batch sums generations 0..G for G = 1, 2, ... until the half-grid
    indicator max |V_G - V_G-1| / max |V_G| is at most ``_HALF_GRID_TOL``
    or G reaches G_k; ``angular_indicator`` is the largest indicator of a
    batch that stopped at G_k, 0.0 if none did.  A non-finite integral
    counts as +inf, which ends the scan with an infinite sample.
    """
    # written as "not 0 <= t < inf" so that NaN fails too
    if not 0 <= t < math.inf:
        raise PreconditionError(f"the criteria need a finite t >= 0, got {t}")
    levels = {} if levels is None else levels
    scale, base, cap = law
    capped = 0.0

    def advance(w, masses, dt):
        for start in range(0, w.size, _ADVANCE_SLICE):
            part = slice(start, start + _ADVANCE_SLICE)
            w[part], m = cocycle.sample(flow, dt, w[part])
            masses[part] *= np.abs(m) ** p

    def integrals(r, angles):
        nonlocal capped
        k = _dyadic_level(r)
        key = family_of(k)
        if key not in levels:
            rule = rule_of(key)
            levels[key] = (rule, np.empty(rule.offsets[-1], complex),
                           np.empty(rule.offsets[-1]), [None] * len(rule.offsets))
        rule, w, masses, s = levels[key]
        count = min(cap, max(base, scale * 2.0 ** k))
        last = min(len(rule.offsets) - 2, math.ceil(math.log2(count / base)) + 1)
        sums = np.empty((len(angles), rule.cuts.size))

        def value(g):                         # ring i's generations 0..g, over 2^min(g, d_i)
            segs = rule.first_cut[g + 1]
            return head(r) * (sums[:, :segs] @ 0.5 ** np.minimum(g, rule.cut_depth[:segs]))

        lo = 0
        for g in range(1, last + 1):
            # generations lo..g at t (the first pass takes 0 and 1, so they share s[0]);
            # unbuilt while moving, so a failed advance leaves no half-moved generation
            nodes = slice(rule.offsets[lo], rule.offsets[g + 1])
            if s[lo] is None or s[lo] > t:
                for h in range(lo, g + 1):
                    span = slice(rule.offsets[h], rule.offsets[h + 1])
                    w[span], masses[span] = rule.generation(h)
                s[lo] = 0.0
            with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
                if s[lo] < t:
                    dt, s[lo] = t - s[lo], None
                    advance(w[nodes], masses[nodes], dt)
                    s[lo] = t
                segs = slice(rule.first_cut[lo], rule.first_cut[g + 1])
                sums[:, segs] = kernel_sums(r, angles, w[nodes], masses[nodes], q,
                                            rule.cuts[segs] - rule.offsets[lo])
                fine = value(g)
                top, gap = np.max(np.abs(fine)), np.max(np.abs(fine - value(g - 1)))
                if g == last and 0 < top < np.inf:
                    capped = max(capped, gap / top)
                if not gap > _HALF_GRID_TOL * top:      # a non-finite value ends it too
                    break
            lo = g + 1
        return np.where(np.isfinite(fine), fine, np.inf)

    sample = _scan_anchors(integrals, scan)
    sample.angular_indicator = capped
    return sample


def _scan_anchors(integrals, scan: SupScanConfig) -> CriterionSample:
    radii = scan.anchor_radii()
    angles = 2.0 * np.pi * np.arange(scan.n_angles) / scan.n_angles
    best_val, best_a = -np.inf, complex(radii[0])
    rung_profile = []
    for r in radii:
        vals = integrals(r, angles)
        top = int(np.argmax(vals))
        rung_profile.append(float(vals[top]))
        if vals[top] > best_val:
            best_val, best_a = float(vals[top]), r * np.exp(1j * angles[top])
        if not np.isfinite(best_val):
            return CriterionSample(np.inf, best_a, [], rung_profile)
    dr = (1.0 - abs(best_a)) * 0.5
    dang = 2.0 * np.pi / scan.n_angles
    corrections = []
    r_floor = float(min(scan.small_radii))
    for _ in range(scan.refine_rounds):
        r0, ang0 = abs(best_a), np.angle(best_a)
        cand_r = np.clip([r0 - dr, r0, r0 + dr], r_floor,
                         1.0 - 2.0 ** -(scan.ladder_depth + 1))
        cand_ang = np.array([ang0 - dang, ang0, ang0 + dang])
        prev = best_val
        for i, rr in enumerate(cand_r):
            # the center r0 e^{i ang0} is the running best anchor, already
            # known, and a radius clipped onto r0 would repeat the center row
            if i != 1 and abs(rr - cand_r[1]) <= 1e-12:
                continue
            angs = cand_ang[[0, 2]] if i == 1 else cand_ang
            for aa, v in zip(angs, integrals(rr, angs)):
                if v > best_val:
                    best_val, best_a = float(v), rr * np.exp(1j * aa)
        if not np.isfinite(best_val):
            return CriterionSample(np.inf, best_a, corrections, rung_profile)
        corrections.append(abs(best_val - prev))
        dr *= scan.refine_contraction
        dang *= scan.refine_contraction
    return CriterionSample(best_val, best_a, corrections, rung_profile)


def hardy_criterion(flow: Semiflow, cocycle: Cocycle, p: float, t: float,
                    scan: SupScanConfig | None = None,
                    levels: dict | None = None) -> CriterionSample:
    """sup over anchors a of the boundary integral
    (1-|a|^2) |m_t|^p / |1 - conj(a) phi_t|^2 on circles extrapolated to
    the boundary.  At t = 0 this is the Poisson mean, identically one.

    The measure is one nested family on the circles of the boundary rule
    (:meth:`DiskRule.boundary`), mapped by phi_t, whose radial weights c_i
    fold the extrapolation into the masses c_i |m_t|^p / n; every level
    reads a prefix of it.  ``levels`` is the family cache of :func:`_sup_scan`.
    """
    # written as "not p > 1" so that NaN fails too
    if not p > 1:
        raise PreconditionError("the Hardy criterion requires p > 1")
    scan = scan or DEFAULT_SCAN
    _, base, cap = _HARDY_ANGLES
    top = int(math.log2(cap / base)) + 1     # generations 0..G hold base 2^(G-1) points

    def circles(_):
        rule = DiskRule.boundary()
        return GradedDiskRule(rule.radii, rule.radial_w, np.full(rule.radii.size, top), base)

    return _sup_scan(scan, t, flow, cocycle, p, _HARDY_ANGLES, lambda k: "circles", circles,
                     1.0, lambda r: (1.0 - r) * (1.0 + r), levels)


def bergman_criterion(flow: Semiflow, cocycle: Cocycle, p: float, weight: RadialWeight,
                      t: float, gamma: float | None = None,
                      scan: SupScanConfig | None = None,
                      levels: dict | None = None) -> CriterionSample:
    """sup over anchors a of the weighted disk integral of
    |f_{a,p}(phi_t)|^p |m_t|^p against the weight.  Requires a regular
    weight and p > 1.  ``levels`` is the family cache of :func:`_sup_scan`."""
    # written as "not p > 1" so that NaN fails too
    if not p > 1:
        raise PreconditionError("the Bergman criterion requires p > 1")
    report = is_regular(weight)
    if not report.regular:
        raise RegularityError(
            f"weight {weight.label} fails the regularity probe "
            f"(ratio range [{report.min_ratio:.3g}, {report.max_ratio:.3g}])")
    gamma_floor = default_gamma(p, weight)
    gamma = gamma_floor if gamma is None else float(gamma)
    if gamma < gamma_floor:
        raise PreconditionError(f"gamma = {gamma} below the convergent floor {gamma_floor}")
    scan = scan or DEFAULT_SCAN
    ang_scale, ang_base, ang_cap = _DISK_ANGLES
    rad_scale, rad_base, rad_cap = _DISK_RINGS

    def rings(k):
        return min(rad_cap, max(rad_base, int(rad_scale / math.sqrt(2.0 ** -k))))

    def disk_rule(n_rad):
        # By Schwarz-Pick the kernel's angular width on ring r is about max(1 - r,
        # 1 - |a|), floored at 2^-k by level k's cap; a family is sized for its deepest level.
        deepest = max((k for k in range(1, math.ceil(math.log2(ang_cap / ang_scale)) + 1)
                       if rings(k) == n_rad), default=math.inf)
        return GradedDiskRule.weighted(weight, n_rad, ang_scale, ang_base,
                                       min(ang_cap, ang_scale * 2.0 ** deepest))

    def head(r):
        return (1.0 - r) ** (gamma + 1.0) / carleson_measure(weight, r)

    return _sup_scan(scan, t, flow, cocycle, p, _DISK_ANGLES, rings, disk_rule,
                     (gamma + 1.0) / 2.0, head, levels)


def criterion_sample(flow: Semiflow, cocycle: Cocycle, space: SpaceSpec, t: float,
                     scan: SupScanConfig | None = None,
                     levels: dict | None = None) -> CriterionSample:
    """Dispatch to the Hardy or Bergman criterion for the given space."""
    if space.is_hardy:
        return hardy_criterion(flow, cocycle, space.p, t, scan, levels)
    return bergman_criterion(flow, cocycle, space.p, space.weight, t, scan=scan,
                             levels=levels)


@dataclass
class CriterionReport:
    """Per-t criterion values and angular indicators with the boundedness verdict."""

    space: str
    flow: str
    cocycle: str
    p: float
    t_values: list
    criterion: list
    witness_a: list
    angular_indicator: list
    sup: float
    trend: dict
    verdict: str
    config: dict

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list:
        rows = [("t", "criterion", "witness_re", "witness_im")]
        for t, v, wit in zip(self.t_values, self.criterion, self.witness_a):
            rows.append((t, v, wit[0], wit[1]))
        return rows


def uniform_bound_verdict(flow: Semiflow, cocycle: Cocycle, space: SpaceSpec,
                          t_grid=None, scan: SupScanConfig | None = None) -> CriterionReport:
    """Evaluate the criterion across t in [0, 1) and issue the verdict.

    BOUNDED is the numerical surrogate for strong continuity: every value
    finite, below the configured threshold, with stable refinements.
    Blowups or over-threshold values give UNBOUNDED-TREND; unstable but
    finite scans stay INCONCLUSIVE.

    The scans run in ascending t; the report keeps the order of
    ``t_grid``.  For a generator-driven flow every scan shares one family
    cache, so each generation is carried from one t to the next by the laws
    phi_t = phi_{t-s} o phi_s and m_t = m_s (m_{t-s} o phi_s) and
    integrates [0, last t it serves] once, not [0, t] for every t.  A
    closed-form flow builds each scan's generations at its own t.
    """
    scan = scan or DEFAULT_SCAN
    t_grid = np.asarray(DEFAULT_T_GRID if t_grid is None else t_grid, dtype=float)
    if t_grid.size < 8:
        raise PreconditionError("the verdict needs at least 8 time samples in [0, 1)")
    # written so that NaN fails too
    if not np.all((t_grid >= 0) & (t_grid < 1)):
        raise PreconditionError("verdict time grid must be finite and lie inside [0, 1)")
    if float(np.max(t_grid)) < 0.9:
        raise PreconditionError("the verdict needs samples near t = 1")
    levels = {} if flow.is_generator_driven else None
    samples = [None] * t_grid.size
    order = np.argsort(t_grid, kind="stable")
    for i in order:
        samples[i] = criterion_sample(flow, cocycle, space, float(t_grid[i]), scan, levels)
    values = np.array([s.value for s in samples])
    finite = np.isfinite(values)
    unstable = [s for s, v in zip(samples, values)
                if np.isfinite(v) and s.corrections
                and s.corrections[-1] > max(scan.stability_rel * v, 1e-9)]
    if not np.all(finite) or np.any(values[finite] > scan.bound_threshold):
        verdict = "UNBOUNDED-TREND"
    elif not unstable:
        verdict = "BOUNDED"
    else:
        verdict = "INCONCLUSIVE"
    sup = float(np.max(values)) if np.all(finite) else np.inf
    trend = {}
    # the trend reads the samples in ascending t, one per distinct t
    tt, first = np.unique(t_grid, return_index=True)
    vt, tt = values[first][finite[first]], tt[finite[first]]
    if tt.size >= 3:
        with np.errstate(divide="ignore"):
            trend["t_slope"] = float((np.log(vt[-1]) - np.log(vt[-3])) / (tt[-1] - tt[-3]))
    best = order[int(np.argmax(np.where(finite, values, -np.inf)[order]))]
    top = samples[best if np.any(finite) else order[-1]]
    profile = np.asarray(top.rung_profile[-4:], dtype=float)
    if profile.size >= 2 and np.all(np.isfinite(profile)) and np.all(profile > 0):
        # growth of the rung maxima per halving of 1 - |a|
        trend["witness_radius_slope"] = float(np.mean(np.diff(np.log(profile))) / np.log(2.0))
    config = {"scan": scan.to_dict(), "space": space.label()}
    return CriterionReport(
        space.label(), flow.name, cocycle.name, space.p,
        [float(t) for t in t_grid],
        [float(v) for v in values],
        [[float(np.real(s.witness)), float(np.imag(s.witness))] for s in samples],
        [float(s.angular_indicator) for s in samples],
        sup, trend, verdict, config)


@dataclass
class SufficiencyProbe:
    """Small-time multiplier regime: contractive, finite, or none."""

    regime: str
    tail_value: float
    detail: dict

    def to_dict(self) -> dict:
        return asdict(self)


def sufficiency_probe(cocycle: Cocycle, t_seq=None, radii=(0.9, 0.99, 0.999),
                      nodes: int = 512, tol: float = 1e-6) -> SufficiencyProbe:
    """Classify limsup of the multiplier sup-norm estimates as t -> 0+.

    ``contractive`` (tail bounded by one) and ``finite`` (tail bounded)
    both guarantee strong continuity for every p >= 1; ``none`` means the
    probe found growing circle maxima and implies nothing.
    """
    probe = limsup_probe(cocycle, t_seq=t_seq, radii=radii, nodes=nodes, tol=tol)
    regime = {"contractive": "contractive", "finite": "finite"}.get(probe.regime, "none")
    return SufficiencyProbe(regime, probe.tail_value, probe.to_dict())


def default_decay_family():
    """Ten tame functions with small generator action, for decay probes."""
    fam = [AnalyticFn(lambda z, _k=k: z ** _k / (2.0 * (_k + 1) ** 2),
                      label=f"z^{k}/{2 * (k + 1) ** 2}") for k in range(8)]
    fam.append(AnalyticFn(lambda z: 0.125 / (1.0 - 0.5 * z), label="geom/8"))
    fam.append(AnalyticFn(lambda z: np.exp(z - 1.0) / 8.0, label="exp/8"))
    return fam


@dataclass
class DecayTable:
    """Norms ||S_t f - f|| on a decreasing time ladder, per family member."""

    labels: list
    t_values: list
    entries: np.ndarray
    tolerance: float
    decayed: bool

    def to_json_dict(self) -> dict:
        return asdict(self)

    def csv_rows(self) -> list:
        rows = [tuple(["function"] + [f"t={t:g}" for t in self.t_values])]
        for label, row in zip(self.labels, self.entries):
            rows.append(tuple([label] + list(row)))
        return rows


def direct_decay_probe(flow: Semiflow, cocycle: Cocycle, space: SpaceSpec,
                       f_family=None, t_seq=None, tol: float = 1e-3) -> DecayTable:
    """Tabulate ||S_t f - f|| along a time ladder decreasing to zero.

    This witnesses strong continuity directly and covers p = 1, where the
    criterion equivalences are unavailable.
    """
    require_tolerance(tol)
    family = list(f_family) if f_family is not None else default_decay_family()
    if not family:
        raise PreconditionError("decay probe needs a nonempty function family")
    if t_seq is None:
        t_seq = 2.0 ** -np.arange(1, 11)
    t_seq = np.asarray(t_seq, dtype=float)
    # written so that NaN fails too
    if t_seq.size == 0 or not np.all((t_seq > 0) & (t_seq < np.inf)):
        raise PreconditionError("decay probe times must be finite, positive and at least one")
    if np.any(np.diff(t_seq) >= 0):
        raise PreconditionError("decay probe times must decrease")
    p = space.p
    rule = space.rule()
    z = rule.nodes()
    entries = np.empty((len(family), t_seq.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, t in enumerate(t_seq):
            phi, mul = cocycle.sample(flow, t, z)
            for k, f in enumerate(family):
                total = float(rule.integrate(np.abs(mul * f(phi) - f(z)) ** p))
                entries[k, j] = max(total, 0.0) ** (1.0 / p) if np.isfinite(total) else np.inf
    decayed = bool(np.all(np.isfinite(entries[:, -1])) and np.all(entries[:, -1] < tol))
    return DecayTable([f.label for f in family], [float(t) for t in t_seq],
                      entries, tol, decayed)
