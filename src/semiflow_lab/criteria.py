"""Strong-continuity criteria for weighted composition semigroups.

The Hardy-side criterion integrates a Poisson-type kernel against |m_t|^p
over boundary-approaching circles and takes the sup over anchor points a in
the disk; the Bergman-side criterion integrates the boundary test functions
composed with the flow over the weighted disk.  Uniform boundedness of the
criterion over t in [0, 1) is the numerical surrogate for strong
continuity, reported as a three-valued verdict with trend diagnostics,
because a "< infinity" statement is not decidable from finitely many
samples.

For p = 1 only the sufficiency probe (small-time multiplier bounds) and the
direct decay probe are offered.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, asdict

import numpy as np

from .analytic import AnalyticFn, neville_extrapolate  # noqa: F401 (perfbench patches it here)
from .cocycle import Cocycle, limsup_probe
from .errors import PreconditionError, QuadratureError, RegularityError
from .flow import Semiflow
from .spaces import (DEFAULT_QUAD, BoundaryLadder, DiskRule, QuadConfig, RadialWeight,
                     SpaceSpec, carleson_measure, default_gamma, is_regular)


@dataclass(frozen=True)
class SupScanConfig:
    """Discretization of sup over a in the disk, plus verdict thresholds.

    The anchor grid is a geometric radius ladder toward the boundary times
    a uniform fan of angles, followed by local refinement around the
    running argmax.  Angular quadrature resolution grows like 1/(1-|a|) so
    the Poisson spike stays resolved.
    """

    small_radii: tuple = (0.05, 0.1, 0.25)
    ladder_depth: int = 10
    n_angles: int = 16
    refine_rounds: int = 3
    refine_contraction: float = 0.5
    angular_base: int = 512
    angular_scale: float = 32.0
    angular_cap: int = 32768
    disk_angular_base: int = 256
    disk_angular_scale: float = 16.0
    disk_angular_cap: int = 8192
    disk_radial_base: int = 64
    disk_radial_scale: float = 6.0
    disk_radial_cap: int = 160
    bound_threshold: float = 1e8
    stability_rel: float = 0.01
    derivative_ring_nodes: int = 16
    threads: int = 1

    def anchor_radii(self) -> np.ndarray:
        ladder = 1.0 - 2.0 ** -np.arange(1, self.ladder_depth + 1)
        return np.concatenate([np.asarray(self.small_radii, dtype=float), ladder])

    def n_theta(self, a_abs: float) -> int:
        return int(min(self.angular_cap,
                       max(self.angular_base, self.angular_scale / (1.0 - a_abs))))

    def disk_sizes(self, a_abs: float) -> tuple:
        n_ang = int(min(self.disk_angular_cap,
                        max(self.disk_angular_base, self.disk_angular_scale / (1.0 - a_abs))))
        n_rad = int(min(self.disk_radial_cap,
                        max(self.disk_radial_base,
                            self.disk_radial_scale / np.sqrt(1.0 - a_abs))))
        return n_rad, n_ang

    def to_dict(self) -> dict:
        d = asdict(self)
        d["small_radii"] = list(self.small_radii)
        return d


DEFAULT_SCAN = SupScanConfig()

DEFAULT_T_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 0.95, 0.99)


@dataclass
class CriterionSample:
    """One sup-scan result: the value, its witness anchor and diagnostics."""

    value: float
    witness: complex
    corrections: list = field(default_factory=list)
    rung_profile: list = field(default_factory=list)


def _pmap(fn, items, threads):
    if threads and threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            return list(pool.map(fn, items))
    return [fn(x) for x in items]


def _scan_cocycle(cocycle: Cocycle, scan: SupScanConfig) -> Cocycle:
    """Derivative cocycles get a cheaper Cauchy ring inside the scans.

    The ring tail decays like 0.45^nodes, so the reduced default of 16
    nodes still sits orders of magnitude below the scan tolerances.
    """
    if cocycle.kind == "derivative" and cocycle.deriv_nodes > scan.derivative_ring_nodes:
        return Cocycle("derivative", flow=cocycle.flow, deriv_radius=cocycle.deriv_radius,
                       deriv_nodes=scan.derivative_ring_nodes, name=cocycle.name)
    return cocycle


def _sup_scan(integral, scan: SupScanConfig) -> CriterionSample:
    """Maximize ``integral(a)`` over the anchor grid with local refinement.

    ``integral`` may raise QuadratureError to signal a blowup at its anchor,
    which short-circuits the scan with an infinite sample.
    """
    radii = scan.anchor_radii()
    angles = 2.0 * np.pi * np.arange(scan.n_angles) / scan.n_angles

    def safe(a):
        try:
            return integral(a)
        except QuadratureError:
            return np.inf

    best_val, best_a = -np.inf, complex(radii[0])
    rung_profile = []
    for r in radii:
        vals = _pmap(lambda ang: safe(r * np.exp(1j * ang)), angles, scan.threads)
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
        cand_ang = [ang0 - dang, ang0, ang0 + dang]
        prev = best_val
        for rr in cand_r:
            for aa in cand_ang:
                a = rr * np.exp(1j * aa)
                v = safe(a)
                if v > best_val:
                    best_val, best_a = float(v), a
        if not np.isfinite(best_val):
            return CriterionSample(np.inf, best_a, corrections, rung_profile)
        corrections.append(abs(best_val - prev))
        dr *= scan.refine_contraction
        dang *= scan.refine_contraction
    return CriterionSample(best_val, best_a, corrections, rung_profile)


def hardy_criterion(flow: Semiflow, cocycle: Cocycle, p: float, t: float,
                    scan: SupScanConfig | None = None,
                    quad: QuadConfig | None = None) -> CriterionSample:
    """sup over anchors a of the boundary integral
    (1-|a|^2) |m_t|^p / |1 - conj(a) phi_t|^2 on circles extrapolated to
    the boundary.  At t = 0 this is the Poisson mean, identically one."""
    if p <= 1:
        raise PreconditionError("the Hardy criterion requires p > 1")
    scan = scan or DEFAULT_SCAN
    quad = quad or DEFAULT_QUAD
    cocycle = _scan_cocycle(cocycle, scan)
    cache: dict = {}

    def circle_data(n_theta):
        if n_theta not in cache:
            ladder = BoundaryLadder(quad, n_theta)
            phi = np.empty((ladder.eps.size, n_theta), dtype=complex)
            wmp = np.empty((ladder.eps.size, n_theta))
            with np.errstate(over="ignore", invalid="ignore"):
                for i, (_, z) in enumerate(ladder):
                    phi[i] = flow.at_times([t], z, check=False)[0]
                    wmp[i] = np.abs(cocycle.eval(t, z)) ** p
            cache[n_theta] = (ladder, phi, wmp)
        return cache[n_theta]

    def integral(a):
        ladder, phi, wmp = circle_data(scan.n_theta(abs(a)))
        abar = np.conj(a)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows = (1.0 - abs(a) ** 2) * wmp / np.abs(1.0 - abar * phi) ** 2
            means = rows.mean(axis=1)
        if not np.all(np.isfinite(means)):
            level, node = np.argwhere(~np.isfinite(rows))[0]
            z_bad = (1.0 - ladder.eps[level]) * ladder.circle[node]
            raise QuadratureError(
                f"criterion integrand blows up near z = {z_bad:.6g} "
                f"(anchor a = {a:.6g})", witness=z_bad)
        return float(ladder.limit(means)[0].real)

    return _sup_scan(integral, scan)


def bergman_criterion(flow: Semiflow, cocycle: Cocycle, p: float, weight: RadialWeight,
                      t: float, gamma: float | None = None,
                      scan: SupScanConfig | None = None) -> CriterionSample:
    """sup over anchors a of the weighted disk integral of
    |f_{a,p}(phi_t)|^p |m_t|^p against the weight.  Requires a regular
    weight and p > 1."""
    if p <= 1:
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
    cocycle = _scan_cocycle(cocycle, scan)
    cache: dict = {}
    carleson_cache: dict = {}

    def disk_data(sizes):
        if sizes not in cache:
            rule = DiskRule(weight, *sizes)
            z = rule.nodes()
            with np.errstate(over="ignore", invalid="ignore"):
                phi = flow.at_times([t], z.ravel(), check=False)[0].reshape(z.shape)
                wmp = np.abs(cocycle.eval(t, z.ravel())).reshape(z.shape) ** p
            cache[sizes] = (rule, phi, wmp)
        return cache[sizes]

    def omega_s(a_abs):
        key = round(a_abs, 12)
        if key not in carleson_cache:
            carleson_cache[key] = carleson_measure(weight, a_abs)
        return carleson_cache[key]

    def integral(a):
        rule, phi, wmp = disk_data(scan.disk_sizes(abs(a)))
        abar = np.conj(a)
        head = (1.0 - abs(a)) ** (gamma + 1.0) / omega_s(abs(a))
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            rows = head * wmp / np.abs(1.0 - abar * phi) ** (gamma + 1.0)
            value = float(rule.integrate(rows))
        if not np.isfinite(value):
            bad = np.argwhere(~np.isfinite(rows))
            z_bad = rule.nodes()[tuple(bad[0])] if bad.size else a
            raise QuadratureError(
                f"criterion integrand blows up near z = {z_bad:.6g} "
                f"(anchor a = {a:.6g})", witness=z_bad)
        return value

    return _sup_scan(integral, scan)


def criterion_sample(flow: Semiflow, cocycle: Cocycle, space: SpaceSpec, t: float,
                     scan: SupScanConfig | None = None) -> CriterionSample:
    """Dispatch to the Hardy or Bergman criterion for the given space."""
    if space.is_hardy:
        return hardy_criterion(flow, cocycle, space.p, t, scan, space.quad)
    return bergman_criterion(flow, cocycle, space.p, space.weight, t, scan=scan)


@dataclass
class CriterionReport:
    """Per-t criterion values with the boundedness verdict and diagnostics."""

    space: str
    flow: str
    cocycle: str
    p: float
    t_values: list
    criterion: list
    witness_a: list
    sup: float
    trend: dict
    verdict: str
    config: dict

    def to_json_dict(self) -> dict:
        return {
            "space": self.space,
            "flow": self.flow,
            "cocycle": self.cocycle,
            "p": self.p,
            "t_values": self.t_values,
            "criterion": [v if np.isfinite(v) else None for v in self.criterion],
            "witness_a": self.witness_a,
            "sup": self.sup if np.isfinite(self.sup) else None,
            "trend": self.trend,
            "verdict": self.verdict,
            "config": self.config,
        }

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
    """
    scan = scan or DEFAULT_SCAN
    t_grid = np.asarray(DEFAULT_T_GRID if t_grid is None else t_grid, dtype=float)
    if t_grid.size < 8:
        raise PreconditionError("the verdict needs at least 8 time samples in [0, 1)")
    if np.any(t_grid < 0) or np.any(t_grid >= 1):
        raise PreconditionError("verdict time grid must lie inside [0, 1)")
    if float(np.max(t_grid)) < 0.9:
        raise PreconditionError("the verdict needs samples near t = 1")
    samples = [criterion_sample(flow, cocycle, space, float(t), scan) for t in t_grid]
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
    if np.sum(finite) >= 3:
        vt = values[finite]
        tt = t_grid[finite]
        with np.errstate(divide="ignore"):
            trend["t_slope"] = float((np.log(vt[-1]) - np.log(vt[-3])) / (tt[-1] - tt[-3]))
    top = samples[int(np.argmax(np.where(finite, values, -np.inf)))] if np.any(finite) else samples[-1]
    profile = np.asarray(top.rung_profile[-4:], dtype=float)
    if profile.size >= 2 and np.all(np.isfinite(profile)) and np.all(profile > 0):
        # growth of the rung maxima per halving of 1 - |a|
        trend["witness_radius_slope"] = float(np.mean(np.diff(np.log(profile))) / np.log(2.0))
    config = {"scan": scan.to_dict(), "space": space.label(),
              "quad": asdict(space.quad)}
    return CriterionReport(
        space.label(), flow.name, cocycle.name, space.p,
        [float(t) for t in t_grid],
        [float(v) for v in values],
        [[float(np.real(s.witness)), float(np.imag(s.witness))] for s in samples],
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
        return {
            "labels": self.labels,
            "t_values": self.t_values,
            "entries": [[v if np.isfinite(v) else None for v in row] for row in self.entries],
            "tolerance": self.tolerance,
            "decayed": self.decayed,
        }

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
    family = list(f_family) if f_family is not None else default_decay_family()
    if not family:
        raise PreconditionError("decay probe needs a nonempty function family")
    if t_seq is None:
        t_seq = 2.0 ** -np.arange(1, 11)
    t_seq = np.asarray(t_seq, dtype=float)
    if np.any(np.diff(t_seq) >= 0):
        raise PreconditionError("decay probe times must decrease")
    p = space.p
    if space.is_hardy:
        ladder = BoundaryLadder(space.quad)
    else:
        rule = DiskRule.for_quad(space.weight, space.quad)
        z = rule.nodes()
    entries = np.empty((len(family), t_seq.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for j, t in enumerate(t_seq):
            if space.is_hardy:
                means = np.empty((len(family), ladder.eps.size))
                for i, (_, z) in enumerate(ladder):
                    phi = flow.at_times([t], z, check=False)[0]
                    mul = cocycle.eval(t, z)
                    for k, f in enumerate(family):
                        means[k, i] = np.mean(np.abs(mul * f(phi) - f(z)) ** p)
                for k in range(len(family)):
                    finite = np.all(np.isfinite(means[k]))
                    v = float(ladder.limit(means[k])[0].real) if finite else np.inf
                    entries[k, j] = abs(v) ** (1.0 / p) if v > 0 else 0.0
            else:
                phi = flow.at_times([t], z.ravel(), check=False)[0].reshape(z.shape)
                mul = cocycle.eval(t, z.ravel()).reshape(z.shape)
                for k, f in enumerate(family):
                    total = float(rule.integrate(np.abs(mul * f(phi) - f(z)) ** p))
                    entries[k, j] = total ** (1.0 / p) if np.isfinite(total) else np.inf
    decayed = bool(np.all(np.isfinite(entries[:, -1])) and np.all(entries[:, -1] < tol))
    return DecayTable([f.label for f in family], [float(t) for t in t_seq],
                      entries, tol, decayed)
