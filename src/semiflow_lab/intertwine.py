"""Abelian-intertwiner probes and weighted-composition symbol recovery.

An operator T on the weighted Bergman scale that intertwines multiplication
by z through a commutant member is necessarily a weighted composition
operator; its multiplier is T1 and its self-map is Tz/T1.  This module
checks those facts numerically on a finite test family, recovers symbols,
and extracts a (semiflow, cocycle) pair from a one-parameter operator
family, re-verifying the algebraic laws on the extracted objects.

Operators are probed through their action on functions; a matrix section
backs the p = 2 norm surrogate when available.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .analytic import AnalyticFn, disk_samples, eps_ladder, taylor_coefficients, unit_circle
from .cocycle import Cocycle
from .errors import (DegenerateOperatorError, ExtractionError, PreconditionError)
from .flow import Semiflow
from .operators import (OperatorMatrix, WeightedCompOp, basis_scales,
                        load_matrix_csv, matrix, norm2, save_matrix_csv)
from .spaces import RadialWeight, SpaceSpec


def default_test_family():
    """Ten polynomials and two rational functions, all tame on the disk."""
    fam = [AnalyticFn.monomial(k) for k in range(10)]
    fam.append(AnalyticFn(lambda z: 1.0 / (1.0 - 0.4 * z), label="1/(1-0.4z)"))
    fam.append(AnalyticFn(lambda z: 1.0 / (2.0 - z), label="1/(2-z)"))
    return fam


class AbstractOperator:
    """A linear operator probed through its action on analytic functions."""

    def __init__(self, action, space: SpaceSpec | None = None, label: str = "T",
                 section: OperatorMatrix | None = None):
        self.action = action
        self.space = space or SpaceSpec.bergman(2.0, RadialWeight.standard(0.0))
        self.label = label
        self.section = section

    @classmethod
    def from_weighted_comp(cls, op: WeightedCompOp, space: SpaceSpec | None = None) -> "AbstractOperator":
        return cls(op.apply, space=space, label=op.label)

    @classmethod
    def from_matrix(cls, entries, space: SpaceSpec,
                    label: str = "T[matrix]") -> "AbstractOperator":
        """Operator acting through an N x N section in the monomial basis."""
        entries = np.asarray(entries, dtype=complex)
        n = entries.shape[0]
        scales = basis_scales(space, n)

        def action(f: AnalyticFn) -> AnalyticFn:
            a = taylor_coefficients(f, n, radius=0.75)
            out = (entries @ (a * scales)) / scales
            return AnalyticFn.from_coefficients(out, label=f"{label}({f.label})")

        section = OperatorMatrix(entries, space.label(), n, 0.0)
        return cls(action, space=space, label=label, section=section)

    def __call__(self, f: AnalyticFn) -> AnalyticFn:
        return self.action(f)

    def __repr__(self):
        return f"AbstractOperator({self.label})"


@dataclass
class CommutantReport:
    """Residuals against the multiplication-operator form."""

    commute_residual: float
    multiplier_residual: float
    multiplier: AnalyticFn


def _family_pass(t_op: AbstractOperator, grid):
    """(family, T f, T(z f)) over :func:`default_test_family`, each input applied once.

    Row i of the two arrays holds (T f_i)(grid) and (T(z f_i))(grid): row 0
    (f = z^0) is T1 on the grid and row n is T z^n for n < 10.
    """
    family = default_test_family()
    zf = AnalyticFn.identity()
    tf = np.array([t_op(f)(grid) for f in family])
    tzf = np.array([t_op(zf * f)(grid) for f in family])
    return family, tf, tzf


def commutant_check(b: AbstractOperator) -> CommutantReport:
    """Check B against membership in the commutant of multiplication by z.

    Commutant members are exactly the bounded multiplication operators, so
    the probe measures both commutation B(zf) = z B(f) and the multiplier
    form B(f) = (B1) f on :func:`default_test_family` at ``disk_samples(40)``.
    A NaN anywhere makes its residual NaN.
    """
    grid = disk_samples(40)
    family, bf, bzf = _family_pass(b, grid)
    fv = np.array([f(grid) for f in family])
    return CommutantReport(float(np.max(np.abs(bzf - grid * bf))),
                           float(np.max(np.abs(bf - bf[0] * fv))),
                           b(AnalyticFn.constant(1.0)))


def recover_symbols(t_op: AbstractOperator, grid=None):
    """(m, phi, masked) with m = T1 and phi = Tz / T1, zero-guarded.

    Isolated zeros of T1, where |T1| < 1e-10 (1 + max |T1| on the grid),
    are masked and phi is filled there from nearby perturbed evaluations; a
    T1 below 1e-10 on the whole probe grid is degenerate and raises.
    ``masked`` lists the probe-grid points masked at recovery, and only those.
    """
    zero_tol = 1e-10
    grid = np.asarray(grid if grid is not None else disk_samples(20), dtype=complex)
    m = t_op(AnalyticFn.constant(1.0))
    tz = t_op(AnalyticFn.identity())
    mv = m(grid)
    scale = float(np.max(np.abs(mv)))
    if scale < zero_tol:
        raise DegenerateOperatorError(
            f"{t_op.label}: T1 vanishes on the whole probe grid; "
            "no weighted-composition form can be recovered")
    masked = grid[np.abs(mv) < zero_tol * (1.0 + scale)].tolist()

    def phi_eval(z):
        z = np.asarray(z, dtype=complex)
        num = tz(z)
        den = m(z)
        small = np.abs(den) < zero_tol * (1.0 + scale)
        if np.any(small):
            offsets = 1e-5 * np.exp(0.5j * np.pi * np.arange(4))
            zz = np.atleast_1d(z)[np.atleast_1d(small)]
            repl = np.mean([tz(zz + o) / m(zz + o) for o in offsets], axis=0)
            out = np.asarray(num / np.where(small, 1.0, den), dtype=complex)
            out[np.atleast_1d(small)] = repl
            return out
        return num / den

    phi = AnalyticFn(phi_eval, label=f"phi[{t_op.label}]")
    m.label = f"m[{t_op.label}]"
    return m, phi, masked


@dataclass
class IntertwinerReport:
    """Outcome of the weighted-composition-form verification."""

    multiplier: AnalyticFn | None
    self_map: AnalyticFn | None
    multiplier_consistency_residual: float
    intertwining_residual: float
    self_map_max: float
    form_residual: float
    multiplier_bound_estimate: float
    multiplier_bound_growing: bool
    power_residuals: dict = field(default_factory=dict)
    degenerate: bool = False
    passed: bool = False
    note: str = ""


def check_intertwiner(t_op: AbstractOperator) -> IntertwinerReport:
    """Full verification that T acts as f -> m (f o phi) with |phi| < 1.

    Recovers the symbols, measures the intertwining relation
    T(z f) = phi T(f), the weighted-composition form itself, the self-map
    bound, and a boundary lower estimate of the multiplier sup-norm, on
    :func:`default_test_family` at ``disk_samples(60, max_radius=0.9)``.
    T passes with residuals below 1e-7 (intertwining) and 1e-6 (form); a
    NaN anywhere makes its residual NaN, which fails.  Every residual reads
    one pass of T over the family, plus T z^10 for the power residuals.
    Failures are reported, not raised (a degenerate T1 falls back to a
    ratio-based self-map estimate so non-intertwiners still get a residual).
    """
    grid = disk_samples(60, max_radius=0.9)
    try:
        m, phi, masked = recover_symbols(t_op, grid)
    except DegenerateOperatorError:
        m = phi = None
    family, tf, tzf = _family_pass(t_op, grid)
    degenerate = m is None
    if not degenerate:
        phi_v = phi(grid)
        note = f"{len(masked)} masked zeros of T1" if masked else ""
    else:
        # phi from T(z f)/T(f) for the first member with max |T f| > 1e-9
        live = [i for i, row in enumerate(tf) if np.max(np.abs(row)) > 1e-9]
        phi_v, note = None, "degenerate recovery: zero operator"
        if live:
            i = live[0]
            phi_v = tzf[i] / np.where(np.abs(tf[i]) > 1e-9, tf[i], 1.0)
            note = f"degenerate recovery: T1 vanishes; self-map estimated from {family[i].label}"
    powers = {}
    if phi_v is None:
        inter = mult_rel = form = self_map_max = np.inf
    else:
        resid = np.max(np.abs(tzf - phi_v * tf), axis=1)
        inter = float(np.max(resid))
        mult_rel = float(np.max(resid / (1.0 + np.max(np.abs(tf), axis=1))))
        form = 0.0 if degenerate else float(
            np.max(np.abs(tf - tf[0] * np.array([f(phi_v) for f in family]))))
        self_map_max = float(np.max(np.abs(phi_v)))
        for n, tzn in ((1, tf[1]), (2, tf[2]), (5, tf[5]),
                       (10, t_op(AnalyticFn.monomial(10))(grid))):
            powers[str(n)] = float(np.max(np.abs(tzn - phi_v ** n * tf[0])))
    bound_est, growing = np.inf, True
    if m is not None:
        ladder = eps_ladder(1e-2, 0.5, 8)
        circ = unit_circle(512)
        with np.errstate(over="ignore", invalid="ignore"):
            maxima = np.array([float(np.max(np.abs(m((1.0 - e) * circ)))) for e in ladder])
        if np.all(np.isfinite(maxima)) and maxima[0] > 0:
            bound_est = float(np.max(maxima))
            growing = bool(maxima[-1] > 2.0 * maxima[len(maxima) // 2])
    passed = (not degenerate and inter < 1e-7 and form < 1e-6
              and self_map_max < 1.0 - 1e-9 and not growing)
    return IntertwinerReport(m, phi, mult_rel, inter, self_map_max, form,
                             bound_est, growing, powers, degenerate, passed, note)


@dataclass
class ExtractionReport:
    """Cross-time law residuals for an extracted (semiflow, cocycle) pair."""

    t_values: list
    flow_law_residual: float
    cocycle_law_residual: float
    identity_residual: float
    unit_residual: float
    min_multiplier_modulus: float
    continuity_residuals: list
    norm_surrogate: float
    per_t_passed: dict
    passed: bool
    note: str = ""

    def to_json_dict(self) -> dict:
        return asdict(self)


def extract_semigroup(t_family, t_grid):
    """Recover (semiflow, cocycle) from a family t -> operator.

    Every listed operator must pass :func:`check_intertwiner` (a per-time
    failure raises, naming the offending time).  The returned semiflow and
    cocycle evaluate lazily through the family; the report carries the
    algebraic law residuals over in-grid time pairs (each below 1e-6 to
    pass) and a norm surrogate over t in [0, 1), the largest norm2 of the
    32 x 32 sections (NaN where the space has none).  The surrogate stands
    in for the uniform-bound hypothesis and is reported, never silently trusted.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if not t_grid or abs(t_grid[0]) > 1e-12:
        raise PreconditionError("extraction grid must start at t = 0")
    if len(t_grid) < 3 or t_grid[1] > 0.25:
        raise PreconditionError("extraction grid needs points accumulating at 0")
    grid = disk_samples(60, max_radius=0.9)
    table: dict = {}    # round(t, 12) -> (m_t, phi_t, m_t(grid), phi_t(grid))

    def symbols(t):
        return table[round(float(t), 12)]

    per_t = {}
    space = None
    ops = []            # (t, operator) for t < 1, the times the norm surrogate reads
    for t in t_grid:
        op = t_family(float(t))
        space = space or op.space
        if t < 1.0:
            ops.append((t, op))
        report = check_intertwiner(op)
        per_t[f"{t:g}"] = report.passed
        if report.degenerate:
            raise ExtractionError(
                f"extraction failed at t = {t:g}: degenerate operator ({report.note})",
                t=float(t))
        if not report.passed:
            raise ExtractionError(
                f"extraction failed at t = {t:g}: intertwiner check failed "
                f"(intertwining residual {report.intertwining_residual:.3g}, "
                f"self-map max {report.self_map_max:.9g})", t=float(t))
        m, phi = report.multiplier, report.self_map
        table[round(t, 12)] = (m, phi, m(grid), phi(grid))

    semiflow = Semiflow.closed_form(lambda t, z: symbols(t)[1](z), name="extracted-flow")
    cocycle = Cocycle.closed(lambda t, z: symbols(t)[0](z), name="extracted-cocycle")

    # the law residuals read the table; np.maximum keeps a NaN residual NaN
    flow_res = coc_res = 0.0
    for t in t_grid:
        _, _, m_t_v, phi_t_v = symbols(t)
        for s in t_grid:
            if round(t + s, 12) in table:
                m_s, phi_s, _, _ = symbols(s)
                _, _, m_sum_v, phi_sum_v = symbols(t + s)
                flow_res = np.maximum(flow_res, np.max(np.abs(phi_sum_v - phi_s(phi_t_v))))
                coc_res = np.maximum(coc_res, np.max(np.abs(m_sum_v - m_t_v * m_s(phi_t_v))))
    _, _, m0_v, phi0_v = symbols(0.0)
    identity_res = float(np.max(np.abs(phi0_v - grid)))
    unit_res = float(np.max(np.abs(m0_v - 1.0)))
    min_mod = float(np.min(np.abs([entry[2] for entry in table.values()])))
    small_ts = [t for t in t_grid if 0 < t <= 0.3][:4]
    continuity = [float(np.max(np.abs(symbols(t)[3] - grid))) for t in small_ts]
    norm_surrogate = np.nan
    if space is not None and space.p == 2:
        try:
            norms = []
            for t, op in ops:       # an attached section is reused, else built from the symbols
                if op.section is not None and op.section.dim >= 32:
                    section = op.section.entries[:32, :32]
                else:
                    section = matrix(WeightedCompOp(*symbols(t)[:2], validate=False,
                                                    label=op.label), space, 32)
                norms.append(norm2(section).value)
            norm_surrogate = float(np.max(norms))
        except PreconditionError:       # a custom weight has no matrix sections
            pass
    passed = (flow_res < 1e-6 and coc_res < 1e-6 and identity_res < 1e-6
              and unit_res < 1e-6 and min_mod > 0.0
              and (not continuity or continuity[0] < 0.5))
    note = ("norm surrogate is a finite-section lower bound; the uniform-bound "
            "hypothesis itself is not numerically decidable")
    report = ExtractionReport([float(t) for t in t_grid], float(flow_res), float(coc_res),
                              identity_res, unit_res, min_mod, continuity,
                              norm_surrogate, per_t, passed, note)
    return semiflow, cocycle, report


# -- matrix bundle I/O -------------------------------------------------

def save_bundle(path, t_values, matrices, space: SpaceSpec) -> Path:
    """Write one CSV per time, named after its manifest key, plus a strict-JSON manifest."""
    if not np.all(np.isfinite(np.asarray(t_values, dtype=float))):
        raise PreconditionError(f"bundle times must be finite, got {list(t_values)}")
    dim = np.shape(getattr(matrices[0], "entries", matrices[0]))[0]
    if any(np.shape(getattr(m, "entries", m)) != (dim, dim) for m in matrices):
        raise PreconditionError(f"bundle matrices must all be {dim} x {dim}, as the first is")
    root = Path(path)
    root.mkdir(parents=True, exist_ok=True)
    files = {}
    for t, mat in zip(t_values, matrices):
        key = f"{float(t):.12g}"
        files[key] = f"t_{key}.csv".replace("-", "m")
        save_matrix_csv(mat, root / files[key])
    manifest = {"space": space.label(), "dim": int(dim), "files": files,
                "t_values": [float(t) for t in t_values]}
    mpath = root / "manifest.json"
    mpath.write_text(json.dumps(manifest, indent=2, sort_keys=True, allow_nan=False))
    return mpath


def load_bundle(manifest_path):
    """Load a bundle of dim x dim matrices; returns (t -> AbstractOperator, t_values, space)."""
    mpath = Path(manifest_path)
    try:
        manifest = json.loads(mpath.read_text())
        space = SpaceSpec.parse(manifest["space"])
        t_values = [float(t) for t in manifest["t_values"]]
        if not np.all(np.isfinite(t_values)):
            raise ValueError(f"t_values {t_values} are not all finite")
        dim = int(manifest["dim"])
        root = mpath.parent
        ops = {}
        for t in t_values:
            fname = manifest["files"][f"{t:.12g}"]
            entries = load_matrix_csv(root / fname)
            if entries.shape != (dim, dim):
                raise ValueError(f"{fname} holds a {entries.shape} matrix, not ({dim}, {dim})")
            ops[round(t, 12)] = AbstractOperator.from_matrix(
                entries, space, label=f"bundle@{t:g}")
    except (KeyError, TypeError, ValueError, OSError) as exc:
        raise PreconditionError(f"malformed operator bundle {manifest_path}: {exc}")

    def t_family(t):
        key = round(float(t), 12)
        if key not in ops:
            raise PreconditionError(f"bundle holds no operator at t = {t:g}")
        return ops[key]

    return t_family, t_values, space
