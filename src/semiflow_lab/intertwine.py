"""Abelian-intertwiner probes and weighted-composition symbol recovery.

An operator T on the weighted Bergman scale that intertwines multiplication
by z through a commutant member is necessarily a weighted composition
operator f -> m (f o phi), with m = T1.  In the raw coefficient matrix
C_ij = a_i(T z^j) that is the exact identity C[:, j+1] = L(phi) C[:, j],
L(phi) the lower-triangular Toeplitz matrix of phi's coefficients: a
product's coefficient i reads only coefficients <= i, so every leading
block holds it with no truncation term.  This module reads one C per
operator (from an attached section, from the symbols of a weighted
composition operator, or by applying T once to each of z^0 ... z^11),
recovers the symbols from it and checks the identity, and extracts a
(semiflow, cocycle) pair from a one-parameter operator family,
re-verifying the algebraic laws on the extracted objects.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .analytic import AnalyticFn, circle_coefficients, disk_samples, eps_ladder, unit_circle
from .cocycle import Cocycle
from .errors import DegenerateOperatorError, DomainError, ExtractionError, PreconditionError
from .flow import Semiflow
from .operators import (OperatorMatrix, WeightedCompOp, basis_scales, load_matrix_csv,
                        matrix, norm2, power_coefficients, save_matrix_csv)
from .spaces import RadialWeight, SpaceSpec

# The coefficient matrix of an action-defined operator: _ROWS Taylor
# coefficients of T z^j, j < _COLUMNS, each from one FFT on _COEFF_NODES nodes
# of the circle |z| = _COEFF_RADIUS.  Rounding in a_i grows like radius^-i,
# 760x at the last row, and aliasing adds a_{i+n} radius^n, below 1e-23 on 512
# nodes.  phi gets _ROWS / 2 coefficients, so a Moebius phi with |a| = 0.7 is
# cut at 0.7^32 = 1e-5 (its reported tail).  Reading T like `operators.matrix`,
# 32 columns on 2048 nodes, costs 2-4 times as much per check.
_COEFF_RADIUS = 0.9
_COEFF_NODES = 512
_ROWS = 64
_COLUMNS = 12


def _toeplitz(a: np.ndarray, cols: int) -> np.ndarray:
    """The len(a) x cols lower-triangular Toeplitz matrix L[i, j] = a[i - j] of a series."""
    lag = np.subtract.outer(np.arange(a.size), np.arange(cols))
    return np.where(lag >= 0, a[np.maximum(lag, 0)], 0.0)


class AbstractOperator:
    """A linear operator given by its action on analytic functions, or by a
    finite section in the orthonormal monomial basis (``action`` None).  One
    made from a weighted composition operator keeps it as ``comp``."""

    def __init__(self, action, space: SpaceSpec | None = None, label: str = "T",
                 section: OperatorMatrix | None = None, comp: WeightedCompOp | None = None):
        self.action = action
        self.space = space or SpaceSpec.bergman(2.0, RadialWeight.standard(0.0))
        self.label = label
        self.section = section
        self.comp = comp

    @classmethod
    def from_weighted_comp(cls, op: WeightedCompOp, space: SpaceSpec | None = None) -> "AbstractOperator":
        return cls(op.apply, space=space, label=op.label, comp=op)

    @classmethod
    def from_matrix(cls, entries, space: SpaceSpec,
                    label: str = "T[matrix]") -> "AbstractOperator":
        """Operator given by an N x N section; N >= 4 keeps phi's linear term
        among the N / 2 coefficients that :func:`recover_symbols` reads."""
        entries = np.asarray(entries, dtype=complex)
        n = entries.shape[0]
        if n < 4:
            raise PreconditionError(f"a section of dim {n} cannot carry the self-map's "
                                    "linear term; symbol recovery needs dim >= 4")
        basis_scales(space, n)      # rejects a space without orthonormal monomial sections
        return cls(None, space=space, label=label,
                   section=OperatorMatrix(entries, space.label(), n, 0.0))

    def coefficients(self) -> tuple[np.ndarray, AnalyticFn]:
        """(C, T1): the raw coefficient matrix C_ij = a_i(T z^j) and T1.

        A section A in the basis e_n = z^n / s_n of :func:`operators.basis_scales`
        gives C = diag(s)^-1 A diag(s), N x N, and T1 as the series of its
        column 0, without applying T.  Otherwise C is 64 x 12: for a weighted
        composition operator f -> m (f o phi) its columns are m phi^j, m and
        phi evaluated once (:func:`operators.power_coefficients`), and T1 is m;
        else T is applied once to each z^j, j < 12, and T1 is the image of z^0.
        """
        if self.section is not None:
            s = basis_scales(self.space, self.section.dim)
            c = self.section.entries * s / s[:, None]
            return c, AnalyticFn.from_coefficients(c[:, 0])
        if self.comp is not None:
            # a fresh T1, since recover_symbols relabels it
            return (power_coefficients(self.comp, _COEFF_RADIUS, _COEFF_NODES, _ROWS, _COLUMNS),
                    AnalyticFn(self.comp.m, label=f"{self.label}(1)"))
        z = _COEFF_RADIUS * unit_circle(_COEFF_NODES)
        images = [self(AnalyticFn.monomial(j)) for j in range(_COLUMNS)]
        return np.array([circle_coefficients(f(z), _COEFF_RADIUS, _ROWS) for f in images]).T, images[0]

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


def commutant_check(b: AbstractOperator) -> CommutantReport:
    """Check B against membership in the commutant of multiplication by z.

    Commutant members are exactly the bounded multiplication operators, so
    the probe compares B's raw coefficient matrix C with its shift
    (commutation B(z f) = z B f) and with the Toeplitz matrix L(C[:, 0]) of
    its column 0 (the multiplier form B f = (B1) f).  A NaN anywhere makes
    its residual NaN.
    """
    c, b1 = b.coefficients()
    shifted = np.vstack([np.zeros((1, c.shape[1] - 1)), c[:-1, :-1]])
    return CommutantReport(float(np.max(np.abs(c[:, 1:] - shifted))),
                           float(np.max(np.abs(c - _toeplitz(c[:, 0], c.shape[1])))), b1)


def recover_symbols(t_op: AbstractOperator):
    """(m, phi, a_phi, C): m = T1, phi as the series of its R / 2
    coefficients a_phi, and the R-row matrix C, all from
    :meth:`AbstractOperator.coefficients`.

    a_phi is the series quotient Tz / T1, the least-squares solution of the
    tall system L(C[:, 0])[:, :R/2] a_phi = C[:, 1].  It needs no shift for
    a zero of m at 0 and no masking of zeros of T1 elsewhere in the disk,
    where the square quotient is unstable.  A T1 whose coefficients all lie
    below 1e-10 max |C| is degenerate and raises; a non-finite column 0 or 1
    gives a NaN phi.
    """
    c, m = t_op.coefficients()
    if np.max(np.abs(c[:, 0])) <= 1e-10 * np.max(np.abs(c)):
        raise DegenerateOperatorError(
            f"{t_op.label}: T1 vanishes; no weighted-composition form can be recovered")
    h = c.shape[0] // 2
    a_phi = np.full(h, np.nan, dtype=complex)
    if np.all(np.isfinite(c[:, :2])):
        a_phi = np.linalg.lstsq(_toeplitz(c[:, 0], h), c[:, 1], rcond=None)[0]
    m.label = f"m[{t_op.label}]"
    return m, AnalyticFn.from_coefficients(a_phi, label=f"phi[{t_op.label}]"), a_phi, c


@dataclass
class IntertwinerReport:
    """Outcome of the weighted-composition-form verification."""

    multiplier: AnalyticFn | None
    self_map: AnalyticFn | None
    intertwining_residual: float
    self_map_max: float
    self_map_tail: float
    multiplier_bound_estimate: float
    multiplier_bound_growing: bool
    degenerate: bool = False
    passed: bool = False
    note: str = ""


def check_intertwiner(t_op: AbstractOperator) -> IntertwinerReport:
    """Full verification that T acts as f -> m (f o phi) with |phi| < 1.

    The intertwining residual max |C[:h, 1:] - L(phi) C[:h, :-1]| / max |C|
    reads the symbols and C of :func:`recover_symbols` on the leading
    h = R / 2 rows, all that phi's h coefficients reach; by induction it
    bounds T z^n - phi^n T1 and T f - m (f o phi).  The report adds max |phi|
    on ``disk_samples(60, max_radius=0.9)``, the size of phi's last
    coefficient (its truncation indicator) and a boundary lower estimate of
    the multiplier sup-norm.  T passes with residual below 1e-7; a NaN makes
    it NaN, which fails.  Failures are reported, not raised; an all-zero T1
    reads residual inf.
    """
    try:
        m, phi, a_phi, c = recover_symbols(t_op)
    except DegenerateOperatorError:
        return IntertwinerReport(None, None, np.inf, np.nan, np.nan, np.inf, True,
                                 degenerate=True, note="degenerate recovery: T1 vanishes")
    h = a_phi.size
    inter = float(np.max(np.abs(c[:h, 1:] - _toeplitz(a_phi, h) @ c[:h, :-1]))
                  / np.max(np.abs(c)))
    self_map_max = float(np.max(np.abs(phi(disk_samples(60, max_radius=0.9)))))
    bound_est, growing = np.inf, True
    circles = np.outer(1.0 - eps_ladder(1e-2, 0.5, 8), unit_circle(512))
    try:
        with np.errstate(over="ignore", invalid="ignore"):
            maxima = np.max(np.abs(m(circles)), axis=1)
    except DomainError:         # a T1 not defined out to the circles leaves the gate shut
        maxima = np.full(len(circles), np.nan)
    if np.all(np.isfinite(maxima)) and maxima[0] > 0:
        bound_est = float(np.max(maxima))
        growing = bool(maxima[-1] > 2.0 * maxima[len(maxima) // 2])
    passed = inter < 1e-7 and self_map_max < 1.0 - 1e-9 and not growing
    return IntertwinerReport(m, phi, inter, self_map_max, float(abs(a_phi[-1])),
                             bound_est, growing, passed=passed)


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
