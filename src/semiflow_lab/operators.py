"""Weighted composition operators: function action, finite sections, norms.

The p = 2 route reads the N x N section in the orthonormal monomial basis
from Taylor coefficients on one circle and takes the largest singular value
by power iteration (a lower bound for the operator norm, nondecreasing in
N).  The general-p route maximizes ||Tf||/||f|| over a deterministic trial family.
The two surrogates cross-validate each other; neither is an exact norm.
Both evaluate the symbols m and phi once per node set: a section on its
circle, the trial family on the space's quadrature nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticFn, circle_coefficients, disk_samples, unit_circle
from .analytic import neville_extrapolate  # noqa: F401 (perfbench patches it here)
from .cocycle import Cocycle
from .errors import DomainError, PreconditionError
from .flow import Semiflow
from .spaces import SpaceSpec, _lp_norm, test_function

_SELFMAP_TOL = 1e-9

# The circle of the sections' Taylor coefficients: rounding in a_i grows like
# radius^-i, 680x at i = 127 (the tail modes of dim 64), and aliasing adds
# a_{i+n} radius^n, below e^-100 on max(2048, 8 dim) nodes.  Past _MAX_DIM the
# tail modes lose digits (gallery sections read 1.5e-11 off at dim 256).
_COEFF_RADIUS = 0.95
_COEFF_NODES = 2048
_MAX_DIM = 128


class WeightedCompOp:
    """f -> m * (f o phi) for a multiplier m and an analytic self-map phi."""

    def __init__(self, m: AnalyticFn, phi: AnalyticFn, validate: bool = True,
                 label: str | None = None):
        self.m = m
        self.phi = phi
        self.label = label or f"M[{m.label}]C[{phi.label}]"
        if validate:
            grid = disk_samples(64, max_radius=0.95)
            top = float(np.max(np.abs(phi(grid))))
            if top > 1.0 + _SELFMAP_TOL:
                raise DomainError(
                    f"{self.label}: |phi| reaches {top:.9g} on the sample grid; "
                    "not a self-map of the disk")

    def apply(self, f: AnalyticFn) -> AnalyticFn:
        return AnalyticFn(lambda z: self.m(z) * f(self.phi(z)),
                          label=f"{self.label}({f.label})")

    def __repr__(self):
        return f"WeightedCompOp({self.label})"


def multiplication_op(m: AnalyticFn) -> WeightedCompOp:
    """The multiplication operator f -> m f."""
    return WeightedCompOp(m, AnalyticFn.identity(), label=f"M[{m.label}]")


def composition_op(phi: AnalyticFn) -> WeightedCompOp:
    """The composition operator f -> f o phi."""
    return WeightedCompOp(AnalyticFn.constant(1.0), phi, label=f"C[{phi.label}]")


@dataclass
class OperatorMatrix:
    """Finite section of an operator in the orthonormal monomial basis."""

    entries: np.ndarray
    space_label: str
    dim: int
    tail_bound: float

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.shape != (self.dim, self.dim):
            raise PreconditionError("matrix shape does not match its declared dimension")


def basis_scales(space: SpaceSpec, count: int) -> np.ndarray:
    """Norms of the monomials z^n, so e_n = z^n / scale_n is orthonormal; on A^2_alpha the
    product of k / (k + alpha + 1), k <= n, exact to a few ulps where log-Gamma loses 6e-14."""
    if space.p != 2:
        raise PreconditionError("orthonormal monomial sections need p = 2")
    if space.is_hardy:
        return np.ones(count)
    if not space.weight.is_standard:
        raise PreconditionError("matrix sections support standard Bergman weights only")
    k = np.arange(1.0, count)
    return np.sqrt(np.cumprod(np.concatenate(([1.0], k / (k + space.weight.alpha + 1.0)))))


def power_coefficients(op: WeightedCompOp, radius: float, nodes: int, rows: int,
                       cols: int) -> np.ndarray:
    """The rows x cols matrix C_ij = a_i(m phi^j) of Taylor coefficients, each column
    from one FFT of its samples on ``nodes`` points of the circle ``radius``
    (:func:`analytic.circle_coefficients`).  m and phi are evaluated once; the
    m phi^j buffer is multiplied by phi in place from column to column."""
    z = radius * unit_circle(nodes)
    pv = op.phi(z)
    col = np.array(op.m(z))      # a copy: m may return its argument
    coeffs = np.empty((rows, cols), dtype=complex)
    for j in range(cols):
        coeffs[:, j] = circle_coefficients(col, radius, rows)
        col *= pv
    return coeffs


def matrix(op: WeightedCompOp, space: SpaceSpec, dim: int = 64) -> OperatorMatrix:
    """Entries <T e_j, e_i> = a_i(m phi^j) s_i / s_j from Taylor coefficients.

    Monomials are orthogonal for every radial weight, so a section needs only
    the coefficients a_i of m phi^j, read on the circle |z| = ``_COEFF_RADIUS``
    by :func:`power_coefficients`.
    ``tail_bound`` is the largest norm of a column's image in the modes
    dim ... 2 dim - 1 that the section drops, read from the same FFT.
    """
    if not 2 <= dim <= _MAX_DIM:
        raise PreconditionError(f"matrix dimension must be at least 2 and at most {_MAX_DIM}, "
                                f"got {dim}")
    scales = basis_scales(space, 2 * dim)       # rejects p != 2
    coeffs = power_coefficients(op, _COEFF_RADIUS, max(_COEFF_NODES, 8 * dim), 2 * dim, dim)
    coeffs *= scales[:, None] / scales[None, :dim]
    tail = float(np.max(np.linalg.norm(coeffs[dim:], axis=0)))
    return OperatorMatrix(coeffs[:dim], space.label(), dim, tail)


@dataclass
class PowerIterationResult:
    """Largest singular value estimate with its convergence diagnostics."""

    value: float
    converged: bool
    iterations: int


def norm2(a: OperatorMatrix | np.ndarray) -> PowerIterationResult:
    """Largest singular value by power iteration on A* A.

    A lower bound for the operator norm that is nondecreasing in the
    section size.  Stops when two estimates agree to 1e-12 relative;
    non-convergence after 1000 iterations is flagged, never raised.
    """
    mat = a.entries if isinstance(a, OperatorMatrix) else np.asarray(a, dtype=complex)
    n = mat.shape[0]
    v = 1.0 / np.sqrt(np.arange(1, n + 1))
    v = v / np.linalg.norm(v)
    sigma = 0.0
    for k in range(1, 1001):
        u = mat.conj().T @ (mat @ v)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return PowerIterationResult(0.0, True, k)
        v = u / nu
        new_sigma = float(np.sqrt(nu))
        if abs(new_sigma - sigma) <= 1e-12 * max(new_sigma, 1e-300):
            return PowerIterationResult(new_sigma, True, k)
        sigma = new_sigma
    return PowerIterationResult(sigma, False, 1000)


def _hardy_trial(a: complex, p: float) -> AnalyticFn:
    """Unit-norm boundary-concentrated Hardy trial function."""
    scale = (1.0 - abs(complex(a)) ** 2) ** (1.0 / p)
    return AnalyticFn.kernel_power(a, -2.0 / p, scale, label=f"hardy-trial[{a:.3g}]")


def norm_lower_bound(op: WeightedCompOp, space: SpaceSpec, trials: int = 32,
                     seed: int = 0) -> float:
    """max ||T f|| / ||f|| over seeded random polynomials of degree 12 plus
    boundary test functions; a deterministic lower bound for the operator norm.

    The space's quadrature nodes z are built once and m(z), phi(z) read once;
    each trial f is evaluated at z and at phi(z), and ||T f|| integrates
    m(z) f(phi(z)).
    """
    if trials < 1:
        raise PreconditionError("need at least one trial")
    rng = np.random.default_rng(seed)
    family = [AnalyticFn.from_coefficients(rng.standard_normal(13) + 1j * rng.standard_normal(13))
              for _ in range(trials)]
    for r in (0.2, 0.5, 0.8, 0.95):
        for ang in range(4):
            a = r * np.exp(2j * np.pi * (ang + 0.25) / 4)
            family.append(_hardy_trial(a, space.p) if space.is_hardy else
                          test_function(a, space.p, weight=space.weight))
    z, masses = space.rule().measure()
    best = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        mz, pz = op.m(z), op.phi(z)
        for f in family:
            nf = _lp_norm(f(z), z, space.p, masses, f.label)
            if nf > 0:
                tf = _lp_norm(mz * f(pz), z, space.p, masses, f"{op.label}({f.label})")
                best = max(best, tf / nf)
    return best


def semigroup_op(flow: Semiflow, cocycle: Cocycle, t: float,
                 validate: bool = True) -> WeightedCompOp:
    """The weighted composition operator S_t f = m_t * (f o phi_t)."""
    if not 0 <= t < np.inf:                 # written so that NaN fails too
        raise PreconditionError(f"semigroup time must be finite and nonnegative, got {t}")
    return WeightedCompOp(cocycle.fn(t), flow.map_fn(t), validate=validate,
                          label=f"S[{flow.name}/{cocycle.name}@{t:g}]")


class OperatorSemigroup:
    """The map t -> S_t for a bound (flow, cocycle) pair."""

    def __init__(self, flow: Semiflow, cocycle: Cocycle, name: str | None = None):
        self.flow = flow
        self.cocycle = cocycle
        self.name = name or f"{flow.name}/{cocycle.name}"

    def at(self, t: float, validate: bool = True) -> WeightedCompOp:
        return semigroup_op(self.flow, self.cocycle, t, validate=validate)

    def __repr__(self):
        return f"OperatorSemigroup({self.name})"


def gallery_semigroups():
    """The three canonical bounded gallery pairs used by the cross-checks."""
    from . import cocycle as cc
    from . import flow as fl

    dil = fl.dilation()
    att = fl.attraction()
    rot = fl.rotation(1.0)
    return [
        OperatorSemigroup(dil, cc.make_coboundary(
            AnalyticFn.identity(), dil, zero_candidates=(0.0,)), name="dilation/coboundary-z"),
        OperatorSemigroup(att, cc.Cocycle.derivative(att), name="attraction/derivative"),
        OperatorSemigroup(rot, cc.make_coboundary(
            AnalyticFn.identity(), rot, zero_candidates=(0.0,)), name="rotation/coboundary-z"),
    ]


def extended_gallery():
    """Bounded gallery plus the growth and blowup stress cases."""
    from . import cocycle as cc
    from . import flow as fl

    pairs = gallery_semigroups()
    pairs.append(OperatorSemigroup(fl.dilation(), cc.exp_growth_cocycle(),
                                   name="dilation/exp-growth"))
    blowup = OperatorSemigroup(fl.identity_flow(), cc.poisson_blowup_cocycle(),
                               name="identity/poisson-blowup")
    return pairs, blowup


def save_matrix_csv(a: OperatorMatrix | np.ndarray, path) -> None:
    """Row-major CSV; each entry contributes its re,im pair of columns."""
    mat = a.entries if isinstance(a, OperatorMatrix) else np.asarray(a, dtype=complex)
    flat = np.empty((mat.shape[0], 2 * mat.shape[1]))
    flat[:, 0::2] = mat.real
    flat[:, 1::2] = mat.imag
    np.savetxt(path, flat, delimiter=",")


def load_matrix_csv(path) -> np.ndarray:
    flat = np.atleast_2d(np.loadtxt(path, delimiter=",", dtype=float))
    if flat.shape[1] % 2:
        raise PreconditionError(f"matrix CSV {path} must hold re,im pairs")
    if not np.all(np.isfinite(flat)):
        raise PreconditionError(f"matrix CSV {path} holds non-finite entries")
    return flat[:, 0::2] + 1j * flat[:, 1::2]
