"""Weighted composition operators: function action, finite sections, norms.

The p = 2 route truncates the operator to its N x N matrix in the
orthonormal monomial basis and takes the largest singular value by power
iteration (a lower bound for the operator norm, nondecreasing in N).  The
general-p route maximizes ||Tf||/||f|| over a deterministic trial family.
The two surrogates cross-validate each other; neither is an exact norm.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .analytic import AnalyticFn, disk_samples, neville_extrapolate  # noqa: F401 (perfbench patches it)
from .cocycle import Cocycle
from .errors import DomainError, PreconditionError
from .flow import Semiflow
from .spaces import BoundaryLadder, DiskRule, SpaceSpec, monomial_bergman_norm, test_function

_SELFMAP_TOL = 1e-9


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

    def __call__(self, f: AnalyticFn) -> AnalyticFn:
        return self.apply(f)

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
    """Norms of the monomials z^n, so e_n = z^n / scale_n is orthonormal."""
    if space.p != 2:
        raise PreconditionError("orthonormal monomial sections need p = 2")
    if space.is_hardy:
        return np.ones(count)
    if not space.weight.is_standard:
        raise PreconditionError("matrix sections support standard Bergman weights only")
    return np.array([monomial_bergman_norm(n, 2.0, space.weight.alpha) for n in range(count)])


def matrix(op: WeightedCompOp, space: SpaceSpec, dim: int = 64) -> OperatorMatrix:
    """Entries <T e_j, e_i> computed column by column through quadrature.

    Per column the operator image is sampled once per circle; all the row
    pairings then come out of one FFT, so assembly is linear in the grid.
    """
    if dim < 2:
        raise PreconditionError("matrix dimension must be at least 2")
    if space.p != 2:
        raise PreconditionError("matrix sections are defined on p = 2 spaces")
    n_theta = max(space.quad.n_theta, 4 * dim)
    scales = basis_scales(space, dim)
    rows = np.arange(dim)
    if space.is_hardy:
        ladder = BoundaryLadder(space.quad, n_theta)
        pairs = np.empty((ladder.eps.size, dim, dim), dtype=complex)
        tail = 0.0
        for k, (eps, z) in enumerate(ladder):
            mv = op.m(z)
            pv = op.phi(z)
            col = np.ones_like(z)
            for j in range(dim):
                vals = mv * col  # m(z) * phi(z)^j
                spec = np.fft.fft(vals) / n_theta
                # <g, e_i> on the circle of radius 1-eps equals hat{g}_i (1-eps)^{2i}
                pairs[k, :, j] = spec[:dim] * (1.0 - eps) ** rows
                if k == ladder.eps.size - 1:
                    energy = float(np.mean(np.abs(vals) ** 2))
                    captured = float(np.sum(np.abs(spec[:dim]) ** 2))
                    tail = max(tail, np.sqrt(max(energy - captured, 0.0)))
                col = col * pv
        return OperatorMatrix(ladder.limit(pairs)[0], space.label(), dim, tail)
    rule = DiskRule(space.weight, max(space.quad.n_radial, dim), n_theta)
    z = rule.nodes()
    mv = op.m(z)
    pv = op.phi(z)
    radial_pow = rule.radii[:, None] ** rows[None, :]     # [R, dim]
    entries = np.empty((dim, dim), dtype=complex)
    tail = 0.0
    col = np.ones_like(z)
    for j in range(dim):
        vals = mv * col / scales[j]
        spec = np.fft.fft(vals, axis=1) / n_theta          # [R, modes]
        proj = rule.scale * np.sum(rule.radial_w[:, None] * spec[:, :dim] * radial_pow, axis=0)
        entries[:, j] = proj / scales
        energy = float(rule.integrate(np.abs(vals) ** 2))
        captured = float(np.sum(np.abs(entries[:, j]) ** 2))
        tail = max(tail, np.sqrt(max(energy - captured, 0.0)))
        col = col * pv
    return OperatorMatrix(entries, space.label(), dim, tail)


@dataclass
class PowerIterationResult:
    """Largest singular value estimate with its convergence diagnostics."""

    value: float
    converged: bool
    iterations: int


def norm2(a: OperatorMatrix | np.ndarray, iters: int = 1000, tol: float = 1e-12) -> PowerIterationResult:
    """Largest singular value by power iteration on A* A.

    A lower bound for the operator norm that is nondecreasing in the
    section size.  Non-convergence is flagged, never raised.
    """
    mat = a.entries if isinstance(a, OperatorMatrix) else np.asarray(a, dtype=complex)
    n = mat.shape[0]
    v = 1.0 / np.sqrt(np.arange(1, n + 1))
    v = v / np.linalg.norm(v)
    sigma = 0.0
    for k in range(1, iters + 1):
        u = mat.conj().T @ (mat @ v)
        nu = np.linalg.norm(u)
        if nu == 0.0:
            return PowerIterationResult(0.0, True, k)
        v = u / nu
        new_sigma = float(np.sqrt(nu))
        if abs(new_sigma - sigma) <= tol * max(new_sigma, 1e-300):
            return PowerIterationResult(new_sigma, True, k)
        sigma = new_sigma
    return PowerIterationResult(sigma, False, iters)


def _hardy_trial(a: complex, p: float) -> AnalyticFn:
    """Unit-norm boundary-concentrated Hardy trial function."""
    abar = np.conj(complex(a))
    q = 2.0 / p
    scale = (1.0 - abs(complex(a)) ** 2) ** (1.0 / p)
    return AnalyticFn(lambda z: scale * np.exp(-q * np.log(1.0 - abar * z)),
                      label=f"hardy-trial[{a:.3g}]")


def norm_lower_bound(op: WeightedCompOp, space: SpaceSpec, trials: int = 32,
                     seed: int = 0, degree: int = 12) -> float:
    """max ||T f|| / ||f|| over seeded random polynomials plus boundary
    test functions; a deterministic lower bound for the operator norm."""
    if trials < 1:
        raise PreconditionError("need at least one trial")
    rng = np.random.default_rng(seed)
    best = 0.0
    for _ in range(trials):
        coeffs = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
        f = AnalyticFn.from_coefficients(coeffs)
        nf = space.norm(f)
        if nf <= 0:
            continue
        best = max(best, space.norm(op.apply(f)) / nf)
    for r in (0.2, 0.5, 0.8, 0.95):
        for ang in range(4):
            a = r * np.exp(2j * np.pi * (ang + 0.25) / 4)
            f = _hardy_trial(a, space.p) if space.is_hardy else \
                test_function(a, space.p, weight=space.weight)
            nf = space.norm(f)
            if nf <= 0:
                continue
            best = max(best, space.norm(op.apply(f)) / nf)
    return best


def semigroup_op(flow: Semiflow, cocycle: Cocycle, t: float,
                 validate: bool = True) -> WeightedCompOp:
    """The weighted composition operator S_t f = m_t * (f o phi_t)."""
    if t < 0:
        raise PreconditionError("semigroup time must be nonnegative")
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

    def apply(self, t: float, f: AnalyticFn) -> AnalyticFn:
        return self.at(t, validate=False).apply(f)

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
    return flat[:, 0::2] + 1j * flat[:, 1::2]
