"""Hardy and weighted Bergman space machinery.

Norms are computed by quadrature only: Hardy p-means on a geometric ladder
of circles extrapolated to the boundary, Bergman integrals by a radial rule
with the weight folded in (Gauss-Jacobi in s = r^2 for standard weights, so
the algebraic endpoint singularity of (1-s)^alpha is handled exactly) times
a uniform angular grid.

Also here: weight regularity probes, Carleson squares and their measures,
the boundary-concentrated test functions, duality pairings for p > 1, and
the pointwise growth estimate against the Bergman norm.
"""

from __future__ import annotations

from dataclasses import dataclass, field, asdict
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .analytic import AnalyticFn, disk_samples, eps_ladder, neville_extrapolate, unit_circle
from .errors import PreconditionError, QuadratureError, RegularityError


class RadialWeight:
    """A radial weight on the disk: standard (1+alpha)(1-|z|^2)^alpha or custom."""

    def __init__(self, fn=None, *, alpha: float | None = None, label: str = "weight"):
        if (fn is None) == (alpha is None):
            raise PreconditionError("provide exactly one of fn or alpha")
        if alpha is not None and alpha <= -1:
            raise PreconditionError("standard weight needs alpha > -1")
        self.alpha = None if alpha is None else float(alpha)
        self._fn = fn
        self.label = label if alpha is None else f"standard({alpha:g})"

    @classmethod
    def standard(cls, alpha: float) -> "RadialWeight":
        return cls(alpha=alpha)

    @classmethod
    def custom(cls, fn, label: str = "custom") -> "RadialWeight":
        return cls(fn=fn, label=label)

    @classmethod
    def from_table(cls, path) -> "RadialWeight":
        """Two-column CSV (r, omega(r)); linear interpolation, clamped ends."""
        table = np.loadtxt(path, delimiter=",", dtype=float)
        if table.ndim != 2 or table.shape[1] != 2:
            raise PreconditionError(f"weight table {path} must have two columns")
        r, w = table[:, 0], table[:, 1]
        if np.any(w < 0):
            raise PreconditionError("weight table contains negative values")
        return cls(fn=lambda s, _r=r, _w=w: np.interp(s, _r, _w), label=f"table({path})")

    @property
    def is_standard(self) -> bool:
        return self.alpha is not None

    def __call__(self, r):
        r = np.asarray(r, dtype=float)
        if self.is_standard:
            return (self.alpha + 1.0) * (1.0 - r ** 2) ** self.alpha
        return np.asarray(self._fn(r), dtype=float)

    def mass(self) -> float:
        """Total mass of omega dA over the disk (numerical)."""
        x, w = roots_legendre(512)
        r = 0.5 * (x + 1.0)
        vals = 2.0 * self(r) * r
        total = float(np.sum(0.5 * w * vals))
        if not np.isfinite(total):
            raise QuadratureError(f"weight {self.label} has non-finite mass")
        return total

    def __repr__(self):
        return f"RadialWeight({self.label})"


@dataclass(frozen=True)
class QuadConfig:
    """Grid sizes and the boundary-approach ladder shared by the norms."""

    n_theta: int = 512
    n_radial: int = 64
    n_radial_custom: int = 256
    eps_start: float = 1e-2
    eps_factor: float = 0.5
    eps_count: int = 12


DEFAULT_QUAD = QuadConfig()


@dataclass(frozen=True)
class SpaceSpec:
    """Hardy(p) or Bergman(p, omega) with its quadrature configuration."""

    kind: str
    p: float
    weight: RadialWeight | None = None
    quad: QuadConfig = field(default_factory=QuadConfig)

    def __post_init__(self):
        if self.kind not in ("hardy", "bergman"):
            raise PreconditionError(f"unknown space kind {self.kind!r}")
        if self.p < 1:
            raise PreconditionError("exponent p must be at least 1")
        if self.kind == "bergman" and self.weight is None:
            raise PreconditionError("a Bergman space needs a radial weight")

    @classmethod
    def hardy(cls, p: float, quad: QuadConfig = DEFAULT_QUAD) -> "SpaceSpec":
        return cls("hardy", float(p), None, quad)

    @classmethod
    def bergman(cls, p: float, weight: RadialWeight, quad: QuadConfig = DEFAULT_QUAD) -> "SpaceSpec":
        return cls("bergman", float(p), weight, quad)

    @classmethod
    def parse(cls, text: str) -> "SpaceSpec":
        """Parse ``hardy:p``, ``bergman:p:alpha`` or ``bergman:p:custom:<csv>``."""
        parts = [p.strip() for p in str(text).split(":")]
        if parts[0] == "hardy" and len(parts) == 2:
            return cls.hardy(float(parts[1]))
        if parts[0] == "bergman" and len(parts) >= 3:
            p = float(parts[1])
            if parts[2] == "custom":
                if len(parts) < 4:
                    raise PreconditionError("custom weight spec needs a table path")
                return cls.bergman(p, RadialWeight.from_table(":".join(parts[3:])))
            return cls.bergman(p, RadialWeight.standard(float(parts[2])))
        raise PreconditionError(f"cannot parse space spec {text!r}")

    @property
    def is_hardy(self) -> bool:
        return self.kind == "hardy"

    def conjugate(self) -> float:
        if self.p <= 1:
            raise PreconditionError("conjugate exponent is defined for p > 1 only")
        return self.p / (self.p - 1.0)

    def label(self) -> str:
        """Round-trips through :meth:`parse` for standard weights."""
        if self.is_hardy:
            return f"hardy:{self.p:g}"
        if self.weight.is_standard:
            return f"bergman:{self.p:g}:{self.weight.alpha:g}"
        return f"bergman:{self.p:g}:custom:{self.weight.label}"

    def norm(self, f: AnalyticFn) -> float:
        if self.is_hardy:
            return hardy_norm(f, self.p, self.quad)
        return bergman_norm(f, self.p, self.weight, self.quad)


@lru_cache(maxsize=64)
def _jacobi_unit_rule(n: int, alpha: float):
    """Nodes/weights with sum w_i g(s_i) ~ int_0^1 g(s) (1-s)^alpha ds."""
    if alpha == 0.0:
        x, w = roots_legendre(n)
        return 0.5 * (x + 1.0), 0.5 * w
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w * 2.0 ** (-alpha - 1.0)


class BoundaryLadder:
    """Circles of radius 1 - eps on the eps ladder of a quadrature config.

    Iterating yields ``(eps, nodes)`` one rung at a time; :meth:`limit`
    extrapolates per-rung values to the boundary with a Neville tableau.
    """

    def __init__(self, quad: QuadConfig, n_theta: int | None = None):
        self.eps = eps_ladder(quad.eps_start, quad.eps_factor, quad.eps_count)
        self.circle = unit_circle(n_theta or quad.n_theta)

    def __iter__(self):
        for eps in self.eps:
            yield eps, (1.0 - eps) * self.circle

    def limit(self, rung_values):
        """``(value, correction)`` at eps = 0; see :func:`neville_extrapolate`."""
        return neville_extrapolate(self.eps, rung_values)


class DiskRule:
    """Radial rule times a uniform angular grid for integrals against omega dA.

    Standard weights use Gauss-Jacobi in s = r^2, exact on the (1-s)^alpha
    endpoint, and keep their (alpha+1) factor apart as ``scale``; custom
    weights use Gauss-Legendre in r with r omega(r) folded into the weights.
    """

    def __init__(self, weight: RadialWeight, n_rad: int, n_ang: int):
        if weight.is_standard:
            s, self.radial_w = _jacobi_unit_rule(n_rad, weight.alpha)
            self.radii, self.scale = np.sqrt(s), weight.alpha + 1.0
        else:
            x, w = roots_legendre(n_rad)
            self.radii, self.scale = 0.5 * (x + 1.0), 1.0
            self.radial_w = w * self.radii * weight(self.radii)
        self.circle = unit_circle(n_ang)

    @classmethod
    def for_quad(cls, weight: RadialWeight, quad: QuadConfig) -> "DiskRule":
        """The rule ``quad`` prescribes, with its radial count for this kind of weight."""
        n_rad = quad.n_radial if weight.is_standard else quad.n_radial_custom
        return cls(weight, n_rad, quad.n_theta)

    def nodes(self) -> np.ndarray:
        """The (n_rad, n_ang) tensor nodes, built on each call so no cache holds them."""
        return self.radii[:, None] * self.circle[None, :]

    def integrate(self, values):
        """``scale`` times the radial sum of the angular means of ``values``."""
        return self.scale * np.sum(self.radial_w * np.mean(values, axis=1))


def _require_finite(value, samples, nodes, message: str) -> None:
    """Raise on a non-finite value; the witness is the first non-finite sample's node."""
    if not np.isfinite(value):
        bad = np.flatnonzero(~np.isfinite(samples))
        raise QuadratureError(message, witness=complex(nodes.flat[bad[0]]) if bad.size else None)


def hardy_norm(f: AnalyticFn, p: float, quad: QuadConfig | None = None) -> float:
    """Hardy-space norm: circle p-means extrapolated to the boundary.

    The means increase with the radius (subharmonicity), so the ladder
    values form a monotone profile whose extrapolant is the norm.
    """
    if p < 1:
        raise PreconditionError("hardy_norm needs p >= 1")
    ladder = BoundaryLadder(quad or DEFAULT_QUAD)
    vals = np.empty(ladder.eps.size)
    with np.errstate(over="ignore", invalid="ignore"):
        for i, (_, z) in enumerate(ladder):
            samples = np.abs(f(z)) ** p
            vals[i] = float(np.mean(samples) ** (1.0 / p))
            _require_finite(vals[i], samples, z, f"non-finite circle means for {f.label}")
    return float(ladder.limit(vals)[0].real)


def bergman_norm(f: AnalyticFn, p: float, weight: RadialWeight,
                 quad: QuadConfig | None = None) -> float:
    """Weighted Bergman norm by disk quadrature with the weight folded in."""
    if p < 1:
        raise PreconditionError("bergman_norm needs p >= 1")
    rule = DiskRule.for_quad(weight, quad or DEFAULT_QUAD)
    z = rule.nodes()
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.abs(f(z)) ** p
        total = float(rule.integrate(samples))
    _require_finite(total, samples, z, f"non-finite Bergman integrand for {f.label}")
    return total ** (1.0 / p)


def monomial_bergman_norm(n: int, p: float, alpha: float) -> float:
    """Closed-form |z^n| norm in the standard-weight Bergman space.

    ||z^n||^p = (alpha+1) B(pn/2 + 1, alpha + 1); used for orthonormal
    basis scaling where an analytic value keeps the matrix assembly exact.
    """
    from scipy.special import betaln
    logv = np.log(alpha + 1.0) + betaln(p * n / 2.0 + 1.0, alpha + 1.0)
    return float(np.exp(logv / p))


@dataclass
class RegularityReport:
    """Range of the tail-integral ratio used to classify a radial weight."""

    min_ratio: float
    max_ratio: float
    ratios: list
    r_values: list
    regular: bool
    band: float

    def to_dict(self) -> dict:
        return asdict(self)


def _tail_integral(weight: RadialWeight, r: float, n: int = 96) -> float:
    """int_r^1 omega(s) ds with the endpoint behavior folded into the rule."""
    if weight.is_standard:
        alpha = weight.alpha
        u, w = _jacobi_unit_rule(n, alpha)
        s = r + (1.0 - r) * u
        vals = (alpha + 1.0) * (1.0 + s) ** alpha
        return (1.0 - r) ** (alpha + 1.0) * float(np.sum(w * vals))
    x, w = roots_legendre(256)
    s = r + (1.0 - r) * 0.5 * (x + 1.0)
    return (1.0 - r) * float(np.sum(0.5 * w * weight(s)))


def is_regular(weight: RadialWeight, r_grid=None, band: float = 10.0,
               tail_slope_tol: float = 0.1) -> RegularityReport:
    """Probe whether int_r^1 omega is uniformly comparable to omega(r)(1-r).

    The verdict requires every sampled ratio inside (1/band, band) and no
    monotone drift in the last few grid points (a drifting tail signals a
    ratio running to 0 or infinity even if still inside the band).
    """
    if r_grid is None:
        r_grid = 1.0 - 2.0 ** -np.arange(1, 15)
    r_grid = np.asarray(r_grid, dtype=float)
    ratios = []
    used_r = []
    for r in r_grid:
        w_r = float(weight(np.array(r)))
        if w_r <= 0.0 or not np.isfinite(w_r):
            # A ratio trail already strictly out of band and still falling
            # when the weight underflows is a decided non-regular verdict;
            # a zero in any other situation leaves the ratio undefined.
            if len(ratios) >= 2 and ratios[-1] < 1.0 / band and ratios[-1] == min(ratios):
                break
            raise RegularityError(f"weight {weight.label} is zero (or bad) at r = {r}")
        ratios.append(_tail_integral(weight, float(r)) / (w_r * (1.0 - r)))
        used_r.append(float(r))
    ratios = np.asarray(ratios)
    in_band = bool(np.all((ratios > 1.0 / band) & (ratios < band)))
    logs = np.log(ratios[-5:])
    drift = float(np.mean(np.diff(logs)))
    steady = abs(drift) < tail_slope_tol
    return RegularityReport(float(np.min(ratios)), float(np.max(ratios)),
                            [float(v) for v in ratios], used_r,
                            in_band and steady, band)


@dataclass(frozen=True)
class CarlesonSquare:
    """Boundary-anchored box S(a) over the interval induced by a != 0.

    The interval is centered at a/|a| with angular half-width (1-|a|)/2;
    reading the interval length as plain arc length makes the radial range
    [|a|, 1), so the box stays inside the disk for every admissible center.
    """

    center: complex

    def __post_init__(self):
        if not 0.0 < abs(self.center) < 1.0:
            raise PreconditionError("Carleson square needs 0 < |a| < 1")

    @property
    def angular_half_width(self) -> float:
        return (1.0 - abs(self.center)) / 2.0

    @property
    def radial_range(self) -> tuple:
        return abs(self.center), 1.0

    def contains(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=complex)
        r_ok = (np.abs(z) >= abs(self.center)) & (np.abs(z) < 1.0)
        rel = np.angle(z * np.conj(self.center / abs(self.center)))
        return r_ok & (np.abs(rel) <= self.angular_half_width)

    def area(self) -> float:
        """Normalized area, i.e. the measure with the constant unit weight."""
        mod = abs(self.center)
        return (1.0 - mod) * (1.0 - mod ** 2) / (2.0 * np.pi)


def carleson_measure(weight: RadialWeight, a: complex) -> float:
    """omega-measure of the Carleson square S(a), normalized-area convention.

    The square sits over the boundary interval of arc length 1 - |a|
    centered at a/|a|, with radial range [|a|, 1).
    """
    mod = abs(complex(a))
    if not 0.0 < mod < 1.0:
        raise PreconditionError("carleson_measure needs 0 < |a| < 1")
    if weight.is_standard:
        alpha = weight.alpha
        s0 = mod ** 2
        u, w = _jacobi_unit_rule(96, alpha)
        # int_{|a|}^1 omega(r) r dr = (alpha+1)/2 * int_{s0}^1 (1-s)^alpha ds
        radial = 0.5 * (alpha + 1.0) * (1.0 - s0) ** (alpha + 1.0) * float(np.sum(w))
    else:
        x, w = roots_legendre(192)
        r = mod + (1.0 - mod) * 0.5 * (x + 1.0)
        radial = (1.0 - mod) * float(np.sum(0.5 * w * weight(r) * r))
    return (1.0 - mod) / np.pi * radial


def default_gamma(p: float, weight: RadialWeight) -> float:
    """Exponent for the boundary test functions; p(alpha+2)+1 for standard
    weights, a conservative proxy otherwise."""
    alpha = weight.alpha if weight.is_standard else 1.0
    return p * (alpha + 2.0) + 1.0


def test_function(a: complex, p: float, gamma: float | None = None,
                  weight: RadialWeight | None = None) -> AnalyticFn:
    """Boundary-concentrated unit-scale test function anchored at ``a``.

    f(z) = (1-|a|)^{(gamma+1)/p} / ((1 - conj(a) z)^{(gamma+1)/p} omega(S(a))^{1/p}),
    principal branch (safe: Re(1 - conj(a) z) > 0 on the disk).
    """
    weight = weight or RadialWeight.standard(0.0)
    a = complex(a)
    if gamma is None:
        gamma = default_gamma(p, weight)
    if gamma <= 0:
        raise PreconditionError("test-function exponent must be positive")
    q = (gamma + 1.0) / p
    scale = (1.0 - abs(a)) ** q / carleson_measure(weight, a) ** (1.0 / p)
    abar = np.conj(a)
    return AnalyticFn(lambda z: scale * np.exp(-q * np.log(1.0 - abar * z)),
                      label=f"test[a={a:.4g},p={p:g}]")


def pairing(f: AnalyticFn, g: AnalyticFn, space: SpaceSpec) -> complex:
    """Duality pairing <f, g>; requires p > 1 (the p = 1 duals are out of scope)."""
    if space.p <= 1:
        raise PreconditionError("pairing is supported for p > 1 only")
    message = f"non-finite pairing samples for {f.label} and {g.label}"
    with np.errstate(over="ignore", invalid="ignore"):
        if space.is_hardy:
            ladder = BoundaryLadder(space.quad)
            vals = np.empty(ladder.eps.size, dtype=complex)
            for i, (_, z) in enumerate(ladder):
                samples = f(z) * np.conj(g(z))
                vals[i] = np.mean(samples)
                _require_finite(vals[i], samples, z, message)
            return complex(ladder.limit(vals)[0])
        rule = DiskRule.for_quad(space.weight, space.quad)
        z = rule.nodes()
        samples = f(z) * np.conj(g(z))
        total = complex(rule.integrate(samples))
    _require_finite(total, samples, z, message)
    return total


def growth_bound_check(f: AnalyticFn, p: float, alpha: float, grid=None) -> float:
    """max over the grid of (1-|z|^2)^{(2+alpha)/p} |f(z)| / ||f||.

    The pointwise Bergman growth estimate makes this at most 1 up to
    quadrature slack; a zero computed norm is rejected.
    """
    norm = bergman_norm(f, p, RadialWeight.standard(alpha))
    if norm <= 0.0 or not np.isfinite(norm):
        raise PreconditionError("growth bound undefined for zero (or bad) norm")
    if grid is None:
        grid = np.concatenate([[0.0 + 0.0j], disk_samples(240, max_radius=0.995, min_radius=0.0)])
    grid = np.asarray(grid, dtype=complex)
    lhs = (1.0 - np.abs(grid) ** 2) ** ((2.0 + alpha) / p) * np.abs(f(grid))
    return float(np.max(lhs)) / norm
