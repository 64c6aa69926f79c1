"""Hardy and weighted Bergman space machinery.

Both spaces are L^p(mu), mu the boundary measure for H^p and omega dA for
A^p_omega, and every norm, pairing and finite section is one integral
against mu by a :class:`DiskRule`, which :meth:`SpaceSpec.rule` picks:
rings times a uniform angular grid.  For Hardy the rings are a geometric
ladder of circles whose radial weights extrapolate the circle means to the
boundary; for Bergman they are a radial rule with the weight folded in
(Gauss-Jacobi in s = r^2 for standard weights, so the algebraic endpoint
singularity of (1-s)^alpha is handled exactly).  For kernels that
concentrate at the boundary, :class:`GradedDiskRule` takes either rule's
rings with a power-of-two angular count per ring, graded toward the
boundary, as nested generations: the criteria sum one kernel against them,
flat nodes and masses, a generation at a time (:func:`kernel_sums`).

Also here: weight regularity probes, the omega-measure of a Carleson
square, the boundary-concentrated test functions, duality pairings for
p > 1, and the pointwise growth estimate against the Bergman norm.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict
from functools import lru_cache

import numpy as np
from scipy.special import roots_jacobi, roots_legendre

from .analytic import AnalyticFn, disk_samples, eps_ladder, unit_circle
from .analytic import neville_extrapolate  # noqa: F401 (perfbench patches it here)
from .errors import PreconditionError, QuadratureError, RegularityError, spec_number

# The spaces' own quadrature: N_ANG angles per ring; N_RAD rings for a
# standard weight (Gauss-Jacobi in s = r^2) and 4 N_RAD for a custom one
# (Gauss-Legendre in r, which does not absorb the endpoint); for Hardy the
# circles of radius 1 - eps on BOUNDARY_EPS = 1e-2 2^-k, k < 12.
N_ANG = 512
N_RAD = 64
BOUNDARY_EPS = eps_ladder(1e-2, 0.5, 12)
BOUNDARY_EPS.flags.writeable = False


class RadialWeight:
    """A radial weight on the disk: standard (1+alpha)(1-|z|^2)^alpha or custom."""

    def __init__(self, fn=None, *, alpha: float | None = None, label: str = "weight"):
        if (fn is None) == (alpha is None):
            raise PreconditionError("provide exactly one of fn or alpha")
        # written so that NaN fails too
        if alpha is not None and not -1 < alpha < np.inf:
            raise PreconditionError(f"standard weight needs a finite alpha > -1, got {alpha}")
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
        """Two-column CSV (r, omega(r)), r strictly increasing; linear
        interpolation, clamped ends."""
        try:
            table = np.loadtxt(path, delimiter=",", dtype=float)
        except (OSError, ValueError) as exc:
            raise PreconditionError(f"cannot read weight table {path}: {exc}") from None
        if table.ndim != 2 or table.shape[1] != 2:
            raise PreconditionError(f"weight table {path} must have two columns")
        r, w = table[:, 0], table[:, 1]
        if not np.all(np.isfinite(table)):
            raise PreconditionError(f"weight table {path} contains non-finite values")
        if np.any(np.diff(r) <= 0):
            raise PreconditionError(f"weight table {path} needs strictly increasing r")
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
class SpaceSpec:
    """Hardy(p) or Bergman(p, omega); the space fixes its measure mu."""

    kind: str
    p: float
    weight: RadialWeight | None = None

    def __post_init__(self):
        if self.kind not in ("hardy", "bergman"):
            raise PreconditionError(f"unknown space kind {self.kind!r}")
        if not 1 <= self.p < np.inf:
            raise PreconditionError(f"exponent p must be finite and at least 1, got {self.p}")
        if self.kind == "bergman" and self.weight is None:
            raise PreconditionError("a Bergman space needs a radial weight")

    @classmethod
    def hardy(cls, p: float) -> "SpaceSpec":
        return cls("hardy", float(p))

    @classmethod
    def bergman(cls, p: float, weight: RadialWeight) -> "SpaceSpec":
        return cls("bergman", float(p), weight)

    @classmethod
    def parse(cls, text: str) -> "SpaceSpec":
        """Parse ``hardy:p``, ``bergman:p:alpha`` or ``bergman:p:custom:<csv>``."""
        parts = [p.strip() for p in str(text).split(":")]
        if parts[0] == "hardy" and len(parts) == 2:
            return cls.hardy(spec_number(float, parts[1], text))
        if parts[0] == "bergman" and len(parts) >= 3:
            p = spec_number(float, parts[1], text)
            if parts[2] == "custom":
                if len(parts) < 4:
                    raise PreconditionError("custom weight spec needs a table path")
                return cls.bergman(p, RadialWeight.from_table(":".join(parts[3:])))
            return cls.bergman(p, RadialWeight.standard(spec_number(float, parts[2], text)))
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

    def rule(self, n_ang: int = N_ANG, n_rad: int = N_RAD) -> "DiskRule":
        """The space's measure with ``n_ang`` angles per ring: the circles of
        ``BOUNDARY_EPS`` for Hardy (``n_rad`` unused); ``n_rad`` rings for a
        standard Bergman weight, 4 ``n_rad`` for a custom one."""
        if self.is_hardy:
            return DiskRule.boundary(n_ang)
        n_rad = n_rad if self.weight.is_standard else 4 * n_rad
        return DiskRule.weighted(self.weight, n_rad, n_ang)

    def norm(self, f: AnalyticFn) -> float:
        if self.is_hardy:
            return hardy_norm(f, self.p)
        return bergman_norm(f, self.p, self.weight)


@lru_cache(maxsize=64)
def _jacobi_unit_rule(n: int, alpha: float):
    """Nodes/weights with sum w_i g(s_i) ~ int_0^1 g(s) (1-s)^alpha ds."""
    if alpha == 0.0:
        x, w = roots_legendre(n)
        return 0.5 * (x + 1.0), 0.5 * w
    x, w = roots_jacobi(n, alpha, 0.0)
    return 0.5 * (x + 1.0), w * 2.0 ** (-alpha - 1.0)


def _radial_rule(weight: RadialWeight, n_rad: int):
    """``(radii, radial_w, scale)`` with scale * sum radial_w g(r) ~ int_0^1 g(r) omega(r) 2r dr.

    Standard weights use Gauss-Jacobi in s = r^2, exact on the (1-s)^alpha
    endpoint, and keep their (alpha+1) factor apart as ``scale``; custom
    weights use Gauss-Legendre in r with r omega(r) folded into the weights.
    """
    if weight.is_standard:
        s, radial_w = _jacobi_unit_rule(n_rad, weight.alpha)
        return np.sqrt(s), radial_w, weight.alpha + 1.0
    x, w = roots_legendre(n_rad)
    radii = 0.5 * (x + 1.0)
    return radii, w * radii * weight(radii), 1.0


class DiskRule:
    """Rings of radius r_k times a uniform angular grid: one measure of L^p(mu).

    ``integrate(values)`` is ``scale * sum_k radial_w_k * mean_k(values)``.
    For omega dA (:meth:`weighted`) the rings are a radial Gauss rule; for
    the boundary measure of H^p (:meth:`boundary`) they are circles of
    radius 1 - eps on the eps ladder and radial_w are the Lagrange weights
    at eps = 0, so the sum is the circle means extrapolated to the boundary.
    """

    def __init__(self, radii, radial_w, scale: float, n_ang: int):
        self.radii, self.radial_w, self.scale = radii, radial_w, scale
        self.circle = unit_circle(n_ang)

    @classmethod
    def weighted(cls, weight: RadialWeight, n_rad: int, n_ang: int) -> "DiskRule":
        """Integrals against omega dA; see :func:`_radial_rule`."""
        return cls(*_radial_rule(weight, n_rad), n_ang)

    @classmethod
    def boundary(cls, n_ang: int = N_ANG) -> "DiskRule":
        """Boundary means on the circles 1 - eps, eps in ``BOUNDARY_EPS``:
        weights c_i = prod_{k != i} eps_k / (eps_k - eps_i).

        The weights sum to one and reproduce at eps = 0 every polynomial in
        eps of degree below the ladder's length.
        """
        eps = BOUNDARY_EPS
        gaps = eps[None, :] - eps[:, None]
        np.fill_diagonal(gaps, 1.0)
        ratios = eps[None, :] / gaps
        np.fill_diagonal(ratios, 1.0)
        return cls(1.0 - eps, np.prod(ratios, axis=1), 1.0, n_ang)

    def nodes(self) -> np.ndarray:
        """The (n_rad, n_ang) tensor nodes, built on each call so no cache holds them."""
        return self.radii[:, None] * self.circle[None, :]

    def integrate(self, values):
        """``scale`` times the radial sum of the angular means of ``values``."""
        return self.scale * np.sum(self.radial_w * np.mean(values, axis=1))


class GradedDiskRule:
    """Rings r_i with weights c_i and power-of-two angular counts, as nested generations.

    Ring i takes n_i = base 2^(d_i - 1) angles, d_i >= 1 nondecreasing in i.
    Generation 0 is every other point of the base count on every ring, and
    generation h >= 1 the odd points of count base 2^(h-1) on the rings
    with d_i >= h.  Generations lie back to back (``offsets``), ring by
    ring, with masses 2 c_i / base: ring i's sum over generations 0..G is
    2^min(G, d_i) times its integral on min(n_i, base 2^(G-1)) points.  A
    segment of a generation is its rings of one d_i (``cuts``, ``cut_depth``;
    generation h's segments start at ``first_cut[h]``).
    """

    def __init__(self, radii, radial_w, depth, base: int):
        self.radii, self.depth, self.half = radii, np.asarray(depth), base // 2
        self.mass = radial_w / self.half
        self._first = np.searchsorted(self.depth, np.arange(self.depth.max() + 1))
        self.offsets, cuts, cut_depth, self.first_cut = [0], [], [], [0]
        for h, first in enumerate(self._first):
            per_ring = self.half << max(h - 1, 0)
            depths, starts = np.unique(self.depth[first:], return_index=True)
            cuts.extend(self.offsets[-1] + starts * per_ring)
            cut_depth.extend(depths)
            self.offsets.append(self.offsets[-1] + (radii.size - first) * per_ring)
            self.first_cut.append(len(cuts))
        self.cuts, self.cut_depth = np.array(cuts), np.array(cut_depth)

    @classmethod
    def weighted(cls, weight: RadialWeight, n_rad: int, ang_scale: float, ang_base: int,
                 ang_cap: int) -> "GradedDiskRule":
        """The radial rule of :meth:`DiskRule.weighted`, ring i with clip(ceil(ang_scale /
        (1 - r_i)), ang_base, ang_cap) angles rounded up to a power of two (``ang_base``
        is one), resolving alike an integrand of angular width about 1 - r on ring r;
        generations 0..G floor that width at ang_scale / (ang_base 2^(G-1))."""
        radii, radial_w, scale = _radial_rule(weight, n_rad)
        counts = np.clip(np.ceil(ang_scale / (1.0 - radii)), ang_base, ang_cap)
        return cls(radii, scale * radial_w, np.ceil(np.log2(counts / ang_base)).astype(int) + 1,
                   ang_base)

    def generation(self, h: int):
        """Flat nodes and masses of generation ``h``, built on each call so no cache holds them."""
        n = self.half << h
        circle = np.exp(2j * np.pi * (np.arange(n) if h == 0 else np.arange(1, n, 2)) / n)
        rings = slice(self._first[h], None)
        return (self.radii[rings, None] * circle).ravel(), np.repeat(self.mass[rings], circle.size)


# Anchors x nodes per block of a kernel sum: each float temporary of a
# block then takes 512 KiB and stays in L2 cache.
_KERNEL_BLOCK = 65536


def kernel_sums(r: float, angles, w, masses, q: float, cuts) -> np.ndarray:
    """sum_j masses_j ((1 - r^2)(1 - |w_j|^2) + |a - w_j|^2)^-q per anchor a = r e^{i angle}
    and segment; segment k runs from node ``cuts[k]`` to the next (an int array, cuts[0] = 0).

    The bracket is |1 - conj(a) w_j|^2 written as a sum of nonnegative
    terms, so it does not cancel at the kernel's spike.  ``w`` (complex)
    and ``masses`` (real) are one discrete measure; the nodes run in blocks
    of about ``_KERNEL_BLOCK / len(angles)``, with contiguous copies of
    Re w and Im w, and the partial sums are added in block order.
    """
    a = r * np.exp(1j * np.asarray(angles, dtype=float)).reshape(-1, 1)
    head = (1.0 - r) * (1.0 + r)
    step = max(1, _KERNEL_BLOCK // a.shape[0])
    whole = q >= 1 and q == int(q)
    starts = np.arange(0, w.size, step)      # block i meets segments first[i] to last[i] - 1
    first = np.searchsorted(cuts, starts, "right") - 1
    last = np.searchsorted(cuts, np.minimum(starts + step, w.size), "left")

    def block(start, segs):
        x = np.ascontiguousarray(w[start:start + step].real)
        y = np.ascontiguousarray(w[start:start + step].imag)
        d = x - a.real
        d *= d
        e = y - a.imag
        e *= e
        d += e
        d += head * (1.0 - (x * x + y * y))
        if whole:
            # an integer power by products takes half the time of pow
            if q > 1:
                np.copyto(e, d)
                for _ in range(int(q) - 1):
                    d *= e
            np.divide(masses[start:start + step], d, out=d)
        else:
            d **= -q
            d *= masses[start:start + step]
        return np.add.reduceat(d, np.maximum(cuts[segs] - start, 0), axis=1)

    total = np.zeros((a.shape[0], cuts.size))
    for start, i, j in zip(starts.tolist(), first.tolist(), last.tolist()):
        # a block's temporaries are freed when its call returns, so the next
        # block reuses their cache-hot memory (an inline loop would hold two
        # blocks' temporaries at once and run about 5% slower)
        total[:, i:j] += block(start, slice(i, j))
    return total


def _require_finite(value, samples, nodes, message: str) -> None:
    """Raise on a non-finite value; the witness is the first non-finite sample's node."""
    if not np.isfinite(value):
        bad = np.flatnonzero(~np.isfinite(samples))
        raise QuadratureError(message, witness=complex(nodes.flat[bad[0]]) if bad.size else None)


def _lp_norm(f: AnalyticFn, p: float, rule: DiskRule) -> float:
    """(integral of |f|^p against the rule's measure)^(1/p)."""
    z = rule.nodes()
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.abs(f(z)) ** p
        total = float(rule.integrate(samples))
    _require_finite(total, samples, z, f"non-finite |f|^p samples for {f.label}")
    return max(total, 0.0) ** (1.0 / p)


def hardy_norm(f: AnalyticFn, p: float) -> float:
    """Hardy-space norm: circle p-means extrapolated to the boundary, then the root."""
    return _lp_norm(f, p, SpaceSpec.hardy(p).rule())


def bergman_norm(f: AnalyticFn, p: float, weight: RadialWeight) -> float:
    """Weighted Bergman norm by disk quadrature with the weight folded in."""
    return _lp_norm(f, p, SpaceSpec.bergman(p, weight).rule())


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
    rule = space.rule()
    z = rule.nodes()
    with np.errstate(over="ignore", invalid="ignore"):
        samples = f(z) * np.conj(g(z))
        total = complex(rule.integrate(samples))
    _require_finite(total, samples, z, f"non-finite pairing samples for {f.label} and {g.label}")
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
