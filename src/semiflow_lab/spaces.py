"""Hardy and weighted Bergman space machinery.

Both spaces are L^p(mu), mu the boundary measure for H^p and omega dA for
A^p_omega, and one rule class, :class:`GradedDiskRule`, integrates against
mu: rings times power-of-two angular counts, held as nested generations.
For Hardy the rings are a geometric ladder of circles whose radial weights
extrapolate the circle means to the boundary; for Bergman they are a radial
rule with the weight folded in (Gauss-Jacobi in s = r^2 for standard weights,
so the algebraic endpoint singularity of (1-s)^alpha is handled exactly;
every Gauss rule is built here in numpy: Golub-Welsch nodes with Christoffel
weights).  :meth:`SpaceSpec.rule` gives every ring one uniform grid of
``N_ANG`` angles, and every norm is one sum against its flat
:meth:`GradedDiskRule.measure` (finite sections read Taylor coefficients
instead: ``operators.matrix``).  For kernels that concentrate at the
boundary the criteria grade the angular counts toward the boundary and sum
one kernel against the generations, one sum per ring of a generation
(:func:`kernel_sums`).

Also here: weight regularity probes, the omega-measure of a Carleson
square, the boundary-concentrated test functions, and the pointwise growth
estimate against the Bergman norm.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .analytic import AnalyticFn, disk_samples, eps_ladder
from .analytic import neville_extrapolate  # noqa: F401 (perfbench patches it here)
from .errors import PreconditionError, QuadratureError, RegularityError, spec_number

# The spaces' own quadrature: N_ANG angles per ring; N_RAD rings for a
# standard weight (Gauss-Jacobi in s = r^2) and 4 N_RAD for a custom one
# (Gauss-Legendre in r, which does not absorb the endpoint), both Golub-Welsch
# nodes with Christoffel weights (_jacobi_unit_rule); for Hardy the circles of
# radius 1 - eps on BOUNDARY_EPS = 1e-2 2^-k, k < 12.
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

    def label(self) -> str:
        """Round-trips through :meth:`parse` for standard weights."""
        if self.is_hardy:
            return f"hardy:{self.p:g}"
        if self.weight.is_standard:
            return f"bergman:{self.p:g}:{self.weight.alpha:g}"
        return f"bergman:{self.p:g}:custom:{self.weight.label}"

    def rule(self) -> "GradedDiskRule":
        """The space's measure, ``N_ANG`` angles on every ring (depth 1): the circles
        1 - ``BOUNDARY_EPS`` with their :func:`lagrange_at_zero` weights for Hardy,
        ``N_RAD`` rings for a standard Bergman weight and 4 ``N_RAD`` for a custom one."""
        if self.is_hardy:
            return GradedDiskRule(1.0 - BOUNDARY_EPS, lagrange_at_zero(BOUNDARY_EPS),
                                  np.ones(BOUNDARY_EPS.size, dtype=int), N_ANG)
        return GradedDiskRule.weighted(self.weight, N_RAD * (1 if self.weight.is_standard else 4),
                                       N_ANG, N_ANG, N_ANG)


@lru_cache(maxsize=64)
def _jacobi_unit_rule(n: int, alpha: float):
    """Nodes/weights with sum w_i g(s_i) ~ int_0^1 g(s) (1-s)^alpha ds; alpha = 0 is Legendre.

    Golub-Welsch: s = (1 + x) / 2, x the eigenvalues of the Jacobi matrix of P_n^(alpha, 0)
    polished by one Newton step on its recurrence, and weights 1 / ((alpha + 1) sum_k<n p_k(x)^2),
    p_k orthonormal (squared eigenvector components lose the small end weights' digits).
    """
    c = 2.0 * np.arange(n) + alpha
    diag = -alpha * alpha / (c * (c + 2.0) + (c == 0))     # c = 0 only at k = alpha = 0
    k = np.arange(1.0, n)
    b = np.concatenate(([0.0], 2.0 * k * (k + alpha) / (c[1:] * np.sqrt(c[1:] ** 2 - 1.0)), [1.0]))
    x = np.linalg.eigvalsh(np.diag(diag) + np.diag(b[1:-1], -1))
    for newton in (True, False):
        p, q, dp, dq, norm2 = np.ones(n), np.zeros(n), np.zeros(n), np.zeros(n), np.zeros(n)
        for j in range(n):      # b_j+1 p_j+1 = (x - diag_j) p_j - b_j p_j-1; b_n = 1 scales p_n
            norm2 += p * p
            p, q, dp, dq = (((x - diag[j]) * p - b[j] * q) / b[j + 1], p,
                            ((x - diag[j]) * dp + p - b[j] * dq) / b[j + 1], dp)
        if newton:
            x -= p / dp
    return 0.5 * (x + 1.0), 1.0 / ((alpha + 1.0) * norm2)


def _radial_rule(weight: RadialWeight, n_rad: int):
    """``(radii, radial_w, scale)`` with scale * sum radial_w g(r) ~ int_0^1 g(r) omega(r) 2r dr.

    Standard weights use Gauss-Jacobi in s = r^2, exact on the (1-s)^alpha
    endpoint, and keep their (alpha+1) factor apart as ``scale``; custom
    weights use Gauss-Legendre in r with 2 r omega(r) folded into the weights.
    """
    if weight.is_standard:
        s, radial_w = _jacobi_unit_rule(n_rad, weight.alpha)
        return np.sqrt(s), radial_w, weight.alpha + 1.0
    radii, w = _jacobi_unit_rule(n_rad, 0.0)
    return radii, 2.0 * w * radii * weight(radii), 1.0


def lagrange_at_zero(eps) -> np.ndarray:
    """Weights c_i = prod_{k != i} eps_k / (eps_k - eps_i) of the circle means on 1 - eps_i:
    they sum to one and reproduce at eps = 0 every polynomial in eps of degree < len(eps)."""
    eps = np.asarray(eps, dtype=float)
    same = np.eye(eps.size, dtype=bool)
    return np.prod(np.where(same, 1.0, eps / np.where(same, 1.0, eps - eps[:, None])), axis=1)


class GradedDiskRule:
    """Rings r_i with weights c_i and power-of-two angular counts, as nested generations.

    Ring i takes n_i = base 2^(d_i - 1) angles, d_i >= 1 nondecreasing in i.
    Generation 0 is every other point of the base count on every ring, and
    generation h >= 1 the odd points of count base 2^(h-1) on the rings
    with d_i >= h, which are the rings ``first[h]`` on.  Generations lie
    back to back from ``offsets[h]``, ring by ring, with n = base / 2 points
    per ring in generations 0 and 1 and base 2^(h-2) in generation h >= 2,
    so ring i of generation h is one contiguous run of nodes.  The masses
    are 2 c_i / base: ring i's sum over generations 0..G is 2^min(G, d_i)
    times its integral on min(n_i, base 2^(G-1)) points.
    """

    def __init__(self, radii, radial_w, depth, base: int):
        self.radii, self.depth, self.half = radii, np.asarray(depth), base // 2
        self.mass = radial_w / self.half
        self.first = np.searchsorted(self.depth, np.arange(self.depth.max() + 1))
        per_ring = self.half << np.maximum(np.arange(self.first.size) - 1, 0)
        self.offsets = [0, *np.cumsum((radii.size - self.first) * per_ring).tolist()]

    @classmethod
    def weighted(cls, weight: RadialWeight, n_rad: int, ang_scale: float, ang_base: int,
                 ang_cap: int) -> "GradedDiskRule":
        """The radial rule :func:`_radial_rule` (integrals against omega dA), ring i with
        clip(ceil(ang_scale / (1 - r_i)), ang_base, ang_cap) angles rounded up to a power
        of two (``ang_base`` is one), resolving alike an integrand of angular width about
        1 - r on ring r; generations 0..G floor that width at ang_scale / (ang_base 2^(G-1))."""
        radii, radial_w, scale = _radial_rule(weight, n_rad)
        counts = np.clip(np.ceil(ang_scale / (1.0 - radii)), ang_base, ang_cap)
        return cls(radii, scale * radial_w, np.ceil(np.log2(counts / ang_base)).astype(int) + 1,
                   ang_base)

    def generation(self, h: int):
        """Flat nodes and masses of generation ``h``, built on each call so no cache holds them."""
        n = self.half << h
        circle = np.exp(2j * np.pi * (np.arange(n) if h == 0 else np.arange(1, n, 2)) / n)
        rings = slice(self.first[h], None)
        return (self.radii[rings, None] * circle).ravel(), np.repeat(self.mass[rings], circle.size)

    def measure(self):
        """Flat nodes and masses of generations 0..max d_i, ring i's masses divided by
        2^d_i, so that ``masses @ f(nodes)`` is the rule's integral; built on each call."""
        nodes = [self.generation(h)[0] for h in range(self.first.size)]
        share = self.mass * 0.5 ** self.depth
        return np.concatenate(nodes), np.concatenate(
            [np.repeat(share[first:], z.size // (self.radii.size - first))
             for first, z in zip(self.first.tolist(), nodes)])


# Anchors x nodes per block of a kernel sum: each float temporary of a
# block then takes 512 KiB and stays in L2 cache.
_KERNEL_BLOCK = 65536


def kernel_sums(r: float, angles, w, masses, q: float, cuts) -> np.ndarray:
    """sum_j masses_j ((1 - r^2)(1 - |w_j|^2) + |a - w_j|^2)^-q per anchor a = r e^{i angle}
    and segment; segment k runs from node ``cuts[k]`` to the next (an int array, cuts[0] = 0).
    The criteria pass one segment per ring of a :class:`GradedDiskRule` generation.

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


def _lp_norm(values, z, p: float, masses, label: str) -> float:
    """(masses @ |values|^p)^(1/p) for samples at the nodes ``z`` of a rule's
    :meth:`GradedDiskRule.measure`, so a caller evaluates each function once per node
    set (``operators.norm_lower_bound`` reads m and phi once for all its trials); a
    non-finite integral raises, its witness the node of the first non-finite sample."""
    with np.errstate(over="ignore", invalid="ignore"):
        samples = np.abs(values) ** p
        total = float(masses @ samples)
    if not np.isfinite(total):
        bad = np.flatnonzero(~np.isfinite(samples))
        raise QuadratureError(f"non-finite |f|^p samples for {label}",
                              witness=complex(z[bad[0]]) if bad.size else None)
    return max(total, 0.0) ** (1.0 / p)


def _fn_norm(f: AnalyticFn, p: float, rule: "GradedDiskRule") -> float:
    """:func:`_lp_norm` of f sampled at the rule's nodes."""
    z, masses = rule.measure()
    with np.errstate(over="ignore", invalid="ignore"):
        values = f(z)
    return _lp_norm(values, z, p, masses, f.label)


def hardy_norm(f: AnalyticFn, p: float) -> float:
    """Hardy-space norm: circle p-means extrapolated to the boundary, then the root."""
    return _fn_norm(f, p, SpaceSpec.hardy(p).rule())


def bergman_norm(f: AnalyticFn, p: float, weight: RadialWeight) -> float:
    """Weighted Bergman norm by disk quadrature with the weight folded in."""
    return _fn_norm(f, p, SpaceSpec.bergman(p, weight).rule())


@dataclass
class RegularityReport:
    """Range of the tail-integral ratio used to classify a radial weight."""

    min_ratio: float
    max_ratio: float
    ratios: list
    r_values: list
    regular: bool
    band: float


def _tail_integral(weight: RadialWeight, r: float) -> float:
    """int_r^1 omega(s) ds with the endpoint behavior folded into the rule."""
    if weight.is_standard:
        alpha = weight.alpha
        u, w = _jacobi_unit_rule(96, alpha)
        s = r + (1.0 - r) * u
        vals = (alpha + 1.0) * (1.0 + s) ** alpha
        return (1.0 - r) ** (alpha + 1.0) * float(np.sum(w * vals))
    u, w = _jacobi_unit_rule(256, 0.0)
    return (1.0 - r) * float(np.sum(w * weight(r + (1.0 - r) * u)))


def is_regular(weight: RadialWeight) -> RegularityReport:
    """Probe whether int_r^1 omega is uniformly comparable to omega(r)(1-r).

    The verdict requires every ratio at r = 1 - 2^-k, k = 1..14, inside
    (1/band, band), band = 10, and a mean log-ratio drift below 0.1 over the
    last five (a drifting tail signals a ratio running to 0 or infinity
    even if still inside the band).
    """
    band = 10.0
    r_grid = 1.0 - 2.0 ** -np.arange(1, 15)
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
    steady = abs(drift) < 0.1
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
        # int_{|a|}^1 omega(r) r dr = (alpha+1)/2 * int_{|a|^2}^1 (1-s)^alpha ds
        radial = 0.5 * (1.0 - mod ** 2) ** (weight.alpha + 1.0)
    else:
        u, w = _jacobi_unit_rule(192, 0.0)
        r = mod + (1.0 - mod) * u
        radial = (1.0 - mod) * float(np.sum(w * weight(r) * r))
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
    principal branch (safe: Re(1 - conj(a) z) > 0 on the disk), by
    :meth:`analytic.AnalyticFn.kernel_power`.
    """
    weight = weight or RadialWeight.standard(0.0)
    a = complex(a)
    # written as "not 1 <= p < inf" and "not 0 < gamma < inf" so that NaN fails too
    if not 1 <= p < np.inf:
        raise PreconditionError(f"test-function p must be finite and at least 1, got {p}")
    if gamma is None:
        gamma = default_gamma(p, weight)
    if not 0 < gamma < np.inf:
        raise PreconditionError(f"test-function exponent must be finite and positive, got {gamma}")
    q = (gamma + 1.0) / p
    scale = (1.0 - abs(a)) ** q / carleson_measure(weight, a) ** (1.0 / p)
    return AnalyticFn.kernel_power(a, -q, scale, label=f"test[a={a:.4g},p={p:g}]")


def growth_bound_check(f: AnalyticFn, p: float, alpha: float) -> float:
    """max of (1-|z|^2)^{(2+alpha)/p} |f(z)| / ||f|| over z = 0 and 240
    points of :func:`analytic.disk_samples` of radius at most 0.995.

    The pointwise Bergman growth estimate makes this at most 1 up to
    quadrature slack; a zero computed norm is rejected.
    """
    norm = bergman_norm(f, p, RadialWeight.standard(alpha))
    if norm <= 0.0 or not np.isfinite(norm):
        raise PreconditionError("growth bound undefined for zero (or bad) norm")
    grid = np.concatenate([[0.0 + 0.0j], disk_samples(240, max_radius=0.995, min_radius=0.0)])
    lhs = (1.0 - np.abs(grid) ** 2) ** ((2.0 + alpha) / p) * np.abs(f(grid))
    return float(np.max(lhs)) / norm
