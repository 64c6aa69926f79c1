"""Numerical calculus of analytic functions on the unit disk.

Functions are represented by evaluation callbacks (vectorized over numpy
arrays of complex points) together with an optional coefficient provider.
Derivatives and Taylor coefficients come from circle quadrature, which is
spectrally accurate for analytic integrands, so there is no step-size
dilemma anywhere in the package.

Boundary values are never touched directly: every boundary quantity is
obtained on circles of radius 1 - eps and extrapolated to eps = 0 with a
Neville tableau over a geometric eps ladder.
"""

from __future__ import annotations

import numpy as np

from .errors import DomainError, PreconditionError

_SLACK = 1e-12

_GOLDEN = (np.sqrt(5.0) - 1.0) / 2.0


def unit_circle(count: int) -> np.ndarray:
    """Unit-modulus nodes exp(2*pi*i*k/count), k = 0..count-1."""
    return np.exp(2j * np.pi * np.arange(count) / count)


def disk_samples(count: int, max_radius: float = 0.9, min_radius: float = 0.05) -> np.ndarray:
    """Deterministic well-spread interior sample points (golden-angle spiral)."""
    j = np.arange(count)
    radii = min_radius + (max_radius - min_radius) * (j + 0.5) / count
    return radii * np.exp(2j * np.pi * _GOLDEN * j)


def eps_ladder(start: float = 1e-2, factor: float = 0.5, count: int = 12) -> np.ndarray:
    """Geometric ladder of boundary distances, largest first."""
    return start * factor ** np.arange(count)


def neville_extrapolate(xs, ys):
    """Extrapolate samples (xs, ys) to x = 0 by a Neville tableau.

    ``ys`` may carry trailing axes (one extrapolation per trailing slot).
    Returns ``(value, correction)`` where ``correction`` is the magnitude of
    the last tableau update, a practical error indicator.
    """
    xs = np.asarray(xs, dtype=float)
    work = np.array(ys, dtype=complex)
    n = xs.size
    if n == 0:
        raise PreconditionError("extrapolation needs at least one sample")
    if n == 1:
        return work[0], np.abs(work[0]) * 0.0
    shape = (n,) + (1,) * (work.ndim - 1)
    x = xs.reshape(shape)
    previous = work[0].copy()
    for level in range(1, n):
        for i in range(n - level):
            xi, xj = x[i], x[i + level]
            work[i] = (xj * work[i] - xi * work[i + 1]) / (xj - xi)
        if level == n - 2:
            previous = work[0].copy()
    return work[0], np.abs(work[0] - previous)


class AnalyticFn:
    """An analytic function on the unit disk given by an evaluator.

    Parameters
    ----------
    evaluator : callable
        Maps a complex ndarray to the function values.  Use
        ``vectorized=False`` for scalar-only callables.
    coefficient : callable, optional
        Index n -> Taylor coefficient a_n at the origin, when known.
    r_max : float
        Radius of guaranteed accuracy; evaluation outside is rejected.
    """

    __slots__ = ("_evaluator", "coefficient", "r_max", "label")

    def __init__(self, evaluator, coefficient=None, r_max: float = 1.0,
                 label: str = "f", vectorized: bool = True):
        if not 0.0 < r_max <= 1.0:
            raise PreconditionError(f"r_max must lie in (0, 1], got {r_max}")
        if not vectorized:
            evaluator = np.vectorize(evaluator, otypes=[complex])
        self._evaluator = evaluator
        self.coefficient = coefficient
        self.r_max = r_max
        self.label = label

    def __call__(self, z):
        arr = np.asarray(z, dtype=complex)
        scalar = arr.ndim == 0
        if arr.size:
            top = float(np.max(np.abs(arr)))
            if top > self.r_max + _SLACK:
                raise DomainError(
                    f"evaluation of {self.label} at |z| = {top:.6g} exceeds r_max = {self.r_max}")
        vals = np.asarray(self._evaluator(arr if not scalar else arr.reshape(1)), dtype=complex)
        if scalar:
            return complex(vals.reshape(-1)[0])
        return vals.reshape(arr.shape)

    def __repr__(self):
        return f"AnalyticFn({self.label!r}, r_max={self.r_max})"

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "AnalyticFn":
        c = complex(c)
        return cls(lambda z: np.full_like(z, c), coefficient=lambda n: c if n == 0 else 0.0,
                   label=f"const({c})")

    @classmethod
    def identity(cls) -> "AnalyticFn":
        return cls(lambda z: z, coefficient=lambda n: 1.0 if n == 1 else 0.0, label="z")

    @classmethod
    def monomial(cls, n: int) -> "AnalyticFn":
        if n < 0:
            raise PreconditionError("monomial degree must be nonnegative")
        return cls(lambda z, _n=n: z ** _n,
                   coefficient=lambda k, _n=n: 1.0 if k == _n else 0.0, label=f"z^{n}")

    @classmethod
    def from_coefficients(cls, coeffs, r_max: float = 1.0, label: str = "poly") -> "AnalyticFn":
        """Polynomial (or truncated series) with the given Taylor coefficients."""
        c = np.asarray(list(coeffs), dtype=complex)

        def evaluator(z, _c=c):
            out = np.zeros_like(z)
            for a in _c[::-1]:
                out = out * z + a
            return out

        def coefficient(n, _c=c):
            return complex(_c[n]) if 0 <= n < _c.size else 0.0

        return cls(evaluator, coefficient=coefficient, r_max=r_max, label=label)

    # -- algebra ------------------------------------------------------

    def compose(self, inner: "AnalyticFn") -> "AnalyticFn":
        """self(inner(z)); valid when inner maps its domain into ours."""
        return AnalyticFn(lambda z: self(inner(z)), r_max=inner.r_max,
                          label=f"({self.label})o({inner.label})")

    def _coerce(self, other):
        if isinstance(other, AnalyticFn):
            return other
        return AnalyticFn.constant(other)

    def __mul__(self, other):
        g = self._coerce(other)
        return AnalyticFn(lambda z: self(z) * g(z), r_max=min(self.r_max, g.r_max),
                          label=f"({self.label})*({g.label})")

    __rmul__ = __mul__

    def __add__(self, other):
        g = self._coerce(other)
        return AnalyticFn(lambda z: self(z) + g(z), r_max=min(self.r_max, g.r_max),
                          label=f"({self.label})+({g.label})")

    __radd__ = __add__

    def __sub__(self, other):
        g = self._coerce(other)
        return AnalyticFn(lambda z: self(z) - g(z), r_max=min(self.r_max, g.r_max),
                          label=f"({self.label})-({g.label})")

    def __truediv__(self, other):
        g = self._coerce(other)
        return AnalyticFn(lambda z: self(z) / g(z), r_max=min(self.r_max, g.r_max),
                          label=f"({self.label})/({g.label})")


def principal_power(f: AnalyticFn, exponent: float, check: bool = True) -> AnalyticFn:
    """f(z)**exponent with the principal branch.

    With ``check`` enabled the values of ``f`` are sampled on a small grid
    and must stay clear of the branch cut (the closed negative real axis).
    """
    if check:
        grid = disk_samples(96, max_radius=min(0.95, f.r_max))
        vals = f(grid)
        bad = (vals.real <= 0.0) & (np.abs(vals.imag) < 1e-12)
        if np.any(bad) or np.any(np.abs(vals) < 1e-14):
            raise DomainError(
                f"principal power of {f.label} unsafe: values touch the branch cut")
    return AnalyticFn(lambda z: np.exp(exponent * np.log(f(z))),
                      r_max=f.r_max, label=f"({f.label})^{exponent}")


def derivative(f: AnalyticFn, z, rho, nodes: int = 64):
    """f'(z) by Cauchy circle quadrature of radius rho around z.

    The closed disk of radius rho around every point must stay inside the
    domain of ``f``.  Vectorized over ``z`` (and ``rho``, broadcast).
    """
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    z_arr = np.atleast_1d(z_arr)
    rho_arr = np.broadcast_to(np.asarray(rho, dtype=float), z_arr.shape)
    if np.any(rho_arr <= 0.0):
        raise PreconditionError("derivative radius must be positive")
    reach = np.abs(z_arr) + rho_arr
    if z_arr.size and float(np.max(reach)) > f.r_max + _SLACK:
        raise DomainError(
            f"derivative circle around |z| = {float(np.max(np.abs(z_arr))):.6g} with "
            f"rho = {float(np.max(rho_arr)):.6g} leaves the domain of {f.label}")
    circ = unit_circle(nodes)
    samples = f(z_arr[..., None] + rho_arr[..., None] * circ)
    vals = np.mean(samples * np.conj(circ), axis=-1) / rho_arr
    return complex(vals[0]) if scalar else vals


def taylor_coefficients(f: AnalyticFn, count: int, radius: float = 0.5,
                        nodes: int | None = None) -> np.ndarray:
    """First ``count`` Taylor coefficients of f at 0 from circle samples.

    Uses a_n = mean_k f(r e^{i theta_k}) e^{-i n theta_k} / r^n with at
    least 4*count nodes, so aliasing of the first coefficients is governed
    by r^{nodes}, negligible for the default node count.
    """
    if count < 1:
        raise PreconditionError("coefficient count must be at least 1")
    if not 0.0 < radius <= f.r_max:
        raise DomainError(f"sampling radius {radius} outside (0, r_max] of {f.label}")
    m = nodes or max(4 * count, 256)
    samples = f(radius * unit_circle(m))
    spectrum = np.fft.fft(samples) / m
    return spectrum[:count] / radius ** np.arange(count)
