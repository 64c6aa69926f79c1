"""Numerical calculus of analytic functions on the unit disk.

Functions are represented by evaluation callbacks, vectorized over numpy
arrays of complex points.
Derivatives and Taylor coefficients come from circle quadrature, which is
spectrally accurate for analytic integrands, so there is no step-size
dilemma anywhere in the package.

Boundary values are never touched directly: a boundary quantity is
obtained on circles of radius 1 - eps of a geometric eps ladder and
extrapolated to eps = 0 by Lagrange weights (``spaces.lagrange_at_zero``:
the Hardy rule's circles for norms and sections, a window at the anchor's
depth for the criterion), or by a Neville tableau
(:func:`neville_extrapolate`), which also reports an error indicator.
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
    x = xs.reshape((n,) + (1,) * (work.ndim - 1))
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
        Maps a complex ndarray to the function values.
    r_max : float
        Radius of guaranteed accuracy; evaluation outside is rejected.
    """

    __slots__ = ("_evaluator", "r_max", "label")

    def __init__(self, evaluator, r_max: float = 1.0, label: str = "f"):
        if not 0.0 < r_max <= 1.0:
            raise PreconditionError(f"r_max must lie in (0, 1], got {r_max}")
        self._evaluator = evaluator
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

    def __mul__(self, g: "AnalyticFn") -> "AnalyticFn":
        return AnalyticFn(lambda z: self(z) * g(z), r_max=min(self.r_max, g.r_max),
                          label=f"({self.label})*({g.label})")

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, c) -> "AnalyticFn":
        c = complex(c)
        return cls(lambda z: np.full_like(z, c), label=f"const({c})")

    @classmethod
    def identity(cls) -> "AnalyticFn":
        return cls(lambda z: z, label="z")

    @classmethod
    def monomial(cls, n: int) -> "AnalyticFn":
        if n < 0:
            raise PreconditionError("monomial degree must be nonnegative")
        return cls(lambda z, _n=n: z ** _n, label=f"z^{n}")

    @classmethod
    def from_coefficients(cls, coeffs, label: str = "poly") -> "AnalyticFn":
        """Polynomial (or truncated series) with the given Taylor coefficients."""
        c = np.asarray(list(coeffs), dtype=complex)

        def evaluator(z, _c=c):
            out = np.zeros_like(z)
            for a in _c[::-1]:
                out *= z
                out += a
            return out

        return cls(evaluator, label=label)

    @classmethod
    def kernel_power(cls, a, exponent: float, scale: float,
                     label: str = "kernel") -> "AnalyticFn":
        """scale (1 - conj(a) z)^exponent for |a| < 1, in real arithmetic from w = 1 - conj(a) z:
        modulus scale |w|^exponent, argument exponent atan2(Im w, Re w), principal since
        Re w > 0 on the closed disk."""
        abar = np.conj(complex(a))

        def evaluator(z):
            w = 1.0 - abar * z
            mod = scale * np.exp(0.5 * exponent * np.log(w.real * w.real + w.imag * w.imag))
            arg = exponent * np.arctan2(w.imag, w.real)
            np.multiply(mod, np.cos(arg), out=w.real)     # w is spent: the result goes there
            np.multiply(mod, np.sin(arg), out=w.imag)
            return w

        return cls(evaluator, label=label)


def principal_power(f: AnalyticFn, exponent: float) -> AnalyticFn:
    """f(z)**exponent with the principal branch.

    The values of ``f`` are sampled on 96 points of radius at most 0.95 and
    must stay clear of the branch cut (the closed negative real axis).
    """
    grid = disk_samples(96, max_radius=min(0.95, f.r_max))
    vals = f(grid)
    bad = (vals.real <= 0.0) & (np.abs(vals.imag) < 1e-12)
    if np.any(bad) or np.any(np.abs(vals) < 1e-14):
        raise DomainError(
            f"principal power of {f.label} unsafe: values touch the branch cut")
    return AnalyticFn(lambda z: np.exp(exponent * np.log(f(z))),
                      r_max=f.r_max, label=f"({f.label})^{exponent}")


def derivative(f: AnalyticFn, z, rho):
    """f'(z) by Cauchy circle quadrature on 64 nodes of radius rho around z.

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
    circ = unit_circle(64)
    samples = f(z_arr[..., None] + rho_arr[..., None] * circ)
    vals = np.mean(samples * np.conj(circ), axis=-1) / rho_arr
    return complex(vals[0]) if scalar else vals


def circle_coefficients(samples: np.ndarray, radius: float, count: int) -> np.ndarray:
    """First ``count`` Taylor coefficients a_i = FFT_i / (n radius^i) of f from its
    samples at ``radius * unit_circle(n)``; aliasing adds a_{i+n} radius^n."""
    return np.fft.fft(samples)[:count] / (samples.size * radius ** np.arange(count))
