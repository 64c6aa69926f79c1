"""Independent oracles used by the tests.

Every routine here deliberately avoids the code paths it is used to check:
norms come from adaptive 1-D quadrature instead of fixed Gauss rules,
Carleson masses from a brute-force 2-D tensor rule, Taylor data from direct
polynomial algebra.
"""

import numpy as np
from scipy.integrate import quad


def radial_monomial_norm(n: int, p: float, alpha: float) -> float:
    """||z^n|| in the standard-weight Bergman space by adaptive quadrature.

    In s = r^2 the integral is (alpha+1) * int_0^1 s^{pn/2} (1-s)^alpha ds.
    """
    val, err = quad(lambda s: s ** (p * n / 2.0) * (1.0 - s) ** alpha, 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-10
    return ((alpha + 1.0) * val) ** (1.0 / p)


def radial_weighted_moment(n: int, weight_fn) -> float:
    """int_0^1 r^n weight(r) 2 r dr by adaptive quadrature."""
    val, _ = quad(lambda r: r ** n * weight_fn(r) * 2.0 * r, 0.0, 1.0,
                  epsabs=1e-13, epsrel=1e-12, limit=200)
    return val


def carleson_mass_2d(weight_fn, a: complex, n_r: int = 4000, n_theta: int = 400) -> float:
    """Brute-force midpoint tensor quadrature of the weight over the square
    {r e^{i theta}: |a| <= r < 1, |theta - arg a| <= (1-|a|)/2}, normalized
    area convention."""
    a = complex(a)
    mod, arg = abs(a), np.angle(a)
    half = (1.0 - mod) / 2.0
    r = mod + (1.0 - mod) * (np.arange(n_r) + 0.5) / n_r
    th = arg - half + (2.0 * half) * (np.arange(n_theta) + 0.5) / n_theta
    dr = (1.0 - mod) / n_r
    dth = 2.0 * half / n_theta
    vals = weight_fn(r) * r
    return float(np.sum(vals) * dr * n_theta * dth / np.pi)


def poly_eval(coeffs, z):
    out = np.zeros_like(np.asarray(z, dtype=complex))
    for c in np.asarray(coeffs, dtype=complex)[::-1]:
        out = out * z + c
    return out


def poly_derivative_coeffs(coeffs):
    c = np.asarray(coeffs, dtype=complex)
    return c[1:] * np.arange(1, c.size)


def coefficient_l2(coeffs) -> float:
    return float(np.linalg.norm(np.asarray(coeffs, dtype=complex)))


def hardy_p_mean_at(fn, radius: float, p: float, nodes: int = 8192) -> float:
    """Plain single-circle p-mean (no extrapolation), for decay oracles."""
    z = radius * np.exp(2j * np.pi * np.arange(nodes) / nodes)
    return float(np.mean(np.abs(fn(z)) ** p) ** (1.0 / p))


def circle_ladder_limit(circle_stat, n_theta=512):
    """The boundary limit circle by circle: ``circle_stat`` on each circle
    of radius 1 - eps, eps on the spaces' boundary ladder, then a Neville
    tableau to eps = 0.  Returns ``(value, correction)``; ``circle_stat``
    maps one circle's nodes to a scalar or an array."""
    from semiflow_lab.analytic import neville_extrapolate
    from semiflow_lab.spaces import BOUNDARY_EPS

    circle = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    return neville_extrapolate(BOUNDARY_EPS,
                               [circle_stat((1.0 - e) * circle) for e in BOUNDARY_EPS])


def hardy_norm_by_circles(fn, p: float) -> float:
    """Circle p-norms extrapolated to the boundary."""
    value, _ = circle_ladder_limit(lambda z: np.mean(np.abs(fn(z)) ** p) ** (1.0 / p))
    return float(value.real)


def hardy_section_by_circles(m, phi, dim: int) -> np.ndarray:
    """<m phi^j, z^i> on H^2 from direct circle means, no FFT."""
    def pairs(z):
        images = m(z) * phi(z) ** np.arange(dim)[:, None]           # [j, node]
        return np.conj(z ** np.arange(dim)[:, None]) @ images.T / z.size
    return circle_ladder_limit(pairs, max(512, 4 * dim))[0]


def hardy_level_at_zero(a: complex, n: int) -> float:
    """The t = 0 Hardy criterion at anchor ``a`` on n points per circle, in closed form.

    On the circle rho = 1 - eps the n-point mean of (1-|a|^2) / |1 - conj(a)
    rho e^{i theta}|^2 is (1-|a|^2) / (1-s^2) Re[(1+q)/(1-q)] with s = |a| rho
    and q = s^n e^{-i n arg a}: the Poisson kernel's Fourier series summed
    over the frequencies the grid aliases to zero.  The circle means are
    weighted by the Lagrange weights of the boundary ladder at eps = 0,
    computed here from the ladder itself.
    """
    from semiflow_lab.spaces import BOUNDARY_EPS

    eps = np.asarray(BOUNDARY_EPS)
    weights = np.array([np.prod([e / (e - eps[i]) for k, e in enumerate(eps) if k != i])
                        for i in range(eps.size)])
    s = abs(a) * (1.0 - eps)
    q = np.exp(n * np.log(s) - 1j * n * np.angle(a))
    means = (1.0 - abs(a) ** 2) / (1.0 - s * s) * ((1.0 + q) / (1.0 - q)).real
    return float(np.sum(weights * means))


def floored_disk_level(k: int, radii_of):
    """Rings and angles per ring of dyadic level k of the Bergman criterion
    as a grid of its own: n = clip(int(6 / sqrt(d)), 64, 272) rings at
    ``radii_of(n)``, and clip(ceil(32 / max(1 - r, min(d, 1/8))), 256,
    65536) angles on ring r rounded up to a power of two, with d = 2^-k.
    Returns ``(radii, counts)``."""
    d = 2.0 ** -k
    radii = radii_of(min(272, max(64, int(6.0 / np.sqrt(d)))))
    counts = np.clip(np.ceil(32.0 / np.maximum(1.0 - radii, min(d, 1.0 / 8.0))), 256, 65536)
    return radii, (2 ** np.ceil(np.log2(counts))).astype(int)
