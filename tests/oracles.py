"""Independent oracles used by the tests.

Every routine here deliberately avoids the code paths it is used to check:
norms come from adaptive 1-D quadrature instead of fixed Gauss rules, or
from a tensor grid summed ring by ring instead of nested generations,
Carleson masses from a brute-force 2-D tensor rule, Taylor data from direct
polynomial algebra.
"""

import mpmath
import numpy as np
from scipy.integrate import quad
from scipy.special import betaln, comb, roots_jacobi


def radial_monomial_norm(n: int, p: float, alpha: float) -> float:
    """||z^n|| in the standard-weight Bergman space by adaptive quadrature.

    In s = r^2 the integral is (alpha+1) * int_0^1 s^{pn/2} (1-s)^alpha ds.
    """
    val, err = quad(lambda s: s ** (p * n / 2.0) * (1.0 - s) ** alpha, 0.0, 1.0,
                    epsabs=1e-14, epsrel=1e-13, limit=200)
    assert err < 1e-10
    return ((alpha + 1.0) * val) ** (1.0 / p)


def gauss_jacobi_unit_node(n: int, alpha: float, s0: float, digits: int = 40):
    """The node near ``s0`` of the n-point Gauss rule for (1-s)^alpha ds on [0, 1], and its weight.

    The node is x = 2s - 1 of P_n^(alpha,0) Newton-polished at ``digits``
    digits; the weight is the closed form 1 / ((1 - x^2) P_n'(x)^2) (the
    Gamma-ratio factor is 1 for beta = 0), mapped to [0, 1].
    """
    with mpmath.workdps(digits):
        a, x = mpmath.mpf(alpha), 2 * mpmath.mpf(s0) - 1

        def slope(x):
            return (n + a + 1) / 2 * mpmath.jacobi(n - 1, a + 1, 1, x)

        for _ in range(3):
            x -= mpmath.jacobi(n, a, 0, x) / slope(x)
        return float((x + 1) / 2), float(1 / ((1 - x * x) * slope(x) ** 2))


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


class TensorRule:
    """Rings times one uniform grid of ``n_ang`` angles, integrated ring mean by
    ring mean: a layout of its own, independent of the nested generations of
    ``spaces.GradedDiskRule``.  The rings are the spaces' radial rule of
    ``n_rad`` rings for ``weight`` (scale folded into ``radial_w``), or, for
    ``weight`` None, the boundary circles 1 - eps with their Lagrange weights
    at eps = 0."""

    def __init__(self, n_ang: int, weight=None, n_rad: int = 64):
        from semiflow_lab.spaces import BOUNDARY_EPS, _radial_rule, lagrange_at_zero

        if weight is None:
            self.radii, self.radial_w = 1.0 - BOUNDARY_EPS, lagrange_at_zero(BOUNDARY_EPS)
        else:
            self.radii, radial_w, scale = _radial_rule(weight, n_rad)
            self.radial_w = scale * radial_w
        self.circle = np.exp(2j * np.pi * np.arange(n_ang) / n_ang)

    def nodes(self) -> np.ndarray:
        """The (rings, n_ang) tensor nodes."""
        return self.radii[:, None] * self.circle

    def integrate(self, values) -> float:
        """sum_k radial_w_k times the mean of ``values`` on ring k."""
        return float(np.sum(self.radial_w * np.mean(values, axis=1)))


def hardy_norm_by_circles(fn, p: float) -> float:
    """Circle p-norms extrapolated to the boundary."""
    value, _ = circle_ladder_limit(lambda z: np.mean(np.abs(fn(z)) ** p) ** (1.0 / p))
    return float(value.real)


def norm_lower_bound_by_trials(op, space, trials: int = 32, seed: int = 0) -> float:
    """``operators.norm_lower_bound`` as a loop over its trials: each trial an
    ``AnalyticFn`` (a degree-12 polynomial by Horner, or a boundary kernel by
    ``kernel_power`` / ``spaces.test_function``), with ||f|| and ||T f|| from
    f and ``op.apply(f)`` on ``space.rule().measure()``, one trial at a time.
    A non-finite integral raises ``QuadratureError`` for the first trial in
    family order, its witness the node of the first non-finite sample."""
    from semiflow_lab.analytic import AnalyticFn
    from semiflow_lab.errors import QuadratureError
    from semiflow_lab.spaces import test_function

    p = space.p
    rng = np.random.default_rng(seed)
    family = [AnalyticFn.from_coefficients(rng.standard_normal(13) + 1j * rng.standard_normal(13),
                                           label=f"poly[{k}]") for k in range(trials)]
    for r in (0.2, 0.5, 0.8, 0.95):
        for ang in range(4):
            a = r * np.exp(2j * np.pi * (ang + 0.25) / 4)
            family.append(AnalyticFn.kernel_power(a, -2.0 / p, (1.0 - abs(a) ** 2) ** (1.0 / p),
                                                  label=f"test[a={a:.4g},p={p:g}]")
                          if space.is_hardy else test_function(a, p, weight=space.weight))
    z, masses = space.rule().measure()

    def norm(fn):
        with np.errstate(over="ignore", invalid="ignore"):
            samples = np.abs(fn(z)) ** p
            total = float(masses @ samples)
        if not np.isfinite(total):
            bad = np.flatnonzero(~np.isfinite(samples))
            raise QuadratureError(f"non-finite |f|^p samples for {fn.label}",
                                  witness=complex(z[bad[0]]) if bad.size else None)
        return max(total, 0.0) ** (1.0 / p)

    best = 0.0
    for f in family:
        nf = norm(f)
        if nf > 0:
            best = max(best, norm(op.apply(f)) / nf)
    return best


def hardy_section_by_circles(m, phi, dim: int) -> np.ndarray:
    """<m phi^j, z^i> on H^2 from direct circle means, no FFT."""
    def pairs(z):
        images = m(z) * phi(z) ** np.arange(dim)[:, None]           # [j, node]
        return np.conj(z ** np.arange(dim)[:, None]) @ images.T / z.size
    return circle_ladder_limit(pairs, max(512, 4 * dim))[0]


def bergman_section_by_rings(m, phi, dim: int, alpha: float) -> np.ndarray:
    """<m phi^j, e_i> on A^2_alpha from direct node sums on Gauss-Jacobi rings, no FFT.

    In s = r^2 the pairing <f, z^i> is (alpha+1) int_0^1 (1-s)^alpha
    mean_theta f conj(z^i) ds, summed here on 96 ``roots_jacobi`` rings in s
    of 1024 angles each (a finer grid than the sections use, for dim <= 64);
    the monomial norms are the closed-form Beta values (alpha+1) B(n+1, alpha+1).
    """
    n_rad, n_theta = 96, 1024
    x, w = roots_jacobi(n_rad, alpha, 0.0)
    ring_w = (alpha + 1.0) * w * 2.0 ** (-alpha - 1.0)
    circle = np.exp(2j * np.pi * np.arange(n_theta) / n_theta)
    powers = np.arange(dim)[:, None]
    gram = np.zeros((dim, dim), dtype=complex)
    for r, c in zip(np.sqrt(0.5 * (x + 1.0)), ring_w):
        z = r * circle
        images = m(z) * phi(z) ** powers                             # [j, node]
        gram += c * (np.conj(z ** powers) @ images.T) / n_theta
    norms = np.sqrt((alpha + 1.0) * np.exp(betaln(np.arange(dim) + 1.0, alpha + 1.0)))
    return gram / np.outer(norms, norms)


def monomial_norms(dim: int, alpha=None) -> np.ndarray:
    """||z^n||, n < dim: 1 on H^2 (``alpha`` None), the Beta values on A^2_alpha."""
    if alpha is None:
        return np.ones(dim)
    return np.sqrt((alpha + 1.0) * np.exp(betaln(np.arange(dim) + 1.0, alpha + 1.0)))


def gallery_section(name: str, t: float, dim: int, alpha=None) -> np.ndarray:
    """The dim x dim section of a ``gallery_semigroups()`` pair at time t in closed form.

    The coboundaries of z have m_t phi_t^j = e^{-t(j+1)} z^j (dilation) and
    e^{it(j+1)} z^j (rotation); attraction/derivative has
    m_t phi_t^j = e^{-t} (e^{-t} z + 1 - e^{-t})^j, binomially expanded.
    ``alpha`` None is H^2, else A^2_alpha.
    """
    j = np.arange(dim)
    if name == "dilation/coboundary-z":
        return np.diag(np.exp(-t * (j + 1.0))).astype(complex)
    if name == "rotation/coboundary-z":
        return np.diag(np.exp(1j * t * (j + 1.0)))
    assert name == "attraction/derivative"
    q, i, s = np.exp(-t), j[:, None], monomial_norms(dim, alpha)
    powers = np.where(i <= j, (1.0 - q) ** np.maximum(j - i, 0), 0.0)
    return (q * comb(j, i) * q ** i * powers * s[:, None] / s[None, :]).astype(complex)


def affine_power_dilation_section(gamma: float, t: float, dim: int, alpha=None) -> np.ndarray:
    """The dim x dim section of dilation with the coboundary of (1 - z)^gamma at time t.

    S_t z^j = e^{-tj} z^j m_t with m_t = ((1 - e^{-t} z) / (1 - z))^gamma, whose
    coefficients are the convolution of the binomial series of (1 - e^{-t} z)^gamma
    and (1 - z)^-gamma.  ``alpha`` None is H^2, else A^2_alpha.
    """
    q, k = np.exp(-t), np.arange(1, dim)
    numer = np.cumprod(np.concatenate(([1.0], (k - 1.0 - gamma) * q / k)))
    denom = np.cumprod(np.concatenate(([1.0], (k - 1.0 + gamma) / k)))
    m = np.convolve(numer, denom)[:dim]
    i, j, s = np.arange(dim)[:, None], np.arange(dim)[None, :], monomial_norms(dim, alpha)
    lower = np.where(i >= j, m[np.maximum(i - j, 0)], 0.0)
    return (np.exp(-t * j) * lower * s[:, None] / s[None, :]).astype(complex)


def hardy_level_at_zero(a: complex, n: int, eps=None) -> float:
    """The t = 0 Hardy criterion at anchor ``a`` on n points per circle, in closed form.

    On the circle rho = 1 - eps the n-point mean of (1-|a|^2) / |1 - conj(a)
    rho e^{i theta}|^2 is (1-|a|^2) / (1-s^2) Re[(1+q)/(1-q)] with s = |a| rho
    and q = s^n e^{-i n arg a}: the Poisson kernel's Fourier series summed
    over the frequencies the grid aliases to zero.  The circle means are
    weighted by the Lagrange weights at eps = 0 of the circles ``eps``
    (default the boundary ladder), computed here from the circles themselves.
    """
    from semiflow_lab.spaces import BOUNDARY_EPS

    eps = np.asarray(BOUNDARY_EPS if eps is None else eps, dtype=float)
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


def taylor_energy(f, k: int, scales=None) -> float:
    """sum_n |c_n|^2 s_n^2 over the Taylor coefficients c_n of ``f`` (s_n = 1
    if ``scales`` is None, else ``scales(count)``), from one FFT of 2^(k+8)
    samples on the circle 1 - 2^-(k+4).

    Aliasing adds c_{n+N} rho^N, e^-16 times coefficients that have decayed
    for 2^(k+8) terms.  Rounding in the samples is scaled by rho^-n, up to
    e^16, so the last dyadic block n >= N/2 holds up to 3e-13 of the sum
    from rounding alone at k = 10; the sum is refused (AssertionError) when
    that block holds more than 1e-11 of it: then the coefficients decay too
    slowly for a plain partial sum.
    """
    n, rho = 2 ** (k + 8), 1.0 - 2.0 ** -(k + 4)
    samples = f(rho * np.exp(2j * np.pi * np.arange(n) / n))
    energy = np.abs(np.fft.fft(samples) / n / rho ** np.arange(n)) ** 2
    if scales is not None:
        energy *= scales(n) ** 2
    total = float(np.sum(energy))
    assert np.sum(energy[n // 2:]) <= 1e-11 * total, "the coefficients decay too slowly"
    return total


def hardy_taylor_criterion(phi, m, a: complex, k: int) -> float:
    """The p = 2 Hardy criterion at anchor ``a``: (1 - |a|^2) ||m / (1 - conj(a) phi)||^2
    on H^2, the sum of the squared Taylor coefficients (maps ``phi`` and ``m`` at one t)."""
    return (1.0 - abs(a) ** 2) * taylor_energy(lambda z: m(z) / (1.0 - np.conj(a) * phi(z)), k)


def bergman_taylor_criterion(phi, m, a: complex, k: int, alpha: float, scales) -> float:
    """The p = 2 criterion of A^2_alpha (standard weight) at anchor ``a``.

    With gamma = 2 (alpha + 2) + 1, it is head(|a|) ||m (1 - conj(a) phi)^-(gamma+1)/2||^2,
    the norm summed from Taylor coefficients c_n as sum |c_n|^2 s_n^2 with
    s_n = ||z^n|| (``scales(count)``).  The head (1 - |a|)^(gamma+1) / omega(S(a)) is
    2 pi (1 - |a|)^gamma / (1 - |a|^2)^(alpha+1) in closed form.
    """
    gamma, r = 2.0 * (alpha + 2.0) + 1.0, abs(a)
    head = 2.0 * np.pi * (1.0 - r) ** gamma / (1.0 - r * r) ** (alpha + 1.0)
    return head * taylor_energy(
        lambda z: m(z) * (1.0 - np.conj(a) * phi(z)) ** (-(gamma + 1.0) / 2.0), k, scales)
