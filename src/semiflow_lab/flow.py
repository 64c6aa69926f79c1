"""Semiflows of analytic self-maps of the disk.

A semiflow is either a closed-form map (t, z) -> phi_t(z) or is driven by
an infinitesimal generator G through the autonomous IVP w' = G(w),
w(0) = z, integrated with an embedded Dormand-Prince 4(5) pair.  The
integrator marches a whole batch of initial points at once and clips its
steps at requested output times, so verification sweeps stay cheap.

Trajectories are confined to the closed disk: a numerical escape beyond
tolerance signals an inadmissible generator and raises.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .analytic import AnalyticFn, disk_samples, neville_extrapolate
from .errors import (DomainError, IntegrationError, InvalidSemiflowError,
                     PreconditionError, require_tolerance)

# Dormand-Prince 4(5) tableau, one row per contraction over the stage stack:
# row i (1 <= i <= 5) forms stage point i from stages 0..i-1, row 6 is the
# fifth-order solution, whose generator value is stage 6 and the next step's
# stage 0, and row 7 the fourth-order solution of the error estimate.
_DP = np.array([
    [0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0],
    [3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0, 0.0],
    [44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0, 0.0],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0, 0.0],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0, 0.0],
    [35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84, 0.0],
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40],
])

# A step whose stage points leave the generator's domain is rejected and
# retried shorter; below this step size the generator is declared invalid.
_H_FLOOR = 1e-12

# DP45 error tolerances, the step budget of one integration, and how far
# beyond the closed disk a state may lie before the flow is declared invalid.
_ODE_RTOL = 1e-10
_ODE_ATOL = 1e-12
_MAX_STEPS = 200_000
_ESCAPE_TOL = 1e-9


def _stage_point(w, h, row, stack):
    """w + h sum_j row_j k_j, one contraction over the real view of the stage stack.

    ``einsum`` keeps the contraction off the BLAS thread pool, which a
    matrix product would wake for large batches at twice the CPU time.
    """
    return w + np.einsum("i,ij->j", h * row, stack[:row.size]).view(complex).reshape(w.shape)


def _integrate_to_stops(g, z0, stops):
    """Solve w' = g(w) for a batch of starts, recording the state at each stop.

    ``z0`` has shape (k, n): row 0 holds the positions, the only row the
    escape check reads.  ``stops`` must be sorted, nonnegative and unique;
    the run integrates [0, stops[-1]] once.  Returns an array of shape
    (len(stops), k, n).

    The seven stages live in one preallocated (7, k, n) stack and each
    stage point is one contraction of a tableau row with it
    (:func:`_stage_point`).  A stage point outside the generator's domain
    (``DomainError``) rejects the step like an error estimate of infinity,
    so h shrinks and the step is retried: explicit stages may overshoot the
    disk where the exact flow does not.  The generator is declared invalid
    (``InvalidSemiflowError``) only when it fails at the start, when an
    accepted state lies beyond ``_ESCAPE_TOL`` outside the disk, or when
    such rejections push the step below ``_H_FLOOR``.
    """
    w = np.array(z0, dtype=complex)
    out = np.empty((len(stops),) + w.shape, dtype=complex)
    limit = 1.0 - 1e-12 + _ESCAPE_TOL
    t = 0.0
    idx = 0
    while idx < len(stops) and stops[idx] <= t + 1e-15:
        out[idx] = w
        idx += 1
    if idx >= len(stops):
        return out
    stages = np.empty((7,) + w.shape, dtype=complex)
    stack = stages.reshape(7, w.size).view(float)
    try:
        stages[0] = g(w)
    except DomainError as exc:
        raise InvalidSemiflowError(f"generator evaluation left the closed disk: {exc}")
    h = min(1e-2, stops[-1] if stops[-1] > 0 else 1e-2)
    steps = 0
    while idx < len(stops):
        target = stops[idx]
        h_try = min(h, target - t)
        try:
            for i in range(1, 7):
                y = _stage_point(w, h_try, _DP[i, :i], stack)
                stages[i] = g(y)
        except DomainError:
            err = np.inf
        else:
            w5, w4 = y, _stage_point(w, h_try, _DP[7], stack)
            scale = _ODE_ATOL + _ODE_RTOL * np.maximum(np.abs(w), np.abs(w5))
            err = float(np.max(np.abs(w5 - w4) / scale)) if w.size else 0.0
        if err <= 1.0:
            t += h_try
            w = w5
            stages[0] = stages[6]
            top = float(np.max(np.abs(w[0]))) if w.size else 0.0
            if top > limit:
                raise InvalidSemiflowError(
                    f"trajectory escaped the disk (|w| = {top:.12g} at t = {t:.6g}); "
                    "the generator does not define a self-map semiflow")
            if abs(t - target) <= 1e-13 * max(1.0, target):
                out[idx] = w
                idx += 1
                while idx < len(stops) and stops[idx] <= t + 1e-13:
                    out[idx] = w
                    idx += 1
        elif err == np.inf and h_try < _H_FLOOR:
            raise InvalidSemiflowError(
                f"generator evaluation left the closed disk at every step down to "
                f"h = {h_try:.3g} (t = {t:.6g}); the generator does not define a "
                "self-map semiflow")
        factor = 0.9 * err ** -0.2 if err > 0 else 5.0
        h = h_try * min(5.0, max(0.2, factor))
        h = max(h, 1e-14)
        steps += 1
        if steps > _MAX_STEPS:
            raise IntegrationError(
                f"step budget {_MAX_STEPS} exhausted at t = {t:.6g} (target {target:.6g})")
    return out


class Semiflow:
    """One-parameter family phi_t of analytic self-maps of the unit disk.

    ``derivative``, if given, is the closed-form map (t, z_array) -> d/dz phi_t
    of a closed-form flow, or G' as an AnalyticFn for a generator-driven one.
    """

    def __init__(self, *, closed_map=None, generator=None, derivative=None,
                 name: str = "semiflow"):
        if (closed_map is None) == (generator is None):
            raise PreconditionError("provide exactly one of closed_map or generator")
        self._closed = closed_map
        self.generator = generator
        self.derivative = derivative
        self.name = name

    @classmethod
    def closed_form(cls, fn, name: str = "closed", **kw) -> "Semiflow":
        """Semiflow from a vectorized closed-form map (t, z_array) -> array."""
        return cls(closed_map=fn, name=name, **kw)

    @classmethod
    def from_generator(cls, g, name: str = "generator-driven", **kw) -> "Semiflow":
        """Semiflow obtained by integrating w' = g(w)."""
        return cls(generator=g, name=name, **kw)

    @property
    def is_generator_driven(self) -> bool:
        return self.generator is not None

    def __repr__(self):
        kind = "generator" if self.is_generator_driven else "closed-form"
        return f"Semiflow({self.name!r}, {kind})"

    def at_times(self, ts, zs, check: bool = True) -> np.ndarray:
        """phi_t(z) for every t in ``ts`` and z in ``zs``; shape (len(ts), len(zs))."""
        ts = np.atleast_1d(np.asarray(ts, dtype=float))
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        # written as "not -1e-15 <= t < inf" so that NaN fails too
        if ts.size and not (-1e-15 <= ts.min() and ts.max() < np.inf):
            raise PreconditionError("semiflow times must be finite and nonnegative")
        if check and zs.size and float(np.max(np.abs(zs))) >= 1.0:
            raise PreconditionError("semiflow arguments must lie in the open disk")
        if self._closed is not None:
            if ts.size == 1:
                out = np.asarray(self._closed(float(ts[0]), zs), dtype=complex)[None, :]
            else:
                out = np.stack([np.asarray(self._closed(float(t), zs), dtype=complex)
                                for t in ts])
        else:
            order = np.argsort(ts, kind="stable")
            stops = ts[order]
            res = _integrate_to_stops(self.generator, zs[None, :], np.maximum(stops, 0.0))[:, 0]
            out = np.empty_like(res)
            out[order] = res
        if check:
            top = float(np.max(np.abs(out))) if out.size else 0.0
            if top > 1.0 + _ESCAPE_TOL:
                raise InvalidSemiflowError(
                    f"{self.name}: |phi_t(z)| = {top:.12g} leaves the closed disk")
        return out

    def jet(self, t: float, zs) -> tuple:
        """(phi_t(z), d/dz phi_t(z)) for every z in ``zs``, from the derivative the flow carries.

        A generator-driven flow integrates the variational equation
        v' = G'(w) v, v(0) = 1, with w' = G(w) in one batch; the escape
        check reads w only.  Neither |z| nor the final |phi_t(z)| is checked.
        """
        zs = np.atleast_1d(np.asarray(zs, dtype=complex))
        if self.derivative is None:
            raise PreconditionError(f"{self.name} carries no derivative")
        if not -1e-15 <= t < np.inf:        # written so that NaN fails too
            raise PreconditionError("semiflow times must be finite and nonnegative")
        if self._closed is not None:
            return (np.asarray(self._closed(float(t), zs), dtype=complex),
                    np.asarray(self.derivative(float(t), zs), dtype=complex))
        g, dg = self.generator, self.derivative
        return tuple(_integrate_to_stops(lambda y: np.stack([g(y[0]), dg(y[0]) * y[1]]),
                                         np.stack([zs, np.ones_like(zs)]),
                                         [max(float(t), 0.0)])[0])

    def __call__(self, t, z):
        """phi_t(z) for scalar t; vectorized over z."""
        z_arr = np.asarray(z, dtype=complex)
        scalar = z_arr.ndim == 0
        vals = self.at_times([t], np.atleast_1d(z_arr))[0]
        return complex(vals[0]) if scalar else vals.reshape(z_arr.shape)

    def map_fn(self, t: float) -> AnalyticFn:
        """phi_t as an AnalyticFn."""
        return AnalyticFn(lambda z, _t=float(t): self.at_times([_t], z.ravel())[0].reshape(z.shape),
                          label=f"{self.name}.phi[{t:g}]")


def estimate_generator(s: Semiflow, z):
    """Second-order estimate of G(z) from two forward difference quotients.

    Combines the quotients at steps h = 1e-3 and h/2 so the leading O(h)
    error of the one-sided quotient cancels.
    """
    h = 1e-3
    z_arr = np.asarray(z, dtype=complex)
    scalar = z_arr.ndim == 0
    flat = np.atleast_1d(z_arr).ravel()
    vals = s.at_times([h / 2.0, h], flat)
    d_half = (vals[0] - flat) / (h / 2.0)
    d_full = (vals[1] - flat) / h
    g = 2.0 * d_half - d_full
    return complex(g[0]) if scalar else g.reshape(z_arr.shape)


@dataclass
class FlowVerificationReport:
    """Residuals of the semiflow axioms over a verification grid."""

    max_identity_residual: float
    max_law_residual: float
    max_selfmap_excess: float
    continuity_residual: float
    tolerance: float
    passed: bool
    note: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


def verify_semiflow(s: Semiflow, t_grid=None, z_grid=None, tol: float = 1e-8) -> FlowVerificationReport:
    """Check identity, semigroup law, self-map confinement and continuity at 0.

    Never raises on a failing family; all defects land in the report.
    """
    require_tolerance(tol)
    t_grid = np.asarray(t_grid if t_grid is not None else np.linspace(0.0, 2.0, 8), dtype=float)
    z_grid = np.asarray(z_grid if z_grid is not None else disk_samples(50), dtype=complex)
    if t_grid.size == 0 or z_grid.size == 0:
        raise PreconditionError("verification grids must be nonempty")
    if not np.all(np.isfinite(t_grid)):
        raise PreconditionError("verification times must be finite")
    try:
        base = s.at_times(t_grid, z_grid, check=False)           # [T, Z]
        identity = float(np.max(np.abs(s.at_times([0.0], z_grid, check=False)[0] - z_grid)))
        sums = np.add.outer(t_grid, t_grid).ravel()
        both = s.at_times(sums, z_grid, check=False).reshape(t_grid.size, t_grid.size, z_grid.size)
        law = 0.0
        excess = max(float(np.max(np.abs(base))), float(np.max(np.abs(both)))) - 1.0
        for j in range(t_grid.size):
            chained = s.at_times(t_grid, base[j], check=False)   # phi_t(phi_{s_j}(z))
            law = max(law, float(np.max(np.abs(both[:, j, :] - chained))))
            excess = max(excess, float(np.max(np.abs(chained))) - 1.0)
        # Continuity at t = 0: the pointwise limit phi_t(z) -> z is probed by
        # extrapolating each displacement phi_{t_k}(z) - z along t_k = 2^{-k}
        # to t = 0 (the raw final residual scales like t |G| and can never
        # beat a tight tolerance for a moving flow).  The displacements are
        # smooth in t; their max over z is not where its argmax switches,
        # and extrapolating that max can miss by more than 1e-8.
        t_small = 2.0 ** -np.arange(1, 13)
        near0 = s.at_times(t_small, z_grid, check=False)
        limit, _ = neville_extrapolate(t_small[-6:], near0[-6:] - z_grid[None, :])
        continuity = float(np.max(np.abs(limit)))
    except (InvalidSemiflowError, IntegrationError) as exc:
        return FlowVerificationReport(np.inf, np.inf, np.inf, np.inf, tol, False,
                                      note=f"evaluation failed: {exc}")
    passed = (identity < tol and law < tol and excess < tol and continuity < tol)
    return FlowVerificationReport(identity, law, excess, continuity, tol, passed)


def fixed_points_check(s: Semiflow, candidates):
    """True per candidate iff |phi_t(z) - z| < 1e-9 at t = 0.1, 0.25, 0.5, 1, 2."""
    cands = np.atleast_1d(np.asarray(candidates, dtype=complex))
    if cands.size and float(np.max(np.abs(cands))) >= 1.0:
        raise PreconditionError("fixed-point candidates must lie in the open disk")
    vals = s.at_times([0.1, 0.25, 0.5, 1.0, 2.0], cands, check=False)
    residual = np.max(np.abs(vals - cands[None, :]), axis=0)
    return [bool(r < 1e-9) for r in residual]


# -- gallery ----------------------------------------------------------

def dilation() -> Semiflow:
    """phi_t(z) = e^{-t} z; interior fixed point at the origin."""
    return Semiflow.closed_form(lambda t, z: np.exp(-t) * z, name="dilation",
                                derivative=lambda t, z: np.full_like(z, np.exp(-t)))


def rotation(speed: float = 1.0) -> Semiflow:
    """phi_t(z) = e^{i a t} z; a group of rotations."""
    a = float(speed)
    return Semiflow.closed_form(lambda t, z: np.exp(1j * a * t) * z,
                                derivative=lambda t, z: np.full_like(z, np.exp(1j * a * t)),
                                name=f"rotation({speed:g})")


def attraction() -> Semiflow:
    """phi_t(z) = e^{-t} z + 1 - e^{-t}; attracted to the boundary point 1."""
    return Semiflow.closed_form(lambda t, z: np.exp(-t) * z + (1.0 - np.exp(-t)),
                                derivative=lambda t, z: np.full_like(z, np.exp(-t)),
                                name="attraction")


def identity_flow() -> Semiflow:
    """The trivial semiflow phi_t = id."""
    return Semiflow.closed_form(lambda t, z: z + 0j, derivative=lambda t, z: np.ones_like(z),
                                name="identity")


def broken_escape() -> Semiflow:
    """Deliberately invalid family phi_t(z) = z + t (escapes the disk)."""
    return Semiflow.closed_form(lambda t, z: z + t, derivative=lambda t, z: np.ones_like(z),
                                name="broken-escape")


_GENERATORS = {  # name -> (G, G')
    "dilation": lambda: (AnalyticFn(lambda z: -z, label="-z"), AnalyticFn.constant(-1.0)),
    "attraction": lambda: (AnalyticFn(lambda z: 1.0 - z, label="1-z"), AnalyticFn.constant(-1.0)),
    "identity": lambda: (AnalyticFn(lambda z: np.zeros_like(z), label="0"), AnalyticFn.constant(0)),
}


def generator_twin(name: str, *params) -> Semiflow:
    """Generator-driven rebuild of a closed-form gallery flow, carrying G'."""
    if name == "rotation":
        a = float(params[0]) if params else 1.0
        g = AnalyticFn(lambda z, _a=a: 1j * _a * z, label=f"i*{a:g}*z")
        dg = AnalyticFn.constant(1j * a)
    elif name in _GENERATORS:
        g, dg = _GENERATORS[name]()
    else:
        raise PreconditionError(f"no generator twin for flow {name!r}")
    return Semiflow.from_generator(g, name=f"generator-{name}", derivative=dg)


GALLERY = {
    "dilation": dilation,
    "rotation": rotation,
    "attraction": attraction,
    "identity": identity_flow,
    "broken-escape": broken_escape,
    "generator-dilation": lambda: generator_twin("dilation"),
    "generator-rotation": lambda *p: generator_twin("rotation", *p),
    "generator-attraction": lambda: generator_twin("attraction"),
}


def resolve_flow(text: str) -> Semiflow:
    """Gallery lookup from a spec string like ``dilation`` or ``rotation:2``."""
    parts = str(text).split(":")
    name, params = parts[0].strip(), parts[1:]
    if name not in GALLERY:
        raise PreconditionError(f"unknown gallery flow {name!r}")
    try:
        return GALLERY[name](*(float(p) for p in params))
    except (TypeError, ValueError) as exc:
        raise PreconditionError(f"bad parameters in flow spec {text!r}: {exc}")
