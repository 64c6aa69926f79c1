"""Cocycles for a semiflow: coboundaries, derivative cocycles, closed forms.

A cocycle is a family m_t of analytic functions with m_0 = 1 and
m_{t+s}(z) = m_t(z) m_s(phi_t(z)).  Coboundaries are the quotients
(w o phi_t)/w for a weight w whose zeros are fixed points of the flow; the
derivative cocycle is phi_t', the exact derivative the flow carries (a
closed form, or the variational equation integrated with the flow).

Sup norms over the disk are estimated from below by circle maxima on a
radius ladder; the estimates are labeled as lower bounds throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .analytic import AnalyticFn, disk_samples, unit_circle
from .errors import (AdmissibilityError, CocycleZeroError, IntegrationError,
                     InvalidSemiflowError, PreconditionError, require_tolerance, spec_number)
from .flow import Semiflow, fixed_points_check


class Cocycle:
    """Multiplier family m_t bound to (or compatible with) a semiflow."""

    def __init__(self, kind: str, *, closed_map=None, weight: AnalyticFn | None = None,
                 flow: Semiflow | None = None, zeros=(), name: str = "cocycle"):
        if kind not in ("closed", "coboundary", "derivative"):
            raise PreconditionError(f"unknown cocycle kind {kind!r}")
        if kind == "coboundary" and (weight is None or flow is None):
            raise PreconditionError("a coboundary needs a weight and a flow")
        if kind == "derivative" and (flow is None or flow.derivative is None):
            raise PreconditionError("a derivative cocycle needs a flow carrying its derivative")
        if kind == "closed" and closed_map is None:
            raise PreconditionError("a closed-form cocycle needs its map")
        self.kind = kind
        self._closed = closed_map
        self.weight = weight
        self.flow = flow
        self.zeros = tuple(complex(z) for z in zeros)
        self.name = name

    @classmethod
    def closed(cls, fn, name: str = "closed") -> "Cocycle":
        """Cocycle from a vectorized closed-form map (t, z_array) -> array."""
        return cls("closed", closed_map=fn, name=name)

    @classmethod
    def derivative(cls, flow: Semiflow) -> "Cocycle":
        """m_t = phi_t', taken with phi_t from ``flow.jet`` in one evaluation.

        The flow must carry its derivative (see :class:`Semiflow`); the
        cocycle is evaluated at interior points only.
        """
        return cls("derivative", flow=flow, name=f"derivative[{flow.name}]")

    def __repr__(self):
        return f"Cocycle({self.name!r}, kind={self.kind})"

    def eval(self, t: float, z):
        """m_t(z), vectorized over z."""
        z_arr = np.asarray(z, dtype=complex)
        scalar = z_arr.ndim == 0
        flat = np.atleast_1d(z_arr).ravel()
        if self.kind == "closed":
            vals = np.asarray(self._closed(float(t), flat), dtype=complex)
        else:
            vals = self.sample(self.flow, t, flat)[1]
        return complex(vals[0]) if scalar else vals.reshape(z_arr.shape)

    def sample(self, flow: Semiflow, t: float, z):
        """(phi_t(z), m_t(z)) in the shape of z; the one place a cocycle evaluates a flow.

        Bound to this very ``flow`` object, a coboundary reads phi_t from one
        checked ``at_times`` call after its zero checks, and a derivative
        cocycle takes both from ``flow.jet``; any other cocycle pairs
        ``flow.at_times(..., check=False)`` with :meth:`eval`.
        """
        t = float(t)
        z_arr = np.asarray(z, dtype=complex)
        flat = z_arr.ravel()
        if self.flow is not flow:
            phi, vals = flow.at_times([t], flat, check=False)[0], self.eval(t, flat)
        elif self.kind == "coboundary":
            wz = self.weight(flat)
            scale = 1.0 + float(np.max(np.abs(wz))) if flat.size else 1.0
            tiny = np.abs(wz) < 1e-13 * scale
            if np.any(tiny):
                bad = flat[tiny][0]
                for z0 in self.zeros:
                    if abs(bad - z0) < 1e-9:
                        raise CocycleZeroError(
                            f"evaluation at declared zero z = {z0} of the coboundary weight "
                            "is rejected (removable singularity, no limiting procedure)")
                raise CocycleZeroError(
                    f"coboundary weight vanishes at z = {bad} which is not a declared zero")
            phi = flow.at_times([t], flat)[0]
            vals = self.weight(phi) / wz
        else:
            if flat.size and float(np.max(np.abs(flat))) >= 1.0:
                raise PreconditionError("derivative cocycle needs interior points")
            phi, vals = flow.jet(t, flat)
        return phi.reshape(z_arr.shape), vals.reshape(z_arr.shape)

    def fn(self, t: float) -> AnalyticFn:
        """m_t as an AnalyticFn."""
        return AnalyticFn(lambda z, _t=float(t): np.atleast_1d(self.eval(_t, z)).reshape(z.shape),
                          label=f"{self.name}.m[{t:g}]")


def make_coboundary(w: AnalyticFn, flow: Semiflow, zero_candidates=()) -> Cocycle:
    """Coboundary m_t = (w o phi_t) / w after checking the declared zeros.

    Every declared zero of ``w`` must be a fixed point of the flow (see
    :func:`flow.fixed_points_check`), otherwise the quotient would not
    satisfy the cocycle law.
    """
    zeros = tuple(complex(z) for z in zero_candidates)
    if zeros:
        ok = fixed_points_check(flow, zeros)
        bad = [z for z, good in zip(zeros, ok) if not good]
        if bad:
            raise AdmissibilityError(
                f"declared zeros {bad} of weight {w.label!r} are not fixed points "
                f"of {flow.name}")
    return Cocycle("coboundary", weight=w, flow=flow, zeros=zeros,
                   name=f"coboundary[{w.label}]")


@dataclass
class CocycleVerificationReport:
    """Residuals of the cocycle axioms over a verification grid."""

    max_law_residual: float
    max_unit_residual: float
    admissible: bool
    tolerance: float
    passed: bool
    note: str = ""


def verify_cocycle(m: Cocycle, flow: Semiflow, t_grid=None, z_grid=None,
                   tol: float = 1e-8) -> CocycleVerificationReport:
    """Check m_0 = 1 and the multiplicative law; failures land in the report."""
    require_tolerance(tol)
    t_grid = np.asarray(t_grid if t_grid is not None else np.linspace(0.0, 2.0, 8), dtype=float)
    z_grid = np.asarray(z_grid if z_grid is not None else disk_samples(30), dtype=complex)
    if t_grid.size == 0 or z_grid.size == 0:
        raise PreconditionError("verification grids must be nonempty")
    if not np.all(np.isfinite(t_grid)):
        raise PreconditionError("verification times must be finite")
    evaluated: dict = {}

    def m_on_grid(t):
        # the sums t + s repeat across the (t, s) pairs: evaluate each once
        if t not in evaluated:
            evaluated[t] = m.eval(t, z_grid)
        return evaluated[t]

    try:
        admissible = True
        if m.kind == "coboundary" and m.zeros:
            admissible = all(fixed_points_check(flow, m.zeros))
        unit = float(np.max(np.abs(m_on_grid(0.0) - 1.0)))
        law = 0.0
        m_at = {float(t): m_on_grid(float(t)) for t in t_grid}
        phi_at = {float(t): flow.at_times([float(t)], z_grid)[0] for t in t_grid}
        for t in t_grid:
            m_t, phi_t = m_at[float(t)], phi_at[float(t)]
            for s in t_grid:
                lhs = m_on_grid(float(t + s))
                rhs = m_t * m.eval(float(s), phi_t)
                law = max(law, float(np.max(np.abs(lhs - rhs))))
    except (CocycleZeroError, PreconditionError, InvalidSemiflowError, IntegrationError) as exc:
        return CocycleVerificationReport(np.inf, np.inf, False, tol, False,
                                         note=f"evaluation failed: {exc}")
    passed = admissible and unit < tol and law < tol
    return CocycleVerificationReport(law, unit, admissible, tol, passed)


def circle_maxima(m: Cocycle, t: float, radii=(0.9, 0.99, 0.999), nodes: int = 512) -> np.ndarray:
    """max |m_t| over each sampled circle, in the order of ``radii``."""
    radii = tuple(float(r) for r in radii)
    if any(not 0.0 < r < 1.0 for r in radii):
        raise PreconditionError("sup-norm radii must lie in (0, 1)")
    if nodes < 256:
        raise PreconditionError("sup-norm estimation needs at least 256 angular nodes")
    circ = unit_circle(nodes)
    with np.errstate(over="ignore", invalid="ignore"):
        return np.array([float(np.max(np.abs(m.eval(t, r * circ)))) for r in radii])


@dataclass
class LimsupProbe:
    """Small-time trend of the sup-norm lower estimates.

    ``regime`` is one of ``contractive`` (tail bounded by one), ``finite``
    (tail bounded but above one) or ``divergent`` (circle maxima grow
    without stabilizing along the radius ladder, or overflow).
    """

    tail_value: float
    regime: str
    t_values: list
    estimates: list
    divergent_times: list

    def to_dict(self) -> dict:
        return asdict(self)


def _radius_trend_divergent(profile: np.ndarray) -> bool:
    if not np.all(np.isfinite(profile)):
        return True
    if profile.size < 3 or float(np.min(profile)) <= 0.0:
        return False
    increments = np.diff(np.log(profile))
    growing = increments[-1] > max(1.2 * increments[-2], 0.05)
    return bool(growing and profile[-1] > 4.0 * profile[0])


def limsup_probe(m: Cocycle, tol: float = 1e-6) -> LimsupProbe:
    """Probe limsup_{t->0+} of the sup-norm estimates along t = 2^-1, ..., 2^-10,
    with the default radii and nodes of :func:`circle_maxima`."""
    require_tolerance(tol)
    t_seq = 2.0 ** -np.arange(1, 11)
    estimates, divergent = [], []
    for t in t_seq:
        profile = circle_maxima(m, float(t))
        estimates.append(float(np.max(profile)) if np.all(np.isfinite(profile)) else np.inf)
        if _radius_trend_divergent(profile):
            divergent.append(float(t))
    tail = estimates[t_seq.size // 2:]
    tail_ts = t_seq[t_seq.size // 2:]
    tail_divergent = [t for t in divergent if t <= tail_ts[0] + 1e-15]
    tail_value = float(np.max(tail))
    if tail_divergent or not np.isfinite(tail_value):
        regime = "divergent"
    elif tail_value <= 1.0 + tol:
        regime = "contractive"
    else:
        regime = "finite"
    return LimsupProbe(tail_value, regime, [float(t) for t in t_seq], estimates,
                       divergent)


# -- gallery ----------------------------------------------------------

def unit_cocycle() -> Cocycle:
    """m_t = 1 (the unweighted case)."""
    return Cocycle.closed(lambda t, z: np.ones_like(z), name="unit")


def exp_growth_cocycle() -> Cocycle:
    """m_t = e^t; constant in z, so a cocycle for every flow."""
    return Cocycle.closed(lambda t, z: np.full_like(z, np.exp(t)), name="exp-growth")


def poisson_blowup_cocycle() -> Cocycle:
    """m_t(z) = exp(t (1+z)/(1-z)); a cocycle for the identity flow with
    unbounded circle maxima for every t > 0."""
    def mp(t, z):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.exp(t * (1.0 + z) / (1.0 - z))
    return Cocycle.closed(mp, name="poisson-blowup")


def resolve_cocycle(text: str, flow: Semiflow) -> Cocycle:
    """Gallery lookup from a spec string.

    Supported forms: ``unit``, ``derivative``, ``exp-growth``,
    ``poisson-blowup``, ``coboundary:z``, ``coboundary:z^k``,
    ``coboundary:affine-power:<gamma>`` for w = (1-z)^gamma.
    """
    from .analytic import principal_power  # local to avoid cycles in docs tooling

    parts = [p.strip() for p in str(text).split(":")]
    head = parts[0]
    if head == "unit":
        return unit_cocycle()
    if head == "derivative":
        return Cocycle.derivative(flow)
    if head == "exp-growth":
        return exp_growth_cocycle()
    if head == "poisson-blowup":
        return poisson_blowup_cocycle()
    if head == "coboundary":
        if len(parts) < 2:
            raise PreconditionError("coboundary spec needs a weight name")
        wname = parts[1]
        if wname == "z":
            return make_coboundary(AnalyticFn.identity(), flow, zero_candidates=(0.0,))
        if wname.startswith("z^"):
            k = spec_number(int, wname[2:], text)
            return make_coboundary(AnalyticFn.monomial(k), flow,
                                   zero_candidates=(0.0,) if k else ())
        if wname == "affine-power":
            gamma = spec_number(float, parts[2], text) if len(parts) > 2 else 1.0
            base = AnalyticFn(lambda z: 1.0 - z, label="1-z")
            return make_coboundary(principal_power(base, gamma), flow)
        raise PreconditionError(f"unknown coboundary weight {wname!r}")
    raise PreconditionError(f"unknown gallery cocycle {text!r}")
