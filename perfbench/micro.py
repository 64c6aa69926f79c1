"""Micro rows: one public call per layer, timed outside any workload.

Each row is the median of a few repeats, with tracing off.  The pair is
dilation/coboundary:z at t = 0.5 unless a row says otherwise.
"""

from __future__ import annotations

import statistics
from time import perf_counter

from semiflow_lab import criteria, operators, spaces
from semiflow_lab.analytic import AnalyticFn, unit_circle
from semiflow_lab.cocycle import Cocycle, resolve_cocycle
from semiflow_lab.flow import attraction, resolve_flow
from semiflow_lab.spaces import RadialWeight, SpaceSpec

T = 0.5
DEEP = 1.0 - 2.0 ** -10
DEEP_SCAN = criteria.SupScanConfig(small_radii=(DEEP,), ladder_depth=0, n_angles=1,
                                   refine_rounds=0)


def _median_time(fn, repeats: int, inner: int = 1) -> float:
    """Median over ``repeats`` of the time of one call, ``inner`` calls per sample."""
    samples = []
    for _ in range(repeats):
        start = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - start) / inner)
    return statistics.median(samples)


def micro_rows() -> dict:
    flow = resolve_flow("dilation")
    cocycle = resolve_cocycle("coboundary:z", flow)
    h2 = SpaceSpec.hardy(2)
    a0 = SpaceSpec.bergman(2, RadialWeight.standard(0.0))
    rows = {}

    f = AnalyticFn(lambda z: 1.0 - z, label="1-z")
    z64 = 0.5 * unit_circle(64)
    rows["analytic.fn_call_us"] = (1e6 * _median_time(lambda: f(z64), 7, 500), "us")

    gen = resolve_flow("generator-dilation")
    z_deep = DEEP * unit_circle(32768)
    dp45 = _median_time(lambda: gen.at_times([T], z_deep, check=False), 3)
    rows["flow.dp45_points_per_s"] = (z_deep.size / dp45, "1/s")

    att = attraction()
    deriv = Cocycle.derivative(att)
    z_ring = 0.9 * unit_circle(8192)
    rows["cocycle.derivative_ns_per_point"] = (
        1e9 * _median_time(lambda: deriv.eval(T, z_ring), 5) / z_ring.size, "ns")

    g = AnalyticFn(lambda z: 1.0 / (1.0 - 0.5 * z), label="1/(1-z/2)")
    rows["spaces.hardy_norm_ms"] = (1e3 * _median_time(lambda: spaces.hardy_norm(g, 2.0), 15),
                                    "ms")
    rows["spaces.bergman_norm_ms"] = (
        1e3 * _median_time(lambda: spaces.bergman_norm(g, 2.0, a0.weight), 15), "ms")

    op = operators.semigroup_op(flow, cocycle, T)
    for space in (h2, a0):
        rows[f"operators.matrix_ms.{space.kind}"] = (
            1e3 * _median_time(lambda: operators.matrix(op, space, dim=64), 5), "ms")
    section = operators.matrix(operators.semigroup_op(att, deriv, T), a0, dim=64)
    rows["operators.norm2_ms"] = (1e3 * _median_time(lambda: operators.norm2(section), 9),
                                  "ms")

    rows["criteria.sup_scan_s.hardy"] = (
        _median_time(lambda: criteria.hardy_criterion(flow, cocycle, 2.0, T), 3), "s")
    rows["criteria.sup_scan_s.bergman"] = (
        _median_time(lambda: criteria.bergman_criterion(flow, cocycle, 2.0, a0.weight, T), 3),
        "s")
    rows["criteria.deep_anchor_integral_ms.hardy"] = (
        1e3 * _median_time(lambda: criteria.hardy_criterion(flow, cocycle, 2.0, T,
                                                            scan=DEEP_SCAN), 3), "ms")
    rows["criteria.deep_anchor_integral_ms.bergman"] = (
        1e3 * _median_time(lambda: criteria.bergman_criterion(flow, cocycle, 2.0, a0.weight, T,
                                                              scan=DEEP_SCAN), 3), "ms")
    return rows
