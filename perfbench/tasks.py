"""Workload inputs, task lists and correctness checks.

Every workload is a fixed list of tasks run one at a time.  ``build`` draws
the inputs from the seed, writes the scenario files and bundles into the
run's work directory and returns the tasks; a task's ``run`` is the timed
call and its ``check`` (untimed) returns None when the output is correct or
the reason it is not.

Library calls go through module attributes (``criteria.uniform_bound_verdict``
rather than a name imported by value) so that the traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

from semiflow_lab import cli, criteria, intertwine, operators
from semiflow_lab.analytic import AnalyticFn, disk_samples, principal_power
from semiflow_lab.cocycle import Cocycle, make_coboundary, resolve_cocycle
from semiflow_lab.flow import attraction, resolve_flow
from semiflow_lab.spaces import RadialWeight, SpaceSpec

REFERENCE_PATH = Path(__file__).resolve().parent / "reference.json"

# Closed forms hold to quadrature and ODE accuracy (observed <= 2e-10).
CLOSED_RTOL = 1e-8
# Values recorded at the benchmark's defining commit.  1e-3 is about 15x the
# largest documented legitimate shift (6.5e-5 relative on the deepest Bergman
# rung once the disk-grid caps are lifted) and far below the percent-level
# change a wrong kernel, exponent, weight or cocycle produces.
REF_RTOL = 1e-3
# Acceptance 09's pointwise tolerance for extracted symbols.
SYMBOL_TOL = 1e-7

H2 = "hardy:2"
A2_0 = "bergman:2:0"

# The reference verdict grid is criteria.DEFAULT_T_GRID.  A seed moves each
# interior point by one of these offsets, in a seeded order; the offsets sum
# to zero so the integration work of generator-driven flows (which grows
# with t) stays the same from seed to seed.  t = 0 and t >= 0.9 never move,
# which keeps the verdict preconditions.
VERDICT_OFFSETS = (-0.03, -0.03, -0.01, -0.01, 0.01, 0.01, 0.03, 0.03)
GENERATOR_T_GRID = (0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.99)
GENERATOR_OFFSETS = (-0.06, -0.02, 0.02, 0.06)
SECTION_T_POOL = tuple(round(0.05 * k, 2) for k in range(1, 20))
REF_SECTION_TS = (0.1, 0.3, 0.5, 0.7, 0.9)
TRIAL_SEEDS = tuple(range(8))
SECTION_DIM = 64
NLB_T = 0.5
EXTRACTION_T_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7)
BUNDLE_T_GRID = (0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6)
BUNDLE_DIM = 20

HARDY_PAIRS = (("dilation", "coboundary:z", "BOUNDED"),
               ("rotation:1", "coboundary:z", "BOUNDED"),
               ("attraction", "derivative", "BOUNDED"),
               ("identity", "poisson-blowup", "UNBOUNDED-TREND"))
BERGMAN_PAIRS = (("dilation", "coboundary:z", "BOUNDED"),
                 ("dilation", "exp-growth", "BOUNDED"),
                 ("identity", "poisson-blowup", "UNBOUNDED-TREND"))
# User-settable [scan] override that keeps a generator-driven verdict at
# about ten seconds; the default scan takes about seventy.
GENERATOR_SCAN = {"ladder_depth": 8}
GENERATOR_FLOWS = ("generator-dilation", "generator-attraction", "generator-rotation:2")
# A small scan for the known-defect probe and the warm-up: the defect fires
# on the boundary ladder circles, which every scan evaluates, and both stay
# under a second.
SMALL_SCAN = {"ladder_depth": 2, "n_angles": 4, "refine_rounds": 0}
PROBE_DEFECT = "generator evaluation left the closed disk"


@dataclass
class Task:
    name: str
    run: Callable[[], object]
    check: Callable[[object], str | None]
    known_defect: str | None = None


@dataclass
class Workload:
    tasks: list
    probes: list
    warmup: Task
    inputs: dict


@dataclass
class CliResult:
    code: int
    out: str
    err: str


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text())


def t_key(t: float) -> str:
    return f"{t:.2f}"


def draw_inputs(seed: int) -> dict:
    """Seed 0 gives the reference set; any other seed a seeded variation."""
    base = criteria.DEFAULT_T_GRID
    if seed == 0:
        return {"t_grid": list(base), "generator_t_grid": list(GENERATOR_T_GRID),
                "section_ts": list(REF_SECTION_TS), "trial_seed": 0}
    rng = np.random.default_rng(seed)
    shift = rng.permutation(VERDICT_OFFSETS)
    t_grid = [base[0]] + [round(t + d, 2) for t, d in zip(base[1:9], shift)] + list(base[9:])
    gshift = rng.permutation(GENERATOR_OFFSETS)
    g_grid = [0.0] + [round(t + d, 2) for t, d in zip(GENERATOR_T_GRID[1:5], gshift)] \
        + list(GENERATOR_T_GRID[5:])
    section_ts = sorted(float(t) for t in rng.choice(SECTION_T_POOL, 5, replace=False))
    return {"t_grid": t_grid, "generator_t_grid": g_grid, "section_ts": section_ts,
            "trial_seed": int(rng.choice(TRIAL_SEEDS))}


def verdict_t_pool() -> list:
    """Every t a seed can put on the 12-point verdict grid."""
    base = criteria.DEFAULT_T_GRID
    pool = {base[0], *base[9:]}
    for t in base[1:9]:
        pool.update(round(t + d, 2) for d in (0.0,) + VERDICT_OFFSETS)
    return sorted(pool)


# -- expected values ----------------------------------------------------

def hardy_dilation_coboundary(t: float) -> float:
    """Hardy criterion of dilation/coboundary:z, p = 2.

    m_t = e^{-t}, so the integrand is the Poisson kernel of e^{-t} a
    scaled by e^{-2t}(1-|a|^2)/(1-e^{-2t}|a|^2), which decreases in |a|:
    the sup sits on the smallest anchor radius, where the scan is clipped.
    """
    r2 = min(criteria.DEFAULT_SCAN.small_radii) ** 2
    q = math.exp(-2.0 * t)
    return q * (1.0 - r2) / (1.0 - r2 * q)


def compare(label: str, got, want: float, rtol: float) -> str | None:
    if math.isinf(want):
        return None if got is None or math.isinf(got) else f"{label}: {got!r}, expected inf"
    if got is None or not math.isfinite(got):
        return f"{label}: {got!r}, expected {want!r}"
    if abs(got - want) > rtol * abs(want):
        return f"{label}: {got!r}, expected {want!r} (rtol {rtol:g})"
    return None


def check_series(label, t_values, values, expected) -> str | None:
    for t, v in zip(t_values, values):
        want = expected(t)
        if want is None:
            continue
        problem = compare(f"{label} at t = {t:g}", v, *want)
        if problem:
            return problem
    return None


def criterion_expectation(space: str, flow: str, cocycle: str, ref: dict):
    """t -> (value, rtol), from a closed form where one exists."""
    if space == H2:
        if (flow, cocycle) == ("dilation", "coboundary:z") or \
                (flow, cocycle) == ("generator-dilation", "coboundary:z"):
            return lambda t: (hardy_dilation_coboundary(t), CLOSED_RTOL)
        if (flow, cocycle) in (("rotation:1", "coboundary:z"), ("generator-rotation:1", "unit")):
            return lambda t: (1.0, CLOSED_RTOL)
        if (flow, cocycle) == ("identity", "poisson-blowup"):
            return lambda t: (1.0, CLOSED_RTOL) if t == 0 else (math.inf, 0.0)
        table = ref["criterion"][f"{space}/{flow}/{cocycle}"]
        return lambda t: (1.0, CLOSED_RTOL) if t == 0 else (table[t_key(t)], REF_RTOL)
    table = ref["criterion"][f"{A2_0}/dilation/coboundary:z"]
    t0 = table[t_key(0.0)]
    if cocycle == "coboundary:z":
        return lambda t: (table[t_key(t)], REF_RTOL)
    if cocycle == "exp-growth":
        # |m_t|^2 = e^{2t} against e^{-2t} for the coboundary: same scan, scaled
        return lambda t: (math.exp(4.0 * t) * table[t_key(t)], REF_RTOL)
    return lambda t: (t0, REF_RTOL) if t == 0 else (math.inf, 0.0)


# -- CLI helpers ----------------------------------------------------------

def write_scenario(path: Path, name: str, flow: str, cocycle: str, space: str,
                   t_values=None, scan=None) -> Path:
    lines = ["[scenario]", f"name = {name}", "seed = 0",
             "[flow]", f"gallery = {flow}",
             "[cocycle]", f"gallery = {cocycle}",
             "[space]", f"spec = {space}"]
    if t_values is not None:
        lines += ["[grid]", "t_values = " + " ".join(f"{t:g}" for t in t_values)]
    if scan:
        lines += ["[scan]"] + [f"{key} = {value}" for key, value in scan.items()]
    path.write_text("\n".join(lines) + "\n")
    return path


def run_cli(argv) -> CliResult:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(a) for a in argv])
    return CliResult(code, out.getvalue(), err.getvalue())


def read_report(path: Path) -> dict:
    """Read a CLI report and remove it, so the next pass cannot see a stale one."""
    payload = json.loads(path.read_text())
    path.unlink()
    return payload


def cli_problem(res: CliResult, want_code: int, want_line_end: str) -> str | None:
    if res.code != want_code:
        return f"exit code {res.code}, expected {want_code}: {res.err.strip()[-300:]}"
    lines = res.out.strip().splitlines()
    if not lines or not lines[-1].endswith(want_line_end):
        return f"report line {lines[-1] if lines else ''!r} does not end in {want_line_end!r}"
    return None


def cli_verdict_task(work: Path, name: str, flow: str, cocycle: str, space: str,
                     expect: str, t_values, scan, expected,
                     known_defect: str | None = None) -> Task:
    scenario = write_scenario(work / f"{name}.ini", name, flow, cocycle, space, t_values, scan)
    out = work / "out"
    report = out / f"{name}.criterion.json"

    def run():
        return run_cli(["verdict", "--scenario", scenario, "--out", out, "--threads", 1])

    def check(res):
        problem = cli_problem(res, 0 if expect == "BOUNDED" else 1, f": {expect}")
        if problem:
            return problem
        payload = read_report(report)
        if payload["verdict"] != expect:
            return f"report verdict {payload['verdict']}, expected {expect}"
        return check_series(name, payload["t_values"], payload["criterion"], expected)

    return Task(f"verdict {flow}/{cocycle} {space}", run, check, known_defect)


def library_verdict_task(flow_spec: str, cocycle_spec: str, space_spec: str, expect: str,
                         t_grid, expected) -> Task:
    flow = resolve_flow(flow_spec)
    cocycle = resolve_cocycle(cocycle_spec, flow)
    space = SpaceSpec.parse(space_spec)

    def run():
        return criteria.uniform_bound_verdict(flow, cocycle, space, t_grid=t_grid)

    def check(report):
        if report.verdict != expect:
            return f"verdict {report.verdict}, expected {expect}"
        return check_series(f"{flow_spec}/{cocycle_spec}", report.t_values,
                            report.criterion, expected)

    return Task(f"verdict {flow_spec}/{cocycle_spec} {space_spec}", run, check)


# -- workloads ------------------------------------------------------------

def hardy_verdict(work: Path, inputs: dict, ref: dict) -> Workload:
    tasks = [cli_verdict_task(work, f"h{i}", fl, co, H2, expect, inputs["t_grid"], None,
                              criterion_expectation(H2, fl, co, ref))
             for i, (fl, co, expect) in enumerate(HARDY_PAIRS)]
    return Workload(tasks, [], tasks[-1], inputs)


def bergman_verdict(work: Path, inputs: dict, ref: dict) -> Workload:
    tasks = [library_verdict_task(fl, co, A2_0, expect, inputs["t_grid"],
                                  criterion_expectation(A2_0, fl, co, ref))
             for fl, co, expect in BERGMAN_PAIRS]
    return Workload(tasks, [], tasks[-1], inputs)


def generator_verdict(work: Path, inputs: dict, ref: dict) -> Workload:
    g_grid = inputs["generator_t_grid"]
    tasks = [cli_verdict_task(work, "gen-verdict", "generator-dilation", "coboundary:z", H2,
                              "BOUNDED", g_grid, GENERATOR_SCAN,
                              criterion_expectation(H2, "generator-dilation",
                                                    "coboundary:z", ref))]
    decay_name = "gen-decay"
    decay_ini = write_scenario(work / f"{decay_name}.ini", decay_name,
                               "generator-attraction", "derivative", H2)
    decay_report = work / "out" / f"{decay_name}.decay.json"
    decay_ref = ref["decay"][f"{H2}/generator-attraction/derivative"]

    def check_decay(res):
        problem = cli_problem(res, 0, ": decays")
        if problem:
            return problem
        payload = read_report(decay_report)
        if not payload["decayed"]:
            return "decay table reports no decay"
        for row, want_row in zip(payload["entries"], decay_ref):
            for got, want in zip(row, want_row):
                problem = compare("decay entry", got, want, REF_RTOL)
                if problem:
                    return problem
        return None

    tasks.append(Task("decay generator-attraction/derivative hardy:2",
                      lambda: run_cli(["decay", "--scenario", decay_ini,
                                       "--out", work / "out", "--threads", 1]),
                      check_decay))
    for i, spec in enumerate(GENERATOR_FLOWS):
        name = f"gen-flow{i}"
        ini = write_scenario(work / f"{name}.ini", name, spec, "unit", H2)
        report = work / "out" / f"{name}.flow.json"

        def check_flow(res, _report=report):
            problem = cli_problem(res, 0, "")
            if problem:
                return problem
            if ": pass " not in res.out:
                return f"flow-verify output {res.out.strip()!r}"
            if not read_report(_report)["report"]["passed"]:
                return "flow report not passed"
            return None

        tasks.append(Task(f"flow-verify {spec}",
                          lambda _ini=ini: run_cli(["flow-verify", "--scenario", _ini,
                                                    "--out", work / "out", "--threads", 1]),
                          check_flow))
    probe = cli_verdict_task(work, "probe-rotation", "generator-rotation:1", "unit", H2,
                             "BOUNDED", GENERATOR_T_GRID, SMALL_SCAN,
                             criterion_expectation(H2, "generator-rotation:1", "unit", ref),
                             known_defect=PROBE_DEFECT)
    # The list's cheapest task (flow-verify, under 0.1 s) would leave set-up
    # to the import alone; a small verdict warms the DP45, cocycle, criteria
    # and CLI paths and makes set-up long enough to measure.
    warmup = cli_verdict_task(work, "gen-warmup", "generator-dilation", "coboundary:z", H2,
                              "BOUNDED", GENERATOR_T_GRID, SMALL_SCAN,
                              criterion_expectation(H2, "generator-dilation",
                                                    "coboundary:z", ref))
    return Workload(tasks, [probe], warmup, inputs)


def _section_task(sg, space: SpaceSpec, t: float, expected, converges: bool) -> Task:
    def run():
        section = operators.matrix(sg.at(t), space, dim=SECTION_DIM)
        return operators.norm2(section)

    def check(result):
        # Clustered top singular values (attraction at small t) leave the
        # power iteration unconverged after its budget; norm2 flags that and
        # the flag is part of the output checked here.
        if result.converged != converges:
            return f"power iteration converged = {result.converged} " \
                   f"after {result.iterations} iterations, expected {converges}"
        return compare(f"section norm {sg.name} {space.label()} t = {t:g}",
                       result.value, *expected)

    return Task(f"section {sg.name} {space.label()} t={t:g}", run, check)


def _extraction_task(label: str, sg, space: SpaceSpec) -> Task:
    zs = disk_samples(100, max_radius=0.9)

    def family(t):
        return intertwine.AbstractOperator.from_weighted_comp(sg.at(t, validate=False), space)

    def run():
        return intertwine.extract_semigroup(family, EXTRACTION_T_GRID)

    def check(result):
        flow, cocycle, report = result
        if not report.passed:
            return f"extraction report not passed for {label}"
        worst = 0.0
        for t in (0.1, 0.3, 0.7):
            worst = max(worst, float(np.max(np.abs(flow(t, zs) - sg.flow(t, zs)))),
                        float(np.max(np.abs(cocycle.eval(t, zs) - sg.cocycle.eval(t, zs)))))
        return None if worst < SYMBOL_TOL else f"{label}: symbols off by {worst:.3g}"

    return Task(f"extract {label}", run, check)


def section_spaces():
    return (SpaceSpec.parse(H2), SpaceSpec.parse(A2_0))


def nlb_spaces():
    return (SpaceSpec.hardy(3), SpaceSpec.bergman(3, RadialWeight.standard(0.5)))


def extraction_families():
    att = attraction()
    affine = principal_power(AnalyticFn(lambda z: 1.0 - z, label="1-z"), 1.5)
    return (("dilation/coboundary-z", operators.gallery_semigroups()[0]),
            ("attraction/derivative",
             operators.OperatorSemigroup(att, Cocycle.derivative(att))),
            ("attraction/coboundary-affine-1.5",
             operators.OperatorSemigroup(att, make_coboundary(affine, att))))


def sections_recovery(work: Path, inputs: dict, ref: dict) -> Workload:
    tasks = []
    for sg in operators.gallery_semigroups():
        for space in section_spaces():
            for t in inputs["section_ts"]:
                converges = True
                if sg.name.startswith("dilation"):
                    expected = (math.exp(-t), CLOSED_RTOL)
                elif sg.name.startswith("rotation"):
                    expected = (1.0, CLOSED_RTOL)
                else:
                    entry = ref["section_norm"][f"{space.label()}/{sg.name}"][t_key(t)]
                    expected = (entry["value"], REF_RTOL)
                    converges = entry["converged"]
                tasks.append(_section_task(sg, space, t, expected, converges))
    for label, sg in extraction_families():
        tasks.append(_extraction_task(label, sg, SpaceSpec.parse(A2_0)))
    bundle_sg = operators.gallery_semigroups()[0]
    for space in section_spaces():
        mats = [operators.matrix(bundle_sg.at(t, validate=False), space, BUNDLE_DIM)
                for t in BUNDLE_T_GRID]
        bundle_dir = work / f"bundle-{space.kind}"
        manifest = intertwine.save_bundle(bundle_dir, BUNDLE_T_GRID, mats, space)
        report = work / "out" / f"{bundle_dir.name}.intertwine.json"

        def check_bundle(res, _report=report):
            problem = cli_problem(res, 0, "")
            if problem:
                return problem
            if "extraction pass" not in res.out:
                return f"intertwine output {res.out.strip()!r}"
            if not read_report(_report)["report"]["passed"]:
                return "intertwine report not passed"
            return None

        tasks.append(Task(f"intertwine bundle {space.label()}",
                          lambda _m=manifest: run_cli(["intertwine", "--bundle", _m,
                                                       "--out", work / "out"]),
                          check_bundle))
    att = attraction()
    op = operators.semigroup_op(att, Cocycle.derivative(att), NLB_T)
    seed = inputs["trial_seed"]
    for space in nlb_spaces():
        want = ref["norm_lower_bound"][space.label()][str(seed)]
        tasks.append(Task(
            f"norm_lower_bound {space.label()} seed={seed}",
            lambda _s=space: operators.norm_lower_bound(op, _s, seed=seed),
            lambda v, _s=space, _w=want: compare(f"norm_lower_bound {_s.label()}", v,
                                                 _w, REF_RTOL)))
    return Workload(tasks, [], tasks[0], inputs)


WORKLOADS = {
    "hardy-verdict": hardy_verdict,
    "bergman-verdict": bergman_verdict,
    "generator-verdict": generator_verdict,
    "sections-recovery": sections_recovery,
}


def build(workload: str, work: Path, seed: int, ref: dict) -> Workload:
    work.mkdir(parents=True, exist_ok=True)
    (work / "out").mkdir(exist_ok=True)
    return WORKLOADS[workload](work, draw_inputs(seed), ref)
