"""Scenario-driven command line front end.

One scenario per invocation, defined in an INI-style file with nested
sections: the flow, the cocycle, the target space, time grids and scan
overrides.  Reports land as JSON and flat CSV in the output directory.

Exit codes: 0 on a passing run, 1 on a reported analytic failure, and 2 on
configuration or usage errors.
"""

from __future__ import annotations

import argparse
import configparser
import csv
import json
import math
import sys
from dataclasses import replace
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import criteria, intertwine
from .cocycle import resolve_cocycle
from .errors import ConfigError, ExtractionError, PreconditionError, SemiflowLabError
from .flow import resolve_flow, verify_semiflow
from .spaces import SpaceSpec


def _utc_stamp() -> str:
    return datetime.now(timezone.utc).isoformat()


def _finite_or_null(value):
    """``value`` with every non-finite float, in any nesting of dicts,
    lists, tuples and numpy arrays or scalars, replaced by None."""
    if isinstance(value, (np.ndarray, np.generic)):
        value = value.tolist()
    if isinstance(value, dict):
        return {k: _finite_or_null(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(v) for v in value]
    if isinstance(value, float) and not math.isfinite(value):
        return None
    return value


def _write_json(path: Path, payload: dict) -> None:
    """Strict JSON: a non-finite number is written as null."""
    text = json.dumps(_finite_or_null(payload), indent=2, sort_keys=True, allow_nan=False)
    path.write_text(text + "\n")


def _write_csv(path: Path, rows) -> None:
    with open(path, "w", newline="") as handle:
        csv.writer(handle).writerows(rows)


def load_scenario(path) -> configparser.ConfigParser:
    parser = configparser.ConfigParser()
    try:
        read = parser.read(path)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse scenario file {path}: {exc}")
    if not read:
        raise ConfigError(f"scenario file {path} not found")
    if not parser.has_section("scenario") or not parser.get("scenario", "name", fallback=""):
        raise ConfigError("scenario file needs a [scenario] section with a name")
    return parser


def _floats(text: str):
    return [float(v) for v in text.replace(",", " ").split()]


def _build_flow(cfg):
    try:
        return resolve_flow(cfg.get("flow", "gallery"))
    except (configparser.Error, PreconditionError) as exc:
        raise ConfigError(f"bad flow spec: {exc}")


def _build_cocycle(cfg, flow):
    # an inadmissible coboundary is an analytic rejection, not a config
    # problem, so only name/parse issues become ConfigError here
    try:
        return resolve_cocycle(cfg.get("cocycle", "gallery", fallback="unit"), flow)
    except (configparser.Error, PreconditionError) as exc:
        raise ConfigError(f"bad cocycle spec: {exc}")


def _build_space(cfg):
    if not cfg.has_section("space"):
        return None
    try:
        return SpaceSpec.parse(cfg.get("space", "spec"))
    except (configparser.Error, PreconditionError) as exc:
        raise ConfigError(f"bad space spec: {exc}")


_KINDS = {int: "an integer", float: "a number", _floats: "a list of numbers"}


def _read(cfg, section, key, kind, fallback=None):
    """``[section] key`` converted by ``kind``; a malformed value is a ConfigError naming it."""
    if not cfg.has_option(section, key):
        return fallback
    try:
        return kind(cfg.get(section, key))
    except (ValueError, configparser.Error) as exc:
        raise ConfigError(f"[{section}] {key} must be {_KINDS[kind]}: {exc}")


def _seed_of(cfg, args):
    return args.seed if args.seed is not None else _read(cfg, "scenario", "seed", int, 0)


_SCAN_KINDS = {"ladder_depth": int, "n_angles": int, "refine_rounds": int}


def _scan_from(cfg) -> criteria.SupScanConfig:
    scan = criteria.DEFAULT_SCAN
    for key in cfg.options("scan") if cfg.has_section("scan") else ():
        if key not in _SCAN_KINDS:
            raise ConfigError(f"[scan] {key} is not a scan key; "
                              f"accepted keys: {', '.join(_SCAN_KINDS)}")
    overrides = {key: _read(cfg, "scan", key, kind) for key, kind in _SCAN_KINDS.items()
                 if cfg.has_option("scan", key)}
    # SupScanConfig rejects out-of-range values with PreconditionError (exit 2)
    return replace(scan, **overrides) if overrides else scan


def _tol_of(cfg, args, key, default) -> float:
    """``--tol``, else ``[scenario] key``, else ``default``; finite and > 0."""
    tol = args.tol if args.tol is not None else _read(cfg, "scenario", key, float, default)
    if not 0 < tol < math.inf:  # written so that NaN fails too
        name = "--tol" if args.tol is not None else f"[scenario] {key}"
        raise ConfigError(f"{name} must be a finite number > 0, got {tol}")
    return tol


def _write_files(args, json_name: str, payload: dict, csv_name: str, rows) -> None:
    """``payload`` as JSON and ``rows`` (unless None) as CSV in the output
    directory, as ``--format`` selects."""
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    if args.format in ("json", "both"):
        _write_json(out / json_name, payload)
    if rows is not None and args.format in ("csv", "both"):
        _write_csv(out / csv_name, rows)


def _write_reports(cfg, args, seed, kind, body: dict, rows) -> None:
    """<name>.<kind>.json (a header plus ``body``) and <name>.<kind>.csv (``rows``)."""
    name = cfg.get("scenario", "name")
    header = {"scenario": name, "seed": seed, "generated_at": _utc_stamp()}
    _write_files(args, f"{name}.{kind}.json", {**header, **body}, f"{name}.{kind}.csv", rows)


def cmd_flow_verify(args) -> int:
    cfg = load_scenario(args.scenario)
    flow = _build_flow(cfg)
    seed = _seed_of(cfg, args)
    tol = _tol_of(cfg, args, "tol", 1e-8)
    t_grid = _read(cfg, "grid", "t_values", _floats) or None
    report = verify_semiflow(flow, t_grid=t_grid, tol=tol)
    body = {"flow": flow.name, "report": report.to_dict()}
    _write_reports(cfg, args, seed, "flow", body,
                   [("field", "value")] + sorted(report.to_dict().items()))
    print(f"flow-verify {flow.name}: {'pass' if report.passed else 'FAIL'} "
          f"(law residual {report.max_law_residual:.3g})")
    return 0 if report.passed else 1


def cmd_verdict(args) -> int:
    cfg = load_scenario(args.scenario)
    flow = _build_flow(cfg)
    cocycle = _build_cocycle(cfg, flow)
    space = _build_space(cfg)
    seed = _seed_of(cfg, args)
    if space is None:
        raise ConfigError("verdict needs a [space] section")
    if space.p <= 1:
        raise ConfigError("the criterion equivalences need p > 1; "
                          "use the decay command for p = 1")
    t_grid = _read(cfg, "grid", "t_values", _floats) or None
    scan = _scan_from(cfg)
    report = criteria.uniform_bound_verdict(flow, cocycle, space, t_grid=t_grid, scan=scan)
    _write_reports(cfg, args, seed, "criterion", report.to_json_dict(), report.csv_rows())
    print(f"verdict {flow.name}/{cocycle.name} on {space.label()}: {report.verdict}")
    return 0 if report.verdict == "BOUNDED" else 1


def cmd_decay(args) -> int:
    cfg = load_scenario(args.scenario)
    flow = _build_flow(cfg)
    cocycle = _build_cocycle(cfg, flow)
    space = _build_space(cfg)
    seed = _seed_of(cfg, args)
    if space is None:
        raise ConfigError("decay needs a [space] section")
    tol = _tol_of(cfg, args, "decay_tol", 1e-3)
    table = criteria.direct_decay_probe(flow, cocycle, space, tol=tol)
    _write_reports(cfg, args, seed, "decay", table.to_json_dict(), table.csv_rows())
    print(f"decay {flow.name}/{cocycle.name} on {space.label()}: "
          f"{'decays' if table.decayed else 'NO DECAY'}")
    return 0 if table.decayed else 1


def cmd_intertwine(args) -> int:
    try:
        t_family, t_values, space = intertwine.load_bundle(args.bundle)
    except PreconditionError as exc:
        raise ConfigError(str(exc))
    name = Path(args.bundle).parent.name or "bundle"
    payload = {"bundle": str(args.bundle), "space": space.label(),
               "generated_at": _utc_stamp(), "seed": args.seed or 0}
    try:
        semiflow, cocycle, report = intertwine.extract_semigroup(t_family, t_values)
    except ExtractionError as exc:
        payload["error"] = str(exc)
        payload["failed_at"] = exc.t
        _write_files(args, f"{name}.intertwine.json", payload, None, None)
        print(f"intertwine: extraction FAILED at t = {exc.t:g}")
        return 1
    payload["report"] = report.to_json_dict()
    grid = np.linspace(0.05, 0.85, 9) * np.exp(1j * np.linspace(0.0, 5.5, 9))
    rows = [("t", "z_re", "z_im", "m_re", "m_im", "phi_re", "phi_im")]
    for t in t_values:
        mv = cocycle.eval(float(t), grid)
        pv = semiflow(float(t), grid)
        for z, m_val, p_val in zip(grid, mv, pv):
            rows.append((t, z.real, z.imag, m_val.real, m_val.imag, p_val.real, p_val.imag))
    _write_files(args, f"{name}.intertwine.json", payload, f"{name}.symbols.csv", rows)
    print(f"intertwine: extraction {'pass' if report.passed else 'FAIL'} "
          f"(flow law residual {report.flow_law_residual:.3g})")
    return 0 if report.passed else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="semiflow-lab",
        description="semiflow / weighted-composition-semigroup laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_scenario=True):
        if needs_scenario:
            p.add_argument("--scenario", required=True, help="scenario INI file")
        p.add_argument("--out", default="out", help="output directory")
        p.add_argument("--threads", type=int, default=None,
                       help="ignored; accepted so that existing command lines still parse")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--tol", type=float, default=None)
        p.add_argument("--format", choices=("json", "csv", "both"), default="both")

    common(sub.add_parser("flow-verify", help="check the semiflow axioms"))
    common(sub.add_parser("verdict", help="uniform-bound criterion verdict"))
    common(sub.add_parser("decay", help="direct strong-continuity decay table"))
    p_int = sub.add_parser("intertwine", help="extract symbols from a matrix bundle")
    p_int.add_argument("--bundle", required=True, help="bundle manifest JSON")
    common(p_int, needs_scenario=False)
    return parser


_COMMANDS = {
    "flow-verify": cmd_flow_verify,
    "verdict": cmd_verdict,
    "decay": cmd_decay,
    "intertwine": cmd_intertwine,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SemiflowLabError as exc:
        print(f"analytic failure: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
