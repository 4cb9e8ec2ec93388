"""Command-line front end.

Exit codes: 0 = success and every applicable check holds; 2 = at least one
applicable theorem/lemma check failed; 1 = usage, validation or numerical
error.
"""

from __future__ import annotations

import argparse
import csv
import datetime
import functools
import json
import math
import os
import sys
import traceback
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from pathlib import Path

from . import domain
from .critical import find_critical_points_report
from .domain import ScenarioSpec, load_scenario
from .errors import LevelSetLabError, ValidationFailure
from .render import render_svg
from .solver import assemble, solve
from .topology import level_census
from .verify import VerificationReport, fingerprint_scenario, run_scenario


def builtin_scenario_dir() -> Path:
    return Path(__file__).parent / "scenarios"


def _round_floats(obj, digits: int = 12):
    if isinstance(obj, float):
        return float(f"{obj:.{digits}g}")
    if isinstance(obj, dict):
        return {k: _round_floats(v, digits) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round_floats(v, digits) for v in obj]
    return obj


def _census_dict(census) -> dict:
    """Threshold, counts and components of one census, as both report.json
    and census.json write them."""
    return {
        "t": census.t, "M1": census.M1, "M2": census.M2,
        "uncertain_band": census.uncertain_band,
        "components": [
            {"sign": c.sign, "cells": c.cell_count,
             "touches_interior": c.touches_interior, "touches_exterior": c.touches_exterior,
             "extremal_value": c.extremal_value, "all_uncertain": c.all_uncertain}
            for c in census.components
        ],
    }


def report_to_dict(report: VerificationReport, timestamp: str | None = None) -> dict:
    """Fixed-key-order JSON payload; floats carry 12 significant digits."""
    out = {
        "scenario": {
            "name": report.scenario_name,
            "fingerprint": report.fingerprint,
        },
        "grid": {"n_theta": report.grid[0], "n_s": report.grid[1],
                 "refined": {"n_theta": report.refined_grid[0], "n_s": report.refined_grid[1]},
                 "linear_residuals": list(report.residuals)},
        "boundary_profile": report.profile.as_dict(),
        "critical_points": [p.as_dict() for p in report.points],
        "censuses": [{"tag": tag, **_census_dict(c)} for tag, c in report.censuses],
        "verdicts": [v.as_dict() for v in report.verdicts],
        "warnings": list(report.warnings),
        "notes": list(report.notes),
        "contact_checks": report.contact_reports,
        "identity_checks": report.identity_reports,
        "near_boundary_suspects": report.suspects,
        "diagnostics": {"solves": report.solves},
        "timestamp": timestamp if timestamp is not None
        else datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }
    return _round_floats(out)


def emit_report(report_dict: dict, path) -> None:
    Path(path).write_text(json.dumps(report_dict, indent=1) + "\n", encoding="utf-8")


def _load(path: str, args, validate: bool = True) -> ScenarioSpec:
    """The scenario at path with the --grid and --tol-grad overrides applied,
    validated as a whole unless the caller validates it itself; every --t
    must be finite."""
    spec = load_scenario(path, validate=False)
    t = getattr(args, "t", None)
    for v in t if isinstance(t, list) else [t]:
        if v is not None and not math.isfinite(v):
            raise ValidationFailure([{"check": "cli", "message": f"bad --t value {v!r}, want a finite number"}])
    if args.grid:
        try:
            nt, ns = (int(v) for v in args.grid.lower().split("x"))
        except ValueError:
            raise ValidationFailure([{"check": "cli", "message": f"bad --grid value {args.grid!r}, want NxM"}])
        spec = spec.with_grid(nt, ns)
    if args.tol_grad is not None:
        spec = replace(spec, tolerances=replace(spec.tolerances, grad_zero_tol=args.tol_grad))
    return domain.validate_scenario(spec) if validate else spec


def _cmd_solve(args) -> int:
    spec = _load(args.scenario, args)
    field = solve(assemble(spec))
    out = Path(args.out) / f"{spec.name}_field.csv"
    field.to_csv(out)
    print(f"wrote {out} (residual {field.residual:.3e})")
    return 0


def _cmd_critical(args) -> int:
    spec = _load(args.scenario, args)
    field = solve(assemble(spec))
    points, suspects, warnings = find_critical_points_report(field)
    out = Path(args.out) / "critical.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "y", "u", "multiplicity", "is_zero", "degree_radius"])
        for p in points:
            writer.writerow([f"{p.x:.12g}", f"{p.y:.12g}", f"{p.value:.12g}",
                             p.multiplicity, int(p.is_zero), f"{p.degree_radius:.12g}"])
    for w in warnings:
        print(f"warning: {w}", file=sys.stderr)
    print(f"wrote {out} ({len(points)} points, {len(suspects)} near-boundary suspects)")
    return 0


def _cmd_census(args) -> int:
    spec = _load(args.scenario, args)
    field = solve(assemble(spec))
    census = level_census(field, args.t)
    payload = _round_floats({"scenario": spec.name, **_census_dict(census)})
    out = Path(args.out) / "census.json"
    out.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out} (M1={census.M1}, M2={census.M2})")
    return 0


def _verify_one(path: str, args) -> tuple:
    spec = _load(path, args, validate=False)  # run_scenario validates it
    fp = fingerprint_scenario(Path(path).read_bytes())
    report = run_scenario(spec, fingerprint=fp)
    return spec, report


def _cmd_verify(args) -> int:
    spec, report = _verify_one(args.scenario, args)
    out = Path(args.out) / "report.json"
    emit_report(report_to_dict(report), out)
    failed = report.failed
    print(f"wrote {out} ({len(report.points)} critical points, "
          f"{sum(1 for v in report.verdicts if v.applicable)} applicable checks, {len(failed)} failed)")
    for v in failed:
        print(f"FAIL {v.id}: lhs={v.lhs} rhs={v.rhs}", file=sys.stderr)
    return 2 if failed else 0


def _cmd_render(args) -> int:
    spec = _load(args.scenario, args)
    field = solve(assemble(spec))
    points, _, _ = find_critical_points_report(field)
    thresholds = args.t if args.t else []
    svg = render_svg(field, thresholds, points)
    out = Path(args.out) / "levelsets.svg"
    out.write_text(svg, encoding="utf-8")
    print(f"wrote {out}")
    return 0


def _cmd_batch(args) -> int:
    directory = Path(args.scenario)
    files = sorted(directory.glob("*.json"))
    if not files:
        print(f"no scenario files in {directory}", file=sys.stderr)
        return 1
    threads = os.environ.get("LEVELSET_LAB_THREADS", "1") or "1"
    try:
        workers = int(threads)
    except ValueError:
        raise ValidationFailure([{"check": "cli", "message": f"bad LEVELSET_LAB_THREADS value {threads!r}, want an integer"}])
    rows = []

    def one(path):
        try:
            spec, report = _verify_one(str(path), args)
            emit_report(report_to_dict(report), Path(args.out) / f"{spec.name}_report.json")
            failed = report.failed
            return (path.stem, "FAIL" if failed else "ok", len(report.points),
                    sum(p.multiplicity for p in report.points), len(failed))
        except LevelSetLabError as err:
            return (path.stem, f"error: {err}", "", "", "")
        except Exception as err:  # one broken scenario must not end the batch
            traceback.print_exc()
            return (path.stem, f"error: {type(err).__name__}: {err}", "", "", "")

    if workers > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            rows = list(pool.map(one, files))
    else:
        rows = [one(p) for p in files]
    rows.sort(key=lambda r: r[0])
    out = Path(args.out) / "batch_summary.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["scenario", "status", "critical_points", "sum_multiplicity", "failed_checks"])
        writer.writerows(rows)
    print(f"wrote {out}")
    bad = [r for r in rows if r[1] not in ("ok",)]
    return 2 if any(r[1] == "FAIL" for r in rows) else (1 if bad else 0)


@functools.cache  # once per process: building it takes about 1 ms of every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levelset-lab",
        description="Solve planar elliptic Dirichlet problems and check critical-point counting laws.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, scenario_help):
        p.add_argument("scenario", help=scenario_help)
        p.add_argument("--out", default=".", help="output directory (default: current)")
        p.add_argument("--grid", default=None, help="grid override, e.g. 256x128")
        p.add_argument("--tol-grad", type=float, default=None, dest="tol_grad",
                       help="override the gradient-zero tolerance")

    p = sub.add_parser("solve", help="solve and dump the field as CSV")
    common(p, "scenario JSON file")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("critical", help="detect critical points, write critical.csv")
    common(p, "scenario JSON file")
    p.set_defaults(fn=_cmd_critical)

    p = sub.add_parser("census", help="level-set census at a threshold, write census.json")
    common(p, "scenario JSON file")
    p.add_argument("--t", type=float, required=True, help="census threshold")
    p.set_defaults(fn=_cmd_census)

    p = sub.add_parser("verify", help="full verification run, write report.json")
    common(p, "scenario JSON file")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("render", help="trace level lines into levelsets.svg")
    common(p, "scenario JSON file")
    p.add_argument("--t", type=float, action="append", default=None,
                   help="threshold (repeatable)")
    p.set_defaults(fn=_cmd_render)

    p = sub.add_parser("batch", help="verify every scenario in a directory")
    common(p, "directory of scenario JSON files")
    p.set_defaults(fn=_cmd_batch)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return 1 if err.code not in (0, None) else 0
    try:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        return args.fn(args)
    except ValidationFailure as err:
        for v in err.violations:
            print(f"error: {args.scenario}: {v['check']}: {v['message']}", file=sys.stderr)
        return 1
    except LevelSetLabError as err:
        print(f"error: {args.scenario}: {args.command}: {err}", file=sys.stderr)
        return 1
    except OSError as err:
        print(f"error: {args.scenario}: i/o: {err}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
