"""The four benchmark workloads: where their scenarios come from, the one
operation each runs per scenario, and how each operation's output is checked.

Every operation goes through the command-line front end (`cli.main`), the
path a user takes.  A verify operation is `levelset-lab verify` (load,
fingerprint, run_scenario, report_to_dict, write report.json); a render
operation is `levelset-lab render` with nine thresholds (load, solve,
critical detection, render_svg, write levelsets.svg).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FINE_GRID = "256x128"
RENDER_LEVELS = 9
SYMMETRIC_COUNT = 8
# symmetric_annuli draws its scenarios from the run seed modulo this count,
# and reference.json holds the fingerprints of every one of these seeds, so
# each run's outputs are checked against recorded results.
RECORDED_SEEDS = 32
# k-fold symmetry cycles through these folds by scenario index, so every seed
# draws the same mix of folds and only the continuous parameters vary.
SYMMETRIC_FOLDS = (2, 3, 4)
# Uniform ranges of the symmetric_annuli generator: inner radius
# Ri*(1 + ei*cos k theta), outer radius Re*(1 + ee*cos 2k theta), boundary
# data psi_E = a + b*cos k theta and psi_I = c*cos k theta.
SYMMETRIC_RANGES = {
    "Ri": (0.8, 1.2), "ei": (0.05, 0.15),
    "Re": (2.6, 3.4), "ee": (0.02, 0.06),
    "a": (0.9, 1.1), "b": (0.6, 0.9), "c": (0.1, 0.2),
}

WORKLOADS = ("library_default", "library_fine", "symmetric_annuli", "render_sweep")


@dataclass(frozen=True)
class Item:
    """One scenario file and the command line that operates on it."""

    key: str            # reference key
    command: str        # "verify" | "render"
    path: Path
    args: tuple = ()    # extra CLI arguments


@dataclass
class Outcome:
    exit_code: int
    stderr: str
    summary: dict | None    # integer summary of the written output


@dataclass(frozen=True)
class Verdict:
    ok: bool        # counts as a successful operation
    wrong: bool     # the output (or the failure) contradicts the reference
    reason: str


# --------------------------------------------------------------------------
# scenario sources

def builtin_paths(lab) -> list:
    return sorted(lab.cli.builtin_scenario_dir().glob("*.json"))


def symmetric_specs(seed: int) -> list:
    """The seeded symmetric_annuli scenario dicts; equal seeds give equal dicts."""
    rng = random.Random(seed)
    specs = []
    for n in range(SYMMETRIC_COUNT):
        k = SYMMETRIC_FOLDS[n % len(SYMMETRIC_FOLDS)]
        p = {name: f"{rng.uniform(lo, hi):.4f}" for name, (lo, hi) in SYMMETRIC_RANGES.items()}
        specs.append({
            "name": f"sym{n}_k{k}",
            "domain": {
                "interior": {"radius": f"{p['Ri']}*(1 + {p['ei']}*cos({k}*theta))"},
                "exterior": {"radius": f"{p['Re']}*(1 + {p['ee']}*cos({2 * k}*theta))"},
            },
            "operator": {"a11": "1", "a12": "0", "a22": "1", "b1": "0", "b2": "0"},
            "boundary": {
                "psi_interior": f"{p['c']}*cos({k}*theta)",
                "psi_exterior": f"{p['a']} + {p['b']}*cos({k}*theta)",
            },
            "grid": {"n_theta": 128, "n_s": 64},
            "tolerances": {},
        })
    return specs


def spec_bytes(spec: dict) -> bytes:
    return (json.dumps(spec, indent=1, sort_keys=True) + "\n").encode("utf-8")


def render_thresholds(lab, spec) -> list:
    """Nine thresholds evenly spaced strictly inside the solved value range.

    Every built-in operator is free of zeroth-order terms, so by the maximum
    principle the solved range is the range of the boundary data, which is
    sampled here from the closed forms without solving.
    """
    theta = np.linspace(0.0, 2.0 * math.pi, 4096, endpoint=False)
    values = []
    for curve, psi in ((spec.domain.exterior, spec.psi_exterior),
                       (spec.domain.interior, spec.psi_interior)):
        if curve is None:
            continue
        r = curve.radius(theta)
        values.append(lab.expressions.evaluate_xy(psi, r * np.cos(theta), r * np.sin(theta)))
    lo = float(min(np.min(v) for v in values))
    hi = float(max(np.max(v) for v in values))
    return [lo + (hi - lo) * j / (RENDER_LEVELS + 1) for j in range(1, RENDER_LEVELS + 1)]


def setup(lab, workload: str, seed: int, workdir: Path) -> list:
    """Load and validate (or generate, write and validate) the scenarios."""
    load = lab.domain.load_scenario
    if workload == "symmetric_annuli":
        seed %= RECORDED_SEEDS
        scen_dir = workdir / "scenarios"
        scen_dir.mkdir(parents=True, exist_ok=True)
        items = []
        for spec in symmetric_specs(seed):
            path = scen_dir / f"{spec['name']}.json"
            path.write_bytes(spec_bytes(spec))
            load(path)
            items.append(Item(f"{seed}/{spec['name']}", "verify", path))
        return items
    items = []
    for path in builtin_paths(lab):
        spec = load(path)
        if workload == "library_default":
            items.append(Item(path.stem, "verify", path))
        elif workload == "library_fine":
            items.append(Item(path.stem, "verify", path, ("--grid", FINE_GRID)))
        elif workload == "render_sweep":
            args = []
            for t in render_thresholds(lab, spec):
                args += ["--t", repr(t)]
            items.append(Item(path.stem, "render", path, tuple(args)))
        else:
            raise ValueError(f"unknown workload {workload!r}")
    return items


# --------------------------------------------------------------------------
# the operation

def output_path(item: Item, outdir: Path) -> Path:
    return outdir / ("report.json" if item.command == "verify" else "levelsets.svg")


def run_op(lab, item: Item, outdir: Path) -> tuple:
    """The timed part: one CLI invocation.  Returns (exit code, stderr)."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = lab.cli.main([item.command, str(item.path), "--out", str(outdir), *item.args])
    return code, err.getvalue()


def read_outcome(item: Item, outdir: Path, code: int, stderr: str) -> Outcome:
    path = output_path(item, outdir)
    summary = None
    if code != 1 and path.exists():
        text = path.read_text(encoding="utf-8")
        summary = (verify_summary(json.loads(text)) if item.command == "verify"
                   else render_summary(text))
    return Outcome(code, stderr, summary)


# --------------------------------------------------------------------------
# output fingerprints

def _census_kind(tag: str) -> str:
    # tags embed the threshold as a float, which may move within tolerance
    kind = tag.split("@", 1)[0]
    return kind + tag[-4:] if tag.endswith(("-eps", "+eps")) else kind


def verify_summary(report: dict) -> dict:
    """The integers of a report: point count, multiplicities, census M1/M2
    per tag and every verdict's applicable/holds/lhs/rhs."""
    return {
        "points": len(report["critical_points"]),
        "multiplicities": [p["multiplicity"] for p in report["critical_points"]],
        "censuses": [[_census_kind(c["tag"]), c["M1"], c["M2"]] for c in report["censuses"]],
        "verdicts": [[v["id"], v["applicable"], v["holds"], v["lhs"], v["rhs"]]
                     for v in report["verdicts"]],
    }


def render_summary(svg: str) -> dict:
    """Polyline and closed-polyline counts per threshold, and the number of
    critical-point markers, read back from the SVG document."""
    levels = []
    group = None
    circles = 0
    for line in svg.splitlines():
        if line.startswith("<g id="):
            group = line.split('"', 2)[1]
            if group.startswith("level-"):
                levels.append([0, 0])
        elif line.startswith("</g>"):
            group = None
        elif line.startswith("<circle"):
            circles += 1
        elif line.startswith('<path d="') and group is not None and group.startswith("level-"):
            tokens = line.split('"', 2)[1].split()
            levels[-1][0] += 1
            levels[-1][1] += int(tokens[1:3] == tokens[-2:] and len(tokens) > 3)
    return {"levels": levels, "critical_points": circles}


def fingerprint(summary: dict) -> str:
    blob = json.dumps(summary, sort_keys=True, separators=(",", ":")).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


def failed_checks(summary: dict) -> list:
    return [v[0] for v in summary.get("verdicts", []) if v[1] and v[2] is False]


def error_reason(stderr: str) -> str:
    """The error text of `error: <scenario>: <command>: <reason> (...)`."""
    line = stderr.strip().splitlines()[-1] if stderr.strip() else ""
    reason = line.split(": ", 3)[-1]
    return reason.split(" (", 1)[0]


def check(outcome: Outcome, ref: dict | None) -> Verdict:
    """Judge one operation against the reference recorded for its scenario.

    A reference is {"fingerprint": ...} for a scenario that produced output
    at the recording commit and {"error": reason} for one that raised.  A
    scenario that raised there counts as correct once it returns output with
    no FAIL verdict.  A scenario without a reference is a wrong answer.
    Errors and FAIL verdicts are failed operations; they are wrong answers
    only where they contradict the reference.
    """
    if ref is None:
        return Verdict(False, True, "no reference recorded")
    if outcome.exit_code == 1 or outcome.summary is None:
        reason = error_reason(outcome.stderr)
        return Verdict(False, ref.get("error") != reason, f"error: {reason}")
    fails = failed_checks(outcome.summary)
    if "fingerprint" in ref:
        fp = fingerprint(outcome.summary)
        if fp != ref["fingerprint"]:
            return Verdict(False, True, f"fingerprint {fp} != reference {ref['fingerprint']}")
        if fails:
            return Verdict(False, False, f"FAIL verdicts {fails}, as recorded")
        return Verdict(True, False, "matches reference")
    if fails or outcome.exit_code != 0:
        return Verdict(False, False, f"FAIL verdicts {fails} (exit {outcome.exit_code})")
    return Verdict(True, False, "output without FAIL where the reference raised")
