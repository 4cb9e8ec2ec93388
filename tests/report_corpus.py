"""Write the output corpus of the command-line front end, or compare two.

The corpus is what a behaviour-preserving change must leave byte-identical:

- `verify` on the 8 built-in scenarios at their configured grid
  (`builtin/`) and at twice that grid (`builtin_2x/`);
- `verify` on the 256 symmetric annuli of benchmark seeds 0-31
  (`symmetric/<seed>/`), generated by `perfbench.workloads.symmetric_specs`;
- `census` at the middle render threshold (`census/`) and `render` at all
  nine (`render/`) of each built-in, as `perfbench.workloads` picks them.

Each run gets a directory holding its output file and `exit.txt` (exit
code and stderr); `report.json` is written with an empty timestamp.  Write
a corpus with the package on the import path, once for each tree:

    PYTHONPATH=src python tests/report_corpus.py write OUT_DIR
    python tests/report_corpus.py compare OLD_DIR NEW_DIR
    PYTHONPATH=src python tests/report_corpus.py compare --tolerant OLD_DIR NEW_DIR

`compare` lists every file that is missing, extra or different, and exits
1 when there is one.  For a `report.json` that differs it names the JSON
paths whose values differ (`grid.linear_residuals[1]`), so that a move in
the residuals alone reads as one.  After the list it counts the files in
which each JSON path differs, with list indices written `[*]`
(`diagnostics.solves[*].iterations: 544 files`), so that one kind of
move reads as one line.  A JSON list whose items are only
permuted reads as one `<path>: reordered`, and so does a file of another
kind (an SVG) whose lines are only permuted.

`compare --tolerant` is the check of a change that moves floats on
purpose.  Integers, booleans, nulls and strings, and so every count and
verdict, must still match exactly.  A float is read by its key, against
tolerances taken from the run's scenario in OLD_DIR (which needs the
package on the import path): a point coordinate may move by
COORDINATE_TOL times the domain diameter, a degree radius by RADIUS_TOL
of itself, a value (a critical value, a census threshold, a band) by the
scenario's equal_extrema_tol times the range of its Dirichlet data (its
equal_value_tol where the maximum principle holds), and a linear
residual anywhere below the scenario's residual gate; any other float must match exactly.  A point
list (POINT_LISTS) matches when its items match in some order.  In an
SVG every number may move by the coordinate tolerance and the rest must
match.  The module is not collected as a test;
`tests/test_report_corpus.py` tests its comparison.
"""

import collections
import contextlib
import io
import json
import math
import multiprocessing
import os
import re
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(32)

# --tolerant: the keys of the floats each tolerance applies to
COORDINATE_KEYS = {"x", "y"}
RADIUS_KEYS = {"degree_radius"}
VALUE_KEYS = {"value", "extremal_value", "t", "uncertain_band", "band", "slack", "epsilon",
              "min", "max", "z1", "z2", "Z1", "Z2"}
RESIDUAL_KEYS = {"linear_residuals"}
POINT_LISTS = {"critical_points", "points", "near_boundary_suspects"}
COORDINATE_TOL = 1e-6  # times the domain diameter
# a degree radius is twice the diagonal of the cell that holds its point, so
# a point on a cell edge may take the radius of the cell across that edge
RADIUS_TOL = 0.05  # times the radius
_NUMBER = re.compile(r"-?\d+(?:\.\d+)?(?:e[-+]?\d+)?")


def _run(argv: list, outdir: str) -> None:
    from levelset_lab import cli

    Path(outdir).mkdir(parents=True)
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = cli.main([*argv, "--out", outdir])
    Path(outdir, "exit.txt").write_text(f"{code}\n{err.getvalue()}", encoding="utf-8")
    report = Path(outdir, "report.json")
    if report.exists():
        payload = json.loads(report.read_text(encoding="utf-8"))
        payload["timestamp"] = ""
        cli.emit_report(payload, report)


def write(out: Path) -> None:
    """Every run of the corpus, from inside `out` and on relative paths, so
    that error lines name the same files in every corpus.  The runs are
    spread over one worker process per CPU this process may use; each
    worker imports the package from the import path, so `compare` runs
    without it."""
    import levelset_lab
    from levelset_lab import cli, domain

    sys.path.insert(0, str(ROOT))
    from perfbench import workloads as wl

    out.mkdir(parents=True)
    os.chdir(out)
    Path("scenarios/builtin").mkdir(parents=True)
    tasks = []
    for source in sorted(cli.builtin_scenario_dir().glob("*.json")):
        path = f"scenarios/builtin/{source.name}"
        shutil.copyfile(source, path)
        spec, name = domain.load_scenario(path), source.stem
        tasks.append((["verify", path], f"builtin/{name}"))
        tasks.append((["verify", path, "--grid", f"{2 * spec.n_theta}x{2 * spec.n_s}"], f"builtin_2x/{name}"))
        levels = wl.render_thresholds(levelset_lab, spec)
        tasks.append((["census", path, "--t", repr(levels[len(levels) // 2])], f"census/{name}"))
        tasks.append((["render", path, *[a for t in levels for a in ("--t", repr(t))]], f"render/{name}"))
    for seed in SEEDS:
        Path(f"scenarios/{seed}").mkdir()
        for spec in wl.symmetric_specs(seed):
            path = f"scenarios/{seed}/{spec['name']}.json"
            Path(path).write_bytes(wl.spec_bytes(spec))
            tasks.append((["verify", path], f"symmetric/{seed}/{spec['name']}"))
    # spawned workers start in this directory, with this import path
    with multiprocessing.get_context("spawn").Pool(len(os.sched_getaffinity(0))) as pool:
        pool.starmap(_run, tasks, chunksize=1)


def json_paths(a, b, path: str = "", tol: dict | None = None, key: str | None = None) -> list:
    """The paths at which two decoded JSON documents differ; a list whose
    items are the same up to order is one `<path>: reordered`.  With `tol`
    (the "coordinate", "value" and "gate" bounds of `tolerances`) floats
    are read by the key they sit under, and a point list matches in any
    order."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        return [d for k in a for d in json_paths(a[k], b[k], f"{path}.{k}" if path else k, tol, k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        diffs = [d for k, (x, y) in enumerate(zip(a, b)) for d in json_paths(x, y, f"{path}[{k}]", tol, key)]
        if diffs and tol is not None and key in POINT_LISTS and _match_in_some_order(a, b, tol):
            return []
        if diffs and sorted(map(json.dumps, a)) == sorted(map(json.dumps, b)):
            return [f"{path or '$'}: reordered"]
        return diffs
    if tol is not None and type(a) is float and type(b) is float:
        if key in RESIDUAL_KEYS:
            return [] if max(a, b) <= tol["gate"] else [path or "$"]
        bound = (tol["coordinate"] if key in COORDINATE_KEYS else RADIUS_TOL * abs(a) if key in RADIUS_KEYS
                 else tol["value"] if key in VALUE_KEYS else 0.0)
        return [] if abs(a - b) <= bound else [path or "$"]
    return [] if type(a) is type(b) and repr(a) == repr(b) else [path or "$"]


def _match_in_some_order(a: list, b: list, tol: dict) -> bool:
    """Each item of `a` matches a distinct item of `b` (greedily, first fit)."""
    rest = list(b)
    for item in a:
        hit = next((k for k, other in enumerate(rest) if not json_paths(item, other, tol=tol)), None)
        if hit is None:
            return False
        rest.pop(hit)
    return True


def tolerances(corpus: Path, run: Path) -> dict:
    """The --tolerant bounds of one run directory of `corpus`, from its
    scenario file: COORDINATE_TOL times the domain diameter, the scenario's
    equal_extrema_tol times the range of its Dirichlet data (which bounds
    u where the maximum principle holds), and its residual gate."""
    import numpy as np
    from levelset_lab import domain
    from levelset_lab import expressions as ex

    parts = run.parts
    folder = parts[1] if parts[0] == "symmetric" else "builtin"
    spec = domain.load_scenario(corpus / "scenarios" / folder / f"{parts[-1]}.json", validate=False)
    theta = np.linspace(0.0, 2.0 * math.pi, 1024, endpoint=False)
    data = [ex.evaluate_xy(psi, *spec.domain.map_point(theta, np.full_like(theta, s)))
            for psi, s in ((spec.psi_exterior, 1.0), (spec.psi_interior, 0.0)) if psi is not None]
    scale = float(np.ptp(np.concatenate(data))) or 1.0
    return {"coordinate": COORDINATE_TOL * spec.domain.diameter(),
            "value": spec.tolerances.equal_extrema_tol * scale,
            "gate": spec.tolerances.linear_residual_tol}


def _svg_matches(a: str, b: str, bound: float) -> bool:
    """Same text around the numbers, and every number within `bound`."""
    return _NUMBER.split(a) == _NUMBER.split(b) and all(
        abs(float(x) - float(y)) <= bound for x, y in zip(_NUMBER.findall(a), _NUMBER.findall(b)))


def compare(old: Path, new: Path, tolerant: bool = False) -> list:
    """Relative paths of the files that differ, with how; a differing
    report names the JSON paths that differ.  With `tolerant`, a file whose
    floats moved within `tolerances` does not differ."""
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    other = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    out = [f"missing: {p}" for p in sorted(files - other)]
    out += [f"extra: {p}" for p in sorted(other - files)]
    for p in sorted(files & other):
        a, b = (old / p).read_bytes(), (new / p).read_bytes()
        if a == b:
            continue
        tol = tolerances(old, p.parent) if tolerant and p.suffix in (".json", ".svg") \
            and p.parts[0] != "scenarios" else None
        if p.suffix == ".json":
            paths = json_paths(json.loads(a), json.loads(b), tol=tol)
            if tol is not None and not paths:
                continue
        elif tol is not None and _svg_matches(a.decode(), b.decode(), tol["coordinate"]):
            continue
        else:
            paths = ["reordered"] if sorted(a.splitlines()) == sorted(b.splitlines()) else []
        out.append(f"differs: {p}" + (f": {', '.join(paths)}" if paths else ""))
    return out


def path_counts(diffs: list) -> list:
    """One `<path>: <n> files` line per JSON path in the differing reports of
    `compare`'s list, list indices written `[*]`, most files first."""
    counts = collections.Counter()
    for line in diffs:
        kind, name, *paths = line.split(": ", 2)
        if kind == "differs" and name.endswith(".json") and paths:
            counts.update({re.sub(r"\[\d+\]", "[*]", path) for path in paths[0].split(", ")})
    return [f"{path}: {n} files" for path, n in sorted(counts.items(), key=lambda item: (-item[1], item[0]))]


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(Path(argv[1]).resolve())
        return 0
    tolerant = argv[1:2] == ["--tolerant"]
    if len(argv) == 3 + tolerant and argv[0] == "compare":
        old, new = Path(argv[-2]), Path(argv[-1])
        diffs = compare(old, new, tolerant)
        for line in diffs + path_counts(diffs):
            print(line)
        count = sum(1 for p in old.rglob("*") if p.is_file())
        print(f"{count} files in {old}, {len(diffs)} differences")
        return 1 if diffs else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
