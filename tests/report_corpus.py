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

`compare` lists every file that is missing, extra or different, and exits
1 when there is one.  For a `report.json` that differs it names the JSON
paths whose values differ (`grid.linear_residuals[1]`), so that a move in
the residuals alone reads as one.  A JSON list whose items are only
permuted reads as one `<path>: reordered`, and so does a file of another
kind (an SVG) whose lines are only permuted.  The module is not collected
as a test; `tests/test_report_corpus.py` tests its comparison.
"""

import contextlib
import io
import json
import multiprocessing
import os
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEEDS = range(32)


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


def json_paths(a, b, path: str = "") -> list:
    """The paths at which two decoded JSON documents differ; a list whose
    items are the same up to order is one `<path>: reordered`."""
    if isinstance(a, dict) and isinstance(b, dict) and list(a) == list(b):
        return [d for k in a for d in json_paths(a[k], b[k], f"{path}.{k}" if path else k)]
    if isinstance(a, list) and isinstance(b, list) and len(a) == len(b):
        diffs = [d for k, (x, y) in enumerate(zip(a, b)) for d in json_paths(x, y, f"{path}[{k}]")]
        if diffs and sorted(map(json.dumps, a)) == sorted(map(json.dumps, b)):
            return [f"{path or '$'}: reordered"]
        return diffs
    return [] if type(a) is type(b) and repr(a) == repr(b) else [path or "$"]


def compare(old: Path, new: Path) -> list:
    """Relative paths of the files that differ, with how; a differing
    report names the JSON paths that differ."""
    files = {p.relative_to(old) for p in old.rglob("*") if p.is_file()}
    other = {p.relative_to(new) for p in new.rglob("*") if p.is_file()}
    out = [f"missing: {p}" for p in sorted(files - other)]
    out += [f"extra: {p}" for p in sorted(other - files)]
    for p in sorted(files & other):
        a, b = (old / p).read_bytes(), (new / p).read_bytes()
        if a != b:
            if p.suffix == ".json":
                paths = json_paths(json.loads(a), json.loads(b))
            else:
                paths = ["reordered"] if sorted(a.splitlines()) == sorted(b.splitlines()) else []
            out.append(f"differs: {p}" + (f": {', '.join(paths)}" if paths else ""))
    return out


def main(argv: list) -> int:
    if len(argv) == 2 and argv[0] == "write":
        write(Path(argv[1]).resolve())
        return 0
    if len(argv) == 3 and argv[0] == "compare":
        old, new = Path(argv[1]), Path(argv[2])
        diffs = compare(old, new)
        for line in diffs:
            print(line)
        count = sum(1 for p in old.rglob("*") if p.is_file())
        print(f"{count} files in {old}, {len(diffs)} differences")
        return 1 if diffs else 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
