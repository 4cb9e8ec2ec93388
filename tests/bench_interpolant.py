"""Time the interpolant, the refined lattice and critical detection of the
8 built-ins, in alternating processes of two source trees.

    python tests/bench_interpolant.py OLD_SRC NEW_SRC [--rounds 3] [--out FILE]

OLD_SRC and NEW_SRC are `src` directories of two checkouts.  Each round
runs one worker process per tree, the old tree first in even rounds and
the new one first in odd rounds, with one BLAS thread.  A worker solves
every built-in at 256x128 and at 512x256 once, as `run_scenario` solves
the pair (the configured grid over the cycle of its half grid), and then
times fresh fields made from the solved values, so that nothing derived is
cached yet:

- `first_eval_ms`: the first `evaluate_ref`, which builds the interpolant;
- `lattice_ms`: `lattice()` on a field whose interpolant is built;
- `eval_lattice_ms`: the first evaluation plus `lattice()`;
- `detect_lattice_ms`: `find_critical_points_report`, then `lattice()`;
- `eval64_ms`: one 64-point `evaluate_ref(..., derivatives=True)` call on
  a built field.

Each figure is the median of REPEATS timings in the worker.  The output
(stdout, or FILE) is JSON: the machine, the per-round worker results, and
per tree and grid the median over rounds of each figure summed over the 8
built-ins.  The module is not collected as a test.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

GRIDS = ((256, 128), (512, 256))
REPEATS = 5
FIGURES = ("first_eval_ms", "lattice_ms", "eval_lattice_ms", "detect_lattice_ms", "eval64_ms")


def _median_ms(fn, repeats=REPEATS):
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        times.append(1e3 * (time.perf_counter() - t0))
    return statistics.median(times)


def worker() -> dict:
    import numpy as np

    from levelset_lab.cli import builtin_scenario_dir
    from levelset_lab.critical import find_critical_points_report
    from levelset_lab.domain import load_scenario
    from levelset_lab.geometry import TWO_PI
    from levelset_lab.solver import SolutionField, assemble, solve

    names = sorted(p.stem for p in builtin_scenario_dir().glob("*.json"))
    rng = np.random.default_rng(36)
    theta, s = rng.uniform(0.0, TWO_PI, 64), rng.uniform(0.0, 1.0, 64)
    out = {}
    for nt, ns in GRIDS:
        for name in names:
            spec = load_scenario(builtin_scenario_dir() / f"{name}.json").with_grid(nt, ns)
            coarse = assemble(spec.with_grid(nt // 2, ns // 2))
            solve(coarse)
            values = solve(assemble(spec), coarse=coarse).values

            def fresh():
                return SolutionField(spec, values)

            def first_eval():
                fresh().evaluate_ref(0.0, 0.5)

            def eval_lattice():
                f = fresh()
                f.evaluate_ref(0.0, 0.5)
                f.lattice()

            def detect_lattice():
                f = fresh()
                find_critical_points_report(f)
                f.lattice()

            built = []

            def lattice():
                f = fresh()
                f.evaluate_ref(0.0, 0.5)
                t0 = time.perf_counter()
                f.lattice()
                built.append(1e3 * (time.perf_counter() - t0))

            for _ in range(REPEATS):
                lattice()
            field = fresh()
            field.evaluate_ref(0.0, 0.5)
            out[f"{name}@{nt}x{ns}"] = {
                "first_eval_ms": _median_ms(first_eval),
                "lattice_ms": statistics.median(built),
                "eval_lattice_ms": _median_ms(eval_lattice),
                "detect_lattice_ms": _median_ms(detect_lattice),
                "eval64_ms": _median_ms(lambda: field.evaluate_ref(theta, s, derivatives=True), 50),
            }
    return out


def run_worker(src: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run([sys.executable, __file__, "--worker"], env=env, check=True,
                          capture_output=True, text=True)
    return json.loads(done.stdout)


def summary(rounds, tree: str) -> dict:
    """Per grid, the median over rounds of each figure summed over the built-ins."""
    out = {}
    for nt, ns in GRIDS:
        grid = f"{nt}x{ns}"
        out[grid] = {fig: statistics.median(sum(v[fig] for k, v in r[tree].items() if k.endswith(grid))
                                            for r in rounds) for fig in FIGURES}
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("old_src", nargs="?")
    parser.add_argument("new_src", nargs="?")
    parser.add_argument("--rounds", type=int, default=3)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(worker()))
        return 0
    if not (args.old_src and args.new_src):
        parser.error("OLD_SRC and NEW_SRC are required")
    rounds = []
    for k in range(args.rounds):
        order = ("old", "new") if k % 2 == 0 else ("new", "old")
        rounds.append({tree: run_worker(args.old_src if tree == "old" else args.new_src) for tree in order})
    import numpy
    import scipy
    result = {
        "machine": {"nproc": os.cpu_count(), "cpu": platform.processor() or platform.machine(),
                    "python": platform.python_version(), "numpy": numpy.__version__,
                    "scipy": scipy.__version__, "blas_threads": 1},
        "rounds": rounds,
        "summary": {tree: summary(rounds, tree) for tree in ("old", "new")},
    }
    text = json.dumps(result, indent=1)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    print(json.dumps(result["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
