"""levelset-lab benchmark: closed-loop verify and render workloads.

Run from the repository root:

    python3 perfbench/run.py --workload library_default --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

One client in one process sends one operation at a time (a closed loop).
A run makes one whole pass over the workload's scenarios, then goes on in
further passes until `--seconds` of measurement have elapsed; every pass
takes the scenarios in a seeded order.  Every operation's output is
checked against the reference fingerprints in `reference.json`; a wrong
answer counts as a failed operation.

Reported end-to-end times are wall times scaled to a reference host by a
calibration kernel run between operations (see calibrate.py); the raw wall
times are in the result file under perfbench/out/.  `ok_fraction` is one
minus the failed fraction, which is printed as well: the reported metrics
must never read 0.

With `--trace 0` the last line reports the end-to-end metrics, with
`--trace 1` the per-layer metrics of one untraced and one traced pass over
the scenarios (per-layer times are raw wall times); there, layer spans must
explain at least 95% of every operation's wall time.  Human-readable lines,
the machine record and the result file precede it.  The exit code is 1 when
an output was wrong or the spans explained too little.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import layertrace as tracing  # noqa: E402
import workloads as wl  # noqa: E402
from calibrate import REFERENCE_S, Calibration  # noqa: E402

SETUP_REPEATS = 5
MIN_COVERAGE = 0.95  # share of each operation's wall time inside layer spans
IMPORT_REPEATS = 3


def import_lab():
    """Import levelset_lab from this checkout's src/ and nowhere else."""
    src = ROOT / "src"
    if not (src / "levelset_lab" / "__init__.py").is_file():
        raise SystemExit(f"no levelset_lab sources under {src}")
    sys.path.insert(0, str(src))
    import levelset_lab
    from levelset_lab import cli, critical, domain, expressions, render, solver, verify
    if Path(levelset_lab.__file__).resolve().parent != (src / "levelset_lab").resolve():
        raise SystemExit(f"levelset_lab imported from {levelset_lab.__file__}, not {src}")
    return SimpleNamespace(cli=cli, critical=critical, domain=domain, expressions=expressions,
                           render=render, solver=solver, verify=verify)


def import_seconds() -> float:
    """Median time to import levelset_lab (numpy and scipy included) in a
    fresh interpreter, as every command-line run pays it."""
    code = ("import time; t0 = time.perf_counter(); import levelset_lab; "
            "print(time.perf_counter() - t0)")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = [float(subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT, check=True,
                                  capture_output=True, text=True).stdout)
             for _ in range(IMPORT_REPEATS)]
    return statistics.median(times)


def machine_record() -> dict:
    import numpy
    import scipy
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
    scipy_blas = scipy.__config__.CONFIG["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": f"{blas.get('name')} {blas.get('version')}",
        "scipy_blas": f"{scipy_blas.get('name')} {scipy_blas.get('version')}",
        "blas_threads": _blas_threads(numpy),
        "commit": _git_commit(),
    }


def _blas_threads(numpy):
    """Threads numpy's OpenBLAS will use, asked from the library itself."""
    import ctypes
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*"))
    for lib_path in libs:
        lib = ctypes.CDLL(str(lib_path))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def _git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


# --------------------------------------------------------------------------
# measurement

@dataclass
class Op:
    item: wl.Item
    raw_s: float        # wall time
    seconds: float      # wall time scaled to the reference host
    verdict: wl.Verdict


def run_pass(lab, order, outdir, reference, cal=None, tracer=None, until=None):
    """One closed-loop pass, cut short once the clock passes `until`.
    With a calibration, its kernel runs between every two operations and
    each operation is scaled by the mean of the kernel times around it."""
    results = []
    before = cal.sample() if cal is not None else None
    for index, item in enumerate(order):
        if until is not None and time.perf_counter() >= until:
            break
        out = wl.output_path(item, outdir)
        if out.exists():
            out.unlink()
        op = wl.run_op
        if tracer is not None:
            tracer.op = index
            op = tracer.wrap("op", wl.run_op)
        t0 = time.perf_counter()
        code, stderr = op(lab, item, outdir)
        raw = time.perf_counter() - t0
        scale = 1.0
        if cal is not None:
            after = cal.sample()
            scale = REFERENCE_S / (0.5 * (before + after))
            before = after
        outcome = wl.read_outcome(item, outdir, code, stderr)
        results.append(Op(item, raw, raw * scale, wl.check(outcome, reference.get(item.key))))
    return results


def tail(samples):
    """(value, percentile, n): the highest percentile with at least ten
    samples beyond it, but never below the median: with 21 or fewer samples
    it is the upper median."""
    s = sorted(samples)
    n = len(s)
    k = max(n - 11, n // 2)
    return s[k], 100.0 * (k + 1) / n, n


def end_to_end(results, setup_s):
    ok = [op.seconds for op in results if op.verdict.ok]
    busy = sum(op.seconds for op in results)
    worst = busy  # a run without a success gets the whole run as its latency
    tail_value, tail_pct, tail_n = tail(ok) if ok else (worst, 100.0, 0)
    metrics = {
        "ops_per_s": (len(ok) / busy, "1/s"),
        "op_p50_s": (statistics.median(ok) if ok else worst, "s"),
        "op_tail_s": (tail_value, "s"),
        "ok_fraction": (len(ok) / len(results), "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    extra = {"failed_fraction": 1.0 - len(ok) / len(results),
             "op_tail_percentile": tail_pct, "op_tail_samples": tail_n}
    return metrics, extra


def per_layer(spans, n_ops, load_spans, untraced, traced):
    t = tracing.layer_totals(spans)
    load = tracing.layer_totals(load_spans)

    def per_op(name, key="s"):
        return t[name][key] / n_ops if name in t else 0.0

    eval_calls = t["solver.eval"]["calls"] if "solver.eval" in t else 0.0
    cov = tracing.coverage(spans)
    s, c = "s/op", "count/op"
    return {
        "domain.load_s": (load["domain.load"]["s"], "s/setup"),
        "solver.solve_s": (per_op("solver.solve"), s),
        "solver.solve_calls": (per_op("solver.solve", "calls"), c),
        "solver.unknowns": (per_op("solver.solve", "unknowns"), c),
        "solver.matrix_nnz": (per_op("solver.solve", "nnz"), c),
        "solver.solve_failures": (per_op("solver.solve", "errors"), c),
        "solver.assemble_s": (per_op("solver.assemble"), s),
        "solver.assemble_calls": (per_op("solver.assemble", "calls"), c),
        "solver.interpolant_s": (per_op("solver.interpolant"), s),
        "solver.eval_s": (per_op("solver.eval"), s),
        "solver.eval_calls": (per_op("solver.eval", "calls"), c),
        "solver.eval_points": (per_op("solver.eval", "points"), c),
        "solver.points_per_eval": ((t["solver.eval"]["points"] / eval_calls) if eval_calls else 0.0,
                                   "points/call"),
        "solver.gradient_calls": (per_op("solver.gradient", "calls"), c),
        "solver.hessian_calls": (per_op("solver.hessian", "calls"), c),
        "critical.detect_s": (per_op("critical.detect"), s),
        "critical.detect_calls": (per_op("critical.detect", "calls"), c),
        "critical.points": (per_op("critical.detect", "points"), c),
        "critical.suspects": (per_op("critical.detect", "suspects"), c),
        "critical.warnings": (per_op("critical.detect", "warnings"), c),
        "critical.cluster_s": (per_op("critical.cluster"), s),
        "critical.separating_s": (per_op("critical.separating"), s),
        "topology.census_s": (per_op("topology.census"), s),
        "topology.census_calls": (per_op("topology.census", "calls"), c),
        "topology.census_cells": (per_op("topology.census", "cells"), c),
        "topology.region_s": (per_op("topology.region"), s),
        "topology.local_s": (per_op("topology.local"), s),
        "topology.profile_s": (per_op("topology.profile"), s),
        "topology.trace_s": (per_op("topology.trace"), s),
        "topology.trace_calls": (per_op("topology.trace", "calls"), c),
        "topology.polylines": (per_op("topology.trace", "polylines"), c),
        "verify.identities_s": (per_op("verify.identities"), s),
        "verify.identities_applicable": (per_op("verify.identities", "applicable"), c),
        "verify.orchestration_s": (tracing.self_total(spans, "verify.run_scenario") / n_ops, s),
        "render.svg_s": (per_op("render.svg"), s),
        "cli.report_s": (per_op("cli.report"), s),
        "trace.coverage": (min(cov), "ratio"),
        "trace.overhead_s": (statistics.median(a - b for a, b in zip(traced, untraced)), s),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    lab = import_lab()
    workdir = HERE / "out" / f"{workload}-{seed}"
    outdir = workdir / "output"
    outdir.mkdir(parents=True, exist_ok=True)
    reference = json.loads((HERE / "reference.json").read_text(encoding="utf-8"))[workload]

    cal = Calibration()
    cal_before = cal.sample()
    import_s = import_seconds()
    setup_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        items = wl.setup(lab, workload, seed, workdir)
        setup_times.append(time.perf_counter() - t0)
    raw_setup_s = import_s + statistics.median(setup_times)
    setup_s = raw_setup_s * REFERENCE_S / (0.5 * (cal_before + cal.sample()))

    rng = random.Random(seed)

    def next_order():
        order = list(items)
        rng.shuffle(order)
        return order

    record = {"workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
              "machine": machine_record(),
              "setup": {"import_s": import_s, "load_s": setup_times}}
    uncovered = []  # traced operations whose spans explain too little
    if not trace:
        # one whole pass, so that every scenario is measured, then further
        # operations until `seconds` have passed
        start = time.perf_counter()
        results = run_pass(lab, next_order(), outdir, reference, cal)
        while time.perf_counter() - start < seconds:
            results += run_pass(lab, next_order(), outdir, reference, cal,
                                until=start + seconds)
        metrics, extra = end_to_end(results, setup_s)
        extra["host_speed"] = REFERENCE_S / statistics.median(cal.samples)
        extra["raw_op_p50_s"] = statistics.median(
            [op.raw_s for op in results if op.verdict.ok] or [op.raw_s for op in results])
        extra["raw_setup_s"] = raw_setup_s
        record["extra"] = extra
        record["calibration_s"] = cal.samples
    else:
        order = next_order()
        untraced = run_pass(lab, order, outdir, reference, cal)
        tracer = tracing.Tracer()
        tracer.install(lab)
        try:
            wl.setup(lab, workload, seed, workdir)
            load_spans = list(tracer.spans)
            del tracer.spans[:]
            traced = run_pass(lab, order, outdir, reference, cal, tracer)
        finally:
            tracer.uninstall()
        tracer.write(workdir / "spans.jsonl")
        results = untraced + traced
        metrics = per_layer(tracer.spans, len(traced), load_spans,
                            [op.seconds for op in untraced], [op.seconds for op in traced])
        record["coverage"] = tracing.coverage(tracer.spans)
        uncovered = [(op.item.key, f"span coverage {c:.4f} < {MIN_COVERAGE}")
                     for op, c in zip(traced, record["coverage"]) if c < MIN_COVERAGE]

    wrong = [(op.item.key, op.verdict.reason) for op in results if op.verdict.wrong]
    wrong += uncovered
    record["operations"] = [{"scenario": op.item.key, "raw_s": op.raw_s, "seconds": op.seconds,
                             "ok": op.verdict.ok, "wrong": op.verdict.wrong,
                             "reason": op.verdict.reason} for op in results]
    record["metrics"] = {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()}
    (workdir / f"result-trace{int(trace)}.json").write_text(json.dumps(record, indent=1) + "\n",
                                                          encoding="utf-8")
    for key, reason in wrong:
        print(f"WRONG {key}: {reason}", file=sys.stderr)
    return {
        "correct": not wrong,
        "attempted": len(results),
        "failed": sum(1 for op in results if not op.verdict.ok),
        "metrics": record["metrics"],
        "_record": record,
    }


def print_human(result: dict) -> None:
    rec = result["_record"]
    print(f"machine: {json.dumps(rec['machine'])}")
    print(f"workload {rec['workload']} seed {rec['seed']}: {result['attempted']} attempted, "
          f"{result['failed']} failed, correct={result['correct']}")
    for name, m in result["metrics"].items():
        print(f"  {name:32s} {m['value']:.6g} {m['unit']}")
    for name, value in rec.get("extra", {}).items():
        print(f"  {name:32s} {value:.6g}")
    failures = {}
    for op in rec["operations"]:
        if not op["ok"]:
            failures[op["reason"]] = failures.get(op["reason"], 0) + 1
    for reason, count in sorted(failures.items()):
        print(f"  failed x{count}: {reason}")
    if "coverage" in rec:
        print(f"span coverage: min {min(rec['coverage']):.4f} over {len(rec['coverage'])} "
              f"operations (required >= {MIN_COVERAGE})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.workload == "all":
        # one process per workload, so that set-up and peak memory stay its own
        code = 0
        for name in wl.WORKLOADS:
            proc = subprocess.run([sys.executable, __file__, "--workload", name,
                                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                                   "--trace", str(args.trace)], check=False)
            code = code or proc.returncode
        return code
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print_human(result)
    del result["_record"]
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
