"""The benchmark's layer tracer still fits the package.

`perfbench/layertrace.py` patches package functions by name and reads the
arguments and results of the calls it wraps (`level_census`'s third
positional argument, `solve`'s system, `evaluate_ref`'s points, the
detector's 3-tuple, the identity report's "applicable").  A traced
benchmark run fails when an output stops matching `reference.json` or an
operation raises inside a wrapper.  This test installs the tracer on the
package modules, runs one verify and one render the way the benchmark does,
and checks the outputs, the span names and the uninstall.  It asserts
nothing on timings.
"""

import importlib.util
import json
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

from levelset_lab import cli, critical, domain, expressions, render, solver, verify

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
RECORDED = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))


def _load(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


wl = _load("workloads")
layertrace = _load("layertrace")

LAB = SimpleNamespace(cli=cli, critical=critical, domain=domain, expressions=expressions,
                      render=render, solver=solver, verify=verify)
PATCHED = (cli, critical, domain, render, verify, solver.SolutionField)


def test_traced_verify_and_render_match_reference(tmp_path):
    # seed 0 sym0_k2 reaches the counting identities; z_plus_inv renders
    # level lines and critical-point markers
    (sym,) = [it for it in wl.setup(LAB, "symmetric_annuli", 0, tmp_path / "sym") if it.key == "0/sym0_k2"]
    (ren,) = [it for it in wl.setup(LAB, "render_sweep", 0, tmp_path / "ren") if it.key == "z_plus_inv"]
    refs = [RECORDED["symmetric_annuli"][sym.key], RECORDED["render_sweep"][ren.key]]
    before = [dict(vars(owner)) for owner in PATCHED]

    tracer = layertrace.Tracer()
    tracer.install(LAB)
    try:
        assert tracer._undo and cli.main is not before[0]["main"]
        outcomes = []
        for index, item in enumerate((sym, ren)):
            tracer.op = index
            outdir = tmp_path / f"out{index}"
            code, stderr = tracer.wrap("op", wl.run_op)(LAB, item, outdir)
            outcomes.append(wl.read_outcome(item, outdir, code, stderr))
        tracer.write(tmp_path / "spans.jsonl")
    finally:
        tracer.uninstall()

    for item, outcome, ref in zip((sym, ren), outcomes, refs):
        verdict = wl.check(outcome, ref)
        assert not verdict.wrong, (item.key, verdict.reason)
        assert verdict.ok, (item.key, verdict.reason, outcome.stderr)

    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    names = {s["name"] for s in spans}
    assert {"verify.identities", "topology.census", "critical.detect", "solver.solve",
            "topology.trace"} <= names, sorted(names)
    assert not any(s["error"] for s in spans if s["name"] == "op")
    applicable = [s["counts"]["applicable"] for s in spans if s["name"] == "verify.identities"]
    assert applicable and max(applicable) == 1
    assert all(s["counts"]["unknowns"] > 0 and s["counts"]["nnz"] > 0
               for s in spans if s["name"] == "solver.solve")
    # the verify solves its two grids through the wrapped names, and the
    # half grid inside `solve`, so that solve time stays covered
    verify_calls = Counter(s["name"] for s in spans if s["op"] == 0)
    assert verify_calls["solver.solve"] == verify_calls["solver.assemble"] == 2

    for owner, saved in zip(PATCHED, before):
        now = vars(owner)
        assert now.keys() == saved.keys(), owner
        assert all(now[k] is saved[k] for k in saved), owner


def test_traced_identity_path_matches_reference(tmp_path):
    """26/sym0_k2 takes the interleaved middle-band M1 + M2 clause and holds
    the one recorded lem_2_5_2_7 FAIL: traced, its output still matches the
    reference, the cluster, separating and identity spans run, and there is
    one census span per census in the report."""
    (item,) = [it for it in wl.setup(LAB, "symmetric_annuli", 26, tmp_path / "sym") if it.key == "26/sym0_k2"]
    outdir = tmp_path / "out"
    tracer = layertrace.Tracer()
    tracer.install(LAB)
    try:
        tracer.op = 0
        code, stderr = tracer.wrap("op", wl.run_op)(LAB, item, outdir)
    finally:
        tracer.uninstall()

    verdict = wl.check(wl.read_outcome(item, outdir, code, stderr), RECORDED["symmetric_annuli"][item.key])
    assert not verdict.wrong, verdict.reason
    report = json.loads((outdir / "report.json").read_text(encoding="utf-8"))
    (identity,) = [v for v in report["verdicts"] if v["id"] == "lem_2_5_2_7"]
    assert "middle band" in identity["witness"]["values"][0]["clause"]
    spans = Counter(rec[layertrace.NAME] for rec in tracer.spans)
    assert spans["critical.cluster"] and spans["critical.separating"] and spans["verify.identities"]
    assert spans["topology.census"] == len(report["censuses"])
