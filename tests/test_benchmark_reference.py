"""The benchmark's recorded failure set, pinned in the test suite.

`perfbench/reference.json` records, for every symmetric_annuli scenario,
either the integer summary of its report or the reason it raised.  Only
the benchmark compared against it, and the golden reports cover the
built-ins only.  These tests run `levelset-lab verify` through
`perfbench/workloads.py`, the way the benchmark does, on the eight
scenarios of seed 0 and on the recorded failure set, and compare each
outcome with the reference.  Neither file is modified.
"""

import importlib.util
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from levelset_lab import cli, domain, expressions

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up there
    spec.loader.exec_module(module)
    return module


wl = _workloads()
RECORDED = json.loads((PERFBENCH / "reference.json").read_text(encoding="utf-8"))
REFERENCE = RECORDED["symmetric_annuli"]
# symmetric seed 26 sym0_k2 has an applicable lem_2_5_2_7 FAIL, recorded as
# it is
RECORDED_FAILURES = {"26/sym0_k2"}


def _items(seed, tmp_path, workload="symmetric_annuli"):
    lab = SimpleNamespace(cli=cli, domain=domain, expressions=expressions)
    return lab, wl.setup(lab, workload, seed, tmp_path / f"seed{seed}")


def _outcome(lab, item, tmp_path):
    outdir = tmp_path / item.key.replace("/", "_")
    code, stderr = wl.run_op(lab, item, outdir)
    return wl.read_outcome(item, outdir, code, stderr)


def _check(outcome, ref):
    if "error" in ref:
        assert outcome.exit_code == 1 and outcome.summary is None
        assert wl.error_reason(outcome.stderr) == ref["error"]
    else:
        assert outcome.summary == ref["summary"]
        assert wl.fingerprint(outcome.summary) == ref["fingerprint"]
    verdict = wl.check(outcome, ref)
    assert not verdict.wrong, verdict.reason
    return verdict


def test_seed0_symmetric_annuli_match_reference(tmp_path):
    lab, items = _items(0, tmp_path)
    assert len(items) == wl.SYMMETRIC_COUNT
    for item in items:
        verdict = _check(_outcome(lab, item, tmp_path), REFERENCE[item.key])
        assert verdict.ok, (item.key, verdict.reason)


@pytest.mark.parametrize("key", sorted(RECORDED_FAILURES))
def test_recorded_failures_reproduce(key, tmp_path):
    lab, items = _items(int(key.split("/")[0]), tmp_path)
    (item,) = [it for it in items if it.key == key]
    verdict = _check(_outcome(lab, item, tmp_path), REFERENCE[key])
    assert not verdict.ok, verdict.reason


def test_seed15_sym0_k2_now_verifies(tmp_path):
    """Recorded as UnstableCountsError: the degree circle of both coarse
    saddles left the domain and only grew.  It now shrinks back inside, so
    the scenario verifies, which its error reference accepts."""
    lab, items = _items(15, tmp_path)
    (item,) = [it for it in items if it.key == "15/sym0_k2"]
    outcome = _outcome(lab, item, tmp_path)
    assert outcome.exit_code == 0, outcome.stderr
    verdict = wl.check(outcome, REFERENCE[item.key])
    assert verdict.ok and not verdict.wrong, verdict.reason


def test_render_sweep_matches_reference(tmp_path):
    """Polyline counts per threshold and critical-point markers of every
    built-in render match the recorded render_sweep fingerprints."""
    lab, items = _items(0, tmp_path, "render_sweep")
    assert sorted(it.key for it in items) == sorted(RECORDED["render_sweep"])
    for item in items:
        verdict = _check(_outcome(lab, item, tmp_path), RECORDED["render_sweep"][item.key])
        assert verdict.ok, (item.key, verdict.reason)
