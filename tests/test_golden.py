"""Golden reports: the report of every built-in scenario, pinned.

`tests/golden/<name>.json` holds `report_to_dict` of `run_scenario` on the
shipped scenario file, with the timestamp removed.  Integers, booleans,
strings, nulls and therefore every verdict must match exactly; floats must
match to a relative tolerance of 1e-9.

Re-record after an intended change of behaviour with

    PYTHONPATH=src python tests/test_golden.py

which prints every path that moved (as `differences` reports it) before
it overwrites a golden file.
"""

import json
import math
from pathlib import Path

import pytest

from conftest import BUILTIN_NAMES, builtin_report
from levelset_lab.cli import report_to_dict

GOLDEN_DIR = Path(__file__).parent / "golden"
REL_TOL = 1e-9


def report_payload(name: str) -> dict:
    payload = report_to_dict(builtin_report(name), timestamp="")
    del payload["timestamp"]
    return payload


def differences(want, got, path="$") -> list:
    """Paths where `got` departs from `want` beyond the golden tolerance."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if math.isclose(want, got, rel_tol=REL_TOL, abs_tol=0.0) else [f"{path}: {want!r} != {got!r}"]
    if type(want) is not type(got):
        return [f"{path}: {want!r} != {got!r}"]
    if isinstance(want, dict):
        if list(want) != list(got):
            return [f"{path}: keys {list(want)} != {list(got)}"]
        return [d for k in want for d in differences(want[k], got[k], f"{path}.{k}")]
    if isinstance(want, list):
        if len(want) != len(got):
            return [f"{path}: length {len(want)} != {len(got)}"]
        return [d for k, (a, b) in enumerate(zip(want, got)) for d in differences(a, b, f"{path}[{k}]")]
    return [] if want == got else [f"{path}: {want!r} != {got!r}"]


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_report_matches_golden(name):
    want = json.loads((GOLDEN_DIR / f"{name}.json").read_text(encoding="utf-8"))
    got = json.loads(json.dumps(report_payload(name)))
    diffs = differences(want, got)
    assert not diffs, "\n".join(diffs[:20])


def test_differences_tolerance():
    assert differences({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 5e-10)]}) == []
    assert differences({"a": [1, 2.0]}, {"a": [1, 2.0 * (1 + 5e-9)]})
    assert differences({"holds": True}, {"holds": False})
    assert differences({"m": 1}, {"m": 1.0})
    assert differences({"x": 0.0}, {"x": 1e-300})


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name in BUILTIN_NAMES:
        path = GOLDEN_DIR / f"{name}.json"
        payload = json.loads(json.dumps(report_payload(name)))
        if path.exists():
            for diff in differences(json.loads(path.read_text(encoding="utf-8")), payload):
                print(f"{name}: {diff}")
        path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {path}")
