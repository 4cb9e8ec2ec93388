"""Record the reference fingerprints the benchmark checks outputs against.

    python3 perfbench/record.py

Runs every operation of every workload once (symmetric_annuli for seeds
0 .. RECORDED_SEEDS-1) and writes perfbench/reference.json.  A scenario
that raises is recorded with its error reason instead of a fingerprint.
Re-record only when a change is meant to alter the integer results.
"""

from __future__ import annotations

import json
import sys

import run
import workloads as wl


def record_items(lab, items, outdir) -> dict:
    refs = {}
    for item in items:
        code, stderr = wl.run_op(lab, item, outdir)
        outcome = wl.read_outcome(item, outdir, code, stderr)
        if outcome.summary is None:
            refs[item.key] = {"error": wl.error_reason(stderr)}
        else:
            refs[item.key] = {"fingerprint": wl.fingerprint(outcome.summary),
                              "summary": outcome.summary}
            if wl.failed_checks(outcome.summary):
                print(f"warning: {item.key} has FAIL verdicts", file=sys.stderr)
        print(f"{item.key}: {refs[item.key].get('fingerprint') or refs[item.key]['error']}",
              flush=True)
    return refs


def format_reference(reference: dict) -> str:
    """JSON with one line per recorded scenario."""
    parts = []
    for name, entries in sorted(reference.items()):
        if name.startswith("_"):
            parts.append(f" {json.dumps(name)}: {json.dumps(entries, sort_keys=True)}")
            continue
        body = ",\n".join(f"  {json.dumps(key)}: {json.dumps(value, sort_keys=True)}"
                          for key, value in sorted(entries.items()))
        parts.append(f" {json.dumps(name)}: {{\n{body}\n }}")
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main() -> int:
    lab = run.import_lab()
    workdir = run.HERE / "out" / "record"
    outdir = workdir / "output"
    outdir.mkdir(parents=True, exist_ok=True)
    reference = {"_recorded": {"commit": run._git_commit(),
                               "symmetric_seeds": [0, wl.RECORDED_SEEDS]}}
    for name in wl.WORKLOADS:
        seeds = range(wl.RECORDED_SEEDS) if name == "symmetric_annuli" else [0]
        reference[name] = {}
        for seed in seeds:
            items = wl.setup(lab, name, seed, workdir / f"{name}-{seed}")
            reference[name].update(record_items(lab, items, outdir))
    path = run.HERE / "reference.json"
    path.write_text(format_reference(reference), encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
