"""Spans around levelset-lab's layers, recorded from outside the package.

`Tracer.install` replaces public functions at the names where their callers
look them up (for example `verify.level_census`, `render.trace_level_lines`,
`cli.run_scenario` and `SolutionField.evaluate_ref`) with wrappers that record
a span: name, start, end, parent span, operation index, and the work counts
taken at that boundary.  Spans are kept in memory; `write` saves them.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

import numpy as np

# span record fields
NAME, START, END, PARENT, OP, COUNTS, ERROR = range(7)


def _refined_cells(args, kwargs, result):
    field = args[0]
    refine = args[2] if len(args) > 2 else kwargs.get("refine", 2)
    return {"cells": refine * field.n_theta * refine * field.n_s}


def _system_size(args, kwargs, result):
    return {"unknowns": args[0].size, "nnz": int(args[0].matrix.nnz)}


def _detect_counts(args, kwargs, result):
    if result is None:
        return None
    points, suspects, warnings = result
    return {"points": len(points), "suspects": len(suspects), "warnings": len(warnings)}


def _eval_points(args, kwargs, result):
    return {"points": int(np.size(args[1]))}


def _polylines(args, kwargs, result):
    return None if result is None else {"polylines": len(result[0])}


def _applicable(args, kwargs, result):
    return None if result is None else {"applicable": int(bool(result["applicable"]))}


class Tracer:
    def __init__(self):
        self.spans = []
        self.op = -1
        self._stack = []
        self._undo = []

    def wrap(self, name, fn, count=None):
        """`fn` recording one span per call; `count(args, kwargs, result)`
        returns the work counts of the call (result is None when it raised)."""
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op, None, False]
            stack.append(len(spans))
            spans.append(rec)
            result = None
            rec[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException:
                rec[ERROR] = True
                raise
            finally:
                rec[END] = time.perf_counter()
                stack.pop()
                if count is not None:
                    rec[COUNTS] = count(args, kwargs, result)

        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, replacement):
        original = owner.__dict__[attr]
        self._undo.append((owner, attr, original))
        setattr(owner, attr, replacement)
        return original

    def install(self, lab) -> None:
        """Wrap every layer entry point of the package modules in `lab`."""
        cli, verify, critical, render = lab.cli, lab.verify, lab.critical, lab.render
        field_cls = lab.solver.SolutionField
        evaluate_ref = field_cls.__dict__["evaluate_ref"]
        targets = [
            (cli, "main", "cli.main", None),
            (lab.domain, "load_scenario", "domain.load", None),
            (lab.domain, "scenario_from_dict", "domain.load", None),
            (lab.domain, "validate_scenario", "domain.load", None),
            (verify, "validate_scenario", "domain.validate", None),
            (cli, "load_scenario", "domain.load", None),
            (cli, "fingerprint_scenario", "verify.fingerprint", None),
            (cli, "run_scenario", "verify.run_scenario", None),
            (cli, "report_to_dict", "cli.report", None),
            (cli, "emit_report", "cli.report", None),
            (cli, "render_svg", "render.svg", None),
            (render, "trace_level_lines", "topology.trace", _polylines),
            (verify, "check_counting_identities", "verify.identities", _applicable),
            (verify, "cluster_critical_sets", "critical.cluster", None),
            (verify, "separating_network_through", "critical.separating", None),
            (verify, "boundary_profile", "topology.profile", None),
            (verify, "check_component_contact", "topology.contact", None),
            (verify, "region_components", "topology.region", None),
            (verify, "local_structure", "topology.local", None),
            (verify, "resolve_tolerances", "critical.tolerances", None),
            (verify, "check_lemma_2_1", "verify.checks", None),
            (verify, "check_remark_1_5", "verify.checks", None),
            (critical, "winding_multiplicity", "critical.winding", None),
            (field_cls, "evaluate_ref", "solver.eval", _eval_points),
            (field_cls, "gradient", "solver.gradient", None),
            (field_cls, "hessian", "solver.hessian", None),
            (field_cls, "node_positions", "solver.geometry", None),
            (field_cls, "median_cell_diag", "solver.geometry", None),
        ]
        for module in (cli, verify):
            targets += [
                (module, "assemble", "solver.assemble", None),
                (module, "find_critical_points_report", "critical.detect", _detect_counts),
                (module, "level_census", "topology.census", _refined_cells),
            ]
        for owner, attr, name, count in targets:
            self._patch(owner, attr, self.wrap(name, owner.__dict__[attr], count))
        for module in (cli, verify):
            solve = self.wrap("solver.solve", module.__dict__["solve"], _system_size)
            self._patch(module, "solve", self._solve_then_interpolate(solve, evaluate_ref))

    def _solve_then_interpolate(self, solve, evaluate_ref):
        """Solve, then force the field's Hermite interpolant with one
        evaluation so that its build shows as its own span."""
        build = self.wrap("solver.interpolant", evaluate_ref)

        def solve_and_build(*args, **kwargs):
            field = solve(*args, **kwargs)
            build(field, 0.0, 0.5)
            return field

        return solve_and_build

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, rec in enumerate(self.spans):
                fh.write(json.dumps({"id": sid, "name": rec[NAME], "start": rec[START],
                                     "end": rec[END], "parent": rec[PARENT], "op": rec[OP],
                                     "counts": rec[COUNTS], "error": rec[ERROR]}) + "\n")


# --------------------------------------------------------------------------
# per-layer metrics

def self_times(spans) -> list:
    """Each span's duration minus the time its children cover (children of
    one span never overlap: the program runs one call at a time)."""
    out = [rec[END] - rec[START] for rec in spans]
    for rec in spans:
        if rec[PARENT] >= 0:
            out[rec[PARENT]] -= rec[END] - rec[START]
    return out


def _outermost(spans) -> list:
    """Spans with no ancestor of the same name (no double counting)."""
    keep = []
    for rec in spans:
        parent = rec[PARENT]
        while parent >= 0 and spans[parent][NAME] != rec[NAME]:
            parent = spans[parent][PARENT]
        keep.append(parent < 0)
    return keep


def coverage(spans, op_name="op", glue=("cli.main", "verify.run_scenario")) -> list:
    """Per operation: the share of its wall time that layer spans explain,
    that is one minus the self time of the operation span and of the
    orchestration spans in `glue`, which no layer accounts for."""
    st = self_times(spans)
    unexplained = defaultdict(float)
    for sid, rec in enumerate(spans):
        if rec[NAME] == op_name or rec[NAME] in glue:
            unexplained[rec[OP]] += st[sid]
    return [1.0 - unexplained[rec[OP]] / (rec[END] - rec[START])
            for rec in spans if rec[NAME] == op_name]


def layer_totals(spans) -> dict:
    """Inclusive seconds, call counts, failures and summed work counts per
    span name, over outermost spans only."""
    totals = defaultdict(lambda: defaultdict(float))
    for rec, outer in zip(spans, _outermost(spans)):
        if not outer:
            continue
        t = totals[rec[NAME]]
        t["s"] += rec[END] - rec[START]
        t["calls"] += 1
        t["errors"] += rec[ERROR]
        for key, value in (rec[COUNTS] or {}).items():
            t[key] += value
    return totals


def self_total(spans, name) -> float:
    st = self_times(spans)
    return sum(st[k] for k, rec in enumerate(spans) if rec[NAME] == name)
