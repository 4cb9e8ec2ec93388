"""Theorem and lemma verdicts over detected critical points and censuses.

Each check states its hypotheses explicitly and goes through one rule,
`_verdict`: "not applicable" with the first failed hypothesis when they do
not all hold, and otherwise one comparison of exact integers derived from
counts.  A failed applicable check is a loud FAIL in the report (CLI exit
code 2), never an assertion baked into the pipeline.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching

from .critical import (
    cluster_critical_sets,
    find_critical_points_report,
    resolve_tolerances,
    separating_network_through,
    value_classes,
)
from .domain import ScenarioSpec, validate_scenario
from .errors import BandTooWideError, LevelSetLabError, UnstableCountsError
from .solver import SolutionField, assemble, solve
from .topology import (
    BoundaryProfile,
    boundary_profile,
    check_component_contact,
    level_census,
    local_structure,
    region_components,
)

# run_scenario solves on the configured grid and on this refinement of it.
FINE_FACTOR = 2

VERDICT_IDS = (
    "thm_1_1", "thm_1_2", "cor_4_1", "thm_1_3", "thm_1_4", "rem_5_1",
    "lem_2_1", "lem_2_2", "lem_2_4", "lem_2_5_2_7", "rem_1_5",
)


@dataclass
class TheoremVerdict:
    id: str
    applicable: bool
    holds: bool | None = None
    lhs: int | None = None
    rhs: int | None = None
    hypotheses: list = field(default_factory=list)
    reason: str | None = None
    witness: dict = field(default_factory=dict)

    def as_dict(self) -> dict:
        return asdict(self)


def _hyp(name: str, held: bool) -> dict:
    return {"name": name, "held": bool(held)}


def _no_zeroth_order(has_zeroth_order: bool) -> dict:
    return _hyp("no zeroth-order term", not has_zeroth_order)


def _annulus_hypotheses(profile: BoundaryProfile, interior: str, exterior: str) -> list:
    """"domain is multiply connected", "interior trace <interior>" and
    "exterior trace <exterior>", each quality "constant", "non-constant" or
    "sign-changing"; a trace hypothesis holds when that trace has it."""
    def has(trace, quality):
        if trace is None:
            return False
        return trace.sign_changing if quality == "sign-changing" else trace.is_constant == (quality == "constant")
    return [_hyp("domain is multiply connected", profile.interior is not None),
            _hyp(f"interior trace {interior}", has(profile.interior, interior)),
            _hyp(f"exterior trace {exterior}", has(profile.exterior, exterior))]


def _sum_m(points) -> int:
    return int(sum(p.multiplicity for p in points))


def _zeros(points) -> list:
    return [p for p in points if p.is_zero]


def _verdict(vid: str, hypotheses: list, evaluate, reason: str | None = None) -> TheoremVerdict:
    """The one verdict rule.  At the first failed hypothesis the check is not
    applicable, for `reason` or else "hypothesis failed: <its name>".
    Otherwise it is applicable, with the fields that `evaluate()` returns."""
    failed = next((h["name"] for h in hypotheses if not h["held"]), None)
    if failed is not None:
        return TheoremVerdict(id=vid, applicable=False, hypotheses=hypotheses,
                              reason=reason or f"hypothesis failed: {failed}")
    return TheoremVerdict(id=vid, applicable=True, hypotheses=hypotheses, **evaluate())


def _bound(vid: str, hypotheses: list, points, evaluate) -> TheoremVerdict:
    """The bound sum_m <= rhs over `points`, where `evaluate()` returns
    (rhs, witness)."""
    def fields():
        lhs, (rhs, witness) = _sum_m(points), evaluate()
        return {"holds": bool(lhs <= rhs), "lhs": lhs, "rhs": int(rhs), "witness": witness}
    return _verdict(vid, hypotheses, fields)


# --------------------------------------------------------------------------
# individual theorem checks

def check_theorem_1_1(points, profile: BoundaryProfile, has_zeroth_order: bool = False) -> TheoremVerdict:
    """Sum of interior multiplicities bounded by the total boundary maxima count."""
    hyps = _annulus_hypotheses(profile, "non-constant", "non-constant") + [_no_zeroth_order(has_zeroth_order)]

    def evaluate():
        n1, n2 = profile.interior.maxima_count, profile.exterior.maxima_count
        return n1 + n2, {"N1": n1, "N2": n2}
    return _bound("thm_1_1", hyps, points, evaluate)


def _trichotomy(vid: str, ordering_name: str, case: str,
                points, profile: BoundaryProfile, has_zeroth_order: bool) -> TheoremVerdict:
    """sum_m in {N-2, N-1, N} when both traces have equal closure-relative
    extrema, as many maxima as minima, and the ordering `case` holds."""
    inner, outer = profile.interior, profile.exterior
    connected, *traces = _annulus_hypotheses(profile, "non-constant", "non-constant")
    hyps = [connected, _no_zeroth_order(has_zeroth_order), *traces,
            _hyp(ordering_name, profile.ordering_case() == case)]
    if all(h["held"] for h in traces):
        hyps += [_hyp(f"equal local {kind} on {rim}", getattr(trace, f"equal_{kind}"))
                 for rim, trace in (("gamma_I", inner), ("gamma_E", outer)) for kind in ("maxima", "minima")]
        hyps += [
            _hyp("matching maxima/minima counts", all(t.maxima_count == t.minima_count for t in (inner, outer))),
            _hyp("all boundary extrema relative to the closure",
                 all(e.relative_to_closure for t in (inner, outer) for e in t.maxima + t.minima)),
        ]

    def evaluate():
        lhs, rhs = _sum_m(points), inner.maxima_count + outer.maxima_count
        return {"holds": rhs - 2 <= lhs <= rhs, "lhs": lhs, "rhs": int(rhs),
                "witness": {"admissible": [rhs - 2, rhs - 1, rhs], "N1": inner.maxima_count,
                            "N2": outer.maxima_count}}
    return _verdict(vid, hyps, evaluate)


def check_theorem_1_2(points, profile: BoundaryProfile, has_zeroth_order: bool = False) -> TheoremVerdict:
    """Equal closure-relative extrema with separated ranges force the
    multiplicity sum into {N-2, N-1, N}."""
    return _trichotomy("thm_1_2", "min psi_2 >= max psi_1 (z2 >= Z1)", "separated",
                       points, profile, has_zeroth_order)


def check_corollary_4_1(points, profile: BoundaryProfile, has_zeroth_order: bool = False) -> TheoremVerdict:
    """Same trichotomy under the interleaved ordering z1 < z2 < Z1 < Z2."""
    return _trichotomy("cor_4_1", "ordering z1 < z2 < Z1 < Z2", "interleaved",
                       points, profile, has_zeroth_order)


def check_theorem_1_3(points, profile: BoundaryProfile) -> TheoremVerdict:
    """Critical zero points against half the exterior sign-change count,
    minus one when the constant interior datum H vanishes."""
    def evaluate():
        n_tilde = profile.exterior.sign_changes
        H = profile.interior.constant_value
        witness = {"H": H, "N_tilde": n_tilde}
        if n_tilde % 2:
            witness["warning"] = "odd exterior sign-change count"
        return (n_tilde // 2 if H != 0.0 else n_tilde // 2 - 1), witness
    return _bound("thm_1_3", _annulus_hypotheses(profile, "constant", "sign-changing"), _zeros(points), evaluate)


def check_theorem_1_4(points, profile: BoundaryProfile) -> TheoremVerdict:
    """Critical zero points against half the total boundary sign-change count."""
    def evaluate():
        n1, n2 = profile.interior.sign_changes, profile.exterior.sign_changes
        return (n1 + n2) // 2, {"N1_tilde": n1, "N2_tilde": n2}
    return _bound("thm_1_4", _annulus_hypotheses(profile, "sign-changing", "sign-changing"), _zeros(points), evaluate)


def check_remark_5_1(points, profile: BoundaryProfile) -> TheoremVerdict:
    """Simply connected domain: critical zero points against N~/2 - 1."""
    hyps = [
        _hyp("domain is simply connected", profile.interior is None),
        _hyp("boundary trace sign-changing", profile.exterior.sign_changing),
    ]
    n_tilde = profile.exterior.sign_changes
    return _bound("rem_5_1", hyps, _zeros(points), lambda: (n_tilde // 2 - 1, {"N_tilde": n_tilde}))


def check_lemma_2_4(points, profile: BoundaryProfile, delta: float) -> TheoremVerdict:
    """No critical value inside [Z1 + delta, z2 - delta] (separated ordering)."""
    def evaluate():
        lo, hi = profile.Z1 + delta, profile.z2 - delta
        offenders = [p.as_dict() for p in points if lo <= p.value <= hi]
        return {"holds": not offenders, "lhs": len(offenders), "rhs": 0,
                "witness": {"band": [lo, hi], "offenders": offenders}}
    return _verdict("lem_2_4", [_hyp("ordering z1 < Z1 <= z2 < Z2", profile.ordering_case() == "separated")],
                    evaluate)


def check_lemma_2_1(field: SolutionField, points) -> TheoremVerdict:
    """Each critical point shows m + 1 super and sub components near it."""
    def evaluate():
        results = []
        for p in points:
            try:
                sup, sub = local_structure(field, p)
            except LevelSetLabError as err:
                results.append({"point": p.as_dict(), "error": str(err)})
                continue
            results.append({"point": p.as_dict(), "supers": sup, "subs": sub, "expected": p.multiplicity + 1,
                            "holds": sup == sub == p.multiplicity + 1})
        return {"holds": all(r.get("holds", False) for r in results), "witness": {"points": results}}
    return _verdict("lem_2_1", [_hyp("at least one critical point", bool(points))], evaluate)


# --------------------------------------------------------------------------
# counting identities (one critical value at a time)

@dataclass(frozen=True)
class _Clause:
    """One clause of Lemmas 2.5-2.7: `count` `relation` a sum_m + b q + c.

    `count` is "M1 + M2" (components of {u > t + eps} plus those of
    {u < t - eps}), "M~1 + M~2" (components of {t + eps < u < z2 - eps} plus
    those of {u < t - eps}), or a (sign, rim) pair: the simply connected
    components of that sign, in the census on its side of t, that meet that
    rim.  The pair clauses also need each of their two parts to reach
    sum_m + floor.
    """

    text: str
    count: str | tuple
    relation: str
    rhs: tuple
    floor: int | None = None


# The clause for (ordering case, band, separating closed level curve
# through a critical point at t).
_CLAUSES = {
    ("separated", "upper", True): _Clause(
        "sub-level simply connected contact count (upper band, separating curve)",
        ("sub", "exterior"), "==", (1, 1, -1)),
    ("separated", "upper", False): _Clause(
        "M1 + M2 = 2 sum_m + q + 1 (upper band)", "M1 + M2", "==", (2, 1, 1), floor=1),
    ("separated", "lower", True): _Clause(
        "super-level simply connected contact count (lower band, separating curve)",
        ("super", "interior"), "==", (1, 1, -1)),
    ("separated", "lower", False): _Clause(
        "band components: M~1 + M~2 = 2 sum_m + q + 1 (lower band)", "M~1 + M~2", "==", (2, 1, 1), floor=1),
    ("interleaved", "middle", True): _Clause(
        "M1 + M2 = 2 sum_m + q - 1 (middle band, separating curve)", "M1 + M2", "==", (2, 1, -1), floor=0),
    ("interleaved", "middle", False): _Clause(
        "M1 + M2 = 2 sum_m + q + 1 (middle band)", "M1 + M2", "==", (2, 1, 1), floor=1),
    ("interleaved", "upper", True): _Clause(
        "sub-level contact count >= sum_m + q - 1 (upper band)", ("sub", "exterior"), ">=", (1, 1, -1)),
    ("interleaved", "upper", False): _Clause(
        "super-level contact count >= sum_m + 1 (upper band)", ("super", "exterior"), ">=", (1, 0, 1)),
    ("interleaved", "lower", True): _Clause(
        "super-level contact count >= sum_m + q - 1 (lower band)", ("super", "interior"), ">=", (1, 1, -1)),
    ("interleaved", "lower", False): _Clause(
        "sub-level contact count >= sum_m + 1 (lower band)", ("sub", "interior"), ">=", (1, 0, 1)),
}


def check_counting_identities(field: SolutionField, points, profile: BoundaryProfile, t: float,
                              eps: float, below, above) -> dict:
    """Component-count identities at one detected critical value t.

    Looks the clause up in `_CLAUSES` by the ordering case, the band of t
    and the presence of a separating closed level curve through a critical
    point, and evaluates it.  Counts are read from the censuses `below` and
    `above`, taken at t - eps and t + eps, so that the open sets {u < t}
    and {u > t} are sampled away from the level set itself.
    """
    rt = resolve_tolerances(field)
    case = profile.ordering_case()
    report = {"t": t, "ordering_case": case, "applicable": False, "holds": None,
              "clause": None, "details": {}}
    if case is None:
        report["reason"] = ("ordering case fails: need z1 < Z1 <= z2 < Z2 or z1 < z2 < Z1 < Z2"
                            if profile.interior is not None else "domain is simply connected")
        return report

    eq = rt.equal_value_tol
    at_t = [p for p in points if abs(p.value - t) <= eq]
    if not at_t:
        report["reason"] = "no critical point at t"
        return report

    band = profile.band(t)
    if band is None:
        report["reason"] = f"critical value {t:.6g} outside the lemma bands"
        return report
    report["band"] = band

    same_band = [p for p in points if profile.band(p.value) == band]
    if any(abs(p.value - t) > eq for p in same_band):
        report["reason"] = "critical values in this band are not all equal"
        return report

    sum_m = _sum_m(at_t)
    try:
        labels, holding = cluster_critical_sets(field, at_t, t)
    except BandTooWideError as err:
        report["reason"] = f"cluster banding failed: {err}"
        return report
    q = len(holding)
    sep = separating_network_through(field, labels, holding)
    report["details"].update({"sum_m": sum_m, "q": q, "epsilon": eps, "separating_curve": sep})
    report["applicable"] = True

    clause = _CLAUSES[case, band, bool(sep)]
    if clause.count == "M1 + M2":
        parts = {"M1": above.M1, "M2": below.M2}
    elif clause.count == "M~1 + M~2":
        parts = {"M1_tilde": region_components(field, t + eps, profile.z2 - eps), "M2_tilde": below.M2}
    else:
        sign, rim = clause.count
        census = above if sign == "super" else below
        parts = {"contact_count": sum(1 for comp in census.counted(sign)
                                      if comp.touches(rim) and comp.simply_connected)}
    a, b, c = clause.rhs
    lhs, rhs = sum(parts.values()), a * sum_m + b * q + c
    holds = lhs == rhs if clause.relation == "==" else lhs >= rhs
    if clause.floor is not None:
        holds = holds and all(v >= sum_m + clause.floor for v in parts.values())
    report["details"].update(parts)
    report.update(clause=clause.text, holds=holds, lhs=int(lhs), rhs=int(rhs))
    return report


def _census_offset(t: float, points, profile: BoundaryProfile, same_tol: float) -> float:
    """Offset epsilon of the censuses at t -/+ epsilon: ten times `same_tol`,
    but at most a quarter of the distance from t to the nearest other
    critical or boundary-extreme value (values within `same_tol` of t count
    as t itself)."""
    marks = {p.value for p in points}
    for v in (profile.z1, profile.Z1, profile.z2, profile.Z2):
        if v is not None:
            marks.add(v)
    gaps = [abs(v - t) for v in marks if abs(v - t) > same_tol]
    return min(10.0 * same_tol, 0.25 * (min(gaps) if gaps else abs(t) + 1.0))


# --------------------------------------------------------------------------
# strong-maximum-principle surrogate

def check_remark_1_5(field: SolutionField, censuses, pure_diffusion: bool) -> TheoremVerdict:
    """Super components attain their maximum on boundary-contact cells
    (and sub components their minimum), for pure second-order operators."""
    hyps = [
        _hyp("operator has no first- or zeroth-order terms", pure_diffusion),
        _hyp("at least one census computed", bool(censuses)),
    ]

    def evaluate():
        gmax = float(np.max(np.hypot(*field.node_gradients())))
        slack = 2.0 * field.interp_error_estimate() + 2.0 * gmax * field.median_cell_diag()
        failures = []
        for census in censuses:
            for comp in census.components:
                if comp.all_uncertain or comp.extremal_contact_value is None:
                    if not (comp.touches_interior or comp.touches_exterior) and not comp.all_uncertain:
                        failures.append({"t": census.t, "sign": comp.sign, "label": comp.label,
                                         "issue": "no boundary contact"})
                    continue
                if comp.sign == "super":
                    ok = comp.extremal_value <= comp.extremal_contact_value + slack
                else:
                    ok = comp.extremal_value >= comp.extremal_contact_value - slack
                if not ok:
                    failures.append({"t": census.t, "sign": comp.sign, "label": comp.label,
                                     "interior_extreme": comp.extremal_value,
                                     "contact_extreme": comp.extremal_contact_value})
        return {"holds": not failures, "witness": {"failures": failures, "slack": slack}}
    return _verdict("rem_1_5", hyps, evaluate)


# --------------------------------------------------------------------------
# scenario orchestration

@dataclass
class VerificationReport:
    scenario_name: str
    fingerprint: str
    grid: tuple
    refined_grid: tuple
    profile: BoundaryProfile
    points: list
    suspects: list
    censuses: list          # (tag, LevelSetCensus)
    contact_reports: list
    identity_reports: list
    verdicts: list
    warnings: list
    notes: list
    residuals: tuple
    solves: list            # per grid, coarse first: {"grid", "solved_by", "iterations"}

    def verdict(self, vid: str) -> TheoremVerdict:
        for v in self.verdicts:
            if v.id == vid:
                return v
        raise KeyError(vid)

    @property
    def failed(self) -> list:
        return [v for v in self.verdicts if v.applicable and v.holds is False]


def fingerprint_scenario(path_or_text) -> str:
    data = path_or_text if isinstance(path_or_text, bytes) else str(path_or_text).encode("utf-8")
    return hashlib.sha256(data).hexdigest()


def _stable_points(coarse, fine, drift: float):
    """Same count, and a one-to-one match with equal multiplicities within
    `drift` of each other (a perfect bipartite matching, whatever the order
    of the points); `run_scenario` allows two median coarse-cell diagonals."""
    if len(coarse) != len(fine):
        return False
    allowed = [[math.hypot(a.x - b.x, a.y - b.y) <= drift and a.multiplicity == b.multiplicity
                for b in fine] for a in coarse]
    graph = sp.csr_matrix(np.array(allowed, dtype=bool).reshape(len(coarse), len(fine)))
    return bool(np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0))


def run_scenario(spec: ScenarioSpec, fingerprint: str = "") -> VerificationReport:
    """Solve, detect, census and check one scenario on its grid and one refinement."""
    validate_scenario(spec)
    coarse_spec = spec
    fine_spec = spec.with_grid(FINE_FACTOR * spec.n_theta, FINE_FACTOR * spec.n_s)

    # both systems before the half grid's factor, which the coarse solve
    # builds: what is allocated while a factor lives keeps its memory from
    # being reused, which raised peak RSS by up to 30 MB
    coarse_system, fine_system = assemble(coarse_spec), assemble(fine_spec)
    coarse_field = solve(coarse_system)
    fine_field = solve(fine_system, coarse=coarse_system)  # over the configured grid's cycle
    del coarse_system, fine_system

    coarse_pts, _, _ = find_critical_points_report(coarse_field)
    points, suspects, warnings = find_critical_points_report(fine_field)

    if not _stable_points(coarse_pts, points, 2.0 * coarse_field.median_cell_diag()):
        raise UnstableCountsError(coarse_pts, points)

    field = fine_field
    rt = resolve_tolerances(field)
    profile = boundary_profile(field)

    T, S, X, Y = field.node_positions()
    has_first, has_zeroth = spec.operator.lower_order_terms(X, Y)

    # censuses at the levels of the value classes +/- epsilon, plus mid-band probes
    censuses = []
    eq = rt.equal_value_tol
    levels = [t for t, _ in value_classes(points, eq)]
    identity_levels = []
    for t in levels:
        eps = _census_offset(t, points, profile, eq)
        below, above = level_census(field, t - eps), level_census(field, t + eps)
        censuses += [(f"critical@{t:.9g}-eps", below), (f"critical@{t:.9g}+eps", above)]
        identity_levels.append((t, eps, below, above))
    for tag, lo, hi in _probe_intervals(profile):
        tmid = 0.5 * (lo + hi)
        if all(abs(tmid - v) > eq for v in levels):
            censuses.append((f"probe:{tag}@{tmid:.9g}", level_census(field, tmid)))

    contact_reports = [dict(check_component_contact(c, profile), tag=tag) for tag, c in censuses]
    identity_reports = [check_counting_identities(field, points, profile, *level)
                        for level in identity_levels]

    verdicts = [
        check_theorem_1_1(points, profile, has_zeroth),
        check_theorem_1_2(points, profile, has_zeroth),
        check_corollary_4_1(points, profile, has_zeroth),
        check_theorem_1_3(points, profile),
        check_theorem_1_4(points, profile),
        check_remark_5_1(points, profile),
        check_lemma_2_1(field, points),
        _aggregate_contact_verdict(contact_reports),
        check_lemma_2_4(points, profile, delta=eq),
        _aggregate_identity_verdict(identity_reports),
        check_remark_1_5(field, [c for _, c in censuses], not (has_first or has_zeroth)),
    ]

    if suspects:
        warnings.append(f"{len(suspects)} near-boundary critical-point suspect(s) excluded")

    return VerificationReport(
        scenario_name=spec.name,
        fingerprint=fingerprint,
        grid=coarse_spec.grid,
        refined_grid=fine_spec.grid,
        profile=profile,
        points=points,
        suspects=suspects,
        censuses=censuses,
        contact_reports=contact_reports,
        identity_reports=identity_reports,
        verdicts=verdicts,
        warnings=warnings,
        notes=list(spec.notes),
        residuals=(coarse_field.residual, fine_field.residual),
        solves=[{"grid": [f.n_theta, f.n_s], "solved_by": f.solved_by, "iterations": f.iterations}
                for f in (coarse_field, fine_field)],
    )


def _probe_intervals(profile: BoundaryProfile):
    """The lemma bands, or the whole boundary value range when no ordering
    case holds."""
    if profile.ordering_case() is not None:
        return profile.bands()
    lo, hi = profile.z2, profile.Z2
    if profile.interior is not None:
        lo = min(lo, profile.z1)
        hi = max(hi, profile.Z1)
    return [("range", lo, hi)] if hi > lo else []


def _aggregate_verdict(vid: str, hypothesis: str, reports, unreported: str, evaluate) -> TheoremVerdict:
    """A verdict over per-level reports: applicable when one of them is,
    holding when every applicable one holds, with the fields that
    `evaluate(applicable)` adds; otherwise not applicable for the first
    report's reason, or for `unreported` when there is no report."""
    applicable = [r for r in reports if r["applicable"]]
    return _verdict(vid, [_hyp(hypothesis, bool(applicable))],
                    lambda: {"holds": all(r["holds"] for r in applicable), **evaluate(applicable)},
                    reports[0].get("reason") if reports else unreported)


def _aggregate_contact_verdict(reports) -> TheoremVerdict:
    return _aggregate_verdict(
        "lem_2_2", "ordering case admits contact clauses", reports, "no censuses",
        lambda applicable: {"lhs": sum(len(r["failures"]) for r in applicable), "rhs": 0,
                            "witness": {"checked": len(applicable),
                                        "failures": [f for r in applicable for f in r["failures"]]}})


def _aggregate_identity_verdict(reports) -> TheoremVerdict:
    return _aggregate_verdict(
        "lem_2_5_2_7", "at least one in-band critical value", reports, "no critical values detected",
        lambda applicable: {"witness": {"values": [{k: r[k] for k in ("t", "clause", "lhs", "rhs", "holds")}
                                                   for r in applicable]}})
