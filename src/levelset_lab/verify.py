"""Theorem and lemma verdicts over detected critical points and censuses.

Each check states its hypotheses explicitly, reports "not applicable" with
the failed hypothesis when they do not hold, and otherwise compares exact
integers derived from counts.  A failed applicable check is a loud FAIL in
the report (CLI exit code 2), never an assertion baked into the pipeline.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import maximum_bipartite_matching

from . import expressions as ex
from .critical import (
    cluster_critical_sets,
    find_critical_points_report,
    resolve_tolerances,
    separating_network_through,
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
        return {
            "id": self.id, "applicable": self.applicable, "holds": self.holds,
            "lhs": self.lhs, "rhs": self.rhs,
            "hypotheses": self.hypotheses, "reason": self.reason,
            "witness": self.witness,
        }


def _hyp(name: str, held: bool) -> dict:
    return {"name": name, "held": bool(held)}


def _sum_m(points) -> int:
    return int(sum(p.multiplicity for p in points))


def _na(vid: str, hyps, reason: str) -> TheoremVerdict:
    return TheoremVerdict(id=vid, applicable=False, hypotheses=hyps, reason=reason)


def _first_failed(hyps) -> str:
    for h in hyps:
        if not h["held"]:
            return h["name"]
    return "unknown"


# --------------------------------------------------------------------------
# individual theorem checks

def check_theorem_1_1(points, profile: BoundaryProfile, has_zeroth_order: bool = False) -> TheoremVerdict:
    """Sum of interior multiplicities bounded by the total boundary maxima count."""
    hyps = [
        _hyp("domain is multiply connected", profile.interior is not None),
        _hyp("interior trace non-constant", profile.interior is not None and not profile.interior.is_constant),
        _hyp("exterior trace non-constant", not profile.exterior.is_constant),
        _hyp("no zeroth-order term", not has_zeroth_order),
    ]
    if not all(h["held"] for h in hyps):
        return _na("thm_1_1", hyps, f"hypothesis failed: {_first_failed(hyps)}")
    lhs = _sum_m(points)
    rhs = profile.interior.maxima_count + profile.exterior.maxima_count
    return TheoremVerdict(
        id="thm_1_1", applicable=True, holds=bool(lhs <= rhs), lhs=lhs, rhs=int(rhs),
        hypotheses=hyps,
        witness={"N1": profile.interior.maxima_count, "N2": profile.exterior.maxima_count},
    )


def _trichotomy(vid: str, ordering_name: str, ordering_held: bool,
                points, profile: BoundaryProfile, has_zeroth_order: bool) -> TheoremVerdict:
    inner, outer = profile.interior, profile.exterior
    hyps = [
        _hyp("domain is multiply connected", inner is not None),
        _hyp("no zeroth-order term", not has_zeroth_order),
        _hyp("interior trace non-constant", inner is not None and not inner.is_constant),
        _hyp("exterior trace non-constant", not outer.is_constant),
        _hyp(ordering_name, ordering_held),
    ]
    if inner is not None and not inner.is_constant and not outer.is_constant:
        hyps.extend([
            _hyp("equal local maxima on gamma_I", bool(inner.equal_maxima)),
            _hyp("equal local minima on gamma_I", bool(inner.equal_minima)),
            _hyp("equal local maxima on gamma_E", bool(outer.equal_maxima)),
            _hyp("equal local minima on gamma_E", bool(outer.equal_minima)),
            _hyp("matching maxima/minima counts", inner.maxima_count == inner.minima_count
                 and outer.maxima_count == outer.minima_count),
        ])
        closure_ok = all(e.relative_to_closure for e in inner.maxima + inner.minima
                         + outer.maxima + outer.minima)
        hyps.append(_hyp("all boundary extrema relative to the closure", closure_ok))
    if not all(h["held"] for h in hyps):
        return _na(vid, hyps, f"hypothesis failed: {_first_failed(hyps)}")
    lhs = _sum_m(points)
    rhs = inner.maxima_count + outer.maxima_count
    return TheoremVerdict(
        id=vid, applicable=True, holds=bool(lhs in (rhs, rhs - 1, rhs - 2)),
        lhs=lhs, rhs=int(rhs), hypotheses=hyps,
        witness={"admissible": [rhs - 2, rhs - 1, rhs], "N1": inner.maxima_count, "N2": outer.maxima_count},
    )


def check_theorem_1_2(points, profile: BoundaryProfile, has_zeroth_order: bool = False) -> TheoremVerdict:
    """Equal closure-relative extrema with separated ranges force the
    multiplicity sum into {N-2, N-1, N}."""
    held = (profile.interior is not None and not profile.interior.is_constant
            and not profile.exterior.is_constant and profile.z2 >= profile.Z1)
    return _trichotomy("thm_1_2", "min psi_2 >= max psi_1 (z2 >= Z1)", held,
                       points, profile, has_zeroth_order)


def check_corollary_4_1(points, profile: BoundaryProfile, has_zeroth_order: bool = False) -> TheoremVerdict:
    """Same trichotomy under the interleaved ordering z1 < z2 < Z1 < Z2."""
    held = profile.ordering_case() == "interleaved"
    return _trichotomy("cor_4_1", "ordering z1 < z2 < Z1 < Z2", held,
                       points, profile, has_zeroth_order)


def check_theorem_1_3(points, profile: BoundaryProfile, h_value: float | None) -> TheoremVerdict:
    """Critical zero points against half the exterior sign-change count,
    minus one when the constant interior datum vanishes."""
    inner, outer = profile.interior, profile.exterior
    hyps = [
        _hyp("domain is multiply connected", inner is not None),
        _hyp("interior trace constant", inner is not None and inner.is_constant),
        _hyp("exterior trace sign-changing", outer.sign_changing),
    ]
    if not all(h["held"] for h in hyps):
        return _na("thm_1_3", hyps, f"hypothesis failed: {_first_failed(hyps)}")
    zeros = [p for p in points if p.is_zero]
    lhs = _sum_m(zeros)
    n_tilde = outer.sign_changes
    H = h_value if h_value is not None else inner.min_value
    rhs = n_tilde // 2 if H != 0.0 else n_tilde // 2 - 1
    verdict = TheoremVerdict(
        id="thm_1_3", applicable=True, holds=bool(lhs <= rhs), lhs=lhs, rhs=int(rhs),
        hypotheses=hyps, witness={"H": H, "N_tilde": n_tilde},
    )
    if n_tilde % 2:
        verdict.witness["warning"] = "odd exterior sign-change count"
    return verdict


def check_theorem_1_4(points, profile: BoundaryProfile) -> TheoremVerdict:
    """Critical zero points against half the total boundary sign-change count."""
    inner, outer = profile.interior, profile.exterior
    hyps = [
        _hyp("domain is multiply connected", inner is not None),
        _hyp("interior trace sign-changing", inner is not None and inner.sign_changing),
        _hyp("exterior trace sign-changing", outer.sign_changing),
    ]
    if not all(h["held"] for h in hyps):
        return _na("thm_1_4", hyps, f"hypothesis failed: {_first_failed(hyps)}")
    zeros = [p for p in points if p.is_zero]
    lhs = _sum_m(zeros)
    rhs = (inner.sign_changes + outer.sign_changes) // 2
    return TheoremVerdict(
        id="thm_1_4", applicable=True, holds=bool(lhs <= rhs), lhs=lhs, rhs=int(rhs),
        hypotheses=hyps,
        witness={"N1_tilde": inner.sign_changes, "N2_tilde": outer.sign_changes},
    )


def check_remark_5_1(points, profile: BoundaryProfile) -> TheoremVerdict:
    """Simply connected domain: critical zero points against N~/2 - 1."""
    hyps = [
        _hyp("domain is simply connected", profile.interior is None),
        _hyp("boundary trace sign-changing", profile.exterior.sign_changing),
    ]
    if not all(h["held"] for h in hyps):
        return _na("rem_5_1", hyps, f"hypothesis failed: {_first_failed(hyps)}")
    zeros = [p for p in points if p.is_zero]
    lhs = _sum_m(zeros)
    rhs = profile.exterior.sign_changes // 2 - 1
    return TheoremVerdict(
        id="rem_5_1", applicable=True, holds=bool(lhs <= rhs), lhs=lhs, rhs=int(rhs),
        hypotheses=hyps, witness={"N_tilde": profile.exterior.sign_changes},
    )


def check_lemma_2_4(points, profile: BoundaryProfile, delta: float) -> TheoremVerdict:
    """No critical value inside [Z1 + delta, z2 - delta] (separated ordering)."""
    hyps = [_hyp("ordering z1 < Z1 <= z2 < Z2", profile.ordering_case() == "separated")]
    if not all(h["held"] for h in hyps):
        return _na("lem_2_4", hyps, f"hypothesis failed: {_first_failed(hyps)}")
    lo, hi = profile.Z1 + delta, profile.z2 - delta
    offenders = [p.as_dict() for p in points if lo <= p.value <= hi]
    return TheoremVerdict(
        id="lem_2_4", applicable=True, holds=not offenders,
        lhs=len(offenders), rhs=0, hypotheses=hyps,
        witness={"band": [lo, hi], "offenders": offenders},
    )


def check_lemma_2_1(field: SolutionField, points) -> TheoremVerdict:
    """Each critical point shows m + 1 super and sub components near it."""
    if not points:
        return _na("lem_2_1", [_hyp("at least one critical point", False)],
                   "hypothesis failed: at least one critical point")
    results = []
    ok = True
    for p in points:
        try:
            sup, sub = local_structure(field, p)
        except LevelSetLabError as err:
            results.append({"point": p.as_dict(), "error": str(err)})
            ok = False
            continue
        good = (sup == p.multiplicity + 1) and (sub == p.multiplicity + 1)
        ok = ok and good
        results.append({"point": p.as_dict(), "supers": sup, "subs": sub,
                        "expected": p.multiplicity + 1, "holds": good})
    return TheoremVerdict(
        id="lem_2_1", applicable=True, holds=ok,
        hypotheses=[_hyp("at least one critical point", True)],
        witness={"points": results},
    )


# --------------------------------------------------------------------------
# counting identities (one critical value at a time)

def _contact_simply_connected_count(field: SolutionField, t: float, sign: str, boundary: str) -> int:
    census = level_census(field, t, want_topology=True)
    n = 0
    for comp in census.counted(sign):
        touches = comp.touches_exterior if boundary == "exterior" else comp.touches_interior
        if touches and comp.simply_connected:
            n += 1
    return n


def check_counting_identities(field: SolutionField, points, profile: BoundaryProfile,
                              t: float, tol=None) -> dict:
    """Component-count identities at one detected critical value t.

    Selects the applicable clause from the ordering case, the band of t and
    the presence of a separating closed level curve through a critical point;
    counts are taken from censuses at t -/+ epsilon so that the open sets
    {u < t} and {u > t} are sampled away from the level set itself.
    """
    rt = resolve_tolerances(field, tol)
    case = profile.ordering_case()
    report = {"t": t, "ordering_case": case, "applicable": False, "holds": None,
              "clause": None, "details": {}}
    if case is None:
        report["reason"] = ("ordering case fails: need z1 < Z1 <= z2 < Z2 or z1 < z2 < Z1 < Z2"
                            if profile.interior is not None else "domain is simply connected")
        if (profile.interior is not None and not profile.interior.is_constant
                and not profile.exterior.is_constant and profile.Z1 > profile.z2
                and profile.z1 < profile.z2):
            report["reason"] = f"ordering case fails: Z1 = {profile.Z1:.6g} > z2 = {profile.z2:.6g}"
        return report

    eq = rt.equal_value_tol
    at_t = [p for p in points if abs(p.value - t) <= eq]
    if not at_t:
        report["reason"] = "no critical point at t"
        return report

    z1, Z1, z2, Z2 = profile.z1, profile.Z1, profile.z2, profile.Z2
    if case == "separated":
        band = "upper" if z2 < t < Z2 else ("lower" if z1 < t < Z1 else None)
    else:
        band = ("upper" if Z1 <= t < Z2 else
                ("middle" if z2 < t < Z1 else
                 ("lower" if z1 < t <= z2 else None)))
    if band is None:
        report["reason"] = f"critical value {t:.6g} outside the lemma bands"
        return report
    report["band"] = band

    same_band = [p for p in points if _value_band(p.value, profile, case) == band]
    if any(abs(p.value - t) > eq for p in same_band):
        report["reason"] = "critical values in this band are not all equal"
        return report

    sum_m = _sum_m(at_t)
    try:
        q = cluster_critical_sets(field, at_t, t, tol)
    except BandTooWideError as err:
        report["reason"] = f"cluster banding failed: {err}"
        return report
    eps = min(10.0 * eq, 0.25 * _gap_to_next_breakpoint(t, points, profile, eq))
    sep = separating_network_through(field, at_t, t)
    report["details"].update({"sum_m": sum_m, "q": q, "epsilon": eps, "separating_curve": sep})
    report["applicable"] = True

    if case == "separated":
        if band == "upper":
            if sep:
                report["clause"] = "sub-level simply connected contact count (upper band, separating curve)"
                lhs = _contact_simply_connected_count(field, t - eps, "sub", "exterior")
                rhs = sum_m + q - 1
                report["details"].update({"contact_count": lhs})
                report["holds"] = lhs == rhs
            else:
                c_hi = level_census(field, t + eps)
                c_lo = level_census(field, t - eps)
                M1, M2 = c_hi.M1, c_lo.M2
                report["clause"] = "M1 + M2 = 2 sum_m + q + 1 (upper band)"
                report["details"].update({"M1": M1, "M2": M2})
                lhs = M1 + M2
                rhs = 2 * sum_m + q + 1
                report["holds"] = (lhs == rhs) and M1 >= sum_m + 1 and M2 >= sum_m + 1
        else:
            if sep:
                report["clause"] = "super-level simply connected contact count (lower band, separating curve)"
                lhs = _contact_simply_connected_count(field, t + eps, "super", "interior")
                rhs = sum_m + q - 1
                report["details"].update({"contact_count": lhs})
                report["holds"] = lhs == rhs
            else:
                report["clause"] = "band components: M~1 + M~2 = 2 sum_m + q + 1 (lower band)"
                M1t = region_components(field, t + eps, z2 - eps)
                M2t = level_census(field, t - eps).M2
                report["details"].update({"M1_tilde": M1t, "M2_tilde": M2t})
                lhs = M1t + M2t
                rhs = 2 * sum_m + q + 1
                report["holds"] = (lhs == rhs) and M1t >= sum_m + 1 and M2t >= sum_m + 1
    else:
        if band == "middle":
            c_hi = level_census(field, t + eps)
            c_lo = level_census(field, t - eps)
            M1, M2 = c_hi.M1, c_lo.M2
            report["details"].update({"M1": M1, "M2": M2})
            lhs = M1 + M2
            if sep:
                report["clause"] = "M1 + M2 = 2 sum_m + q - 1 (middle band, separating curve)"
                rhs = 2 * sum_m + q - 1
                report["holds"] = (lhs == rhs) and M1 >= sum_m and M2 >= sum_m
            else:
                report["clause"] = "M1 + M2 = 2 sum_m + q + 1 (middle band)"
                rhs = 2 * sum_m + q + 1
                report["holds"] = (lhs == rhs) and M1 >= sum_m + 1 and M2 >= sum_m + 1
        elif band == "upper":
            if sep:
                report["clause"] = "sub-level contact count >= sum_m + q - 1 (upper band)"
                lhs = _contact_simply_connected_count(field, t - eps, "sub", "exterior")
                rhs = sum_m + q - 1
            else:
                report["clause"] = "super-level contact count >= sum_m + 1 (upper band)"
                lhs = _contact_simply_connected_count(field, t + eps, "super", "exterior")
                rhs = sum_m + 1
            report["details"].update({"contact_count": lhs})
            report["holds"] = lhs >= rhs
        else:
            if sep:
                report["clause"] = "super-level contact count >= sum_m + q - 1 (lower band)"
                lhs = _contact_simply_connected_count(field, t + eps, "super", "interior")
                rhs = sum_m + q - 1
            else:
                report["clause"] = "sub-level contact count >= sum_m + 1 (lower band)"
                lhs = _contact_simply_connected_count(field, t - eps, "sub", "interior")
                rhs = sum_m + 1
            report["details"].update({"contact_count": lhs})
            report["holds"] = lhs >= rhs
    report["lhs"] = int(lhs)
    report["rhs"] = int(rhs)
    return report


def _value_band(v: float, profile: BoundaryProfile, case: str) -> str | None:
    z1, Z1, z2, Z2 = profile.z1, profile.Z1, profile.z2, profile.Z2
    if case == "separated":
        if z2 < v < Z2:
            return "upper"
        if z1 < v < Z1:
            return "lower"
        return None
    if Z1 <= v < Z2:
        return "upper"
    if z2 < v < Z1:
        return "middle"
    if z1 < v <= z2:
        return "lower"
    return None


def _gap_to_next_breakpoint(t: float, points, profile: BoundaryProfile, same_tol: float) -> float:
    """Distance from t to the nearest other critical or boundary-extreme
    value; values within `same_tol` of t count as t itself."""
    marks = {p.value for p in points}
    for v in (profile.z1, profile.Z1, profile.z2, profile.Z2):
        if v is not None:
            marks.add(v)
    gaps = [abs(v - t) for v in marks if abs(v - t) > same_tol]
    return min(gaps) if gaps else abs(t) + 1.0


# --------------------------------------------------------------------------
# strong-maximum-principle surrogate

def check_remark_1_5(field: SolutionField, censuses, pure_diffusion: bool) -> TheoremVerdict:
    """Super components attain their maximum on boundary-contact cells
    (and sub components their minimum), for pure second-order operators."""
    hyps = [
        _hyp("operator has no first- or zeroth-order terms", pure_diffusion),
        _hyp("at least one census computed", bool(censuses)),
    ]
    if not all(h["held"] for h in hyps):
        return _na("rem_1_5", hyps, f"hypothesis failed: {_first_failed(hyps)}")
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
    return TheoremVerdict(
        id="rem_1_5", applicable=True, holds=not failures,
        hypotheses=hyps, witness={"failures": failures, "slack": slack},
    )


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


def _stable_points(coarse, fine, cell: float):
    """Same count, and a one-to-one match with equal multiplicities within
    one coarse cell of drift (a perfect bipartite matching, whatever the
    order of the points)."""
    if len(coarse) != len(fine):
        return False
    allowed = [[math.hypot(a.x - b.x, a.y - b.y) <= cell and a.multiplicity == b.multiplicity
                for b in fine] for a in coarse]
    graph = sp.csr_matrix(np.array(allowed, dtype=bool).reshape(len(coarse), len(fine)))
    return bool(np.all(maximum_bipartite_matching(graph, perm_type="column") >= 0))


def run_scenario(spec: ScenarioSpec, fingerprint: str = "", refine_factor: int = 2) -> VerificationReport:
    """Solve, detect, census and check one scenario on its grid and one refinement."""
    validate_scenario(spec)
    coarse_spec = spec
    fine_spec = spec.with_grid(refine_factor * spec.n_theta, refine_factor * spec.n_s)

    coarse_field = solve(assemble(coarse_spec))
    fine_field = solve(assemble(fine_spec))

    coarse_pts, _, _ = find_critical_points_report(coarse_field)
    points, suspects, warnings = find_critical_points_report(fine_field)

    coarse_diag = 2.0 * coarse_field.median_cell_diag()
    if not _stable_points(coarse_pts, points, coarse_diag):
        raise UnstableCountsError(coarse_pts, points)

    field = fine_field
    rt = resolve_tolerances(field)
    profile = boundary_profile(field)

    T, S, X, Y = field.node_positions()
    pure_diffusion = spec.operator.is_pure_diffusion(X, Y)
    has_zeroth = spec.operator.c is not None

    # censuses at critical values +/- epsilon, plus mid-band probes
    censuses = []
    eq = rt.equal_value_tol
    distinct_values = []
    for p in points:
        if all(abs(p.value - v) > eq for v in distinct_values):
            distinct_values.append(p.value)
    for t in distinct_values:
        eps = min(10.0 * eq, 0.25 * _gap_to_next_breakpoint(t, points, profile, eq))
        censuses.append((f"critical@{t:.9g}-eps", level_census(field, t - eps)))
        censuses.append((f"critical@{t:.9g}+eps", level_census(field, t + eps)))
    for tag, lo, hi in _probe_intervals(profile):
        tmid = 0.5 * (lo + hi)
        if all(abs(tmid - v) > eq for v in distinct_values):
            censuses.append((f"probe:{tag}@{tmid:.9g}", level_census(field, tmid)))

    contact_reports = [dict(check_component_contact(c, profile), tag=tag) for tag, c in censuses]

    identity_reports = []
    for t in distinct_values:
        identity_reports.append(check_counting_identities(field, points, profile, t))

    verdicts = [
        check_theorem_1_1(points, profile, has_zeroth),
        check_theorem_1_2(points, profile, has_zeroth),
        check_corollary_4_1(points, profile, has_zeroth),
        check_theorem_1_3(points, profile, _constant_interior_value(spec, profile)),
        check_theorem_1_4(points, profile),
        check_remark_5_1(points, profile),
        check_lemma_2_1(field, points),
        _aggregate_contact_verdict(contact_reports),
        check_lemma_2_4(points, profile, delta=eq),
        _aggregate_identity_verdict(identity_reports),
        check_remark_1_5(field, [c for _, c in censuses], pure_diffusion),
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
    )


def _constant_interior_value(spec: ScenarioSpec, profile: BoundaryProfile) -> float | None:
    if spec.psi_interior is None or profile.interior is None:
        return None
    if not profile.interior.is_constant:
        return None
    if ex.is_constant(spec.psi_interior):
        return float(ex.evaluate_env(spec.psi_interior, {}))
    return 0.5 * (profile.interior.min_value + profile.interior.max_value)


def _probe_intervals(profile: BoundaryProfile):
    case = profile.ordering_case()
    if case is None:
        lo, hi = profile.z2, profile.Z2
        if profile.interior is not None:
            lo = min(lo, profile.z1)
            hi = max(hi, profile.Z1)
        if hi > lo:
            yield "range", lo, hi
        return
    z1, Z1, z2, Z2 = profile.z1, profile.Z1, profile.z2, profile.Z2
    if case == "separated":
        yield "upper", z2, Z2
        yield "lower", z1, Z1
    else:
        yield "upper", Z1, Z2
        yield "middle", z2, Z1
        yield "lower", z1, z2


def _aggregate_contact_verdict(reports) -> TheoremVerdict:
    applicable = [r for r in reports if r["applicable"]]
    if not applicable:
        reason = reports[0].get("reason", "no applicable census") if reports else "no censuses"
        return _na("lem_2_2", [_hyp("ordering case admits contact clauses", False)], reason)
    ok = all(r["holds"] for r in applicable)
    return TheoremVerdict(
        id="lem_2_2", applicable=True, holds=ok,
        lhs=sum(len(r["failures"]) for r in applicable), rhs=0,
        hypotheses=[_hyp("ordering case admits contact clauses", True)],
        witness={"checked": len(applicable),
                 "failures": [f for r in applicable for f in r["failures"]]},
    )


def _aggregate_identity_verdict(reports) -> TheoremVerdict:
    applicable = [r for r in reports if r["applicable"]]
    if not applicable:
        reason = reports[0].get("reason", "no critical values detected") if reports else "no critical values detected"
        return _na("lem_2_5_2_7", [_hyp("at least one in-band critical value", False)], reason)
    ok = all(r["holds"] for r in applicable)
    return TheoremVerdict(
        id="lem_2_5_2_7", applicable=True, holds=ok,
        hypotheses=[_hyp("at least one in-band critical value", True)],
        witness={"values": [{k: r[k] for k in ("t", "clause", "lhs", "rhs", "holds")} for r in applicable]},
    )
