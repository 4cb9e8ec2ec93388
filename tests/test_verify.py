"""Theorem/lemma verdicts: applicability gates, bounds, counting identities."""

import json
import math
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest

from conftest import BUILTIN_NAMES, builtin_report, builtin_spec, field_from_function, make_scenario, solved_field
from test_benchmark_reference import wl
from levelset_lab import expressions as ex
from levelset_lab.cli import builtin_scenario_dir, report_to_dict
from levelset_lab.critical import CriticalPoint, find_critical_points
from levelset_lab.domain import EllipticOperator, ToleranceSet, scenario_from_dict
from levelset_lab.errors import BandTooWideError, UnstableCountsError
from levelset_lab.solver import SolutionField, resolve_tolerances, solve_scenario
from levelset_lab.topology import (
    BoundaryExtremum,
    BoundaryProfile,
    LevelComponent,
    LevelSetCensus,
    TraceProfile,
    boundary_profile,
    level_census,
)
from levelset_lab.verify import (
    VERDICT_IDS,
    _census_offset,
    _stable_points,
    check_corollary_4_1,
    check_counting_identities,
    check_lemma_2_1,
    check_lemma_2_4,
    check_remark_1_5,
    check_remark_5_1,
    check_theorem_1_1,
    check_theorem_1_2,
    check_theorem_1_3,
    check_theorem_1_4,
    run_scenario,
)


def fake_point(x, y, value, m, zero=False):
    return CriticalPoint(x=x, y=y, value=value, multiplicity=m, is_zero=zero,
                         degree_radius=0.1)


# ------------------------------------------------------------- theorem 1.1

def test_thm_1_1_equality_z_plus_inv():
    fld = solved_field("z_plus_inv", 128, 64)
    verdict = check_theorem_1_1(find_critical_points(fld), boundary_profile(fld))
    assert verdict.applicable and verdict.holds
    assert verdict.lhs == 2 and verdict.rhs == 2


def test_thm_1_1_counterexample_zero_points():
    fld = solved_field("counterexample1", 128, 64)
    verdict = check_theorem_1_1(find_critical_points(fld), boundary_profile(fld))
    assert verdict.applicable and verdict.holds
    assert verdict.lhs == 0 and verdict.rhs == 7


def test_thm_1_1_negative_path_with_injected_points():
    fld = solved_field("counterexample1", 128, 64)
    profile = boundary_profile(fld)
    fakes = [fake_point(4.0 + 0.1 * k, 0.0, 1.7, 2) for k in range(4)]  # sum m = 8 > 7
    verdict = check_theorem_1_1(fakes, profile)
    assert verdict.applicable and verdict.holds is False
    assert verdict.lhs == 8 and verdict.rhs == 7


# ------------------------------------------------------------- theorem 1.2

def test_thm_1_2_applicable_equality_case():
    """Wide annulus with one extremum per boundary: both boundary extrema are
    closure-relative, two saddles exist and the sum of multiplicities matches
    N1 + N2 exactly."""
    spec = make_scenario("16", "1", "2 + 0.9*cos(theta)", "sin(theta)",
                         grid=(128, 128), name="tricho",
                         tolerances=ToleranceSet(interior_margin=0.015))
    report = run_scenario(spec)
    assert [round(p.value, 3) for p in report.points] == [0.955, 1.12]
    v = report.verdict("thm_1_2")
    assert v.applicable and v.holds
    assert v.lhs == 2 and v.rhs == 2
    # companion counting identities hold at both critical values
    v = report.verdict("lem_2_5_2_7")
    assert v.applicable and v.holds
    for r in report.identity_reports:
        assert r["applicable"] and r["holds"]
        assert r["details"]["separating_curve"]
    v = report.verdict("lem_2_4")
    assert v.applicable and v.holds


def test_thm_1_2_not_applicable_for_counterexample1():
    rep = builtin_report("counterexample1")
    v = rep.verdict("thm_1_2")
    assert not v.applicable
    assert "relative to the closure" in v.reason


def test_thm_1_2_not_applicable_for_degenerate_trace():
    fld = solved_field("log_annulus", 64, 32)
    verdict = check_theorem_1_2([], boundary_profile(fld))
    assert not verdict.applicable
    assert "non-constant" in v_reason(verdict)


def v_reason(verdict):
    return verdict.reason or ""


# ------------------------------------------------------------- theorem 1.3

def test_thm_1_3_zero_h_separated_solution():
    # u = (4/15)(r^2 - r^-2) cos 2 theta on 1..2: critical points sit on the
    # inner boundary, none interior; N~ = 4 and 0 <= 4/2 - 1
    spec = make_scenario("2", "1", "cos(2*theta)", "0", grid=(128, 64), name="t13a")
    fld = solve_scenario(spec)
    pts = find_critical_points(fld)
    verdict = check_theorem_1_3(pts, boundary_profile(fld))
    assert verdict.applicable and verdict.holds
    assert verdict.lhs == 0 and verdict.rhs == 1


def test_thm_1_3_nonzero_h_bound():
    spec = make_scenario("2", "1", "2*cos(2*theta)", "1", grid=(128, 64), name="t13b")
    fld = solve_scenario(spec)
    pts = find_critical_points(fld)
    verdict = check_theorem_1_3(pts, boundary_profile(fld))
    assert verdict.applicable and verdict.holds
    assert verdict.rhs == 2


def test_thm_1_3_reads_h_within_value_zero_tol_as_zero():
    """A constant interior datum within value_zero_tol of 0 (4e-3 here) is
    H = 0, so the bound is N~/2 - 1, as for the datum 0."""
    fld = solve_scenario(make_scenario("2", "1", "cos(2*theta)", "1e-3", grid=(64, 32), name="t13z"))
    profile = boundary_profile(fld)
    assert profile.interior.constant_value == 0.0
    verdict = check_theorem_1_3(find_critical_points(fld), profile)
    assert verdict.applicable and (verdict.lhs, verdict.rhs) == (0, 1)
    assert verdict.witness == {"H": 0.0, "N_tilde": 4}


def test_thm_1_3_not_applicable_nonconstant_interior():
    fld = solved_field("z2_minus_zm2", 128, 64)
    verdict = check_theorem_1_3(find_critical_points(fld), boundary_profile(fld))
    assert not verdict.applicable
    assert "constant" in verdict.reason


def test_zero_interior_datum_up_to_round_off_reads_as_zero():
    """On r = 1, x^2 + y^2 - 1 and r - 1 vanish up to round-off (+-2e-16):
    the interior trace is constant, H is zero, and every verdict is that of
    the datum 0."""
    def verdicts(psi_interior):
        report = run_scenario(make_scenario("3", "1", "sin(2*theta)", psi_interior, grid=(64, 32), name="h0"))
        assert report.profile.interior.is_constant
        # rem_1_5's witness holds a slack read off the solved field
        return [(v.id, v.applicable, v.holds, v.lhs, v.rhs, v.hypotheses, v.reason,
                 v.witness["failures"] if v.id == "rem_1_5" else v.witness) for v in report.verdicts]

    want = verdicts("0")
    assert want[3] == ("thm_1_3", True, True, 0, 1, want[3][5], None, {"H": 0.0, "N_tilde": 4})
    assert verdicts("x^2 + y^2 - 1") == want
    assert verdicts("r - 1") == want


@pytest.mark.parametrize("psi_interior", ["1/3", "-0.7 * pi"])
def test_constant_interior_datum_is_its_expression_bit_for_bit(psi_interior):
    """H is read off the interior trace, whose samples of a constant
    expression are all the expression's own float."""
    report = run_scenario(make_scenario("3", "1", "sin(2*theta)", psi_interior, grid=(64, 32), name="h"))
    v = report.verdict("thm_1_3")
    assert v.applicable
    assert v.witness["H"] == ex.evaluate_env(ex.parse_expression(psi_interior), {})


# ------------------------------------------------------------- theorem 1.4

def test_thm_1_4_equality_z2m():
    fld = solved_field("z2_minus_zm2", 128, 64)
    verdict = check_theorem_1_4(find_critical_points(fld), boundary_profile(fld))
    assert verdict.applicable and verdict.holds
    assert verdict.lhs == 4 and verdict.rhs == 4


def test_thm_1_4_z_plus_inv_no_critical_zeros():
    fld = solved_field("z_plus_inv", 128, 64)
    verdict = check_theorem_1_4(find_critical_points(fld), boundary_profile(fld))
    assert verdict.applicable and verdict.holds
    assert verdict.lhs == 0 and verdict.rhs == 2


def test_thm_1_4_not_applicable_one_sided_trace():
    fld = solved_field("band_annulus", 128, 64)
    verdict = check_theorem_1_4(find_critical_points(fld), boundary_profile(fld))
    assert not verdict.applicable
    assert "sign-changing" in verdict.reason


# -------------------------------------------------------------- remark 5.1

def test_rem_5_1_disk_equalities():
    for name, want in (("disk_z2", (1, 1)), ("disk_z3", (2, 2))):
        fld = solved_field(name, 128, 64)
        verdict = check_remark_5_1(find_critical_points(fld), boundary_profile(fld))
        assert verdict.applicable and verdict.holds
        assert (verdict.lhs, verdict.rhs) == want


def test_rem_5_1_not_applicable_positive_trace():
    spec = make_scenario("1", None, "1 + 0.5*cos(theta)", None, grid=(64, 32), name="pos")
    fld = solve_scenario(spec)
    verdict = check_remark_5_1(find_critical_points(fld), boundary_profile(fld))
    assert not verdict.applicable
    assert "sign-changing" in verdict.reason


# ---------------------------------------------------------------- lemma 2.4

def test_lemma_2_4_band_annulus():
    rep = builtin_report("band_annulus")
    v = rep.verdict("lem_2_4")
    assert v.applicable and v.holds
    lo, hi = v.witness["band"]
    assert lo == pytest.approx(0.1, abs=1e-2)
    assert hi == pytest.approx(4.0, abs=1e-2)


def test_lemma_2_4_flags_offender():
    fld = solved_field("band_annulus", 128, 64)
    profile = boundary_profile(fld)
    bad = [fake_point(1.5, 0.0, 2.0, 1)]  # value 2.0 inside [Z1, z2] = [0.1, 4]
    verdict = check_lemma_2_4(bad, profile, delta=1e-3)
    assert verdict.applicable and verdict.holds is False
    assert verdict.lhs == 1


# ------------------------------------------- verdict arithmetic, hand-built

def _trace(which, lo, hi, n_max=0, n_min=None, sign_changes=0, closure=True):
    """A trace on [lo, hi] with `n_max` equal maxima and `n_min` (default
    `n_max`) equal minima; constant when lo == hi."""
    n_min = n_max if n_min is None else n_min
    const = lo == hi

    def ext(n, value, kind):
        return [BoundaryExtremum(theta=k + 0.5 * (kind == "min"), value=value, kind=kind,
                                 relative_to_closure=closure) for k in range(n)]

    return TraceProfile(which=which, constant_value=lo if const else None, min_value=lo, max_value=hi,
                        maxima=[] if const else ext(n_max, hi, "max"),
                        minima=[] if const else ext(n_min, lo, "min"),
                        sign_changes=sign_changes, tangential_zeros=0,
                        equal_maxima=None if const else True, equal_minima=None if const else True)


# N1 = 2 and N2 = 3, so N = 5, in both ordering cases
SEPARATED = BoundaryProfile(exterior=_trace("exterior", 2.0, 3.0, 3), interior=_trace("interior", 0.0, 1.0, 2))
INTERLEAVED = BoundaryProfile(exterior=_trace("exterior", 1.0, 3.0, 3), interior=_trace("interior", 0.0, 2.0, 2))

TRICHOTOMY_HYPOTHESES = [
    "domain is multiply connected", "no zeroth-order term", "interior trace non-constant",
    "exterior trace non-constant", None, "equal local maxima on gamma_I", "equal local minima on gamma_I",
    "equal local maxima on gamma_E", "equal local minima on gamma_E", "matching maxima/minima counts",
    "all boundary extrema relative to the closure",
]


def _points_summing_to(total, zero=False):
    """Points of multiplicity 2 and one of multiplicity 1 with sum `total`."""
    ms = [2] * (total // 2) + [1] * (total % 2)
    return [fake_point(1.5 + 0.1 * k, 0.0, 0.5, m, zero=zero) for k, m in enumerate(ms)]


@pytest.mark.parametrize("check, profile, ordering", [
    (check_theorem_1_2, SEPARATED, "min psi_2 >= max psi_1 (z2 >= Z1)"),
    (check_corollary_4_1, INTERLEAVED, "ordering z1 < z2 < Z1 < Z2"),
], ids=["thm_1_2", "cor_4_1"])
@pytest.mark.parametrize("lhs, holds", [(2, False), (3, True), (5, True), (6, False)])
def test_trichotomy_arithmetic(check, profile, ordering, lhs, holds):
    """The multiplicity sum must lie in {N-2, N-1, N}: N-3 and N+1 fail."""
    v = check(_points_summing_to(lhs), profile)
    assert v.as_dict() == {
        "id": v.id, "applicable": True, "holds": holds, "lhs": lhs, "rhs": 5,
        "hypotheses": [{"name": n or ordering, "held": True} for n in TRICHOTOMY_HYPOTHESES],
        "reason": None, "witness": {"admissible": [3, 4, 5], "N1": 2, "N2": 3},
    }
    assert list(v.witness) == ["admissible", "N1", "N2"]


def test_trichotomy_ordering_and_extremum_hypotheses():
    """Each ordering case makes the other check not applicable; a zeroth-order
    term, or one extremum that is not closure-relative, does too."""
    v = check_theorem_1_2(_points_summing_to(5), INTERLEAVED)
    assert (v.applicable, v.reason) == (False, "hypothesis failed: min psi_2 >= max psi_1 (z2 >= Z1)")
    v = check_corollary_4_1(_points_summing_to(5), SEPARATED)
    assert (v.applicable, v.reason) == (False, "hypothesis failed: ordering z1 < z2 < Z1 < Z2")
    v = check_theorem_1_2([], SEPARATED, has_zeroth_order=True)
    assert (v.applicable, v.reason) == (False, "hypothesis failed: no zeroth-order term")
    assert [h["held"] for h in v.hypotheses] == [True, False] + [True] * 9
    lopsided = BoundaryProfile(exterior=_trace("exterior", 2.0, 3.0, 3, closure=False),
                               interior=SEPARATED.interior)
    v = check_theorem_1_2([], lopsided)
    assert v.reason == "hypothesis failed: all boundary extrema relative to the closure"
    unmatched = BoundaryProfile(exterior=_trace("exterior", 2.0, 3.0, 3, n_min=2), interior=SEPARATED.interior)
    v = check_theorem_1_2([], unmatched)
    assert v.reason == "hypothesis failed: matching maxima/minima counts"


def test_trichotomy_constant_interior_lists_five_hypotheses():
    profile = BoundaryProfile(exterior=SEPARATED.exterior, interior=_trace("interior", 1.0, 1.0))
    for check, ordering in ((check_theorem_1_2, "min psi_2 >= max psi_1 (z2 >= Z1)"),
                            (check_corollary_4_1, "ordering z1 < z2 < Z1 < Z2")):
        v = check([], profile)
        assert not v.applicable and v.reason == "hypothesis failed: interior trace non-constant"
        assert v.hypotheses == [{"name": n or ordering, "held": n != "interior trace non-constant" and n is not None}
                                for n in TRICHOTOMY_HYPOTHESES[:5]]


def test_trichotomy_simply_connected():
    disk = BoundaryProfile(exterior=SEPARATED.exterior, interior=None)
    v = check_corollary_4_1([], disk)
    assert v.reason == "hypothesis failed: domain is multiply connected"
    assert [h["held"] for h in v.hypotheses] == [False, True, False, True, False]


def _constant_interior(h, n_tilde):
    return BoundaryProfile(exterior=_trace("exterior", -1.0, 1.0, 2, sign_changes=n_tilde),
                           interior=_trace("interior", h, h))


@pytest.mark.parametrize("h, n_tilde, rhs", [(0.0, 4, 1), (0.5, 4, 2), (-0.5, 6, 3), (0.0, 6, 2)])
@pytest.mark.parametrize("excess", [0, 1])
def test_thm_1_3_arithmetic(h, n_tilde, rhs, excess):
    """lhs counts only critical zero points; rhs is N~/2, less one when H = 0."""
    points = _points_summing_to(rhs + excess, zero=True) + [fake_point(2.5, 0.0, 0.7, 3)]
    v = check_theorem_1_3(points, _constant_interior(h, n_tilde))
    assert v.as_dict() == {
        "id": "thm_1_3", "applicable": True, "holds": not excess, "lhs": rhs + excess, "rhs": rhs,
        "hypotheses": [{"name": "domain is multiply connected", "held": True},
                       {"name": "interior trace constant", "held": True},
                       {"name": "exterior trace sign-changing", "held": True}],
        "reason": None, "witness": {"H": h, "N_tilde": n_tilde},
    }


def test_thm_1_3_h_from_trace_and_odd_count_warning():
    v = check_theorem_1_3([], _constant_interior(0.25, 5))
    assert v.applicable and v.holds and (v.lhs, v.rhs) == (0, 2)
    assert v.witness == {"H": 0.25, "N_tilde": 5, "warning": "odd exterior sign-change count"}
    assert list(v.witness) == ["H", "N_tilde", "warning"]
    v = check_theorem_1_3([], _constant_interior(0.0, 5))
    assert (v.lhs, v.rhs, v.witness["warning"]) == (0, 1, "odd exterior sign-change count")
    v = check_theorem_1_3([], _constant_interior(0.0, 0))
    assert (v.applicable, v.reason) == (False, "hypothesis failed: exterior trace sign-changing")
    v = check_theorem_1_3([], SEPARATED)
    assert (v.applicable, v.reason) == (False, "hypothesis failed: interior trace constant")


@pytest.mark.parametrize("excess", [0, 1])
def test_thm_1_4_arithmetic(excess):
    """lhs against (N1~ + N2~) / 2 = (2 + 4) / 2 = 3."""
    profile = BoundaryProfile(exterior=_trace("exterior", -1.0, 1.0, 2, sign_changes=4),
                              interior=_trace("interior", -2.0, 2.0, 1, sign_changes=2))
    points = _points_summing_to(3 + excess, zero=True) + [fake_point(2.5, 0.0, 0.7, 1)]
    v = check_theorem_1_4(points, profile)
    assert v.as_dict() == {
        "id": "thm_1_4", "applicable": True, "holds": not excess, "lhs": 3 + excess, "rhs": 3,
        "hypotheses": [{"name": "domain is multiply connected", "held": True},
                       {"name": "interior trace sign-changing", "held": True},
                       {"name": "exterior trace sign-changing", "held": True}],
        "reason": None, "witness": {"N1_tilde": 2, "N2_tilde": 4},
    }
    v = check_theorem_1_4(points, SEPARATED)
    assert (v.applicable, v.reason) == (False, "hypothesis failed: interior trace sign-changing")


@pytest.mark.parametrize("excess", [0, 1])
def test_rem_5_1_arithmetic(excess):
    """lhs against N~/2 - 1 = 6/2 - 1 = 2."""
    profile = BoundaryProfile(exterior=_trace("exterior", -1.0, 1.0, 3, sign_changes=6), interior=None)
    points = _points_summing_to(2 + excess, zero=True) + [fake_point(0.5, 0.0, 0.7, 2)]
    v = check_remark_5_1(points, profile)
    assert v.as_dict() == {
        "id": "rem_5_1", "applicable": True, "holds": not excess, "lhs": 2 + excess, "rhs": 2,
        "hypotheses": [{"name": "domain is simply connected", "held": True},
                       {"name": "boundary trace sign-changing", "held": True}],
        "reason": None, "witness": {"N_tilde": 6},
    }
    v = check_remark_5_1(points, SEPARATED)
    assert (v.applicable, v.reason) == (False, "hypothesis failed: domain is simply connected")


def test_lemma_and_remark_not_applicable_reasons():
    v = check_lemma_2_1(None, [])
    assert v.as_dict() == {
        "id": "lem_2_1", "applicable": False, "holds": None, "lhs": None, "rhs": None,
        "hypotheses": [{"name": "at least one critical point", "held": False}],
        "reason": "hypothesis failed: at least one critical point", "witness": {},
    }
    v = check_lemma_2_4([], INTERLEAVED, delta=1e-3)
    assert v.as_dict() == {
        "id": "lem_2_4", "applicable": False, "holds": None, "lhs": None, "rhs": None,
        "hypotheses": [{"name": "ordering z1 < Z1 <= z2 < Z2", "held": False}],
        "reason": "hypothesis failed: ordering z1 < Z1 <= z2 < Z2", "witness": {},
    }
    v = check_lemma_2_4([fake_point(1.5, 0.0, 1.5, 1)], SEPARATED, delta=0.25)
    assert (v.applicable, v.holds, v.lhs, v.rhs, v.witness["band"]) == (True, False, 1, 0, [1.25, 1.75])
    for pure, censuses, failed in ((False, [], "operator has no first- or zeroth-order terms"),
                                   (True, [], "at least one census computed"),
                                   (False, [object()], "operator has no first- or zeroth-order terms")):
        v = check_remark_1_5(None, censuses, pure)
        assert v.as_dict() == {
            "id": "rem_1_5", "applicable": False, "holds": None, "lhs": None, "rhs": None,
            "hypotheses": [{"name": "operator has no first- or zeroth-order terms", "held": pure},
                           {"name": "at least one census computed", "held": bool(censuses)}],
            "reason": f"hypothesis failed: {failed}", "witness": {},
        }


def test_lemma_2_1_records_a_patch_outside_the_domain_as_an_error():
    """A point whose local-structure patch leaves the domain is an error
    entry of the witness, and the lemma does not hold."""
    fld = solved_field("z_plus_inv", 128, 64)
    good = find_critical_points(fld)[0]
    bad = replace(good, degree_radius=10.0)
    v = check_lemma_2_1(fld, [good, bad])
    assert v.applicable and v.holds is False
    first, second = v.witness["points"]
    assert first == {"point": good.as_dict(), "supers": 2, "subs": 2, "expected": 2, "holds": True}
    assert second == {"point": bad.as_dict(), "error": "local-structure patch leaves the domain"}


# ------------------------------------------------------ counting identities

def identities_at(fld, pts, profile, t):
    """check_counting_identities with the censuses that run_scenario takes at t."""
    eps = _census_offset(t, pts, profile, resolve_tolerances(fld).equal_value_tol)
    return check_counting_identities(fld, pts, profile, t, eps,
                                     level_census(fld, t - eps), level_census(fld, t + eps))


def test_identities_case1_two_equal_saddles():
    """Equal-value saddle pair pinching the sub-level ring: the simply
    connected sub-level components meeting the outer boundary number
    sum(m) + q - 1."""
    spec = make_scenario("2", "1", "5 + 4.5*cos(2*theta)", "0.1*cos(2*theta)",
                         grid=(128, 64), name="case1")
    report = run_scenario(spec)
    assert len(report.points) == 2
    t = report.points[0].value
    assert t == pytest.approx(0.7653, abs=2e-3)
    (identity,) = report.identity_reports
    assert identity["applicable"] and identity["holds"]
    assert identity["details"]["separating_curve"]
    assert identity["details"]["q"] == 1
    assert identity["lhs"] == 2 and identity["rhs"] == 2
    assert report.verdict("lem_2_5_2_7").holds


def test_identities_ordering_case_fails_for_equal_ranges():
    fld = solved_field("z_plus_inv", 128, 64)
    pts = find_critical_points(fld)
    report = identities_at(fld, pts, boundary_profile(fld), pts[1].value)
    assert not report["applicable"]
    assert "ordering case fails" in report["reason"]
    assert "Z1" in report["reason"]


def test_identities_ordering_reason_for_nested_ranges():
    """z1 < z2 < Z2 < Z1 satisfies no ordering case; the reason is the
    generic one, which states the relation that fails (Z1 < Z2)."""
    fld = field_from_function(make_scenario("2", "1", "0", "0", grid=(16, 8)), lambda x, y: x)
    profile = BoundaryProfile(exterior=_trace("exterior", 1.0, 2.0, 2), interior=_trace("interior", 0.0, 3.0, 2))
    report = check_counting_identities(fld, [], profile, 1.5, 0.1, None, None)
    assert not report["applicable"] and profile.ordering_case() is None
    assert report["reason"] == "ordering case fails: need z1 < Z1 <= z2 < Z2 or z1 < z2 < Z1 < Z2"


def test_identities_no_critical_point_at_t():
    spec = make_scenario("2", "1", "5 + 4.5*cos(2*theta)", "0.1*cos(2*theta)",
                         grid=(64, 32), name="case1small")
    fld = solve_scenario(spec)
    pts = find_critical_points(fld)
    report = identities_at(fld, pts, boundary_profile(fld), 5.0)
    assert not report["applicable"]
    assert report["reason"] == "no critical point at t"


def test_identity_middle_band_arithmetic(monkeypatch):
    """Interleaved-ordering middle band: clause selection and the integer
    arithmetic M1 + M2 = 2 sum(m) + q -/+ 1 exercised with pinned counts."""
    import levelset_lab.verify as verify_mod

    fld = solved_field("counterexample2", 128, 64)  # interleaved ordering
    profile = boundary_profile(fld)
    t = 0.5 * (profile.z2 + profile.Z1)
    pts = [fake_point(3.5, 0.0, t, 1)]

    class FakeCensus:
        def __init__(self, M1, M2):
            self.M1, self.M2 = M1, M2

    for sep, M1, M2, want in ((False, 2, 2, True), (False, 2, 3, False), (True, 1, 2, True)):
        monkeypatch.setattr(verify_mod, "separating_network_through", lambda *a, **k: sep)
        monkeypatch.setattr(verify_mod, "cluster_critical_sets", lambda *a, **k: (None, {1}))
        report = check_counting_identities(fld, pts, profile, t, 1e-3,
                                           FakeCensus(99, M2), FakeCensus(M1, 99))
        assert report["applicable"]
        assert report["band"] == "middle"
        expected_rhs = 2 * 1 + 1 + (-1 if sep else 1)
        assert report["rhs"] == expected_rhs
        assert report["holds"] == (want and (M1 + M2 == expected_rhs))


def _component(sign, rim=None, chi=1, uncertain=False):
    return LevelComponent(sign=sign, label=0, cell_count=1,
                          touches_interior=rim in ("interior", "both"),
                          touches_exterior=rim in ("exterior", "both"),
                          extremal_value=0.0, extremal_contact_value=None,
                          all_uncertain=uncertain, euler_char=chi)


def _census(supers=0, subs=0, contact=None):
    """A census with `supers` and `subs` plain components; contact =
    (sign, rim, n) adds n simply connected components of that sign meeting
    that rim, and one of each kind that the contact count must skip: the
    other rim only, not simply connected, all uncertain, the other sign."""
    comps = [_component("super") for _ in range(supers)] + [_component("sub") for _ in range(subs)]
    if contact is not None:
        sign, rim, n = contact
        other_rim = "interior" if rim == "exterior" else "exterior"
        other_sign = "sub" if sign == "super" else "super"
        comps += [_component(sign, rim) for _ in range(n)]
        comps += [_component(sign, other_rim), _component(sign, rim, chi=0),
                  _component(sign, "both", uncertain=True), _component(other_sign, rim)]
    return LevelSetCensus(t=0.0, components=comps, uncertain_band=0.0)


# Every clause of Lemmas 2.5-2.7, with sum_m = 2 and q = 3 so that the four
# right-hand sides 2 sum_m + q + 1 = 8, 2 sum_m + q - 1 = 6, sum_m + q - 1 = 4
# and sum_m + 1 = 3 differ.  Counts are (M1 of t + eps, M2 of t - eps) for
# the pair clauses, with M1 read from region_components in the separated
# lower band, and the contact count otherwise.
IDENTITY_CLAUSES = [
    ("separated", "upper", True,
     "sub-level simply connected contact count (upper band, separating curve)",
     ("sub", "exterior"), 4, [(4, True), (5, False), (3, False)]),
    ("separated", "upper", False, "M1 + M2 = 2 sum_m + q + 1 (upper band)",
     ("M1", "M2"), 8, [((3, 5), True), ((3, 6), False), ((2, 6), False)]),
    ("separated", "lower", True,
     "super-level simply connected contact count (lower band, separating curve)",
     ("super", "interior"), 4, [(4, True), (5, False), (3, False)]),
    ("separated", "lower", False, "band components: M~1 + M~2 = 2 sum_m + q + 1 (lower band)",
     ("M1_tilde", "M2_tilde"), 8, [((5, 3), True), ((5, 4), False), ((6, 2), False)]),
    ("interleaved", "middle", True, "M1 + M2 = 2 sum_m + q - 1 (middle band, separating curve)",
     ("M1", "M2"), 6, [((2, 4), True), ((2, 5), False), ((1, 5), False)]),
    ("interleaved", "middle", False, "M1 + M2 = 2 sum_m + q + 1 (middle band)",
     ("M1", "M2"), 8, [((3, 5), True), ((3, 4), False), ((2, 6), False)]),
    ("interleaved", "upper", True, "sub-level contact count >= sum_m + q - 1 (upper band)",
     ("sub", "exterior"), 4, [(4, True), (5, True), (3, False)]),
    ("interleaved", "upper", False, "super-level contact count >= sum_m + 1 (upper band)",
     ("super", "exterior"), 3, [(3, True), (4, True), (2, False)]),
    ("interleaved", "lower", True, "super-level contact count >= sum_m + q - 1 (lower band)",
     ("super", "interior"), 4, [(4, True), (5, True), (3, False)]),
    ("interleaved", "lower", False, "sub-level contact count >= sum_m + 1 (lower band)",
     ("sub", "interior"), 3, [(3, True), (4, True), (2, False)]),
]


@pytest.mark.parametrize("case, band, sep, clause, counted, rhs, counts", IDENTITY_CLAUSES,
                         ids=[f"{c}-{b}-{'sep' if s else 'nosep'}" for c, b, s, *_ in IDENTITY_CLAUSES])
def test_identity_clause_table(monkeypatch, case, band, sep, clause, counted, rhs, counts):
    """Each (ordering case, band, separating curve) selects one clause; its
    text, its count, its relation to rhs, the floors of the pair clauses
    and the report layout are pinned with counts that hold and that fail."""
    import levelset_lab.verify as verify_mod

    fld = solved_field("band_annulus" if case == "separated" else "counterexample2", 128, 64)
    profile = boundary_profile(fld)
    assert profile.ordering_case() == case
    lo, hi = {name: (a, b) for name, a, b in profile.bands()}[band]
    t, eps = 0.5 * (lo + hi), 1e-3
    points = [fake_point(3.5, 0.0, t, 2)]
    monkeypatch.setattr(verify_mod, "cluster_critical_sets", lambda *a, **k: (None, {1, 2, 3}))
    monkeypatch.setattr(verify_mod, "separating_network_through", lambda *a, **k: sep)
    for count, holds in counts:
        region_calls = []
        if counted[0] in ("super", "sub"):
            sign, rim = counted
            census = _census(contact=(sign, rim, count))
            below, above = (census, _census(5, 5)) if sign == "sub" else (_census(5, 5), census)
            parts = {"contact_count": count}
        else:
            m1, m2 = count
            below, above = _census(supers=9, subs=m2), _census(supers=m1, subs=9)
            if counted[0] == "M1_tilde":
                above = _census(supers=9, subs=9)

                def region(field, lo, hi, m1=m1):
                    region_calls.append((field, lo, hi))
                    return m1

                monkeypatch.setattr(verify_mod, "region_components", region)
            parts = dict(zip(counted, count))
        report = check_counting_identities(fld, points, profile, t, eps, below, above)
        assert list(report) == ["t", "ordering_case", "applicable", "holds", "clause",
                                "details", "band", "lhs", "rhs"]
        assert report["applicable"] and report["band"] == band and report["ordering_case"] == case
        assert report["clause"] == clause
        assert report["details"] == {"sum_m": 2, "q": 3, "epsilon": eps, "separating_curve": sep, **parts}
        assert list(report["details"]) == ["sum_m", "q", "epsilon", "separating_curve", *parts]
        assert report["lhs"] == sum(parts.values()) and report["rhs"] == rhs
        assert report["holds"] is holds, (count, report)
        if counted[0] == "M1_tilde":
            assert region_calls == [(fld, t + eps, profile.z2 - eps)]


def test_identity_lower_band_reads_band_components(monkeypatch):
    """The separated lower-band clause counts M~1 with region_components
    itself: on band_annulus {t + eps < u < z2 - eps} is one ring around
    gamma_I, so M~1 = 1, and the floor M~1 >= sum_m + 1 fails."""
    import levelset_lab.verify as verify_mod

    fld = solved_field("band_annulus", 128, 64)
    profile = boundary_profile(fld)
    monkeypatch.setattr(verify_mod, "cluster_critical_sets", lambda *a, **k: (None, {1}))
    monkeypatch.setattr(verify_mod, "separating_network_through", lambda *a, **k: False)
    t, eps = 0.0, 1e-3
    report = check_counting_identities(fld, [fake_point(1.05, 0.0, t, 1)], profile, t, eps,
                                       _census(subs=3), _census(supers=9))
    assert report["band"] == "lower"
    assert report["clause"] == "band components: M~1 + M~2 = 2 sum_m + q + 1 (lower band)"
    assert (report["details"]["M1_tilde"], report["details"]["M2_tilde"]) == (1, 3)
    assert (report["lhs"], report["rhs"], report["holds"]) == (4, 4, False)


def test_identity_not_applicable_reasons(monkeypatch):
    """A critical value between the bands, unequal values in one band and a
    failed cluster banding each leave the identity not applicable, with a
    reason and no clause."""
    import levelset_lab.verify as verify_mod

    fld = solved_field("band_annulus", 64, 32)  # supplies only the tolerances

    def reason(points, t):
        report = check_counting_identities(fld, points, SEPARATED, t, 1e-3, _census(), _census())
        assert (report["applicable"], report["holds"], report["clause"]) == (False, None, None)
        return report.get("band"), report["reason"]

    assert reason([fake_point(1.5, 0.0, 1.5, 1)], 1.5) == (None, "critical value 1.5 outside the lemma bands")
    assert reason([fake_point(2.5, 0.0, 2.5, 1), fake_point(2.6, 0.0, 2.75, 1)], 2.5) == (
        "upper", "critical values in this band are not all equal")

    def too_wide(*args, **kwargs):
        raise BandTooWideError("band 0.01 wider than the cell scale")

    monkeypatch.setattr(verify_mod, "cluster_critical_sets", too_wide)
    assert reason([fake_point(0.5, 0.0, 0.5, 1)], 0.5) == (
        "lower", "cluster banding failed: band 0.01 wider than the cell scale")


def test_remark_1_5_failure_branches():
    """A counted component without boundary contact fails, and so does
    one whose extreme passes its contact extreme by more than the slack,
    super or sub; uncertain components and components within the slack
    pass."""
    fld = solved_field("log_annulus", 64, 32)

    def comp(sign, rim, extreme, contact, label, uncertain=False):
        return replace(_component(sign, rim, uncertain=uncertain), label=label,
                       extremal_value=extreme, extremal_contact_value=contact)

    census = LevelSetCensus(t=0.5, uncertain_band=0.0, components=[
        comp("super", None, 0.9, None, 1),
        comp("super", None, 0.9, None, 2, uncertain=True),
        comp("super", "exterior", 100.0, 0.6, 3),
        comp("sub", "interior", -100.0, 0.4, 4),
        comp("super", "exterior", 0.6, 0.6, 5),
        comp("sub", "interior", 0.4, 0.4, 6),
    ])
    v = check_remark_1_5(fld, [census], True)
    assert v.applicable and v.holds is False
    assert v.witness["failures"] == [
        {"t": 0.5, "sign": "super", "label": 1, "issue": "no boundary contact"},
        {"t": 0.5, "sign": "super", "label": 3, "interior_extreme": 100.0, "contact_extreme": 0.6},
        {"t": 0.5, "sign": "sub", "label": 4, "interior_extreme": -100.0, "contact_extreme": 0.4},
    ]
    assert 0.0 < v.witness["slack"] < 1.0


# ------------------------------------------------------------- run_scenario

def test_report_enumerates_every_check_once():
    rep = builtin_report("counterexample1")
    assert tuple(v.id for v in rep.verdicts) == VERDICT_IDS


def test_unknown_verdict_id_raises_key_error():
    with pytest.raises(KeyError):
        builtin_report("counterexample1").verdict("thm_9_9")


def test_counterexample_reports_no_critical_points():
    for name in ("counterexample1", "counterexample2"):
        rep = builtin_report(name)
        assert rep.points == []
        assert rep.verdict("thm_1_1").holds
        assert not rep.failed


def test_counterexample2_corollary_not_applicable():
    rep = builtin_report("counterexample2")
    assert rep.profile.ordering_case() == "interleaved"
    v = rep.verdict("cor_4_1")
    assert not v.applicable
    assert "relative to the closure" in v.reason


def test_unstable_counts_raises():
    # a grid too coarse to pin down the four z2m zeros must not silently pass
    spec = make_scenario("2", "0.5", "(r^2 - 1/r^2)*cos(2*theta)",
                         "(r^2 - 1/r^2)*cos(2*theta)", grid=(64, 32), name="z2m",
                         tolerances=ToleranceSet(dedup_radius=0.4))
    try:
        report = run_scenario(spec)
    except UnstableCountsError:
        return  # acceptable: instability was detected and reported
    # with a large dedup radius both grids may agree; then counts must be sane
    assert len(report.points) in (1, 4)


def test_coarse_grid_losing_a_point_raises_unstable_counts(monkeypatch):
    """The stability gate compares the coarse and the fine detection: when
    the coarse grid misses one of the points, run_scenario raises."""
    import levelset_lab.verify as verify_mod
    real = verify_mod.find_critical_points_report
    grids = []

    def lossy(field, *args, **kwargs):
        points, suspects, warnings = real(field, *args, **kwargs)
        grids.append(field.n_theta)
        return (points[1:] if len(grids) == 1 else points), suspects, warnings

    spec = builtin_spec("z_plus_inv")
    assert len(builtin_report("z_plus_inv").points) >= 1
    monkeypatch.setattr(verify_mod, "find_critical_points_report", lossy)
    with pytest.raises(UnstableCountsError):
        run_scenario(spec)
    assert grids == [spec.n_theta, 2 * spec.n_theta]


def test_verdict_integers_reproducible_from_report_lists():
    rep = builtin_report("z2_minus_zm2")
    v = rep.verdict("thm_1_4")
    zeros = [p for p in rep.points if p.is_zero]
    assert v.lhs == sum(p.multiplicity for p in zeros)
    assert v.rhs == (rep.profile.interior.sign_changes + rep.profile.exterior.sign_changes) // 2


def test_not_applicable_always_carries_reason():
    for name in ("counterexample1", "z2_minus_zm2", "disk_z2"):
        rep = builtin_report(name)
        for v in rep.verdicts:
            if not v.applicable:
                assert v.reason, (name, v.id)


def test_thm_1_2_band_annulus_not_applicable():
    """The band scenario's outer-boundary minima are not closure-relative
    (the field keeps increasing outward there), so the trichotomy's
    hypotheses fail; asserting it anyway would be false since no critical
    point exists while N1 + N2 = 3."""
    rep = builtin_report("band_annulus")
    v = rep.verdict("thm_1_2")
    assert not v.applicable
    assert "relative to the closure" in v.reason
    assert rep.points == []
    inner, outer = rep.profile.interior, rep.profile.exterior
    assert inner.maxima_count + outer.maxima_count == 3


def test_maximum_principle_surrogate_holds_on_builtins():
    for name in ("log_annulus", "z_plus_inv", "band_annulus"):
        v = builtin_report(name).verdict("rem_1_5")
        assert v.applicable and v.holds, name


# ------------------------------------------------------- grid stability gate

def test_stable_points_match_does_not_depend_on_order():
    """A greedy nearest match pairs (0.6, 0) with (1, 0) and strands (1.7, 0);
    the one-to-one match (0, 0)-(0.6, 0), (1, 0)-(1.7, 0) is within one cell."""
    coarse = [fake_point(0.0, 0.0, 0.0, 1), fake_point(1.0, 0.0, 0.0, 1)]
    fine = [fake_point(0.6, 0.0, 0.0, 1), fake_point(1.7, 0.0, 0.0, 1)]
    assert _stable_points(coarse, fine, 0.75)
    assert _stable_points(coarse, fine[::-1], 0.75)
    assert not _stable_points(coarse, fine, 0.65)
    assert not _stable_points(coarse, [fine[0], fake_point(1.7, 0.0, 0.0, 2)], 0.75)
    assert not _stable_points(coarse, fine[:1], 0.75)
    assert _stable_points([], [], 0.75)


# ------------------------------------------------------ sampling per field

def test_run_scenario_derives_field_quantities_once(monkeypatch):
    """Censuses, clusters, the separating-network test and the contact
    counts all read one lattice evaluation of the solved field; node
    geometry and default tolerances are computed once per field.  Each
    level is censused once, and the identity check marks and labels its
    level network once.  The operator is sampled once, at the refined
    grid's nodes: one evaluation of the coefficients and one of the
    map's metric on a grid serve validation, the three assemblies (half,
    configured and refined grid) and the lower-order test."""
    import levelset_lab.critical as critical_mod
    import levelset_lab.solver as solver_mod
    import levelset_lab.verify as verify_mod
    from levelset_lab.domain import EllipticOperator
    from levelset_lab.geometry import DomainSpec
    from levelset_lab.solver import REFINE, SolutionField

    seen = Counter()
    real_lattice, real_range, real_map = solver_mod.RefinedLattice, SolutionField.u_range, DomainSpec.map_point
    real_metric, real_coefficients = DomainSpec.metric, EllipticOperator.coefficients_at

    def refined_lattice(theta, *arrays):
        # keyed by the solve grid's n_theta, as the other counts are
        seen["lattice", (len(theta) - 1) // REFINE] += 1
        return real_lattice(theta, *arrays)

    def u_range(self):
        seen["tolerances", self.n_theta] += 1
        return real_range(self)

    def map_point(self, theta, s):
        seen["nodes", np.shape(theta)] += 1
        return real_map(self, theta, s)

    def metric(self, theta, s):
        seen["metric", np.broadcast(theta, s).shape] += 1
        return real_metric(self, theta, s)

    def coefficients_at(self, x, y):
        seen["coefficients"] += 1
        return real_coefficients(self, x, y)

    monkeypatch.setattr(solver_mod, "RefinedLattice", refined_lattice)
    monkeypatch.setattr(SolutionField, "u_range", u_range)
    monkeypatch.setattr(DomainSpec, "map_point", map_point)
    monkeypatch.setattr(DomainSpec, "metric", metric)
    monkeypatch.setattr(EllipticOperator, "coefficients_at", coefficients_at)
    census_levels, real_census = [], verify_mod.level_census
    real_marked = critical_mod._marked_level_cells

    def level_census(field, t, **kwargs):
        census_levels.append(t)
        return real_census(field, t, **kwargs)

    def marked_level_cells(field, t):
        seen["mark and label"] += 1
        return real_marked(field, t)

    monkeypatch.setattr(verify_mod, "level_census", level_census)
    monkeypatch.setattr(critical_mod, "_marked_level_cells", marked_level_cells)
    spec = make_scenario("3*(1 + 0.04*cos(4*theta))", "1 + 0.1*cos(2*theta)",
                         "1 + 0.75*cos(2*theta)", "0.15*cos(2*theta)", grid=(64, 32), name="sym2")
    report = run_scenario(spec)
    (identity,) = report.identity_reports
    assert identity["applicable"] and identity["details"]["separating_curve"]
    assert len(report.censuses) == 4
    assert len(census_levels) == len(set(census_levels)) == 4
    assert seen["mark and label"] == 1
    assert seen["lattice", 64] == 0 and seen["lattice", 128] == 1
    assert seen["tolerances", 64] == seen["tolerances", 128] == 1
    assert seen["nodes", (64, 33)] == seen["nodes", (128, 65)] == 1
    assert seen["nodes", (256, 256)] == 0
    assert seen["coefficients"] == 1
    assert [key[1] for key in seen if key[0] == "metric" and len(key[1]) == 2] == [(128, 65)]
    assert seen["metric", (128, 65)] == 1


def test_report_names_the_solve_path_of_each_grid(monkeypatch):
    """A two-grid solve that gives up falls back to `splu`, and the report's
    diagnostics say so for both grids: the configured grid factors itself
    after its cycle over the half grid's factor has a zero pivot, and the
    refined grid after its cycle over that factor does."""
    import levelset_lab.solver as solver_mod
    from levelset_lab.cli import report_to_dict

    monkeypatch.setattr(solver_mod, "_v_cycle", lambda system, correct: None)
    report = run_scenario(builtin_spec("z_plus_inv").with_grid(64, 32))
    assert report_to_dict(report)["diagnostics"] == {"solves": [
        {"grid": [64, 32], "solved_by": "direct after two-grid", "iterations": 0},
        {"grid": [128, 64], "solved_by": "direct after two-grid", "iterations": 0},
    ]}


@pytest.mark.parametrize("name, factors_per_cycle", [("z_plus_inv", 2), ("disk_z2", 4)])
def test_one_cycle_per_level(name, factors_per_cycle, monkeypatch):
    """A verification builds one V-cycle per grid it solves iteratively,
    the configured and the refined grid: the refined solve reuses the
    configured grid's cycle as its coarse correction instead of building
    it again.  So LAPACK `dgttrf` runs once per colour of each cycle's
    zebra sweeps: twice for the s-lines, and twice more on a disk for the
    rings; and `splu` factors only the half grid."""
    import levelset_lab.solver as solver_mod

    calls = Counter()

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)
        return wrapper

    real_splu = solver_mod.spla.splu

    def splu(matrix, **kwargs):
        calls["splu", matrix.shape[0]] += 1
        return real_splu(matrix, **kwargs)

    spec = builtin_spec(name)
    half = solver_mod.assemble(spec.with_grid(spec.n_theta // 2, spec.n_s // 2)).size
    monkeypatch.setattr(solver_mod, "_v_cycle", counted("cycle", solver_mod._v_cycle))
    monkeypatch.setattr(solver_mod, "dgttrf", counted("dgttrf", solver_mod.dgttrf))
    monkeypatch.setattr(solver_mod.spla, "splu", splu)
    run_scenario(spec)
    assert calls == {"cycle": 2, "dgttrf": 2 * factors_per_cycle, ("splu", half): 1}


@pytest.mark.parametrize("name", ["disk_z2", "z2_minus_zm2"])
def test_zero_level_tags_carry_no_round_off(name, monkeypatch):
    """A value class that holds a critical zero point is censused and
    checked at exactly 0: adding 1e-12 x to the solved values, far below
    every tolerance, leaves every census tag and identity level unchanged."""
    import levelset_lab.verify as verify_mod

    real_solve = verify_mod.solve

    def shifted_solve(*args, **kwargs):
        fld = real_solve(*args, **kwargs)
        x = fld.node_positions()[2]
        return SolutionField(fld.spec, fld.values + 1e-12 * x, residual=fld.residual,
                             solved_by=fld.solved_by, iterations=fld.iterations)

    want = builtin_report(name)
    monkeypatch.setattr(verify_mod, "solve", shifted_solve)
    got = run_scenario(builtin_spec(name))
    assert any(p.is_zero for p in want.points)
    assert [tag for tag, _ in got.censuses] == [tag for tag, _ in want.censuses]
    assert [r["t"] for r in got.identity_reports] == [r["t"] for r in want.identity_reports]
    assert "critical@0-eps" in [tag for tag, _ in want.censuses]


# ------------------------------------------------------------ BLAS thread pool

@pytest.mark.parametrize("name", ["z_plus_inv", "disk_z2"])
def test_run_scenario_calls_no_blas_vector_product(name, monkeypatch):
    """A whole verification runs without numpy's BLAS vector products and
    norms: one of them on a vector of the solve's size wakes OpenBLAS's
    thread pool, whose spinning threads then slow the main thread's next
    ~0.1 s of work on a 2-vCPU host.  Both grids go through the two-grid
    GMRES loop, so that loop, the three-level cycle and the disk's ring
    sweep are guarded too."""
    import levelset_lab.verify as verify_mod

    def forbidden(*args, **kwargs):
        raise AssertionError("BLAS vector product called")

    fields, real_solve = [], verify_mod.solve

    def recording_solve(*args, **kwargs):
        fields.append(real_solve(*args, **kwargs))
        return fields[-1]

    monkeypatch.setattr(verify_mod, "solve", recording_solve)
    for owner, attr in ((np.linalg, "norm"), (np, "dot"), (np, "vdot"), (np, "inner")):
        monkeypatch.setattr(owner, attr, forbidden)
    report = run_scenario(builtin_spec(name))
    assert all(0.0 < r <= 1e-13 for r in report.residuals)
    assert [f.solved_by for f in fields] == ["two-grid", "two-grid"]
    monkeypatch.undo()
    assert report.points == builtin_report(name).points


# ------------------------------------------------------------ negation relation

def _critical_points(report, sign=1.0):
    return sorted((p.x, p.y, p.multiplicity, p.degree_radius, sign * p.value) for p in report.points)


def _critical_counts(report):
    return [(c.M1, c.M2) for tag, c in report.censuses if tag.startswith("critical@")]


def test_negated_data_give_the_same_points_and_mirrored_censuses():
    """The equation is linear, so data -psi give -u: on the built-ins and
    the seed-0 symmetric annuli, the negated scenario has the same critical
    points bit for bit, with negated values, and its critical-level
    censuses come back in reverse order with M1 and M2 swapped.  Verdicts
    are not compared: the ordering cases know only exterior data above
    interior data, so a mirrored scenario loses lemma verdicts today
    (ROADMAP item 22)."""
    pairs = [(json.loads((builtin_scenario_dir() / f"{name}.json").read_text()), builtin_report(name))
             for name in BUILTIN_NAMES]
    pairs += [(data, run_scenario(scenario_from_dict(data, data["name"]))) for data in wl.symmetric_specs(0)]
    compared = 0
    for data, report in pairs:
        negated = dict(data, boundary={k: f"-({v})" for k, v in data["boundary"].items()})
        mirror = run_scenario(scenario_from_dict(negated, data["name"]))
        assert _critical_points(mirror) == _critical_points(report, -1.0), data["name"]
        assert _critical_counts(mirror)[::-1] == [(m2, m1) for m1, m2 in _critical_counts(report)], data["name"]
        compared += len(_critical_counts(report))
    assert compared > 20


# ------------------------------------------------- relations that keep every count

# seed 0's sym0_k2 of the symmetric_annuli benchmark, written out
SYM0_K2 = {
    "name": "sym0_k2",
    "domain": {"interior": {"radius": "1.1378*(1 + 0.1258*cos(2*theta))"},
               "exterior": {"radius": "2.9365*(1 + 0.0304*cos(4*theta))"}},
    "boundary": {"psi_interior": "0.1784*cos(2*theta)", "psi_exterior": "1.0023 + 0.7215*cos(2*theta)"},
}


def test_shifted_data_keep_the_identity_check():
    """A constant added to both data is added to u and changes no count.
    Shifted by -0.3193224694521817, sym0_k2's saddle pair sits at
    u = 9.51e-4: a critical zero point (value_zero_tol 3.8e-3) more than
    equal_value_tol (1.9e-4) from 0, so its value class is censused on
    both sides of 9.51e-4, not of 0, and checked by the same clause."""
    shifted = dict(SYM0_K2, boundary={k: f"{v} + (-0.3193224694521817)" for k, v in SYM0_K2["boundary"].items()})
    want, got = (run_scenario(scenario_from_dict(data)) for data in (SYM0_K2, shifted))
    values = [p.value for p in got.points]
    assert len(values) == 2 and all(p.is_zero and abs(p.value - 9.51e-4) < 1e-9 for p in got.points)
    below, above = (c.t for tag, c in got.censuses if tag.startswith("critical@"))
    assert below < min(values) <= max(values) < above
    (w,), (g,) = want.identity_reports, got.identity_reports
    keys = ("applicable", "clause", "lhs", "rhs", "holds")
    assert {k: g[k] for k in keys} == {k: w[k] for k in keys}
    assert g["applicable"] and g["holds"]


@pytest.mark.parametrize("name", ["band_annulus", "counterexample2", "disk_z3"])
def test_a_zeroth_order_term_written_as_zero_changes_no_report(name):
    """"c": "0" is the default written out: no zeroth-order term for the
    trichotomy theorems, and pure diffusion for Remark 1.5."""
    data = json.loads((builtin_scenario_dir() / f"{name}.json").read_text())
    data["operator"] = dict(data["operator"], c="0")
    got = run_scenario(scenario_from_dict(data, name))
    assert report_to_dict(got, timestamp="") == report_to_dict(builtin_report(name), timestamp="")


# item 1's wavy annulus, with an anisotropic principal part and a first-order term
WAVY_OPERATOR = {"a11": "2", "a12": "0.5", "a22": "1", "b1": "-4", "b2": "0", "c": "0"}


def _report(spec):
    """The report of `spec` without its scenario block and timestamp."""
    out = report_to_dict(run_scenario(spec), timestamp="")
    del out["scenario"]
    return out


@pytest.mark.parametrize("name", ["z_plus_inv", "disk_z3", "wavy"])
def test_operator_times_a_power_of_two_changes_no_report(name):
    """The equation is homogeneous in the operator and a power of two
    scales exactly, so every coefficient times 2, or times 0.25, gives the
    same report bit for bit: an annulus and a disk built-in, and a wavy
    annulus whose operator is not the Laplacian."""
    if name == "wavy":
        op = EllipticOperator(*map(ex.parse_expression, WAVY_OPERATOR.values()))
        spec = make_scenario("1.5 + 0.2*cos(4*theta)", "0.5 + 0.1*sin(3*theta)", "exp(x + y)", "exp(x + y)",
                             grid=(64, 32), operator=op, name="wavy")
    else:
        spec = builtin_spec(name)
    want = _report(spec)
    assert want["verdicts"]
    for factor in (2.0, 0.25):
        scaled = {k: ("bin", "*", ("num", factor), getattr(spec.operator, k)) for k in ("a11", "a12", "a22", "b1", "b2", "c")}
        assert _report(replace(spec, operator=replace(spec.operator, **scaled))) == want


def test_a_large_operator_verifies_as_its_unit_multiple():
    """a11 = a22 = 1e306 on band_annulus is divided by a power of two
    before any stencil weight is formed, so no weight overflows (a numpy
    RuntimeWarning fails the suite): the report has the points, censuses
    and verdicts of a11 = a22 = 1."""
    spec = builtin_spec("band_annulus")
    big = ex.parse_expression("1e306")
    got = report_to_dict(run_scenario(replace(spec, operator=replace(spec.operator, a11=big, a22=big))))
    assert wl.verify_summary(got) == wl.verify_summary(report_to_dict(builtin_report("band_annulus")))
