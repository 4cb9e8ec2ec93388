"""Theorem/lemma verdicts: applicability gates, bounds, counting identities."""

import math
from collections import Counter

import numpy as np
import pytest

from conftest import builtin_report, make_scenario, solved_field
from levelset_lab.critical import CriticalPoint, find_critical_points
from levelset_lab.domain import ToleranceSet
from levelset_lab.errors import UnstableCountsError
from levelset_lab.solver import solve_scenario
from levelset_lab.topology import boundary_profile
from levelset_lab.verify import (
    VERDICT_IDS,
    _stable_points,
    check_counting_identities,
    check_lemma_2_4,
    check_remark_5_1,
    check_theorem_1_1,
    check_theorem_1_2,
    check_theorem_1_3,
    check_theorem_1_4,
    run_scenario,
)


def fake_point(x, y, value, m, zero=False):
    return CriticalPoint(x=x, y=y, value=value, multiplicity=m, is_zero=zero,
                         degree_radius=0.1, grad_norm=0.0, winding_raw=-float(m))


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
    verdict = check_theorem_1_3(pts, boundary_profile(fld), h_value=0.0)
    assert verdict.applicable and verdict.holds
    assert verdict.lhs == 0 and verdict.rhs == 1


def test_thm_1_3_nonzero_h_bound():
    spec = make_scenario("2", "1", "2*cos(2*theta)", "1", grid=(128, 64), name="t13b")
    fld = solve_scenario(spec)
    pts = find_critical_points(fld)
    verdict = check_theorem_1_3(pts, boundary_profile(fld), h_value=1.0)
    assert verdict.applicable and verdict.holds
    assert verdict.rhs == 2


def test_thm_1_3_not_applicable_nonconstant_interior():
    fld = solved_field("z2_minus_zm2", 128, 64)
    verdict = check_theorem_1_3(find_critical_points(fld), boundary_profile(fld), None)
    assert not verdict.applicable
    assert "constant" in verdict.reason


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


# ------------------------------------------------------ counting identities

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
    report = check_counting_identities(fld, pts, boundary_profile(fld), pts[1].value)
    assert not report["applicable"]
    assert "ordering case fails" in report["reason"]
    assert "Z1" in report["reason"]


def test_identities_no_critical_point_at_t():
    spec = make_scenario("2", "1", "5 + 4.5*cos(2*theta)", "0.1*cos(2*theta)",
                         grid=(64, 32), name="case1small")
    fld = solve_scenario(spec)
    pts = find_critical_points(fld)
    report = check_counting_identities(fld, pts, boundary_profile(fld), 5.0)
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
        monkeypatch.setattr(verify_mod, "cluster_critical_sets", lambda *a, **k: 1)
        seq = iter([FakeCensus(M1, 99), FakeCensus(99, M2)])
        monkeypatch.setattr(verify_mod, "level_census", lambda *a, **k: next(seq))
        report = verify_mod.check_counting_identities(fld, pts, profile, t)
        assert report["applicable"]
        assert report["band"] == "middle"
        expected_rhs = 2 * 1 + 1 + (-1 if sep else 1)
        assert report["rhs"] == expected_rhs
        assert report["holds"] == (want and (M1 + M2 == expected_rhs))


# ------------------------------------------------------------- run_scenario

def test_report_enumerates_every_check_once():
    rep = builtin_report("counterexample1")
    assert tuple(v.id for v in rep.verdicts) == VERDICT_IDS


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
    geometry and default tolerances are computed once per field."""
    from levelset_lab.geometry import DomainSpec
    from levelset_lab.solver import SolutionField

    seen = Counter()
    real_eval, real_range, real_map = SolutionField.evaluate_ref, SolutionField.u_range, DomainSpec.map_point

    def evaluate_ref(self, theta, s, derivatives=False):
        nt, ns = self.n_theta, self.n_s
        if np.size(theta) == (2 * nt + 1) * (2 * ns + 1):
            seen["lattice nodes", nt] += 1
        elif np.size(theta) == 4 * nt * ns:
            seen["lattice centres", nt] += 1
        return real_eval(self, theta, s, derivatives)

    def u_range(self):
        seen["tolerances", self.n_theta] += 1
        return real_range(self)

    def map_point(self, theta, s):
        seen["nodes", np.shape(theta)] += 1
        return real_map(self, theta, s)

    monkeypatch.setattr(SolutionField, "evaluate_ref", evaluate_ref)
    monkeypatch.setattr(SolutionField, "u_range", u_range)
    monkeypatch.setattr(DomainSpec, "map_point", map_point)
    spec = make_scenario("3*(1 + 0.04*cos(4*theta))", "1 + 0.1*cos(2*theta)",
                         "1 + 0.75*cos(2*theta)", "0.15*cos(2*theta)", grid=(64, 32), name="sym2")
    report = run_scenario(spec)
    (identity,) = report.identity_reports
    assert identity["applicable"] and identity["details"]["separating_curve"]
    assert len(report.censuses) == 4
    for part in ("lattice nodes", "lattice centres"):
        assert seen[part, 64] == 0 and seen[part, 128] == 1
    assert seen["tolerances", 64] == seen["tolerances", 128] == 1
    assert seen["nodes", (64, 33)] == seen["nodes", (128, 65)] == 1
