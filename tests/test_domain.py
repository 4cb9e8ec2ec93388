"""Scenario validation and the radial reference map."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import curve, field_from_function, make_scenario, value_at
from levelset_lab import expressions as ex
from levelset_lab.cli import builtin_scenario_dir
from levelset_lab.domain import scenario_from_dict, validate_scenario
from levelset_lab.errors import OutsideDomainError, ValidationFailure
from levelset_lab.geometry import TWO_PI, DomainSpec


def counterexample_domain(r2: float) -> DomainSpec:
    return DomainSpec(
        exterior=curve(f"{r2} + sin(4*theta)"),
        interior=curve("2 + sin(3*theta)"),
    )


def test_counterexample1_geometry_valid():
    spec = make_scenario("6 + sin(4*theta)", "2 + sin(3*theta)", "log(r)", "log(r)")
    checked = validate_scenario(spec)
    assert checked == spec and checked.sample.grid == (128, 64)


def test_touching_curves_rejected():
    # min r_E - max r_I = 3 - 3 = 0; the pointwise channel is ~0.05, far
    # below the resolvable-separation margin
    spec = make_scenario("4 + sin(4*theta)", "2 + sin(3*theta)", "log(r)", "log(r)")
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert any(v["check"] == "curves_separated" for v in err.value.violations)


def test_counterexample2_overlapping_ranges_accepted():
    # same-phase curves: radial ranges overlap but the pointwise gap is 1
    spec = make_scenario("4 + sin(3*theta)", "3 + sin(3*theta)", "log(r)", "log(r)")
    checked = validate_scenario(spec)
    assert checked == spec and checked.sample.grid == (128, 64)


def test_ellipticity_violation():
    data = {
        "domain": {"interior": {"radius": "1"}, "exterior": {"radius": "2"}},
        "operator": {"a11": "1", "a12": "1.5", "a22": "1", "b1": "0", "b2": "0"},
        "boundary": {"psi_interior": "0", "psi_exterior": "1"},
        "grid": {"n_theta": 64, "n_s": 32},
        "tolerances": {},
    }
    spec = scenario_from_dict(data)
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    viol = [v for v in err.value.violations if v["check"] == "ellipticity"]
    assert viol and viol[0]["witness"]["det"] == pytest.approx(-1.25)


def test_optional_notes_and_lambda_floor():
    """notes may be absent or null (no notes) or a list of strings, and a
    numeric lambda_floor is kept as a float."""
    data = {
        "domain": {"interior": {"radius": "1"}, "exterior": {"radius": "2"}},
        "operator": {"lambda_floor": 1e-8},
        "boundary": {"psi_interior": "0", "psi_exterior": "1"},
    }
    assert scenario_from_dict(data).notes == ()
    assert scenario_from_dict(dict(data, notes=None)).notes == ()
    spec = scenario_from_dict(dict(data, notes=["a", "b"]))
    assert spec.notes == ("a", "b") and spec.operator.lambda_floor == 1e-8


def test_positive_zeroth_order_rejected():
    data = {
        "domain": {"interior": {"radius": "1"}, "exterior": {"radius": "2"}},
        "operator": {"c": "1"},
        "boundary": {"psi_interior": "0", "psi_exterior": "1"},
        "grid": {"n_theta": 64, "n_s": 32},
        "tolerances": {},
    }
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(scenario_from_dict(data))
    assert any(v["check"] == "zeroth_order_sign" for v in err.value.violations)


def test_nonpositive_radius_rejected():
    spec = make_scenario("sin(theta)", None, "0", None)
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert any(v["check"] == "curve_positive" for v in err.value.violations)


def test_nonperiodic_radius_rejected():
    spec = make_scenario("2 + theta/10", None, "0", None)
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert any(v["check"] == "curve_periodic" for v in err.value.violations)


@pytest.mark.parametrize("radius, check, message", [
    ("2 + x", "curve_variables", "exterior radius may only reference theta, found ['x']"),
    ("log(cos(theta) - 2)", "curve_evaluation",
     "exterior radius failed to evaluate: log() evaluated at out-of-domain argument -3.0"),
    ("1/(1 - cos(theta))", "curve_finite", "exterior radius is non-finite"),
])
def test_radius_that_cannot_be_sampled_rejected(radius, check, message):
    """A radius with another variable, one that fails to evaluate and one
    that is infinite somewhere each give one violation, and the curve's
    later checks are skipped."""
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(make_scenario(radius, None, "0", None))
    assert err.value.violations == [{"check": check, "message": message}]


BAND_ANNULUS = json.loads((builtin_scenario_dir() / "band_annulus.json").read_text())


@pytest.mark.parametrize("data, violation", [
    ([], {"check": "schema", "message": "scenario root must be an object"}),
    (dict(BAND_ANNULUS, operator={"a11": "1 +"}),
     {"check": "expression", "message": "operator.a11: unexpected end of input (byte offset 3)"}),
    (dict(BAND_ANNULUS, operator={"a11": "sqrt(x - 10)"}),
     {"check": "operator_evaluation",
      "message": "operator coefficients failed to evaluate: sqrt() evaluated at out-of-domain argument -12.0"}),
    (dict(BAND_ANNULUS, operator={"a11": "1 + (r - r)/(r - r)"}),
     {"check": "operator_finite", "message": "operator coefficient(s) a11 non-finite", "witness": {"x": 1.0, "y": 0.0}}),
    (dict(BAND_ANNULUS, operator={"a11": "-1", "a22": "-1"}),
     {"check": "ellipticity", "message": "a11 not strictly positive", "witness": {"x": 1.0, "y": 0.0, "a11": -1.0}}),
    (dict(BAND_ANNULUS, tolerances={"interior_margin": 0.5}),
     {"check": "tolerances", "message": "interior_margin 0.5 outside (0, 0.25]"}),
    (dict(BAND_ANNULUS, boundary=dict(BAND_ANNULUS["boundary"], psi_exterior="1/y")),
     {"check": "boundary_finite", "message": "psi_exterior non-finite on its curve", "witness": {"theta": 0.0}}),
    (dict(BAND_ANNULUS, boundary=dict(BAND_ANNULUS["boundary"], psi_interior="0/(x - x)")),
     {"check": "boundary_finite", "message": "psi_interior non-finite on its curve", "witness": {"theta": 0.0}}),
], ids=["root", "malformed", "evaluation", "non-finite", "a11-sign", "interior-margin",
        "datum-infinite", "datum-nan"])
def test_one_malformed_input_gives_one_violation(data, violation):
    """A scenario with one bad part fails loading or validation with that
    one violation; a NaN coefficient is rejected although every
    ellipticity comparison with it is false, and so is a boundary datum
    that division makes infinite or NaN without an evaluation error."""
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(scenario_from_dict(data))
    assert err.value.violations == [violation]


def test_a_non_finite_coefficient_hides_no_other_violation():
    """A NaN b1 is reported together with a positive c and an infinite
    ellipticity floor, each checked on its own."""
    spec = scenario_from_dict(dict(BAND_ANNULUS, operator={"b1": "(r - r)/(r - r)", "c": "1"}))
    spec = replace(spec, operator=replace(spec.operator, lambda_floor=math.inf))
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert [(v["check"], v["message"]) for v in err.value.violations] == [
        ("operator_finite", "operator coefficient(s) b1 non-finite"),
        ("ellipticity", "lambda_floor must be finite"),
        ("zeroth_order_sign", "c(x) must be <= 0"),
    ]


def test_grid_minimums():
    spec = make_scenario("2", "1", "1", "0", grid=(16, 8))
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert sum(v["check"] == "grid" for v in err.value.violations) == 2


@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_non_finite_gates_rejected(value):
    """A non-finite tolerance or ellipticity floor would switch its gate off
    (every comparison with NaN is false), so validation rejects it, one
    violation per number."""
    spec = make_scenario("2", "1", "1", "0")
    for name in ("grad_zero_tol", "value_zero_tol", "dedup_radius", "equal_extrema_tol",
                 "linear_residual_tol", "interior_margin"):
        bad = replace(spec, tolerances=replace(spec.tolerances, **{name: value}))
        with pytest.raises(ValidationFailure) as err:
            validate_scenario(bad)
        assert err.value.violations == [{"check": "tolerances", "message": f"{name} must be finite"}]
    bad = replace(spec, operator=replace(spec.operator, lambda_floor=value))
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(bad)
    assert err.value.violations == [{"check": "ellipticity", "message": "lambda_floor must be finite"}]


def test_violations_collected_not_first_only():
    spec = make_scenario("sin(theta)", None, "0", None, grid=(8, 8))
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert len(err.value.violations) >= 3


@given(st.dictionaries(st.sampled_from(["domain", "operator", "boundary", "grid", "tolerances", "junk"]),
                       st.one_of(st.none(), st.integers(), st.text(max_size=10),
                                 st.dictionaries(st.text(max_size=8), st.text(max_size=12), max_size=3))))
@settings(max_examples=150, deadline=None)
def test_scenario_loading_totality(data):
    """Malformed scenario dictionaries always produce a structured error list."""
    try:
        spec = scenario_from_dict(data)
        validate_scenario(spec)
    except ValidationFailure as err:
        assert err.violations


def test_rims_pair_each_curve_with_its_datum():
    """An annulus has the exterior rim, then the interior one; a disk only
    the exterior one, whatever psi_interior holds."""
    annulus = make_scenario("2", "1", "x", "y")
    assert annulus.rims() == [("exterior", annulus.domain.exterior, annulus.psi_exterior),
                              ("interior", annulus.domain.interior, annulus.psi_interior)]
    disk = make_scenario("1", None, "x", "y")
    assert disk.rims() == [("exterior", disk.domain.exterior, disk.psi_exterior)]


@pytest.mark.parametrize("interior, psi_interior", [(None, "log(x - 10)"), ("1", None)],
                         ids=["disk-with-interior-datum", "annulus-without-it"])
def test_boundary_data_only_where_a_curve_is(interior, psi_interior):
    """A datum without its curve, or a curve without its datum, is the one
    boundary_data violation; the unpaired datum is never evaluated."""
    spec = make_scenario("2", interior, "cos(2*theta)", psi_interior)
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert err.value.violations == [{
        "check": "boundary_data",
        "message": "psi_interior must be present exactly when the domain has an interior curve"}]


def test_boundary_data_checked_interior_first():
    spec = make_scenario("2", "1", "log(x - 10)", "sqrt(x - 10)")
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert [(v["check"], v["message"].split(":")[0]) for v in err.value.violations] == [
        ("boundary_evaluation", "psi_interior failed to evaluate on its curve"),
        ("boundary_evaluation", "psi_exterior failed to evaluate on its curve")]


def _named(name):
    return {"name": name, "domain": {"exterior": {"radius": "1"}}, "boundary": {"psi_exterior": "x"}}


@pytest.mark.parametrize("name, allowed", [
    ("sym0_k2", True), ("..", True), ("../escaped", False), ("a/b", False), ("/abs", False), ("a\u0000b", False),
])
def test_name_is_one_file_name(name, allowed):
    """The name becomes part of output file names, so it may not hold a
    path separator or NUL."""
    if allowed:
        assert scenario_from_dict(_named(name)).name == name
        return
    with pytest.raises(ValidationFailure) as err:
        scenario_from_dict(_named(name))
    assert err.value.violations == [
        {"check": "schema", "message": f"name {name!r} must not contain a path separator or NUL"}]


# ------------------------------------------------------------------ the map

def test_map_circular_blend():
    dom = DomainSpec(exterior=curve("2"),
                     interior=curve("1"))
    assert dom.map_point(0.0, 0.5) == pytest.approx((1.5, 0.0))
    assert abs(dom.metric(0.0, 0.5)["det"]) > 0


def test_map_wavy_sample():
    dom = counterexample_domain(6.0)
    # r_I(pi/2) = 2 + sin(3 pi / 2) = 1
    assert dom.map_point(math.pi / 2, 0.0) == pytest.approx((0.0, 1.0), abs=1e-12)


def test_disk_center_singular():
    dom = DomainSpec(exterior=curve("1"))
    # R = 0 at s = 0, so the Jacobian determinant -R * R_s vanishes there
    assert dom.blend(0.3, 0.0)[0] == 0.0
    # the centre point itself is still well-defined through map_point
    x, y = dom.map_point(0.3, 0.0)
    assert (x, y) == pytest.approx((0.0, 0.0))


def test_invert_round_trip():
    dom = counterexample_domain(6.0)
    theta = np.linspace(0.0, TWO_PI, 40, endpoint=False)
    s = np.linspace(0.05, 0.95, 11)
    T, S = np.meshgrid(theta, s, indexing="ij")
    X, Y = dom.map_point(T, S)
    T2, S2, _ = dom.reference(X, Y)
    assert np.allclose(np.mod(T2 - T + np.pi, TWO_PI) - np.pi, 0.0, atol=1e-12)
    assert np.allclose(S2, S, atol=1e-12)


def test_reference_inside_rule():
    """Points within _S_TOL of s in [0, 1] are inside with s clipped; points
    farther out, or not finite, are outside, and a field query rejects any
    batch holding one."""
    dom = counterexample_domain(6.0)
    fld = field_from_function(
        make_scenario("6.0 + sin(4*theta)", "2 + sin(3*theta)", "log(r)", "log(r)"), lambda x, y: x)
    s = np.array([-2e-9, -5e-10, 0.3, 1.0 + 5e-10, 1.0 + 2e-9])
    theta = np.full_like(s, 0.7)
    x, y = dom.map_point(theta, s)
    T, S, inside = dom.reference(np.append(x, np.nan), np.append(y, 0.0))
    assert inside.tolist() == [False, True, True, True, False, False]
    assert S[1] == 0.0 and S[3] == 1.0 and S[2] == pytest.approx(0.3, abs=1e-12)
    assert np.all((S[:-1] >= 0.0) & (S[:-1] <= 1.0))
    assert fld._invert_inside(x[1:4], y[1:4])[1].tolist() == S[1:4].tolist()
    for k in (0, 4):
        with pytest.raises(OutsideDomainError):
            value_at(fld, x[k], y[k])


def test_metric_inverse_consistency():
    dom = counterexample_domain(6.0)
    met = dom.metric(np.array([1.1]), np.array([0.4]))
    J = np.array([[met["x_t"][0], met["x_s"][0]], [met["y_t"][0], met["y_s"][0]]])
    Jinv = np.array([[met["t_x"][0], met["t_y"][0]], [met["s_x"][0], met["s_y"][0]]])
    assert np.allclose(Jinv @ J, np.eye(2), atol=1e-12)
    first = dom.inverse_jacobian(np.array([1.1]), np.array([0.4]))
    assert {k: v.tolist() for k, v in first.items()} == {k: met[k].tolist() for k in first}


@given(st.floats(min_value=0.0, max_value=TWO_PI - 1e-9))
@settings(max_examples=80, deadline=None)
def test_map_monotone_in_s(theta):
    dom = counterexample_domain(6.0)
    s = np.linspace(0.0, 1.0, 33)
    x, y = dom.map_point(np.full_like(s, theta), s)
    radii = np.hypot(x, y)
    assert np.all(np.diff(radii) > 0)


def test_reference_expression_matches_band_annulus_solution():
    # the shipped closed form reproduces its own boundary data
    ref = ex.parse_expression(
        "5/log(2)*log(r) + (2/(15*r) - r/30)*sin(theta) + 4/15*(r^2 - 1/r^2)*cos(2*theta)")
    theta = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    inner = ex.evaluate_xy(ref, np.cos(theta), np.sin(theta))
    outer = ex.evaluate_xy(ref, 2.0 * np.cos(theta), 2.0 * np.sin(theta))
    assert np.allclose(inner, 0.1 * np.sin(theta), atol=1e-12)
    assert np.allclose(outer, 5.0 + np.cos(2.0 * theta), atol=1e-12)
