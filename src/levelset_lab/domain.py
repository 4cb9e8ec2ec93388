"""Scenario specification: operator coefficients, boundary data, validation.

Scenario files are JSON with top-level keys ``domain``, ``operator``,
``boundary``, ``grid``, ``tolerances`` (plus optional ``name``,
``reference`` and ``notes``).  All closed-form fields are expression
strings in the grammar of :mod:`levelset_lab.expressions`.
"""

from __future__ import annotations

import json
import math
import os
import sys
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import expressions as ex
from .errors import ExpressionError, ValidationFailure
from .geometry import TWO_PI, BoundaryCurve, DomainSpec

# Conservative relative separation margin between the two boundary curves;
# a channel thinner than this fraction of the outer radius cannot be
# resolved by the admissible grids.
REL_GAP_MIN = 0.02
# validate_scenario samples each boundary curve at this many angles, and
# the operator on a square (theta, s) patch with this many points a side.
_CURVE_SAMPLES = 4096
_INTERIOR_SAMPLES = 256
# Relative size below which b and c count as zero in is_pure_diffusion.
_PURE_DIFFUSION_TOL = 1e-13


@dataclass(frozen=True)
class EllipticOperator:
    """Second-order operator  sum a_ij d_ij + sum b_i d_i + c  with a12 = a21."""

    a11: tuple
    a12: tuple
    a22: tuple
    b1: tuple
    b2: tuple
    c: tuple | None = None
    lambda_floor: float = 1e-10

    @staticmethod
    def laplace() -> "EllipticOperator":
        one = ex.parse_expression("1")
        zero = ex.parse_expression("0")
        return EllipticOperator(one, zero, one, zero, zero, None)

    def coefficients_at(self, x, y) -> dict:
        env = ex.env_from_xy(x, y)
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        out = {}
        for name in ("a11", "a12", "a22", "b1", "b2"):
            val = ex.evaluate_env(getattr(self, name), env)
            out[name] = np.broadcast_to(np.asarray(val, dtype=float), shape).copy()
        if self.c is not None:
            out["c"] = np.broadcast_to(np.asarray(ex.evaluate_env(self.c, env), dtype=float), shape).copy()
        else:
            out["c"] = np.zeros(shape)
        return out

    def is_pure_diffusion(self, x, y) -> bool:
        """True when b == 0 and c == 0 on the given sample."""
        co = self.coefficients_at(x, y)
        scale = max(float(np.max(np.abs(co["a11"]))), float(np.max(np.abs(co["a22"]))), 1.0)
        return all(float(np.max(np.abs(co[k]))) <= _PURE_DIFFUSION_TOL * scale for k in ("b1", "b2", "c"))


@dataclass(frozen=True)
class ToleranceSet:
    """Detection/census tolerances; ``None`` fields resolve to scale-aware defaults."""

    grad_zero_tol: float | None = None
    value_zero_tol: float | None = None
    dedup_radius: float | None = None
    equal_extrema_tol: float = 1e-4
    linear_residual_tol: float = 1e-10
    interior_margin: float = 0.05


@dataclass(frozen=True)
class ScenarioSpec:
    domain: DomainSpec
    operator: EllipticOperator
    psi_exterior: tuple
    psi_interior: tuple | None = None
    grid: tuple = (128, 64)
    tolerances: ToleranceSet = field(default_factory=ToleranceSet)
    name: str = "scenario"
    reference: tuple | None = None
    notes: tuple = ()

    @property
    def n_theta(self) -> int:
        return self.grid[0]

    @property
    def n_s(self) -> int:
        return self.grid[1]

    def with_grid(self, n_theta: int, n_s: int) -> "ScenarioSpec":
        return replace(self, grid=(int(n_theta), int(n_s)))

    def rims(self) -> list:
        """The rims the domain has, exterior first, each as (which, curve,
        datum); an interior rim without psi_interior has the datum None."""
        rims = [("exterior", self.domain.exterior, self.psi_exterior)]
        if self.domain.interior is not None:
            rims.append(("interior", self.domain.interior, self.psi_interior))
        return rims


# --------------------------------------------------------------------------
# validation

def _violation(check: str, message: str, witness=None) -> dict:
    out = {"check": check, "message": message}
    if witness is not None:
        out["witness"] = witness
    return out


def validate_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Check every scenario invariant on dense samples.

    Returns the spec unchanged when everything holds, otherwise raises
    ValidationFailure carrying the complete list of violations (with witness
    points).  Never aborts on the first failure.
    """
    bad: list[dict] = []
    theta = np.linspace(0.0, TWO_PI, _CURVE_SAMPLES, endpoint=False)

    radii = {}
    for label, curve, _ in spec.rims():
        extra = ex.free_variables(curve.radius_expr) - {"theta"}
        if extra:
            bad.append(_violation("curve_variables", f"{label} radius may only reference theta, found {sorted(extra)}"))
            continue
        try:
            r = curve.radius(theta)
        except ExpressionError as err:
            bad.append(_violation("curve_evaluation", f"{label} radius failed to evaluate: {err}"))
            continue
        radii[label] = r
        if not np.all(np.isfinite(r)):
            bad.append(_violation("curve_finite", f"{label} radius is non-finite"))
            continue
        if np.min(r) <= 0.0:
            k = int(np.argmin(r))
            bad.append(_violation("curve_positive", f"{label} radius not positive", {"theta": float(theta[k]), "r": float(r[k])}))
        r0 = float(curve.radius(np.array([0.0]))[0])
        r2pi = float(curve.radius(np.array([TWO_PI]))[0])
        if abs(r0 - r2pi) > 1e-12 * max(1.0, float(np.max(np.abs(r)))):
            bad.append(_violation("curve_periodic", f"{label} radius is not 2pi-periodic", {"r(0)": r0, "r(2pi)": r2pi}))

    if "interior" in radii and "exterior" in radii:
        gap = radii["exterior"] - radii["interior"]
        gap_min = float(np.min(gap))
        needed = max(1e-12, REL_GAP_MIN * float(np.max(radii["exterior"])))
        if gap_min <= needed:
            k = int(np.argmin(gap))
            bad.append(_violation(
                "curves_separated",
                f"curves not separated: min(r_E - r_I) = {gap_min:.6g} <= required margin {needed:.6g}",
                {"theta": float(theta[k]), "gap": gap_min},
            ))

    if (spec.psi_interior is not None) != (spec.domain.interior is not None):
        bad.append(_violation("boundary_data", "psi_interior must be present exactly when the domain has an interior curve"))

    nt, ns = spec.grid
    if nt < 32:
        bad.append(_violation("grid", f"n_theta = {nt} < 32"))
    if ns < 16:
        bad.append(_violation("grid", f"n_s = {ns} < 16"))

    tol = spec.tolerances
    for f in fields(tol):
        v = getattr(tol, f.name)
        if v is None:
            continue
        if not math.isfinite(v):
            bad.append(_violation("tolerances", f"{f.name} must be finite"))
        elif v <= 0:
            given = " when given" if f.default is None else ""
            bad.append(_violation("tolerances", f"{f.name} must be strictly positive{given}"))
    if math.isfinite(tol.interior_margin) and not (0.0 < tol.interior_margin <= 0.25):
        bad.append(_violation("tolerances", f"interior_margin {tol.interior_margin} outside (0, 0.25]"))

    # interior sample for operator checks (skip if curves already broken)
    if not any(v["check"].startswith("curve") or v["check"] == "curves_separated" for v in bad):
        ts = np.linspace(0.0, TWO_PI, _INTERIOR_SAMPLES, endpoint=False)
        ss = np.linspace(0.0, 1.0, _INTERIOR_SAMPLES)
        T, S = np.meshgrid(ts, ss, indexing="ij")
        X, Y = spec.domain.map_point(T, S)
        try:
            co = spec.operator.coefficients_at(X, Y)
        except ExpressionError as err:
            co = None
            bad.append(_violation("operator_evaluation", f"operator coefficients failed to evaluate: {err}"))
        if co is not None:
            a11, a12, a22 = co["a11"], co["a12"], co["a22"]
            det = a11 * a22 - a12 * a12
            if np.min(a11) <= 0.0:
                k = int(np.argmin(a11))
                bad.append(_violation("ellipticity", "a11 not strictly positive",
                                      {"x": float(X.flat[k]), "y": float(Y.flat[k]), "a11": float(a11.flat[k])}))
            if not math.isfinite(spec.operator.lambda_floor):
                bad.append(_violation("ellipticity", "lambda_floor must be finite"))
            elif np.min(det) < spec.operator.lambda_floor:
                k = int(np.argmin(det))
                bad.append(_violation("ellipticity", f"a11*a22 - a12^2 = {float(det.flat[k]):.6g} below floor {spec.operator.lambda_floor:.3g}",
                                      {"x": float(X.flat[k]), "y": float(Y.flat[k]), "det": float(det.flat[k])}))
            if spec.operator.c is not None and np.max(co["c"]) > 0.0:
                k = int(np.argmax(co["c"]))
                bad.append(_violation("zeroth_order_sign", "c(x) must be <= 0",
                                      {"x": float(X.flat[k]), "y": float(Y.flat[k]), "c": float(co["c"].flat[k])}))
        # interior datum first; no curve check failed, so radii holds every rim
        for which, _, datum in reversed(spec.rims()):
            if datum is None:
                continue
            rb = radii[which]
            try:
                ex.evaluate_xy(datum, rb * np.cos(theta), rb * np.sin(theta))
            except ExpressionError as err:
                bad.append(_violation("boundary_evaluation", f"psi_{which} failed to evaluate on its curve: {err}"))

    if bad:
        raise ValidationFailure(bad)
    return spec


# --------------------------------------------------------------------------
# JSON serialization

def _is_number(value) -> bool:
    """A JSON number within the float range: not a boolean, and not NaN or
    Infinity, which Python's json reads although JSON has neither."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        return False
    return abs(value) <= sys.float_info.max


def _parse_field(bad, path, src):
    if not isinstance(src, str):
        bad.append(_violation("schema", f"{path} must be an expression string"))
        return None
    try:
        return ex.parse_expression(src)
    except ExpressionError as err:
        bad.append(_violation("expression", f"{path}: {err}"))
        return None


def _parse_curve(bad, which, data):
    """The BoundaryCurve of ``domain.<which>``, or None after recording why not."""
    src = data.get("radius") if isinstance(data, dict) else None
    tree = _parse_field(bad, f"domain.{which}.radius", src)
    return None if tree is None else BoundaryCurve(tree, src)


def scenario_from_dict(data: dict, name: str = "scenario") -> ScenarioSpec:
    """Build a ScenarioSpec from parsed JSON; collects all schema errors."""
    bad: list[dict] = []
    if not isinstance(data, dict):
        raise ValidationFailure([_violation("schema", "scenario root must be an object")])

    dom = data.get("domain")
    exterior = interior = None
    if not isinstance(dom, dict) or not isinstance(dom.get("exterior"), dict):
        bad.append(_violation("schema", "domain.exterior is required"))
    else:
        exterior = _parse_curve(bad, "exterior", dom["exterior"])
        if dom.get("interior") is not None:
            interior = _parse_curve(bad, "interior", dom["interior"])

    op_data = data.get("operator") or {}
    op = None
    if not isinstance(op_data, dict):
        bad.append(_violation("schema", "operator must be an object"))
    else:
        trees = {}
        for key in ("a11", "a12", "a22", "b1", "b2"):
            default = {"a11": "1", "a12": "0", "a22": "1", "b1": "0", "b2": "0"}[key]
            trees[key] = _parse_field(bad, f"operator.{key}", op_data.get(key, default))
        c_tree = None
        if op_data.get("c") is not None:
            c_tree = _parse_field(bad, "operator.c", op_data["c"])
        lambda_floor = op_data.get("lambda_floor", 1e-10)
        if _is_number(lambda_floor):
            lambda_floor = float(lambda_floor)
        else:
            bad.append(_violation("schema", "operator.lambda_floor must be a number"))
        if all(trees[k] is not None for k in trees):
            op = EllipticOperator(trees["a11"], trees["a12"], trees["a22"], trees["b1"], trees["b2"], c_tree,
                                  lambda_floor=lambda_floor)

    bc = data.get("boundary") or {}
    psi_int = psi_ext = None
    if not isinstance(bc, dict) or "psi_exterior" not in bc:
        bad.append(_violation("schema", "boundary.psi_exterior is required"))
    else:
        psi_ext = _parse_field(bad, "boundary.psi_exterior", bc["psi_exterior"])
        if bc.get("psi_interior") is not None:
            psi_int = _parse_field(bad, "boundary.psi_interior", bc["psi_interior"])

    grid_data = data.get("grid") or {}
    grid = (128, 64)
    if not isinstance(grid_data, dict):
        bad.append(_violation("schema", "grid must be an object"))
    else:
        sizes = (grid_data.get("n_theta", 128), grid_data.get("n_s", 64))
        if all(isinstance(n, int) and not isinstance(n, bool) for n in sizes):
            grid = sizes
        else:
            bad.append(_violation("schema", "grid.n_theta / grid.n_s must be integers"))

    tol_data = data.get("tolerances") or {}
    tol = ToleranceSet()
    if isinstance(tol_data, dict):
        kwargs = {}
        for f in fields(ToleranceSet):
            v = tol_data.get(f.name)
            if _is_number(v):
                kwargs[f.name] = float(v)
            elif v is not None:
                bad.append(_violation("schema", f"tolerances.{f.name} must be a number"))
        tol = ToleranceSet(**kwargs)
    else:
        bad.append(_violation("schema", "tolerances must be an object"))

    reference = None
    if data.get("reference") is not None:
        reference = _parse_field(bad, "reference", data["reference"])

    notes = data.get("notes")
    if notes is None:
        notes = []
    elif not (isinstance(notes, list) and all(isinstance(n, str) for n in notes)):
        bad.append(_violation("schema", "notes must be a list of strings"))

    # the name becomes part of output file names, so it must stay one name
    name = str(data.get("name", name))
    if {"/", os.sep, os.altsep, "\0"} & set(name):
        bad.append(_violation("schema", f"name {name!r} must not contain a path separator or NUL"))

    if bad or exterior is None or op is None or psi_ext is None:
        if not bad:
            bad.append(_violation("schema", "incomplete scenario"))
        raise ValidationFailure(bad)

    return ScenarioSpec(
        domain=DomainSpec(exterior=exterior, interior=interior),
        operator=op,
        psi_exterior=psi_ext,
        psi_interior=psi_int,
        grid=grid,
        tolerances=tol,
        name=name,
        reference=reference,
        notes=tuple(notes),
    )


def load_scenario(path, validate: bool = True) -> ScenarioSpec:
    path = Path(path)
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ValidationFailure([_violation("file", f"cannot read scenario {path}: {err}")])
    spec = scenario_from_dict(data, name=path.stem)
    if validate:
        validate_scenario(spec)
    return spec
