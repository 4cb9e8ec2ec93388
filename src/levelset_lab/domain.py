"""Scenario specification: operator coefficients, boundary data, validation.

Scenario files are JSON with top-level keys ``domain``, ``operator``,
``boundary``, ``grid``, ``tolerances`` (plus optional ``name``,
``reference`` and ``notes``).  All closed-form fields are expression
strings in the grammar of :mod:`levelset_lab.expressions`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from . import expressions as ex
from .errors import ExpressionError, ValidationFailure
from .geometry import TWO_PI, BoundaryCurve, DomainSpec

# Conservative relative separation margin between the two boundary curves;
# a channel thinner than this fraction of the outer radius cannot be
# resolved by the admissible grids.
REL_GAP_MIN = 0.02


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
    sources: dict = field(default_factory=dict)

    @staticmethod
    def laplace() -> "EllipticOperator":
        one = ex.parse_expression("1")
        zero = ex.parse_expression("0")
        return EllipticOperator(one, zero, one, zero, zero, None,
                                sources={"a11": "1", "a12": "0", "a22": "1", "b1": "0", "b2": "0"})

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

    def is_pure_diffusion(self, x, y, tol: float = 1e-13) -> bool:
        """True when b == 0 and c == 0 on the given sample."""
        co = self.coefficients_at(x, y)
        scale = max(float(np.max(np.abs(co["a11"]))), float(np.max(np.abs(co["a22"]))), 1.0)
        return all(float(np.max(np.abs(co[k]))) <= tol * scale for k in ("b1", "b2", "c"))


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
    sources: dict = field(default_factory=dict)

    @property
    def n_theta(self) -> int:
        return self.grid[0]

    @property
    def n_s(self) -> int:
        return self.grid[1]

    def with_grid(self, n_theta: int, n_s: int) -> "ScenarioSpec":
        return replace(self, grid=(int(n_theta), int(n_s)))

    def boundary_value_expr(self, which: str):
        return self.psi_interior if which == "interior" else self.psi_exterior


# --------------------------------------------------------------------------
# validation

def _violation(check: str, message: str, witness=None) -> dict:
    out = {"check": check, "message": message}
    if witness is not None:
        out["witness"] = witness
    return out


def validate_scenario(spec: ScenarioSpec, curve_samples: int = 4096, interior_samples: int = 256) -> ScenarioSpec:
    """Check every scenario invariant on dense samples.

    Returns the spec unchanged when everything holds, otherwise raises
    ValidationFailure carrying the complete list of violations (with witness
    points).  Never aborts on the first failure.
    """
    bad: list[dict] = []
    theta = np.linspace(0.0, TWO_PI, curve_samples, endpoint=False)

    curves = [("exterior", spec.domain.exterior)]
    if spec.domain.interior is not None:
        curves.append(("interior", spec.domain.interior))
    radii = {}
    for label, curve in curves:
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

    if spec.domain.interior is not None and "interior" in radii and "exterior" in radii:
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
    for name in ("equal_extrema_tol", "linear_residual_tol", "interior_margin"):
        if getattr(tol, name) <= 0:
            bad.append(_violation("tolerances", f"{name} must be strictly positive"))
    for name in ("grad_zero_tol", "value_zero_tol", "dedup_radius"):
        v = getattr(tol, name)
        if v is not None and v <= 0:
            bad.append(_violation("tolerances", f"{name} must be strictly positive when given"))
    if not (0.0 < tol.interior_margin <= 0.25):
        bad.append(_violation("tolerances", f"interior_margin {tol.interior_margin} outside (0, 0.25]"))

    # interior sample for operator checks (skip if curves already broken)
    if not any(v["check"].startswith("curve") or v["check"] == "curves_separated" for v in bad):
        ts = np.linspace(0.0, TWO_PI, interior_samples, endpoint=False)
        ss = np.linspace(0.0, 1.0, interior_samples)
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
            if np.min(det) < spec.operator.lambda_floor:
                k = int(np.argmin(det))
                bad.append(_violation("ellipticity", f"a11*a22 - a12^2 = {float(det.flat[k]):.6g} below floor {spec.operator.lambda_floor:.3g}",
                                      {"x": float(X.flat[k]), "y": float(Y.flat[k]), "det": float(det.flat[k])}))
            if spec.operator.c is not None and np.max(co["c"]) > 0.0:
                k = int(np.argmax(co["c"]))
                bad.append(_violation("zeroth_order_sign", "c(x) must be <= 0",
                                      {"x": float(X.flat[k]), "y": float(Y.flat[k]), "c": float(co["c"].flat[k])}))
        for which in ("interior", "exterior"):
            expr = spec.boundary_value_expr(which)
            if expr is None:
                continue
            curve = spec.domain.interior if which == "interior" else spec.domain.exterior
            rb = curve.radius(theta)
            try:
                ex.evaluate_xy(expr, rb * np.cos(theta), rb * np.sin(theta))
            except ExpressionError as err:
                bad.append(_violation("boundary_evaluation", f"psi_{which} failed to evaluate on its curve: {err}"))

    if bad:
        raise ValidationFailure(bad)
    return spec


# --------------------------------------------------------------------------
# JSON serialization

def _parse_field(bad, sources, path, src):
    if not isinstance(src, str):
        bad.append(_violation("schema", f"{path} must be an expression string"))
        return None
    try:
        tree = ex.parse_expression(src)
    except ExpressionError as err:
        bad.append(_violation("expression", f"{path}: {err}"))
        return None
    sources[path] = src
    return tree


def scenario_from_dict(data: dict, name: str = "scenario") -> ScenarioSpec:
    """Build a ScenarioSpec from parsed JSON; collects all schema errors."""
    bad: list[dict] = []
    if not isinstance(data, dict):
        raise ValidationFailure([_violation("schema", "scenario root must be an object")])
    sources: dict = {}

    dom = data.get("domain")
    exterior = interior = None
    if not isinstance(dom, dict) or not isinstance(dom.get("exterior"), dict):
        bad.append(_violation("schema", "domain.exterior is required"))
    else:
        tree = _parse_field(bad, sources, "domain.exterior.radius", dom["exterior"].get("radius") if isinstance(dom["exterior"], dict) else None)
        if tree is not None:
            exterior = BoundaryCurve(tree, sources["domain.exterior.radius"])
        if dom.get("interior") is not None:
            tree = _parse_field(bad, sources, "domain.interior.radius", dom["interior"].get("radius") if isinstance(dom["interior"], dict) else None)
            if tree is not None:
                interior = BoundaryCurve(tree, sources["domain.interior.radius"])

    op_data = data.get("operator") or {}
    op = None
    if not isinstance(op_data, dict):
        bad.append(_violation("schema", "operator must be an object"))
    else:
        trees = {}
        for key in ("a11", "a12", "a22", "b1", "b2"):
            default = {"a11": "1", "a12": "0", "a22": "1", "b1": "0", "b2": "0"}[key]
            trees[key] = _parse_field(bad, sources, f"operator.{key}", op_data.get(key, default))
        c_tree = None
        if op_data.get("c") is not None:
            c_tree = _parse_field(bad, sources, "operator.c", op_data["c"])
        if all(trees[k] is not None for k in trees):
            op = EllipticOperator(trees["a11"], trees["a12"], trees["a22"], trees["b1"], trees["b2"], c_tree,
                                  lambda_floor=float(op_data.get("lambda_floor", 1e-10)),
                                  sources={k: sources.get(f"operator.{k}") for k in ("a11", "a12", "a22", "b1", "b2", "c")})

    bc = data.get("boundary") or {}
    psi_int = psi_ext = None
    if not isinstance(bc, dict) or "psi_exterior" not in bc:
        bad.append(_violation("schema", "boundary.psi_exterior is required"))
    else:
        psi_ext = _parse_field(bad, sources, "boundary.psi_exterior", bc["psi_exterior"])
        if bc.get("psi_interior") is not None:
            psi_int = _parse_field(bad, sources, "boundary.psi_interior", bc["psi_interior"])

    grid_data = data.get("grid") or {}
    grid = (128, 64)
    if not isinstance(grid_data, dict):
        bad.append(_violation("schema", "grid must be an object"))
    else:
        try:
            grid = (int(grid_data.get("n_theta", 128)), int(grid_data.get("n_s", 64)))
        except (TypeError, ValueError):
            bad.append(_violation("schema", "grid.n_theta / grid.n_s must be integers"))

    tol_data = data.get("tolerances") or {}
    tol = ToleranceSet()
    if isinstance(tol_data, dict):
        kwargs = {}
        for name in ("grad_zero_tol", "value_zero_tol", "dedup_radius", "equal_extrema_tol",
                     "linear_residual_tol", "interior_margin"):
            if tol_data.get(name) is not None:
                try:
                    kwargs[name] = float(tol_data[name])
                except (TypeError, ValueError):
                    bad.append(_violation("schema", f"tolerances.{name} must be a number"))
        tol = ToleranceSet(**kwargs)
    else:
        bad.append(_violation("schema", "tolerances must be an object"))

    reference = None
    if data.get("reference") is not None:
        reference = _parse_field(bad, sources, "reference", data["reference"])

    notes = tuple(data.get("notes", ()))

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
        name=str(data.get("name", name)),
        reference=reference,
        notes=notes,
        sources=sources,
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
