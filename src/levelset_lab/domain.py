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
from .geometry import DISK_S_FLOOR, TWO_PI, BoundaryCurve, DomainSpec

# Conservative relative separation margin between the two boundary curves;
# a channel thinner than this fraction of the outer radius cannot be
# resolved by the admissible grids.
REL_GAP_MIN = 0.02
# validate_scenario samples each boundary curve at this many angles.
_CURVE_SAMPLES = 4096
# run_scenario solves on the configured grid and on this refinement of it,
# and validate_scenario samples the operator at the refinement's nodes.
FINE_FACTOR = 2
# Relative size below which b and c count as absent (OperatorSample.lower_order).
_LOWER_ORDER_TOL = 1e-13
_COEFFICIENTS = ("a11", "a12", "a22", "b1", "b2", "c")
# The coefficients of the operator in reference coordinates,
# a_tt u_tt + 2 a_ts u_ts + a_ss u_ss + b_t u_t + b_s u_s + c u.
TERMS = ("a_tt", "a_ts", "a_ss", "b_t", "b_s", "c")


@dataclass(frozen=True)
class EllipticOperator:
    """Second-order operator  sum a_ij d_ij + sum b_i d_i + c  with a12 = a21."""

    a11: tuple
    a12: tuple
    a22: tuple
    b1: tuple
    b2: tuple
    c: tuple
    lambda_floor: float = 1e-10

    def coefficients_at(self, x, y) -> dict:
        env = ex.env_from_xy(x, y)
        shape = np.broadcast(np.asarray(x), np.asarray(y)).shape
        out = {}
        for name in _COEFFICIENTS:
            val = ex.evaluate_env(getattr(self, name), env)
            out[name] = np.broadcast_to(np.asarray(val, dtype=float), shape).copy()
        return out


def _scale(a11, a22) -> float:
    """The power of two at or below the largest |a11|, |a22|: dividing by it is exact."""
    return math.ldexp(1.0, math.frexp(float(max(np.max(np.abs(a11)), np.max(np.abs(a22)))))[1] - 1)


def grid_nodes(n_theta: int, n_s: int):
    """(theta, s) at the nodes of an n_theta x n_s grid, each (n_theta, n_s + 1)."""
    theta = np.arange(n_theta) * (TWO_PI / n_theta)
    s = np.arange(n_s + 1) / n_s
    return np.meshgrid(theta, s, indexing="ij")


def _node_values(spec: "ScenarioSpec", grid):
    """The one evaluation of the map and the operator: (metric, coefficients,
    x, y), the metric at every node of `grid`, each (n_theta, n_s + 1), on a
    disk with s = 0 taken at DISK_S_FLOOR, where it is finite; the
    coefficients at the points x, y, which are the nodes, flattened, and
    then a disk's centre."""
    T, S = grid_nodes(*grid)
    # theta a column and s a row, which the metric broadcasts: each radius is evaluated once per angle
    metric = spec.domain.metric(T[:, :1], np.maximum(S[:1], DISK_S_FLOOR) if spec.domain.is_disk else S[:1])
    x, y = metric["x"].ravel(), metric["y"].ravel()
    if spec.domain.is_disk:
        x, y = np.append(x, 0.0), np.append(y, 0.0)
    return metric, spec.operator.coefficients_at(x, y), x, y


@dataclass(frozen=True)
class OperatorSample:
    """The operator at every node of one grid, as assembly reads it.

    `source` is the (domain, operator) sampled.  `nodes` holds the node
    positions x and y and the TERMS, the operator's coefficients in
    reference coordinates, each (n_theta, n_s + 1), and `centre` a disk
    centre's a11 ... c.  Both are divided by the power of two at or below
    the largest |a11|, |a22| of the sample, which leaves the discrete
    problem the same to the last bit and keeps every stencil weight formed
    from them finite.  `lower_order` is (first-order term present,
    zeroth-order term present), read from the unscaled coefficients: b or c
    is present where it exceeds _LOWER_ORDER_TOL times the largest of
    |a11|, |a22| and 1 on the sample."""

    source: tuple
    grid: tuple
    nodes: dict
    centre: dict | None
    lower_order: tuple

    @classmethod
    def build(cls, spec: "ScenarioSpec", met, co) -> "OperatorSample":
        """The sample of the metric and coefficients that `_node_values`
        gives, whose coefficient arrays it divides in place; a value that is
        not finite stays so, without a warning, for assembly to name."""
        size = {k: float(np.max(np.abs(v))) for k, v in co.items()}
        floor = _LOWER_ORDER_TOL * max(size["a11"], size["a22"], 1.0)
        scale = _scale(co["a11"], co["a22"])
        shape, n = met["x"].shape, met["x"].size
        centre = {k: float(v[n]) / scale for k, v in co.items()} if co["a11"].size > n else None
        a11, a12, a22, b1, b2, c = (np.divide(co[k][:n], scale, out=co[k][:n]).reshape(shape) for k in _COEFFICIENTS)
        t_x, t_y, s_x, s_y = met["t_x"], met["t_y"], met["s_x"], met["s_y"]
        with np.errstate(over="ignore", invalid="ignore"):
            terms = (
                a11 * t_x ** 2 + 2.0 * a12 * t_x * t_y + a22 * t_y ** 2,
                a11 * t_x * s_x + a12 * (t_x * s_y + t_y * s_x) + a22 * t_y * s_y,
                a11 * s_x ** 2 + 2.0 * a12 * s_x * s_y + a22 * s_y ** 2,
                a11 * met["t_xx"] + 2.0 * a12 * met["t_xy"] + a22 * met["t_yy"] + b1 * t_x + b2 * t_y,
                a11 * met["s_xx"] + 2.0 * a12 * met["s_xy"] + a22 * met["s_yy"] + b1 * s_x + b2 * s_y,
                c,
            )
        nodes = {"x": met["x"], "y": met["y"], **dict(zip(TERMS, terms))}
        return cls((spec.domain, spec.operator), (shape[0], shape[1] - 1), nodes, centre,
                   (max(size["b1"], size["b2"]) > floor, size["c"] > floor))


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
    # the operator sample of validate_scenario, at the nodes of FINE_FACTOR times the validated grid
    sample: OperatorSample | None = field(default=None, compare=False, repr=False)

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

    def operator_sample(self) -> OperatorSample:
        """The operator at the nodes of this grid: every k-th node of the
        validated sample, copied, when it was taken of this domain and
        operator on a grid k times this one, k a power of two, so that the
        nodes are the same to the last bit; otherwise (a spec that was not
        validated, another grid, or another operator or domain put in with
        `replace`) sampled here."""
        sample, (nt, ns) = self.sample, self.grid
        k = sample.grid[0] // nt if sample is not None and sample.source == (self.domain, self.operator) else 0
        if k < 1 or k & (k - 1) or sample.grid != (k * nt, k * ns):
            return OperatorSample.build(self, *_node_values(self, self.grid)[:2])
        return sample if k == 1 else replace(sample, grid=self.grid,
                                             nodes={n: v[::k, ::k].copy() for n, v in sample.nodes.items()})


# --------------------------------------------------------------------------
# validation

def _violation(check: str, message: str, witness=None) -> dict:
    out = {"check": check, "message": message}
    if witness is not None:
        out["witness"] = witness
    return out


def validate_scenario(spec: ScenarioSpec) -> ScenarioSpec:
    """Check every scenario invariant: the curves on dense samples, the
    operator at the nodes of the grid that `run_scenario` refines to.

    Returns the spec with that OperatorSample when everything holds, for
    every assembly to read, otherwise raises ValidationFailure carrying the
    complete list of violations (with witness points).  Never aborts on the
    first failure.
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

    # the operator at the nodes that are assembled, which a broken curve or an empty grid does not have
    curves_ok = not any(v["check"].startswith("curve") or v["check"] == "curves_separated" for v in bad)
    if curves_ok and min(nt, ns) > 0:
        try:
            metric, co, X, Y = _node_values(spec, (FINE_FACTOR * nt, FINE_FACTOR * ns))
        except ExpressionError as err:
            co = {}
            bad.append(_violation("operator_evaluation", f"operator coefficients failed to evaluate: {err}"))
        # each check reads only coefficients finite on the sample, so one bad coefficient hides no other violation
        ok = {k: v for k, v in co.items() if np.all(np.isfinite(v))}
        if len(ok) < len(co):
            k = int(np.argmin(np.all([np.isfinite(v) for v in co.values()], axis=0)))
            bad.append(_violation("operator_finite", f"operator coefficient(s) {', '.join(k for k in co if k not in ok)} non-finite",
                                  {"x": float(X[k]), "y": float(Y[k])}))
        if "a11" in ok and np.min(ok["a11"]) <= 0.0:
            k = int(np.argmin(ok["a11"]))
            bad.append(_violation("ellipticity", "a11 not strictly positive",
                                  {"x": float(X[k]), "y": float(Y[k]), "a11": float(ok["a11"][k])}))
        if not math.isfinite(spec.operator.lambda_floor):
            bad.append(_violation("ellipticity", "lambda_floor must be finite"))
        elif {"a11", "a12", "a22"} <= ok.keys():
            # the determinant over scale^2, which does not overflow where a11, a22 are large
            scale = _scale(ok["a11"], ok["a22"])
            a11, a12, a22 = (ok[k] / scale for k in ("a11", "a12", "a22"))
            det = a11 * a22 - a12 * a12
            if np.min(det) < spec.operator.lambda_floor / scale / scale:
                k = int(np.argmin(det))
                d = float(det[k]) * scale * scale
                bad.append(_violation("ellipticity", f"a11*a22 - a12^2 = {d:.6g} below floor {spec.operator.lambda_floor:.3g}",
                                      {"x": float(X[k]), "y": float(Y[k]), "det": d}))
        if "c" in ok and np.max(ok["c"]) > 0.0:
            k = int(np.argmax(ok["c"]))
            bad.append(_violation("zeroth_order_sign", "c(x) must be <= 0",
                                  {"x": float(X[k]), "y": float(Y[k]), "c": float(ok["c"][k])}))
    if curves_ok:
        # interior datum first; no curve check failed, so radii holds every rim
        for which, _, datum in reversed(spec.rims()):
            if datum is None:
                continue
            rb = radii[which]
            try:
                finite = np.isfinite(ex.evaluate_xy(datum, rb * np.cos(theta), rb * np.sin(theta)))
            except ExpressionError as err:
                bad.append(_violation("boundary_evaluation", f"psi_{which} failed to evaluate on its curve: {err}"))
                continue
            if not finite.all():
                k = int(np.argmin(finite))
                bad.append(_violation("boundary_finite", f"psi_{which} non-finite on its curve", {"theta": float(theta[k])}))

    if bad:
        raise ValidationFailure(bad)
    return replace(spec, sample=OperatorSample.build(spec, metric, co))


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
        for key, default in {"a11": "1", "a12": "0", "a22": "1", "b1": "0", "b2": "0", "c": "0"}.items():
            trees[key] = _parse_field(bad, f"operator.{key}", op_data.get(key, default))
        lambda_floor = op_data.get("lambda_floor", 1e-10)
        if _is_number(lambda_floor):
            lambda_floor = float(lambda_floor)
        else:
            bad.append(_violation("schema", "operator.lambda_floor must be a number"))
        if all(trees[k] is not None for k in trees):
            op = EllipticOperator(**trees, lambda_floor=lambda_floor)

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

    # exterior, op and psi_ext are None only where a violation says why
    if bad:
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
    return validate_scenario(spec) if validate else spec
