"""Interior critical points: detection, multiplicity, clustering.

Multiplicity is computed as the negated topological degree of the
normalized gradient along a small circle: near a critical point of an
elliptic solution, u - u(p) behaves like a homogeneous harmonic polynomial
of degree m + 1, whose gradient has winding number -m.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndi

from .domain import ToleranceSet
from .errors import (
    BandTooWideError,
    DegreeAmbiguousError,
    NewtonStallError,
    OutsideDomainError,
    RadiusExhaustedError,
)
from .geometry import TWO_PI, winding_turns
from .solver import ResolvedTolerances, SolutionField, resolve_tolerances

_WINDING_SAMPLES = 256
_INTEGER_SLACK = 0.05
_MAX_NEWTON_STEPS = 50
_MAX_DOUBLINGS = 8


@dataclass(frozen=True)
class CriticalPoint:
    x: float
    y: float
    value: float
    multiplicity: int
    is_zero: bool
    degree_radius: float
    grad_norm: float
    winding_raw: float

    @property
    def location(self):
        return (self.x, self.y)

    def as_dict(self) -> dict:
        return {
            "x": self.x, "y": self.y, "value": self.value,
            "multiplicity": self.multiplicity, "is_zero": self.is_zero,
            "degree_radius": self.degree_radius,
        }


# --------------------------------------------------------------------------
# winding numbers

def winding_on_closed_curve(field: SolutionField, xs, ys) -> float:
    """Continuous angle turned by the interpolated gradient along a closed
    polyline (first point not repeated); returned in turns (total / 2pi)."""
    gx, gy = field.gradient(np.asarray(xs, dtype=float), np.asarray(ys, dtype=float))
    return winding_turns(np.arctan2(gy, gx))


def _circle_winding(field: SolutionField, cx: float, cy: float, radius: float, tol: ResolvedTolerances):
    phi = np.arange(_WINDING_SAMPLES) * (TWO_PI / _WINDING_SAMPLES)
    xs = cx + radius * np.cos(phi)
    ys = cy + radius * np.sin(phi)
    if not bool(np.all(field.domain.contains(xs, ys))):
        return None, 0.0
    gx, gy = field.gradient(xs, ys)
    gmin = float(np.min(np.hypot(gx, gy)))
    if gmin <= 5.0 * tol.grad_zero_tol:
        return None, gmin
    return winding_turns(np.arctan2(gy, gx)), gmin


def winding_multiplicity(field: SolutionField, point, tol: ResolvedTolerances):
    """Multiplicity, degree radius and raw winding at a (refined) critical point.

    The circle radius starts at twice the local cell diagonal and doubles
    until the gradient is bounded away from zero on all samples; fails with
    RadiusExhaustedError after 8 doublings or when the circle leaves the
    domain, and with DegreeAmbiguousError when the winding is not near an
    integer.
    """
    cx, cy = point
    theta, s = field.domain.invert_point(cx, cy)
    i = int(np.mod(theta, TWO_PI) / field.dtheta) % field.n_theta
    j = min(int(np.clip(s, 0.0, 1.0) / field.ds), field.n_s - 1)
    radius = 2.0 * float(field.cell_diagonals()[i, j])
    for _ in range(_MAX_DOUBLINGS):
        turns, _ = _circle_winding(field, cx, cy, radius, tol)
        if turns is not None:
            nearest = round(turns)
            if abs(turns - nearest) > _INTEGER_SLACK:
                raise DegreeAmbiguousError(turns)
            return int(-nearest), radius, turns
        radius *= 2.0
    raise RadiusExhaustedError(
        f"no admissible degree circle around ({cx:.6g}, {cy:.6g}); "
        "another critical point or a boundary is too close"
    )


def multiplicity(field: SolutionField, p, tol: ToleranceSet | None = None) -> int:
    """Public multiplicity of a critical point (gradient degree, negated)."""
    rt = resolve_tolerances(field, tol)
    m, _, _ = winding_multiplicity(field, p, rt)
    return m


# --------------------------------------------------------------------------
# detection

def _newton_refine(field: SolutionField, x0: float, y0: float, tol: ResolvedTolerances, max_step: float):
    x, y = float(x0), float(y0)
    gx, gy = field.gradient(x, y)
    gnorm = math.hypot(float(gx), float(gy))
    for _ in range(_MAX_NEWTON_STEPS):
        if gnorm <= tol.grad_zero_tol:
            return x, y, gnorm
        uxx, uxy, uyy = field.hessian(x, y)
        det = float(uxx) * float(uyy) - float(uxy) ** 2
        if abs(det) < 1e-300:
            raise NewtonStallError("singular Hessian")
        dx = -(float(uyy) * float(gx) - float(uxy) * float(gy)) / det
        dy = -(-float(uxy) * float(gx) + float(uxx) * float(gy)) / det
        step = math.hypot(dx, dy)
        if step > max_step:
            dx *= max_step / step
            dy *= max_step / step
        # damped update: halve until the gradient norm does not grow
        lam = 1.0
        for _ in range(8):
            xn, yn = x + lam * dx, y + lam * dy
            try:
                gxn, gyn = field.gradient(xn, yn)
            except OutsideDomainError:
                lam *= 0.5
                continue
            gn = math.hypot(float(gxn), float(gyn))
            if gn < gnorm or gn <= tol.grad_zero_tol:
                x, y, gx, gy, gnorm = xn, yn, gxn, gyn, gn
                break
            lam *= 0.5
        else:
            raise NewtonStallError("no descent step")
    if gnorm <= tol.grad_zero_tol:
        return x, y, gnorm
    raise NewtonStallError(f"gradient norm {gnorm:.3e} after {_MAX_NEWTON_STEPS} steps")


def _scan_cells(field: SolutionField, tol: ResolvedTolerances):
    """Cells flagged by sign changes of both gradient components on their
    corners, or by a small centre gradient; restricted to the interior band."""
    gx, gy = field.node_gradients()
    nt, ns = field.n_theta, field.n_s
    ip1 = np.r_[1:nt, 0]

    def corners(a):
        return np.stack([a[:, :-1], a[:, 1:], a[ip1, :-1], a[ip1, 1:]], axis=0)

    cgx, cgy = corners(gx), corners(gy)
    sign_flip = (cgx.min(axis=0) <= 0) & (cgx.max(axis=0) >= 0) & \
                (cgy.min(axis=0) <= 0) & (cgy.max(axis=0) >= 0)

    theta_c = (np.arange(nt) + 0.5) * field.dtheta
    s_c = (np.arange(ns) + 0.5) * field.ds
    Tc, Sc = np.meshgrid(theta_c, s_c, indexing="ij")
    Xc, Yc = field.domain.map_point(Tc, Sc)
    gcx, gcy = field.gradient(Xc.ravel(), Yc.ravel())
    small = (np.hypot(gcx, gcy) < 10.0 * tol.grad_zero_tol).reshape(nt, ns)

    lo = tol.interior_margin if not field.domain.is_disk else 0.0
    hi = 1.0 - tol.interior_margin
    band_ok = (Sc >= lo) & (Sc <= hi)
    flagged = (sign_flip | small) & band_ok
    return [(Xc[i, j], Yc[i, j]) for i, j in zip(*np.nonzero(flagged))]


def find_critical_points_report(field: SolutionField, tol: ToleranceSet | None = None):
    """Full detector: (points, near_boundary_suspects, warnings)."""
    rt = resolve_tolerances(field, tol)
    seeds = _scan_cells(field, rt)
    max_step = 4.0 * field.median_cell_diag()
    converged = []
    warnings = []
    stalled = 0
    for x0, y0 in seeds:
        try:
            x, y, g = _newton_refine(field, x0, y0, rt, max_step)
        except (NewtonStallError, OutsideDomainError):
            stalled += 1  # non-fatal: seed discarded
            continue
        converged.append((x, y, g))
    if stalled:
        warnings.append(f"{stalled} of {len(seeds)} Newton seed(s) stalled and were discarded")

    # deduplicate within dedup_radius, keeping the best-converged representative
    converged.sort(key=lambda t: (t[2], t[0], t[1]))
    kept = []
    for x, y, g in converged:
        if all(math.hypot(x - kx, y - ky) > rt.dedup_radius for kx, ky, _ in kept):
            kept.append((x, y, g))

    points = []
    suspects = []
    for x, y, g in kept:
        theta, s = field.domain.invert_point(x, y)
        lo = rt.interior_margin if not field.domain.is_disk else 0.0
        if s < lo or s > 1.0 - rt.interior_margin:
            suspects.append({"x": float(x), "y": float(y), "s": float(s), "grad_norm": float(g)})
            continue
        try:
            m, radius, raw = winding_multiplicity(field, (x, y), rt)
        except (DegreeAmbiguousError, RadiusExhaustedError) as err:
            warnings.append(f"critical-point candidate at ({x:.6g}, {y:.6g}) rejected: {err}")
            continue
        if m < 1:
            warnings.append(
                f"candidate at ({x:.6g}, {y:.6g}) discarded: gradient winding {raw:+.3f} "
                "is not a saddle-type zero"
            )
            continue
        value = float(field.evaluate(x, y))
        points.append(CriticalPoint(
            x=float(x), y=float(y), value=value, multiplicity=int(m),
            is_zero=bool(abs(value) <= rt.value_zero_tol),
            degree_radius=float(radius), grad_norm=float(g), winding_raw=float(raw),
        ))

    points.sort(key=lambda p: (p.value, np.mod(math.atan2(p.y, p.x), TWO_PI), math.hypot(p.x, p.y)))
    return points, suspects, warnings


def find_critical_points(field: SolutionField, tol: ToleranceSet | None = None) -> list:
    """Interior critical points, sorted by value then polar angle."""
    return find_critical_points_report(field, tol)[0]


def find_critical_zero_points(field: SolutionField, tol: ToleranceSet | None = None) -> list:
    """Critical points with |u| below the zero threshold."""
    return [p for p in find_critical_points(field, tol) if p.is_zero]


# --------------------------------------------------------------------------
# clustering

def _marked_level_cells(field: SolutionField, t: float, band: float):
    """Boolean lattice-cell marks for the level network u = t: corner sign
    change or |centre - t| within the band."""
    lat = field.lattice()
    un = lat.nodes - t
    corner = np.stack([un[:-1, :-1], un[1:, :-1], un[:-1, 1:], un[1:, 1:]], axis=0)
    sign_change = (corner.min(axis=0) <= 0) & (corner.max(axis=0) >= 0)
    near = np.abs(lat.centres - t) <= band
    return sign_change | near, near & ~sign_change


def label_wrapped(mask: np.ndarray):
    """4-connected labels with wrap-around along axis 0 (theta)."""
    labels, n = ndi.label(mask)
    if n == 0:
        return labels, 0
    # merge labels across the theta seam
    parent = np.arange(n + 1)

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    top, bot = labels[0, :], labels[-1, :]
    for a, b in zip(top, bot):
        if a and b:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    roots = np.array([find(k) for k in range(n + 1)])
    # canonical consecutive numbering, stable in first-appearance order
    uniq = []
    remap = np.zeros(n + 1, dtype=int)
    for k in range(1, n + 1):
        r = roots[k]
        if remap[r] == 0:
            uniq.append(r)
            remap[r] = len(uniq)
        remap[k] = remap[r]
    return remap[labels], len(uniq)


def cluster_critical_sets(field: SolutionField, points, t: float,
                          tol: ToleranceSet | None = None, band: float | None = None) -> int:
    """Number of connected components of the level network u = t that contain
    at least one of the given critical points."""
    rt = resolve_tolerances(field, tol)
    for p in points:
        val = p.value if isinstance(p, CriticalPoint) else float(field.evaluate(*p))
        if abs(val - t) > max(rt.equal_value_tol, 10.0 * rt.value_zero_tol):
            raise ValueError(f"point value {val!r} is not at level {t!r} within tolerance")
    if band is None:
        band = 2.0 * field.interp_error_estimate()
    marked, band_only = _marked_level_cells(field, t, band)

    # resolution guard: a wide band gluing far-apart sign-change cells means
    # the grid cannot separate the clusters
    if np.any(band_only):
        sc = marked & ~band_only
        if np.any(sc):
            dist = ndi.distance_transform_cdt(~sc, metric="taxicab")
            if float(np.max(dist[band_only])) > 10.0:
                raise BandTooWideError(
                    "level band bridges cells more than 10 cells away from the level line"
                )
    labels, _ = label_wrapped(marked)
    return len(_labels_at(field, labels, points))


def _labels_at(field: SolutionField, labels: np.ndarray, points) -> set:
    """Nonzero labels of the lattice cells holding the given points; a point
    on a cell corner takes the first labelled cell of its 4-neighbourhood."""
    nrt, nrs = labels.shape
    found = set()
    for p in points:
        x, y = (p.x, p.y) if isinstance(p, CriticalPoint) else p
        theta, s = field.domain.invert_point(x, y)
        i = int(np.mod(theta, TWO_PI) / (TWO_PI / nrt)) % nrt
        j = min(int(np.clip(s, 0.0, 1.0) * nrs), nrs - 1)
        lab = labels[i, j]
        if lab == 0:
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                lab = labels[(i + di) % nrt, min(max(j + dj, 0), nrs - 1)]
                if lab:
                    break
        if lab:
            found.add(int(lab))
    return found


def separating_network_through(field: SolutionField, points, t: float) -> bool:
    """Does the level network u = t, restricted to the components carrying the
    given critical points, separate the interior rim from the exterior rim?

    This is the cell-complex counterpart of "a closed level curve between
    the two boundary curves passing through a critical point": paths from
    one rim to the other are blocked exactly when such a curve exists.
    """
    if field.domain.is_disk or not points:
        return False
    band = 2.0 * field.interp_error_estimate()
    marked, _ = _marked_level_cells(field, t, band)
    labels, _ = label_wrapped(marked)
    keep = _labels_at(field, labels, points)
    if not keep:
        return False
    passable = ~np.isin(labels, list(keep))
    comp, _ = label_wrapped(passable)
    inner = set(np.unique(comp[:, 0])) - {0}
    outer = set(np.unique(comp[:, -1])) - {0}
    return not (inner & outer)
