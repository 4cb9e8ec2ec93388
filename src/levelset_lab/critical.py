"""Interior critical points: detection, multiplicity, clustering.

Multiplicity is computed as the negated topological degree of the
normalized gradient along a small circle: near a critical point of an
elliptic solution, u - u(p) behaves like a homogeneous harmonic polynomial
of degree m + 1, whose gradient has winding number -m.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass

import numpy as np
import scipy.ndimage as ndi
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import (
    BandTooWideError,
    DegreeAmbiguousError,
    RadiusExhaustedError,
)
from .geometry import TWO_PI, winding_turns
from .solver import ResolvedTolerances, SolutionField, cell_index, resolve_tolerances

_WINDING_SAMPLES = 256
_INTEGER_SLACK = 0.05
_MAX_NEWTON_STEPS = 50
_MAX_RADIUS_STEPS = 8


@dataclass(frozen=True)
class CriticalPoint:
    x: float
    y: float
    value: float
    multiplicity: int
    is_zero: bool
    degree_radius: float
    winding_raw: float

    def as_dict(self) -> dict:
        return {
            "x": self.x, "y": self.y, "value": self.value,
            "multiplicity": self.multiplicity, "is_zero": self.is_zero,
            "degree_radius": self.degree_radius,
        }


# --------------------------------------------------------------------------
# winding numbers

def winding_multiplicity(field: SolutionField, point, tol: ResolvedTolerances):
    """Multiplicity, degree radius and raw winding at a (refined) critical point.

    The circle radius starts at twice the local cell diagonal.  It halves
    while the circle leaves the domain, down to half a diagonal, and doubles
    while the gradient comes within 5 grad_zero_tol of zero on the circle.
    Fails with RadiusExhaustedError after 8 steps or when even the smallest
    circle leaves the domain, and with DegreeAmbiguousError when the winding
    is not near an integer.
    """
    cx, cy = point
    i, j, _, _ = cell_index(*field._invert_inside(cx, cy), field.n_theta, field.n_s)
    diag = float(field.cell_diagonals()[i, j])
    radius = 2.0 * diag
    phi = np.arange(_WINDING_SAMPLES) * (TWO_PI / _WINDING_SAMPLES)
    for _ in range(_MAX_RADIUS_STEPS):
        xs = cx + radius * np.cos(phi)
        ys = cy + radius * np.sin(phi)
        theta, s, inside = field._invert(xs, ys)
        if not np.all(inside):
            if radius <= 0.5 * diag:
                break
            radius *= 0.5
            continue
        gx, gy = field.gradient_ref(theta, s)
        if np.min(np.hypot(gx, gy)) <= 5.0 * tol.grad_zero_tol:
            radius *= 2.0
            continue
        turns = winding_turns(np.arctan2(gy, gx))
        nearest = round(turns)
        if abs(turns - nearest) > _INTEGER_SLACK:
            raise DegreeAmbiguousError(turns)
        return int(-nearest), radius, turns
    raise RadiusExhaustedError(
        f"no admissible degree circle around ({cx:.6g}, {cy:.6g}); "
        "another critical point or a boundary is too close"
    )


def multiplicity(field: SolutionField, p) -> int:
    """Public multiplicity of a critical point (gradient degree, negated)."""
    m, _, _ = winding_multiplicity(field, p, resolve_tolerances(field))
    return m


# --------------------------------------------------------------------------
# detection

def _newton_refine(field: SolutionField, x0, y0, tol: ResolvedTolerances, max_step: float):
    """Damped Newton on the physical gradient from every seed at once.

    Returns (x, y, gnorm, converged), one entry per seed.  Each seed follows
    its own iteration: at most 50 steps, each clipped to `max_step`; a step
    is halved (up to 8 times) while the trial point is outside the domain or
    neither lowers |grad u| nor reaches the tolerance.  A seed stalls when it
    starts outside the domain, when its Hessian is singular, when no halving
    is accepted, or when 50 steps do not converge.  Seeds that converged or
    stalled drop out of the arrays that later steps evaluate.
    """
    x, y = np.array(x0, dtype=float), np.array(y0, dtype=float)
    theta, s, active = field._invert(x, y)
    gx, gy = np.zeros_like(x), np.zeros_like(x)
    gx[active], gy[active] = field.gradient_ref(theta[active], s[active])
    gnorm = np.hypot(gx, gy)
    converged = np.zeros(x.shape, dtype=bool)
    for _ in range(_MAX_NEWTON_STEPS):
        done = active & (gnorm <= tol.grad_zero_tol)
        converged |= done
        active &= ~done
        k = np.flatnonzero(active)
        if k.size == 0:
            break
        uxx, uxy, uyy = field.hessian_ref(theta[k], s[k])
        det = uxx * uyy - uxy ** 2
        singular = np.abs(det) < 1e-300
        active[k[singular]] = False
        k, uxx, uxy, uyy, det = (a[~singular] for a in (k, uxx, uxy, uyy, det))
        dx = -(uyy * gx[k] - uxy * gy[k]) / det
        dy = -(-uxy * gx[k] + uxx * gy[k]) / det
        step = np.hypot(dx, dy)
        clip = step > max_step
        dx[clip] *= max_step / step[clip]
        dy[clip] *= max_step / step[clip]
        lam = np.ones(k.size)
        searching = np.ones(k.size, dtype=bool)
        for _ in range(8):
            m = np.flatnonzero(searching)
            km = k[m]
            xn, yn = x[km] + lam[m] * dx[m], y[km] + lam[m] * dy[m]
            tn, sn, ok = field._invert(xn, yn)
            gxn, gyn = np.zeros(m.size), np.zeros(m.size)
            gxn[ok], gyn[ok] = field.gradient_ref(tn[ok], sn[ok])
            gn = np.hypot(gxn, gyn)
            ok &= (gn < gnorm[km]) | (gn <= tol.grad_zero_tol)
            a = km[ok]
            x[a], y[a], theta[a], s[a] = xn[ok], yn[ok], tn[ok], sn[ok]
            gx[a], gy[a], gnorm[a] = gxn[ok], gyn[ok], gn[ok]
            searching[m[ok]] = False
            lam[m[~ok]] *= 0.5
            if not searching.any():
                break
        active[k[searching]] = False
    converged |= active & (gnorm <= tol.grad_zero_tol)
    return x, y, gnorm, converged


def _interior_band(field: SolutionField, tol: ResolvedTolerances):
    """The s range where critical points are reported: the margin off each
    rim, except at the centre of a disk."""
    return (0.0 if field.domain.is_disk else tol.interior_margin), 1.0 - tol.interior_margin


def _scan_cells(field: SolutionField, tol: ResolvedTolerances):
    """Cells flagged by sign changes of both gradient components on their
    corners, or by a small centre gradient; restricted to the interior band.
    Returns the flagged cell centres as physical (x, y) arrays."""
    gx, gy = field.node_gradients()
    nt, ns = field.n_theta, field.n_s
    ip1 = np.r_[1:nt, 0]

    def corners(a):
        return np.stack([a[:, :-1], a[:, 1:], a[ip1, :-1], a[ip1, 1:]], axis=0)

    cgx, cgy = corners(gx), corners(gy)
    sign_flip = (cgx.min(axis=0) <= 0) & (cgx.max(axis=0) >= 0) & \
                (cgy.min(axis=0) <= 0) & (cgy.max(axis=0) >= 0)
    small = np.hypot(*field.centre_gradients()) < 10.0 * tol.grad_zero_tol

    s_c = (np.arange(ns) + 0.5) * field.ds
    lo, hi = _interior_band(field, tol)
    i, j = np.nonzero((sign_flip | small) & ((s_c >= lo) & (s_c <= hi)))
    return field.domain.map_point((i + 0.5) * field.dtheta, s_c[j])


def distinct_levels(values, tol: float) -> list:
    """The first value of each class of `values`, increasing: taken in
    sorted order, a value more than `tol` above the first value of its class
    starts a new class."""
    firsts = []
    for v in sorted(values):
        if not firsts or v - firsts[-1] > tol:
            firsts.append(v)
    return firsts


def find_critical_points_report(field: SolutionField):
    """Full detector: (points, near_boundary_suspects, warnings).

    Points are ordered by value class (`distinct_levels` with the equal-value
    tolerance), then by polar angle in [0, 2 pi), then by radius, so that
    round-off in the values of equal-valued points cannot reorder them.  A
    point within round-off of the theta = 0 ray can still move to the other
    end of its class.
    """
    rt = resolve_tolerances(field)
    x0, y0 = _scan_cells(field, rt)
    xs, ys, gs, ok = _newton_refine(field, x0, y0, rt, 4.0 * field.median_cell_diag())
    warnings = []
    stalled = int(np.count_nonzero(~ok))
    if stalled:
        warnings.append(f"{stalled} of {ok.size} Newton seed(s) stalled and were discarded")

    # deduplicate within dedup_radius, keeping the best-converged representative
    kept = []
    for g, x, y in sorted(zip(gs[ok].tolist(), xs[ok].tolist(), ys[ok].tolist())):
        if all(math.hypot(x - kx, y - ky) > rt.dedup_radius for kx, ky, _ in kept):
            kept.append((x, y, g))

    points = []
    suspects = []
    theta_kept, s_kept = _invert_points(field, [p[:2] for p in kept])
    values = field.evaluate_ref(theta_kept, s_kept).tolist()
    lo, hi = _interior_band(field, rt)
    for (x, y, g), s, value in zip(kept, s_kept.tolist(), values):
        if s < lo or s > hi:
            suspects.append({"x": x, "y": y, "s": s, "grad_norm": g})
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
        points.append(CriticalPoint(
            x=x, y=y, value=value, multiplicity=int(m),
            is_zero=bool(abs(value) <= rt.value_zero_tol),
            degree_radius=float(radius), winding_raw=float(raw),
        ))

    firsts = distinct_levels([p.value for p in points], rt.equal_value_tol)
    points.sort(key=lambda p: (bisect.bisect_right(firsts, p.value), np.mod(math.atan2(p.y, p.x), TWO_PI),
                               math.hypot(p.x, p.y)))
    return points, suspects, warnings


def find_critical_points(field: SolutionField) -> list:
    """Interior critical points, by value class, then polar angle, then
    radius (see `find_critical_points_report`)."""
    return find_critical_points_report(field)[0]


def find_critical_zero_points(field: SolutionField) -> list:
    """Critical points with |u| below the zero threshold."""
    return [p for p in find_critical_points(field) if p.is_zero]


# --------------------------------------------------------------------------
# clustering

def _marked_level_cells(field: SolutionField, t: float):
    """Boolean lattice-cell marks for the level network u = t: corner sign
    change or |centre - t| within the band of twice the interpolation
    error estimate."""
    lat = field.lattice()
    un = lat.nodes - t
    corner = np.stack([un[:-1, :-1], un[1:, :-1], un[:-1, 1:], un[1:, 1:]], axis=0)
    sign_change = (corner.min(axis=0) <= 0) & (corner.max(axis=0) >= 0)
    near = np.abs(lat.centres - t) <= 2.0 * field.interp_error_estimate()
    return sign_change | near, near & ~sign_change


def label_wrapped(mask: np.ndarray):
    """4-connected labels with wrap-around along axis 0 (theta), numbered in
    the order of the smallest ndi.label label in each component."""
    labels, n = ndi.label(mask)
    seam = (labels[0] > 0) & (labels[-1] > 0)
    pairs = sp.coo_matrix((np.ones(np.count_nonzero(seam)), (labels[0][seam], labels[-1][seam])), shape=(n + 1, n + 1))
    count, merged = connected_components(pairs, directed=False)
    return merged[labels], count - 1


def _invert_points(field: SolutionField, points):
    """(theta, s) of critical points or (x, y) pairs, inverted in one call;
    OutsideDomainError when any lies outside the domain."""
    xy = np.array([(p.x, p.y) if isinstance(p, CriticalPoint) else p for p in points], dtype=float)
    return field._invert_inside(*xy.reshape(-1, 2).T)


def cluster_critical_sets(field: SolutionField, points, t: float):
    """The level network u = t and the clusters of the given critical
    points on it: (labels, holding), where labels numbers the connected
    components of the marked lattice cells and holding is the set of labels
    that contain at least one of the points (the cluster count is its size)."""
    rt = resolve_tolerances(field)
    theta, s = _invert_points(field, points)
    for k, p in enumerate(points):
        val = p.value if isinstance(p, CriticalPoint) else float(field.evaluate_ref(theta[k], s[k]))
        if abs(val - t) > max(rt.equal_value_tol, 10.0 * rt.value_zero_tol):
            raise ValueError(f"point value {val!r} is not at level {t!r} within tolerance")
    marked, band_only = _marked_level_cells(field, t)

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
    return labels, _labels_at(labels, theta, s)


def _labels_at(labels: np.ndarray, theta, s) -> set:
    """Nonzero labels of the lattice cells holding the given reference
    points; a point on a cell corner takes the first labelled cell of its
    4-neighbourhood."""
    nrt, nrs = labels.shape
    found = set()
    i_arr, j_arr, _, _ = cell_index(theta, s, nrt, nrs)
    for i, j in zip(i_arr.tolist(), j_arr.tolist()):
        lab = labels[i, j]
        if lab == 0:
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                lab = labels[(i + di) % nrt, min(max(j + dj, 0), nrs - 1)]
                if lab:
                    break
        if lab:
            found.add(int(lab))
    return found


def separating_network_through(field: SolutionField, labels: np.ndarray, holding: set) -> bool:
    """Does the level network, restricted to the components `holding` of its
    labels (both from `cluster_critical_sets`), separate the interior rim
    from the exterior rim?

    This is the cell-complex counterpart of "a closed level curve between
    the two boundary curves passing through a critical point": paths from
    one rim to the other are blocked exactly when such a curve exists.
    """
    if field.domain.is_disk or not holding:
        return False
    passable = ~np.isin(labels, list(holding))
    comp, _ = label_wrapped(passable)
    inner = set(np.unique(comp[:, 0])) - {0}
    outer = set(np.unique(comp[:, -1])) - {0}
    return not (inner & outer)
