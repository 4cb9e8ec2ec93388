"""Interior critical points: detection, multiplicity, clustering.

Multiplicity is computed as the negated topological degree of the
normalized gradient along a small circle: near a critical point of an
elliptic solution, u - u(p) behaves like a homogeneous harmonic polynomial
of degree m + 1, whose gradient has winding number -m.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

from .errors import BandTooWideError, NotAnAnnulusError, RadiusExhaustedError
from .geometry import TWO_PI, winding_number
from .solver import ResolvedTolerances, SolutionField, cell_index, resolve_tolerances

_WINDING_SAMPLES = 256
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

    def as_dict(self) -> dict:
        return asdict(self)


# --------------------------------------------------------------------------
# winding numbers

def winding_multiplicity(field: SolutionField, point, tol: ResolvedTolerances):
    """(m, radius): the negated winding number of the gradient along a
    circle around a (refined) critical point, and the circle's radius.

    The circle radius starts at twice the local cell diagonal.  It halves
    while the circle leaves the domain, down to half a diagonal, and doubles
    while the gradient comes within 5 grad_zero_tol of zero on the circle.
    Fails with RadiusExhaustedError after 8 steps or when even the smallest
    circle leaves the domain.
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
        return -winding_number(np.arctan2(gy, gx)), radius
    raise RadiusExhaustedError(
        f"no admissible degree circle around ({cx:.6g}, {cy:.6g}); "
        "another critical point or a boundary is too close"
    )


def multiplicity(field: SolutionField, p) -> int:
    """Public multiplicity of a critical point (gradient degree, negated)."""
    m, _ = winding_multiplicity(field, p, resolve_tolerances(field))
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
    """Cells in the interior band on whose corners both node-gradient
    components change sign, as their centres' physical (x, y) arrays."""
    gx, gy = field.node_gradients()
    nt, ns = field.n_theta, field.n_s
    ip1 = np.r_[1:nt, 0]

    def corners(a):
        return np.stack([a[:, :-1], a[:, 1:], a[ip1, :-1], a[ip1, 1:]], axis=0)

    cgx, cgy = corners(gx), corners(gy)
    sign_flip = (cgx.min(axis=0) <= 0) & (cgx.max(axis=0) >= 0) & \
                (cgy.min(axis=0) <= 0) & (cgy.max(axis=0) >= 0)

    s_c = (np.arange(ns) + 0.5) * field.ds
    lo, hi = _interior_band(field, tol)
    i, j = np.nonzero(sign_flip & (s_c >= lo) & (s_c <= hi))
    return field.domain.map_point((i + 0.5) * field.dtheta, s_c[j])


def value_classes(points, tol: float) -> list:
    """The classes of `points` by value, increasing, as (level, members):
    taken in order of value, a point more than `tol` above the first value
    of its class starts a new class.  The level is that first value, or
    0.0 when every member lies within `tol` of 0."""
    classes = []
    for p in sorted(points, key=lambda p: p.value):
        if classes and p.value - classes[-1][0].value <= tol:
            classes[-1].append(p)
        else:
            classes.append([p])
    return [(0.0 if all(abs(p.value) <= tol for p in c) else c[0].value, c) for c in classes]


def find_critical_points_report(field: SolutionField):
    """Full detector: (points, near_boundary_suspects, warnings).

    Points are ordered by value class (`value_classes` with the equal-value
    tolerance), then by polar angle in [0, 2 pi), then by radius, so that
    round-off in the values of equal-valued points cannot reorder them.  A
    point within round-off of the theta = 0 ray can still move to the other
    end of its class.
    """
    rt = resolve_tolerances(field)
    x0, y0 = _scan_cells(field, rt)
    xs, ys, gs, ok = _newton_refine(field, x0, y0, rt, 4.0 * field.median_cell_diag())

    # deduplicate within dedup_radius, keeping the best-converged representative
    kept = []

    def far(x, y):
        return all(math.hypot(x - kx, y - ky) > rt.dedup_radius for kx, ky, _ in kept)

    for g, x, y in sorted(zip(gs[ok].tolist(), xs[ok].tolist(), ys[ok].tolist())):
        if far(x, y):
            kept.append((x, y, g))
    # a seed stalled beside a kept point (slow Newton at a degenerate zero) lost nothing
    stalled = sum(map(far, xs[~ok].tolist(), ys[~ok].tolist()))
    warnings = [f"{stalled} of {ok.size} Newton seed(s) stalled and were discarded"] if stalled else []

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
            m, radius = winding_multiplicity(field, (x, y), rt)
        except RadiusExhaustedError as err:
            warnings.append(f"critical-point candidate at ({x:.6g}, {y:.6g}) rejected: {err}")
            continue
        if m < 1:
            warnings.append(
                f"candidate at ({x:.6g}, {y:.6g}) discarded: gradient winding {-m:+d} "
                "is not a saddle-type zero"
            )
            continue
        points.append(CriticalPoint(
            x=x, y=y, value=value, multiplicity=m,
            is_zero=bool(abs(value) <= rt.value_zero_tol), degree_radius=float(radius),
        ))

    points = [p for _, members in value_classes(points, rt.equal_value_tol)
              for p in sorted(members, key=lambda p: (np.mod(math.atan2(p.y, p.x), TWO_PI), math.hypot(p.x, p.y)))]
    return points, suspects, warnings


def find_critical_points(field: SolutionField) -> list:
    """Interior critical points, by value class, then polar angle, then
    radius (see `find_critical_points_report`)."""
    return find_critical_points_report(field)[0]


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


def _touching_runs(starts, stops, shift, corners: bool):
    """(a, b) pairs of runs, where run b lies in the row after run a's (a's
    keys moved by `shift`) and shares a cell side with it, or with `corners`
    a side or only a corner."""
    first = np.searchsorted(stops, starts + shift, side="left" if corners else "right")
    count = np.maximum(np.searchsorted(starts, stops + shift, side="right" if corners else "left") - first, 0)
    a = np.repeat(np.arange(len(starts)), count)
    return a, first[a] + np.arange(len(a)) - np.repeat(np.cumsum(count) - count, count)


def label_runs(mask: np.ndarray):
    """`label_wrapped` without the painting: (starts, stops, comp, n, chi,
    inner, outer), the keys of the runs in C order (stops exclusive), each
    run's label less one, n and chi as there, and whether each run starts
    in column 0 (inner) and ends in the last column (outer)."""
    nt, ns = mask.shape
    edges = np.flatnonzero(np.diff(np.pad(mask, ((0, 0), (1, 1))), axis=1))
    starts, stops = edges[::2], edges[1::2]
    shift = np.where(starts < (nt - 1) * (ns + 1), ns + 1, -(nt - 1) * (ns + 1))
    a, b = _touching_runs(starts, stops, shift, corners=False)
    n, comp = connected_components(sp.coo_matrix((np.ones(len(a)), (a, b)), shape=(len(starts),) * 2), directed=False)
    a, b = _touching_runs(starts, stops, shift, corners=True)
    a = a[comp[a] == comp[b]]
    chi = np.bincount(comp + 1, minlength=n + 1) - np.bincount(comp[a] + 1, minlength=n + 1)
    return starts, stops, comp, int(n), chi, starts % (ns + 1) == 0, stops % (ns + 1) == ns


def label_wrapped(mask: np.ndarray):
    """4-connected components of a cell mask whose axis 0 (theta) wraps:
    (labels, n, chi), numbered from 1 in the C order of their first cells;
    chi[k] is the Euler characteristic of the closed cells of label k.

    The cells are taken as runs along s (Rosenfeld & Pfaltz, J. ACM 13,
    1966), keyed row * (n_s + 1) + column, with row 0 after the last row.
    Runs are rectangles (on one row, rings that meet themselves), and runs
    of adjacent rows meet in a segment or a point, so chi[k] is the number
    of runs of label k less its pairs of adjacent-row runs that share a
    side or only a corner.
    """
    starts, stops, comp, n, chi, _, _ = label_runs(mask)
    labels = np.zeros(mask.shape, dtype=np.int32)
    labels[mask] = np.repeat(comp + 1, stops - starts)
    return labels, n, chi


def _invert_points(field: SolutionField, points):
    """(theta, s) of critical points or (x, y) pairs, inverted in one call;
    OutsideDomainError when any lies outside the domain."""
    xy = np.array([(p.x, p.y) if isinstance(p, CriticalPoint) else p for p in points], dtype=float)
    return field._invert_inside(*xy.reshape(-1, 2).T)


def cluster_critical_sets(field: SolutionField, points, t: float):
    """The level network u = t and the clusters of the given critical
    points on it: (labels, holding), where labels numbers the connected
    components of the marked lattice cells and holding is the set of labels
    that contain at least one of the points (the cluster count is its size).
    A disk, which has no second rim to separate, is refused."""
    if field.domain.is_disk:
        raise NotAnAnnulusError("level-network clusters are counted on an annulus, not on a disk")
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
            reach = np.pad(sc, ((0, 0), (1, 1)))  # grown to the cells within 10 taxicab steps on the cylinder
            for _ in range(10):
                mid = reach[:, 1:-1]
                reach[:, 1:-1] = mid | np.roll(mid, 1, 0) | np.roll(mid, -1, 0) | reach[:, :-2] | reach[:, 2:]
            if np.any(band_only & ~reach[:, 1:-1]):
                raise BandTooWideError(
                    "level band bridges cells more than 10 cells away from the level line"
                )
    labels, _, _ = label_wrapped(marked)
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
    _, _, comp, _, _, inner, outer = label_runs(~np.isin(labels, list(holding)))
    return not np.isin(comp[inner], comp[outer]).any()
