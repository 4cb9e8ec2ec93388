"""Level-set censuses, level-line tracing and boundary-trace profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .critical import ResolvedTolerances, label_wrapped, resolve_tolerances
from .domain import ToleranceSet
from .errors import RadiusExhaustedError
from .geometry import TWO_PI, winding_turns
from .solver import REFINE, SolutionField


# --------------------------------------------------------------------------
# level-set census

@dataclass
class LevelComponent:
    sign: str                 # "super" | "sub"
    label: int
    cell_count: int
    touches_interior: bool
    touches_exterior: bool
    extremal_value: float     # max of u (super) / min of u (sub) over the cells
    extremal_contact_value: float | None
    all_uncertain: bool
    euler_char: int | None = None

    @property
    def simply_connected(self) -> bool | None:
        return None if self.euler_char is None else self.euler_char == 1


@dataclass
class LevelSetCensus:
    t: float
    refine: int
    components: list
    uncertain_band: float

    @property
    def M1(self) -> int:
        return sum(1 for c in self.components if c.sign == "super" and not c.all_uncertain)

    @property
    def M2(self) -> int:
        return sum(1 for c in self.components if c.sign == "sub" and not c.all_uncertain)

    def counted(self, sign: str):
        return [c for c in self.components if c.sign == sign and not c.all_uncertain]


def _component_euler(i_arr: np.ndarray, j_arr: np.ndarray, n_theta: int) -> int:
    """Euler characteristic of a 4-connected cell set on the theta cylinder.

    chi = 1 for a disk-like component, 0 for one wrapping the annulus or
    enclosing a hole.  Vertices and edges are counted as distinct integer
    ids: vertex (i, j) is i * stride + j, and an edge is twice the id of its
    lower-left vertex, plus one for an edge along theta.  A sorted id list
    holds one distinct id more than it has rises between neighbours; the
    two extra ones cancel in chi.
    """
    stride = int(j_arr.max()) + 2
    i1 = (i_arr + 1) % n_theta
    v00, v10 = i_arr * stride + j_arr, i1 * stride + j_arr
    verts = np.sort(np.concatenate([v00, v10, v00 + 1, v10 + 1]))
    edges = np.sort(np.concatenate([2 * v00 + 1, 2 * v00 + 3, 2 * v00, 2 * v10]))
    return int(np.count_nonzero(np.diff(verts)) - np.count_nonzero(np.diff(edges))) + len(i_arr)


def level_census(field: SolutionField, t: float, want_topology: bool = False) -> LevelSetCensus:
    """Classify lattice cells by sign of u - t and flood-fill components.

    Cells whose centre value lies within the interpolation-error band are
    flagged uncertain; components made only of uncertain cells are excluded
    from the M1/M2 counts.
    """
    uc = field.lattice().centres
    nrt, nrs = uc.shape
    band = field.interp_error_estimate()
    uncertain = np.abs(uc - t) <= band

    comps = []
    for sign, mask in (("super", uc > t), ("sub", uc < t)):
        labels, n = label_wrapped(mask)
        for k in range(1, n + 1):
            sel = labels == k
            i_arr, j_arr = np.nonzero(sel)
            touches_i = bool(np.any(j_arr == 0)) and not field.domain.is_disk
            touches_e = bool(np.any(j_arr == nrs - 1))
            vals = uc[sel]
            extremal = float(np.max(vals)) if sign == "super" else float(np.min(vals))
            contact = None
            contact_sel = (j_arr == 0) | (j_arr == nrs - 1) if not field.domain.is_disk else (j_arr == nrs - 1)
            if np.any(contact_sel):
                cv = uc[i_arr[contact_sel], j_arr[contact_sel]]
                contact = float(np.max(cv)) if sign == "super" else float(np.min(cv))
            comp = LevelComponent(
                sign=sign, label=k, cell_count=int(sel.sum()),
                touches_interior=touches_i, touches_exterior=touches_e,
                extremal_value=extremal, extremal_contact_value=contact,
                all_uncertain=bool(np.all(uncertain[sel])),
            )
            if want_topology:
                comp.euler_char = _component_euler(i_arr, j_arr, nrt)
            comps.append(comp)
    return LevelSetCensus(t=t, refine=REFINE, components=comps, uncertain_band=band)


def region_components(field: SolutionField, lo: float, hi: float) -> int:
    """Number of 4-connected components of {lo < u < hi} on the lattice."""
    uc = field.lattice().centres
    _, n = label_wrapped((uc > lo) & (uc < hi))
    return n


# --------------------------------------------------------------------------
# boundary profiles

@dataclass
class BoundaryExtremum:
    theta: float
    value: float
    kind: str                  # "max" | "min"
    relative_to_closure: bool | None = None


@dataclass
class TraceProfile:
    which: str                 # "interior" | "exterior"
    is_constant: bool
    min_value: float
    max_value: float
    maxima: list
    minima: list
    sign_changes: int
    tangential_zeros: int
    equal_maxima: bool | None
    equal_minima: bool | None

    @property
    def maxima_count(self):
        return None if self.is_constant else len(self.maxima)

    @property
    def minima_count(self):
        return None if self.is_constant else len(self.minima)

    @property
    def zero_count(self) -> int:
        return self.sign_changes + self.tangential_zeros

    @property
    def sign_changing(self) -> bool:
        return self.sign_changes > 0

    def as_dict(self) -> dict:
        return {
            "which": self.which,
            "is_constant": self.is_constant,
            "min": self.min_value, "max": self.max_value,
            "maxima_count": self.maxima_count, "minima_count": self.minima_count,
            "sign_change_zeros": self.sign_changes, "tangential_zeros": self.tangential_zeros,
            "equal_maxima": self.equal_maxima, "equal_minima": self.equal_minima,
            "maxima": [{"theta": e.theta, "value": e.value, "relative_to_closure": e.relative_to_closure}
                       for e in self.maxima],
            "minima": [{"theta": e.theta, "value": e.value, "relative_to_closure": e.relative_to_closure}
                       for e in self.minima],
        }


@dataclass
class BoundaryProfile:
    exterior: TraceProfile
    interior: TraceProfile | None

    @property
    def z1(self):
        return None if self.interior is None else self.interior.min_value

    @property
    def Z1(self):
        return None if self.interior is None else self.interior.max_value

    @property
    def z2(self):
        return self.exterior.min_value

    @property
    def Z2(self):
        return self.exterior.max_value

    def ordering_case(self) -> str | None:
        """"separated" when z1 < Z1 <= z2 < Z2, "interleaved" when
        z1 < z2 < Z1 < Z2, otherwise None."""
        if self.interior is None or self.interior.is_constant or self.exterior.is_constant:
            return None
        z1, Z1, z2, Z2 = self.z1, self.Z1, self.z2, self.Z2
        if z1 < Z1 <= z2 < Z2:
            return "separated"
        if z1 < z2 < Z1 < Z2:
            return "interleaved"
        return None

    def as_dict(self) -> dict:
        return {
            "exterior": self.exterior.as_dict(),
            "interior": self.interior.as_dict() if self.interior else None,
            "z1": self.z1, "Z1": self.Z1, "z2": self.z2, "Z2": self.Z2,
            "ordering_case": self.ordering_case(),
        }


def _run_length_extrema(values: np.ndarray, flat_tol: float):
    """Strict local extrema of a periodic sample, runs of near-equal values
    collapsing to a single extremum at the run centre.  Returns (maxima,
    minima) as lists of (index, value)."""
    n = len(values)
    # direction of each step: +1 up, -1 down, 0 flat
    diff = np.roll(values, -1) - values
    step = np.where(diff > flat_tol, 1, np.where(diff < -flat_tol, -1, 0))
    nz = np.nonzero(step)[0]
    if len(nz) == 0:
        return [], []
    maxima, minima = [], []
    prev_dir = step[nz[-1]]
    prev_pos = nz[-1]
    for k in nz:
        d = step[k]
        if d != prev_dir:
            # run of flats between prev_pos+1 .. k belongs to the turning point
            lo = (prev_pos + 1) % n
            span = (k - prev_pos) % n
            mid = (prev_pos + 1 + span // 2) % n
            if prev_dir > 0 and d < 0:
                maxima.append((int(mid), float(values[mid])))
            elif prev_dir < 0 and d > 0:
                minima.append((int(mid), float(values[mid])))
            prev_dir = d
        prev_pos = k
    return maxima, minima


def _count_zero_structure(values: np.ndarray, ztol: float):
    """(sign_changes, tangential) for a periodic sample: runs of near-zero
    samples count once, as a crossing when the flanking signs differ and as a
    tangential touch otherwise."""
    sign = np.where(values > ztol, 1, np.where(values < -ztol, -1, 0))
    nz = np.nonzero(sign)[0]
    if len(nz) == 0:
        return 0, 0
    crossings = 0
    touches = 0
    prev_sign = sign[nz[-1]]
    prev_pos = nz[-1]
    n = len(values)
    for k in nz:
        gap = (k - prev_pos) % n
        if sign[k] != prev_sign:
            crossings += 1
        elif gap > 1:
            touches += 1  # zero run flanked by equal signs
        prev_sign = sign[k]
        prev_pos = k
    return crossings, touches


def _closure_relative(field: SolutionField, which: str, theta0: float, value: float,
                      kind: str, rt: ResolvedTolerances, depth_cells: int = 5) -> bool:
    """Collar test: the extremum dominates the interior patch behind it."""
    dtheta, ds = field.dtheta, field.ds
    half = depth_cells * dtheta
    th = np.linspace(theta0 - half, theta0 + half, 4 * depth_cells + 1)
    depth = depth_cells * ds
    if which == "exterior":
        ss = np.linspace(max(0.0, 1.0 - depth), 1.0, 2 * depth_cells + 1)
    else:
        ss = np.linspace(0.0, min(1.0, depth), 2 * depth_cells + 1)
    T, S = np.meshgrid(np.mod(th, TWO_PI), ss, indexing="ij")
    patch = field.evaluate_ref(T.ravel(), S.ravel())
    slack = rt.equal_value_tol
    if kind == "max":
        return bool(value >= float(np.max(patch)) - slack)
    return bool(value <= float(np.min(patch)) + slack)


def _trace_profile(field: SolutionField, which: str, rt: ResolvedTolerances,
                   samples: int = 4096) -> TraceProfile:
    spec = field.spec
    curve = spec.domain.interior if which == "interior" else spec.domain.exterior
    expr = spec.psi_interior if which == "interior" else spec.psi_exterior
    theta = np.arange(samples) * (TWO_PI / samples)
    rr = curve.radius(theta)
    values = ex.evaluate_xy(expr, rr * np.cos(theta), rr * np.sin(theta))

    vmin, vmax = float(np.min(values)), float(np.max(values))
    scale = max(vmax - vmin, abs(vmax), abs(vmin), 1e-300)
    flat_tol = rt.equal_extrema_tol * scale
    is_constant = (vmax - vmin) <= flat_tol

    maxima: list[BoundaryExtremum] = []
    minima: list[BoundaryExtremum] = []
    equal_max = equal_min = None
    if not is_constant:
        raw_max, raw_min = _run_length_extrema(values, flat_tol)
        for idx, val in sorted(raw_max):
            maxima.append(BoundaryExtremum(theta=float(theta[idx]), value=val, kind="max"))
        for idx, val in sorted(raw_min):
            minima.append(BoundaryExtremum(theta=float(theta[idx]), value=val, kind="min"))
        for e in maxima:
            e.relative_to_closure = _closure_relative(field, which, e.theta, e.value, "max", rt)
        for e in minima:
            e.relative_to_closure = _closure_relative(field, which, e.theta, e.value, "min", rt)
        if maxima:
            mv = [e.value for e in maxima]
            equal_max = (max(mv) - min(mv)) <= rt.equal_extrema_tol * scale
        if minima:
            mv = [e.value for e in minima]
            equal_min = (max(mv) - min(mv)) <= rt.equal_extrema_tol * scale

    crossings, touches = _count_zero_structure(values, rt.value_zero_tol)
    return TraceProfile(
        which=which, is_constant=is_constant, min_value=vmin, max_value=vmax,
        maxima=maxima, minima=minima, sign_changes=crossings, tangential_zeros=touches,
        equal_maxima=equal_max, equal_minima=equal_min,
    )


def boundary_profile(field: SolutionField, tol: ToleranceSet | None = None,
                     samples: int = 4096) -> BoundaryProfile:
    """Extrema/zero profile of both boundary traces (from the closed-form
    boundary data; the solved field supplies the interior collar test)."""
    rt = resolve_tolerances(field, tol)
    exterior = _trace_profile(field, "exterior", rt, samples)
    interior = None
    if field.spec.domain.interior is not None:
        interior = _trace_profile(field, "interior", rt, samples)
    return BoundaryProfile(exterior=exterior, interior=interior)


# --------------------------------------------------------------------------
# level-line tracing (marching squares on the lattice)

def trace_level_lines(field: SolutionField, t: float):
    """Marching-squares polylines of {u = t} in physical coordinates.

    Returns (polylines, warnings); each polyline is an (n, 2) array, closed
    when its first and last vertices coincide.
    """
    lat = field.lattice()
    th_nodes, s_nodes = lat.theta, lat.s
    un = lat.nodes - t
    nrt, nrs = lat.centres.shape

    pos = un > 0.0
    warnings = []

    def edge_point(i0, j0, i1, j1):
        v0, v1 = un[i0, j0], un[i1, j1]
        lam = 0.5 if v1 == v0 else v0 / (v0 - v1)
        lam = min(max(lam, 0.0), 1.0)
        th = th_nodes[i0] + lam * (th_nodes[i1] - th_nodes[i0])
        s = s_nodes[j0] + lam * (s_nodes[j1] - s_nodes[j0])
        return th, s

    # edge keys: ("h", i, j) bottom edge of cell (i, j); ("v", i, j) left edge
    segments = []
    saddle_cells = 0
    for i in range(nrt):
        i1 = i + 1
        for j in range(nrs):
            j1 = j + 1
            code = (int(pos[i, j]) | int(pos[i1, j]) << 1 | int(pos[i1, j1]) << 2 | int(pos[i, j1]) << 3)
            if code in (0, 15):
                continue
            bottom = (("h", i % nrt, j), edge_point(i, j, i1, j))
            top = (("h", i % nrt, j1), edge_point(i, j1, i1, j1))
            left = (("v", i % nrt, j), edge_point(i, j, i, j1))
            right = (("v", i1 % nrt, j), edge_point(i1, j, i1, j1))
            # corner bits: 1 = (i,j), 2 = (i1,j), 4 = (i1,j1), 8 = (i,j1);
            # each case pairs the sign-change edges around the cut-off corners
            pairs = {
                1: [(left, bottom)], 2: [(bottom, right)], 3: [(left, right)],
                4: [(right, top)], 6: [(bottom, top)], 7: [(left, top)],
                8: [(top, left)], 9: [(top, bottom)], 11: [(top, right)],
                12: [(right, left)], 13: [(bottom, right)], 14: [(left, bottom)],
            }
            if code in (5, 10):
                saddle_cells += 1
                centre = lat.centres[i, j] - t
                # connect the quadrant diagonal matching the centre sign
                bl_tr_connected = (centre > 0) == (code == 5)
                if bl_tr_connected:
                    conn = [(bottom, right), (top, left)]
                else:
                    conn = [(left, bottom), (right, top)]
                segments.extend(conn)
            else:
                segments.extend(pairs[code])
    if saddle_cells:
        warnings.append(f"{saddle_cells} saddle cell(s) resolved by centre value")

    # chain segments into polylines through shared edge keys
    by_key: dict = {}
    for sid, (a, b) in enumerate(segments):
        by_key.setdefault(a[0], []).append(sid)
        by_key.setdefault(b[0], []).append(sid)

    used = [False] * len(segments)

    def walk(start_sid, start_key):
        chain = [start_key]
        sid = start_sid
        key = start_key
        while True:
            used[sid] = True
            a, b = segments[sid]
            nxt = b[0] if a[0] == key else a[0]
            chain.append(nxt)
            key = nxt
            candidates = [c for c in by_key.get(key, []) if not used[c]]
            if not candidates:
                return chain
            sid = candidates[0]

    # open chains start on boundary edges (s = 0 or s = 1 horizontal edges)
    def is_boundary_key(key):
        return key[0] == "h" and (key[2] == 0 or key[2] == nrs)

    coords = {}
    for a, b in segments:
        coords[a[0]] = a[1]
        coords[b[0]] = b[1]

    polylines = []
    for sid in range(len(segments)):
        if used[sid]:
            continue
        a, b = segments[sid]
        if is_boundary_key(a[0]) or is_boundary_key(b[0]):
            start = a[0] if is_boundary_key(a[0]) else b[0]
            chain = walk(sid, start)
            polylines.append(chain)
    for sid in range(len(segments)):
        if not used[sid]:
            chain = walk(sid, segments[sid][0][0])
            polylines.append(chain)

    out = []
    for chain in polylines:
        ref = np.array([coords[k] for k in chain])
        x, y = field.domain.map_point(np.mod(ref[:, 0], TWO_PI), np.clip(ref[:, 1], 0.0, 1.0))
        out.append(np.stack([x, y], axis=1))
    return out, warnings


def polyline_closed(poly: np.ndarray, tol: float = 1e-9) -> bool:
    return bool(np.hypot(*(poly[0] - poly[-1])) <= tol * (1.0 + np.max(np.abs(poly))))


def polyline_winds_hole(poly: np.ndarray) -> bool:
    """True when a closed polyline encircles the origin (separates the
    domain boundaries of an annulus)."""
    return abs(round(winding_turns(np.arctan2(poly[:, 1], poly[:, 0])))) >= 1


# --------------------------------------------------------------------------
# local structure around a critical point

def local_structure(field: SolutionField, cp: CriticalPoint,
                    n_radial: int = 24, n_angular: int = 512):
    """Component counts (supers, subs) of {u > u(cp)} / {u < u(cp)} on the
    annular patch between degree_radius / 4 and degree_radius around cp."""
    rho = cp.degree_radius
    radii = np.linspace(rho / 4.0, rho, n_radial)
    phi = np.arange(n_angular) * (TWO_PI / n_angular)
    Rg, Pg = np.meshgrid(radii, phi, indexing="ij")
    xs = cp.x + Rg * np.cos(Pg)
    ys = cp.y + Rg * np.sin(Pg)
    if not bool(np.all(field.domain.contains(xs.ravel(), ys.ravel()))):
        raise RadiusExhaustedError("local-structure patch leaves the domain")
    vals = field.evaluate(xs.ravel(), ys.ravel()).reshape(Rg.shape)
    diff = vals - cp.value
    # wrap along the angular axis (axis 1): transpose for label_wrapped
    _, n_sup = label_wrapped((diff > 0).T)
    _, n_sub = label_wrapped((diff < 0).T)
    return int(n_sup), int(n_sub)


# --------------------------------------------------------------------------
# component-contact clauses

def check_component_contact(census: LevelSetCensus, profile: BoundaryProfile) -> dict:
    """Boundary-contact requirements for the census threshold, by ordering case.

    separated case:  t in (z2, Z2): every super component meets gamma_E;
                     t in (z1, Z1): every sub component meets gamma_I.
    interleaved:     t in [Z1, Z2): super -> gamma_E;  t in (z1, z2]:
                     sub -> gamma_I;  t in (z2, Z1): unconstrained.
    """
    case = profile.ordering_case()
    t = census.t
    report = {"t": t, "case": case, "applicable": False, "clause": None, "holds": None, "failures": []}
    if case is None:
        report["reason"] = "ordering case not applicable (need z1 < Z1 <= z2 < Z2 or z1 < z2 < Z1 < Z2)"
        return report
    z1, Z1, z2, Z2 = profile.z1, profile.Z1, profile.z2, profile.Z2
    checks = []
    if case == "separated":
        if z2 < t < Z2:
            checks.append(("super", "exterior"))
        if z1 < t < Z1:
            checks.append(("sub", "interior"))
    else:
        if Z1 <= t < Z2:
            checks.append(("super", "exterior"))
        if z1 < t <= z2:
            checks.append(("sub", "interior"))
    if not checks:
        report["reason"] = f"threshold {t} falls in an unconstrained interval"
        return report
    report["applicable"] = True
    report["clause"] = [f"{sign}->{bnd}" for sign, bnd in checks]
    failures = []
    for sign, bnd in checks:
        for comp in census.counted(sign):
            ok = comp.touches_exterior if bnd == "exterior" else comp.touches_interior
            if not ok:
                failures.append({
                    "sign": sign, "boundary": bnd, "label": comp.label,
                    "cell_count": comp.cell_count,
                })
    report["failures"] = failures
    report["holds"] = not failures
    return report
