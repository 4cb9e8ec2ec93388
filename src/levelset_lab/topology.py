"""Level-set censuses, level-line tracing and boundary-trace profiles."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .critical import ResolvedTolerances, label_runs, resolve_tolerances
from .errors import RadiusExhaustedError
from .geometry import TWO_PI
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
    euler_char: int           # 1 disk-like, 0 wrapping the annulus or holding a hole

    @property
    def simply_connected(self) -> bool:
        return self.euler_char == 1

    def touches(self, rim: str) -> bool:
        """Whether the component meets the rim "interior" (s = 0) or "exterior" (s = 1)."""
        return self.touches_exterior if rim == "exterior" else self.touches_interior


@dataclass
class LevelSetCensus:
    t: float
    components: list
    uncertain_band: float

    @property
    def M1(self) -> int:
        return len(self.counted("super"))

    @property
    def M2(self) -> int:
        return len(self.counted("sub"))

    def counted(self, sign: str):
        return [c for c in self.components if c.sign == sign and not c.all_uncertain]


def level_census(field: SolutionField, t: float) -> LevelSetCensus:
    """Classify lattice cells by sign of u - t and label their components.

    Cells whose centre value lies within the interpolation-error band are
    flagged uncertain; components made only of uncertain cells are excluded
    from the M1/M2 counts.  Every component carries its Euler characteristic.
    Each component is read from the runs that labelled it: u[mask] lists the
    cells in C order, so a run is a slice of it, starting or ending on a rim.
    """
    uc = field.lattice().centres
    band = field.interp_error_estimate()
    uncertain = np.abs(uc - t) <= band

    comps = []
    for sign, mask, extreme in (("super", uc > t, np.maximum), ("sub", uc < t, np.minimum)):
        starts, stops, comp, n, chi, inner, outer = label_runs(mask)
        size = stops - starts
        first = np.cumsum(size) - size
        vals = uc[mask]
        inner &= not field.domain.is_disk
        run_extreme = extreme.reduceat(vals, first)
        run_uncertain = np.logical_and.reduceat(uncertain[mask], first)
        for k in range(n):
            r = comp == k
            contact = np.concatenate([vals[first[r & inner]], vals[(first + size - 1)[r & outer]]])
            comps.append(LevelComponent(
                sign=sign, label=k + 1, cell_count=int(size[r].sum()),
                touches_interior=bool(np.any(r & inner)), touches_exterior=bool(np.any(r & outer)),
                extremal_value=float(extreme.reduce(run_extreme[r])),
                extremal_contact_value=float(extreme.reduce(contact)) if contact.size else None,
                all_uncertain=bool(np.all(run_uncertain[r])), euler_char=int(chi[k + 1]),
            ))
    return LevelSetCensus(t=t, components=comps, uncertain_band=band)


def region_components(field: SolutionField, lo: float, hi: float) -> int:
    """Number of 4-connected components of {lo < u < hi} on the lattice."""
    uc = field.lattice().centres
    return label_runs((uc > lo) & (uc < hi))[3]


# --------------------------------------------------------------------------
# boundary profiles

# Each boundary trace is sampled at this many equally spaced angles.
_TRACE_SAMPLES = 4096
# The collar test reads this many solve cells around a boundary extremum.
_COLLAR_CELLS = 5


@dataclass
class BoundaryExtremum:
    theta: float
    value: float
    kind: str                  # "max" | "min"
    relative_to_closure: bool | None = None


@dataclass
class TraceProfile:
    which: str                 # "interior" | "exterior"
    constant_value: float | None  # H of a constant trace, else None
    min_value: float
    max_value: float
    maxima: list
    minima: list
    sign_changes: int
    tangential_zeros: int
    equal_maxima: bool | None
    equal_minima: bool | None

    @property
    def is_constant(self) -> bool:
        return self.constant_value is not None

    @property
    def maxima_count(self):
        return None if self.is_constant else len(self.maxima)

    @property
    def minima_count(self):
        return None if self.is_constant else len(self.minima)

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

    def bands(self) -> list:
        """The lemma bands of the ordering case as (name, lo, hi), from the
        top: "upper" and "lower", with "middle" between them in the
        interleaved case; empty when no ordering case holds."""
        z1, Z1, z2, Z2 = self.z1, self.Z1, self.z2, self.Z2
        case = self.ordering_case()
        if case == "separated":
            return [("upper", z2, Z2), ("lower", z1, Z1)]
        if case == "interleaved":
            return [("upper", Z1, Z2), ("middle", z2, Z1), ("lower", z1, z2)]
        return []

    def band(self, v: float) -> str | None:
        """The band holding the level v, or None.  The bands are open
        intervals, except that in the interleaved case Z1 belongs to the
        upper band and z2 to the lower band."""
        for name, lo, hi in self.bands():
            if lo < v < hi:
                return name
        if self.ordering_case() == "interleaved":
            if v == self.Z1:
                return "upper"
            if v == self.z2:
                return "lower"
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
    minima) as lists of (index, value).

    Each non-flat step is compared with the previous non-flat step
    (cyclically); where the direction turns, the flat run between them
    belongs to the turning point and its centre is reported."""
    diff = np.roll(values, -1) - values
    step = np.where(diff > flat_tol, 1, np.where(diff < -flat_tol, -1, 0))
    nz = np.flatnonzero(step)
    prev_d, prev = np.roll(step[nz], 1), np.roll(nz, 1)
    mid = (prev + 1 + (nz - prev) % len(values) // 2) % len(values)
    turns = step[nz] != prev_d
    maxima, minima = (mid[turns & (prev_d == d)].tolist() for d in (1, -1))
    return [(k, float(values[k])) for k in maxima], [(k, float(values[k])) for k in minima]


def _count_zero_structure(values: np.ndarray, ztol: float):
    """(sign_changes, tangential) for a periodic sample: runs of near-zero
    samples count once, as a crossing when the flanking signs differ and as a
    tangential touch otherwise."""
    sign = np.where(values > ztol, 1, np.where(values < -ztol, -1, 0))
    nz = np.flatnonzero(sign)
    changed = sign[nz] != np.roll(sign[nz], 1)
    gap = (nz - np.roll(nz, 1)) % len(values)
    return int(np.count_nonzero(changed)), int(np.count_nonzero(~changed & (gap > 1)))


def _closure_relative(field: SolutionField, which: str, theta0: float, value: float,
                      kind: str, rt: ResolvedTolerances) -> bool:
    """Collar test: the extremum dominates the lattice nodes behind it, up
    to _COLLAR_CELLS solve cells to either side of the lattice column
    nearest theta0 and as deep behind the rim."""
    lat = field.lattice()
    nrt = len(lat.theta) - 1
    reach = _COLLAR_CELLS * REFINE
    nearest = round(theta0 * nrt / TWO_PI)
    cols = np.arange(nearest - reach, nearest + reach + 1) % nrt
    rows = slice(-reach - 1, None) if which == "exterior" else slice(0, reach + 1)
    patch = lat.nodes[cols, rows]
    slack = rt.equal_value_tol
    if kind == "max":
        return bool(value >= float(np.max(patch)) - slack)
    return bool(value <= float(np.min(patch)) + slack)


def _trace_profile(field: SolutionField, which: str, curve, datum, rt: ResolvedTolerances) -> TraceProfile:
    """The profile of datum on curve, one rim of `ScenarioSpec.rims()`."""
    theta = np.arange(_TRACE_SAMPLES) * (TWO_PI / _TRACE_SAMPLES)
    rr = curve.radius(theta)
    values = ex.evaluate_xy(datum, rr * np.cos(theta), rr * np.sin(theta))

    vmin, vmax = float(np.min(values)), float(np.max(values))
    scale = max(vmax - vmin, abs(vmax), abs(vmin), 1e-300)
    flat_tol = rt.equal_extrema_tol * scale
    # a datum constant up to round-off (x^2 + y^2 - 1 on r = 1) is constant;
    # the field's tolerance decides only that, since extrema found at the
    # field's scale would move the extrema counts of ordinary traces; its
    # value H is the mid-range, exactly 0.0 within value_zero_tol (the rule
    # of `CriticalPoint.is_zero`)
    H = 0.5 * (vmin + vmax) if (vmax - vmin) <= max(flat_tol, rt.equal_value_tol) else None
    if H is not None and abs(H) <= rt.value_zero_tol:
        H = 0.0

    maxima, minima, equal_max, equal_min = [], [], None, None
    if H is None:
        found = _run_length_extrema(values, flat_tol)
        maxima, minima = ([BoundaryExtremum(float(theta[k]), v, kind,
                                            _closure_relative(field, which, float(theta[k]), v, kind, rt))
                           for k, v in sorted(raw)] for kind, raw in zip(("max", "min"), found))
        equal_max, equal_min = (max(e.value for e in ext) - min(e.value for e in ext) <= flat_tol if ext else None
                                for ext in (maxima, minima))

    crossings, touches = _count_zero_structure(values, rt.value_zero_tol)
    return TraceProfile(
        which=which, constant_value=H, min_value=vmin, max_value=vmax,
        maxima=maxima, minima=minima, sign_changes=crossings, tangential_zeros=touches,
        equal_maxima=equal_max, equal_minima=equal_min,
    )


def boundary_profile(field: SolutionField) -> BoundaryProfile:
    """Extrema/zero profile of both boundary traces (from the closed-form
    boundary data; the solved field supplies the interior collar test)."""
    rt = resolve_tolerances(field)
    traces = {rim[0]: _trace_profile(field, *rim, rt) for rim in field.spec.rims()}
    return BoundaryProfile(exterior=traces["exterior"], interior=traces.get("interior"))


# --------------------------------------------------------------------------
# level-line tracing (marching squares on the lattice)

def _case_table() -> np.ndarray:
    """Marching-squares segments, indexed by (corner code, centre above t).

    Corner bits: 1 = (i, j), 2 = (i+1, j), 4 = (i+1, j+1), 8 = (i, j+1).
    Sides: 0 bottom, 1 right, 2 top, 3 left, so side k joins corners k and
    k+1 mod 4.  Each case lists up to two segments as side pairs, padded
    with -1, joining the sign-change sides around each cut-off corner.  Only
    the saddle codes 5 and 10 read the centre: when it has the sign of
    corners (i, j) and (i+1, j+1), the other two corners are cut off.
    """
    table = np.full((16, 2, 2, 2), -1, dtype=np.intp)
    for code, pair in {1: (3, 0), 2: (0, 1), 3: (3, 1), 4: (1, 2), 6: (0, 2), 7: (3, 2), 8: (2, 3),
                       9: (2, 0), 11: (2, 1), 12: (1, 3), 13: (0, 1), 14: (3, 0)}.items():
        table[code, :, 0] = pair
    table[5, 1] = table[10, 0] = ((0, 1), (2, 3))
    table[5, 0] = table[10, 1] = ((3, 0), (1, 2))
    return table


_CASES = _case_table()


def _edge_points(v0, v1, p0, p1):
    """Zero of u - t on each lattice edge from p0 (value v0) to p1 (value
    v1) by linear interpolation, clipped to the edge; the midpoint when the
    end values are equal."""
    d = v0 - v1
    lam = np.clip(np.divide(v0, d, out=np.full(d.shape, 0.5), where=d != 0), 0.0, 1.0)
    return p0 + lam[..., None] * (p1 - p0)


def trace_level_lines(field: SolutionField, t: float):
    """Marching-squares polylines of {u = t} in physical coordinates.

    Returns (polylines, warnings); each polyline is an (n, 2) array, closed
    when its first and last vertices coincide.  Chains that start on the
    s = 0 or s = 1 rim come first, then closed loops, each in the cell order
    (i-major) of its first segment.
    """
    lat = field.lattice()
    un = lat.nodes - t
    nrt, nrs = lat.centres.shape
    pos = (un > 0.0).astype(np.intp)
    code = pos[:-1, :-1] | pos[1:, :-1] << 1 | pos[1:, 1:] << 2 | pos[:-1, 1:] << 3
    saddle_cells = int(np.count_nonzero((code == 5) | (code == 10)))
    warnings = [f"{saddle_cells} saddle cell(s) resolved by centre value"] if saddle_cells else []

    # edge ids: horizontal edge (i, j), from node (i, j) to (i+1, j), is
    # i * (nrs + 1) + j; vertical edge (i, j), from node (i, j) to (i, j+1),
    # is n_h + i * nrs + j, the seam column nrt counting as column 0
    n_h = nrt * (nrs + 1)
    cells = np.flatnonzero((code != 0) & (code != 15))
    i, j = np.divmod(cells, nrs)
    sides = np.stack([i * (nrs + 1) + j, n_h + (i + 1) % nrt * nrs + j,
                      i * (nrs + 1) + j + 1, n_h + i * nrs + j], axis=1)
    case = _CASES[code.flat[cells], (lat.centres.flat[cells] > t).astype(np.intp)]
    live = case.reshape(-1, 2)[:, 0] >= 0
    ends = np.take_along_axis(sides, case.reshape(-1, 4), axis=1).reshape(-1, 2)[live].ravel()

    # node column nrt (theta = 2 pi) samples the same points as column 0
    node = np.stack(np.meshgrid(lat.theta, lat.s, indexing="ij"), axis=-1)
    h_pts = _edge_points(un[:-1], un[1:], node[:-1], node[1:])
    v_pts = _edge_points(un[:-1, :-1], un[:-1, 1:], node[:-1, :-1], node[:-1, 1:])
    pts = np.concatenate([h_pts.reshape(-1, 2), v_pts.reshape(-1, 2)])

    # segment k has ends 2k and 2k + 1; other[e] is the end of the other
    # segment on the same edge as end e, or -1 (an edge is a side of at most
    # two cells, and of at most one segment in each)
    order = np.argsort(ends, kind="stable")
    shared = ends[order[:-1]] == ends[order[1:]]
    a, b = order[:-1][shared], order[1:][shared]
    other = np.full(len(ends), -1)
    other[a], other[b] = b, a
    edge_of, other = ends.tolist(), other.tolist()
    used = [False] * (len(ends) // 2)

    def walk(e):
        chain = [edge_of[e]]
        while e >= 0 and not used[e >> 1]:
            used[e >> 1] = True
            e ^= 1
            chain.append(edge_of[e])
            e = other[e]
        return chain

    on_rim = (ends < n_h) & (ends % (nrs + 1) % nrs == 0)
    chains = [walk(e) for e in np.flatnonzero(on_rim).tolist() if not used[e >> 1]]
    chains += [walk(2 * k) for k in range(len(used)) if not used[k]]

    out = []
    for chain in chains:
        ref = pts[chain]
        x, y = field.domain.map_point(np.mod(ref[:, 0], TWO_PI), np.clip(ref[:, 1], 0.0, 1.0))
        out.append(np.stack([x, y], axis=1))
    return out, warnings


# --------------------------------------------------------------------------
# local structure around a critical point

# Polar patch of local_structure: radii and angles sampled.
_LOCAL_RADII = 24
_LOCAL_ANGLES = 512


def local_structure(field: SolutionField, cp: CriticalPoint):
    """Component counts (supers, subs) of {u > u(cp)} / {u < u(cp)} on the
    annular patch between degree_radius / 4 and degree_radius around cp."""
    rho = cp.degree_radius
    radii = np.linspace(rho / 4.0, rho, _LOCAL_RADII)
    phi = np.arange(_LOCAL_ANGLES) * (TWO_PI / _LOCAL_ANGLES)
    Rg, Pg = np.meshgrid(radii, phi, indexing="ij")
    xs = cp.x + Rg * np.cos(Pg)
    ys = cp.y + Rg * np.sin(Pg)
    theta, s, inside = field._invert(xs.ravel(), ys.ravel())
    if not np.all(inside):
        raise RadiusExhaustedError("local-structure patch leaves the domain")
    vals = field.evaluate_ref(theta, s).reshape(Rg.shape)
    diff = vals - cp.value
    # wrap along the angular axis (axis 1): transpose for the run pass
    return label_runs((diff > 0).T)[3], label_runs((diff < 0).T)[3]


# --------------------------------------------------------------------------
# component-contact clauses

def check_component_contact(census: LevelSetCensus, profile: BoundaryProfile) -> dict:
    """Boundary-contact requirement at the census threshold, by its band:
    in the upper band every super component meets gamma_E, in the lower
    band every sub component meets gamma_I, and elsewhere nothing is
    required."""
    case = profile.ordering_case()
    t = census.t
    report = {"t": t, "case": case, "applicable": False, "clause": None, "holds": None, "failures": []}
    if case is None:
        report["reason"] = "ordering case not applicable (need z1 < Z1 <= z2 < Z2 or z1 < z2 < Z1 < Z2)"
        return report
    required = {"upper": ("super", "exterior"), "lower": ("sub", "interior")}.get(profile.band(t))
    if required is None:
        report["reason"] = f"threshold {t:.9g} falls in an unconstrained interval"
        return report
    sign, bnd = required
    report["applicable"] = True
    report["clause"] = [f"{sign}->{bnd}"]
    report["failures"] = [
        {"sign": sign, "boundary": bnd, "label": comp.label, "cell_count": comp.cell_count}
        for comp in census.counted(sign) if not comp.touches(bnd)
    ]
    report["holds"] = not report["failures"]
    return report
