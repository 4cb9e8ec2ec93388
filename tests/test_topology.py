"""Censuses, level lines, boundary profiles; brute-force cross-checks."""

import math
from collections import deque

import numpy as np
import pytest
import scipy.ndimage as ndi

from conftest import BUILTIN_NAMES, make_scenario, solved_field
from levelset_lab import expressions as ex
from levelset_lab.critical import find_critical_points, label_wrapped
from levelset_lab.geometry import TWO_PI
from levelset_lab.solver import SolutionField, solve_scenario
from levelset_lab.topology import (
    _CASES,
    LevelComponent,
    LevelSetCensus,
    boundary_profile,
    check_component_contact,
    level_census,
    local_structure,
    polyline_closed,
    polyline_winds_hole,
    trace_level_lines,
)


# ------------------------------------------------------- brute-force oracle

def brute_force_census(spec, fn, t, n_theta, n_s):
    """Independent flood fill on exact samples of a closed form: hand-rolled
    BFS on a polar lattice with theta wrap-around; no shared code with
    level_census."""
    th = (np.arange(n_theta) + 0.5) * (TWO_PI / n_theta)
    ss = (np.arange(n_s) + 0.5) / n_s
    T, S = np.meshgrid(th, ss, indexing="ij")
    X, Y = spec.domain.map_point(T, S)
    U = fn(X, Y)

    def flood(mask):
        seen = np.zeros_like(mask, dtype=bool)
        comps = []
        for i0 in range(n_theta):
            for j0 in range(n_s):
                if not mask[i0, j0] or seen[i0, j0]:
                    continue
                queue = deque([(i0, j0)])
                seen[i0, j0] = True
                touch_i = touch_e = False
                size = 0
                while queue:
                    i, j = queue.popleft()
                    size += 1
                    touch_i = touch_i or (j == 0 and spec.domain.interior is not None)
                    touch_e = touch_e or (j == n_s - 1)
                    for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                        a, b = (i + di) % n_theta, j + dj
                        if 0 <= b < n_s and mask[a, b] and not seen[a, b]:
                            seen[a, b] = True
                            queue.append((a, b))
                comps.append((size, touch_i, touch_e))
        return comps

    supers = flood(U > t)
    subs = flood(U < t)
    return supers, subs


ANALYTIC = {
    "log_annulus": lambda x, y: np.log(np.hypot(x, y)),
    "z_plus_inv": lambda x, y: (np.hypot(x, y) + 1.0 / np.hypot(x, y)) * np.cos(np.arctan2(y, x)),
    "z2_minus_zm2": lambda x, y: (np.hypot(x, y) ** 2 - np.hypot(x, y) ** -2) * np.cos(2 * np.arctan2(y, x)),
}
CRITICAL_VALUES = {"log_annulus": (0.0, 1.0), "z_plus_inv": (-2.0, 2.0), "z2_minus_zm2": (0.0,)}


def census_signature(census: LevelSetCensus):
    out = []
    for comp in census.components:
        if comp.all_uncertain:
            continue
        out.append((comp.sign, comp.touches_interior, comp.touches_exterior))
    return sorted(out)


def brute_signature(supers, subs):
    out = [("super", ti, te) for _, ti, te in supers]
    out += [("sub", ti, te) for _, ti, te in subs]
    return sorted(out)


@pytest.mark.parametrize("name", list(ANALYTIC))
def test_census_matches_brute_force(name):
    """level_census on the solved field == independent flood fill on exact
    closed-form samples, 20 seeded random thresholds per scenario."""
    fld = solved_field(name, 64, 64)
    spec = fld.spec
    fn = ANALYTIC[name]
    lo = float(np.min(fld.values))
    hi = float(np.max(fld.values))
    margin = 0.06 * (hi - lo)
    rng = np.random.default_rng(20260811)
    picked = []
    while len(picked) < 20:
        t = float(rng.uniform(lo + margin, hi - margin))
        if all(abs(t - c) > margin for c in CRITICAL_VALUES[name]):
            picked.append(t)
    for t in picked:
        census = level_census(fld, t)
        supers, subs = brute_force_census(spec, fn, t, 2 * fld.n_theta, 2 * fld.n_s)
        assert census.M1 == len(supers), (name, t)
        assert census.M2 == len(subs), (name, t)
        assert census_signature(census) == brute_signature(supers, subs), (name, t)


# ------------------------------------------------------------ census basics

def test_log_annulus_census_at_half():
    fld = solved_field("log_annulus", 128, 64)
    census = level_census(fld, 0.5)
    assert census.M1 == 1 and census.M2 == 1
    sup = census.counted("super")[0]
    sub = census.counted("sub")[0]
    assert sup.touches_exterior and not sup.touches_interior
    assert sub.touches_interior and not sub.touches_exterior


def test_census_above_max():
    fld = solved_field("log_annulus", 64, 32)
    census = level_census(fld, 2.0)
    assert census.M1 == 0 and census.M2 == 1


def test_z_plus_inv_census_cross_checked():
    # above the saddle value the super side splits into two lenses
    fld = solved_field("z_plus_inv", 128, 64)
    census = level_census(fld, 2.2)
    supers, subs = brute_force_census(fld.spec, ANALYTIC["z_plus_inv"], 2.2, 512, 512)
    assert census.M1 == len(supers) == 2
    assert census.M2 == len(subs) == 1
    # below the saddle the lenses join into one component touching both curves
    census = level_census(fld, 1.9)
    assert census.M1 == 1 and census.M2 == 1
    sup = census.counted("super")[0]
    assert sup.touches_interior and sup.touches_exterior


def test_component_counts_constant_between_breakpoints():
    """M1/M2 do not change between consecutive thresholds that bracket no
    critical or boundary-extreme value."""
    for name, breakpoints in (("log_annulus", [0.0, 1.0]),
                              ("z_plus_inv", [-2.5, -2.0, 2.0, 2.5]),
                              ("z2_minus_zm2", [-3.75, 0.0, 3.75])):
        fld = solved_field(name, 64, 64)
        pts = sorted(breakpoints)
        for lo, hi in zip(pts[:-1], pts[1:]):
            t1 = lo + 0.25 * (hi - lo)
            t2 = lo + 0.75 * (hi - lo)
            c1 = level_census(fld, t1)
            c2 = level_census(fld, t2)
            assert (c1.M1, c1.M2) == (c2.M1, c2.M2), (name, t1, t2)


# ------------------------------------------------------------- level lines

def test_trace_circle_level_line():
    fld = solved_field("log_annulus", 256, 128)
    polys, _ = trace_level_lines(fld, 0.5)
    assert len(polys) == 1
    poly = polys[0]
    assert polyline_closed(poly)
    assert polyline_winds_hole(poly)
    radii = np.hypot(poly[:, 0], poly[:, 1])
    assert np.max(np.abs(radii - math.exp(0.5))) <= 1e-2


def test_trace_z2m_zero_set():
    fld = solved_field("z2_minus_zm2", 128, 64)
    polys, _ = trace_level_lines(fld, 0.0)
    pts = np.vstack(polys)
    r = np.hypot(pts[:, 0], pts[:, 1])
    ang = np.arctan2(pts[:, 1], pts[:, 0])
    on_circle = np.abs(r - 1.0) <= 2e-2
    on_rays = np.abs(np.cos(2 * ang)) <= 2e-2
    assert np.all(on_circle | on_rays)
    # both parts of the zero set are represented
    assert np.any(on_circle & ~on_rays) and np.any(on_rays & ~on_circle)


def test_trace_above_max_empty():
    fld = solved_field("log_annulus", 64, 32)
    polys, _ = trace_level_lines(fld, 5.0)
    assert polys == []


def test_trace_endpoints_on_level():
    fld = solved_field("z_plus_inv", 128, 64)
    t = 1.3
    polys, _ = trace_level_lines(fld, t)
    tol = 5.0 * fld.interp_error_estimate() + 1e-9
    for poly in polys:
        vals = fld.evaluate(poly[:, 0], poly[:, 1])
        assert np.max(np.abs(vals - t)) <= tol


def trace_by_cells(field, t):
    """Reference: marching squares one lattice cell at a time, edges keyed
    by tuples and chained through a dict."""
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
            pairs = {
                1: [(left, bottom)], 2: [(bottom, right)], 3: [(left, right)],
                4: [(right, top)], 6: [(bottom, top)], 7: [(left, top)],
                8: [(top, left)], 9: [(top, bottom)], 11: [(top, right)],
                12: [(right, left)], 13: [(bottom, right)], 14: [(left, bottom)],
            }
            if code in (5, 10):
                saddle_cells += 1
                centre = lat.centres[i, j] - t
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
            polylines.append(walk(sid, start))
    for sid in range(len(segments)):
        if not used[sid]:
            polylines.append(walk(sid, segments[sid][0][0]))

    out = []
    for chain in polylines:
        ref = np.array([coords[k] for k in chain])
        x, y = field.domain.map_point(np.mod(ref[:, 0], TWO_PI), np.clip(ref[:, 1], 0.0, 1.0))
        out.append(np.stack([x, y], axis=1))
    return out, warnings


def assert_same_trace(field, t):
    polys, warnings = trace_level_lines(field, t)
    ref_polys, ref_warnings = trace_by_cells(field, t)
    assert warnings == ref_warnings, t
    assert len(polys) == len(ref_polys), t
    for poly, ref in zip(polys, ref_polys):
        assert np.array_equal(poly, ref), t


@pytest.mark.parametrize("grid", [(64, 32), (128, 64)])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_trace_matches_cell_loop(name, grid):
    """Same polylines, in the same order and from the same first vertex,
    and the same saddle warning as the cell-by-cell reference, also at a
    threshold equal to a lattice node value and to a cell-centre value."""
    fld = solved_field(name, *grid)
    lat = fld.lattice()
    nrt, nrs = lat.centres.shape
    lo, hi = float(np.min(lat.nodes)), float(np.max(lat.nodes))
    for t in (lo + 0.3 * (hi - lo), lo + 0.55 * (hi - lo),
              float(lat.nodes[nrt // 3, nrs // 2]), float(lat.centres[nrt // 2, nrs // 3])):
        assert_same_trace(fld, t)


def test_trace_matches_cell_loop_on_noisy_field():
    """A seeded noisy field is full of saddle cells, resolved both ways by
    the centre value; the traces still match the reference exactly."""
    spec = make_scenario("3", "1", "1", "0", grid=(32, 16))
    rng = np.random.default_rng(20261018)
    saddles_by_centre = [0, 0]
    for _ in range(4):
        fld = SolutionField(spec, rng.standard_normal((32, 17)))
        lat = fld.lattice()
        for t in (0.0, 0.4, float(lat.nodes[5, 7]), float(lat.centres[9, 3])):
            above = lat.nodes > t
            diagonal = (above[:-1, :-1] == above[1:, 1:]) & (above[1:, :-1] == above[:-1, 1:])
            saddle = diagonal & (above[:-1, :-1] != above[1:, :-1])
            saddles_by_centre[0] += int(np.count_nonzero(saddle & (lat.centres <= t)))
            saddles_by_centre[1] += int(np.count_nonzero(saddle & (lat.centres > t)))
            assert_same_trace(fld, t)
    assert min(saddles_by_centre) >= 5, saddles_by_centre


def test_case_table_joins_sign_change_sides():
    """For every mixed corner code and either centre sign, each case joins
    each side whose two corners differ in sign exactly once, and no other."""
    assert np.all(_CASES[0] == -1) and np.all(_CASES[15] == -1)
    for code in range(1, 15):
        above = [(code >> k) & 1 for k in range(4)]
        crossed = sorted(k for k in range(4) if above[k] != above[(k + 1) % 4])
        for centre in (0, 1):
            segs = [tuple(seg) for seg in _CASES[code, centre].tolist() if seg[0] >= 0]
            assert all(a != b for a, b in segs)
            assert sorted(k for seg in segs for k in seg) == crossed, (code, centre)
        if code not in (5, 10):
            assert np.array_equal(_CASES[code, 0], _CASES[code, 1]), code


# -------------------------------------------------------- boundary profiles

def test_profile_single_cos_mode():
    fld = solved_field("z_plus_inv", 128, 64)
    prof = boundary_profile(fld)
    for trace in (prof.interior, prof.exterior):
        assert trace.maxima_count == 1
        assert trace.minima_count == 1
        assert trace.sign_changes == 2
        assert trace.equal_maxima and trace.equal_minima
    assert prof.z2 == pytest.approx(-2.5, abs=1e-5)
    assert prof.Z2 == pytest.approx(2.5, abs=1e-5)


def test_profile_two_cos_modes():
    fld = solved_field("z2_minus_zm2", 128, 64)
    prof = boundary_profile(fld)
    for trace in (prof.interior, prof.exterior):
        assert trace.maxima_count == 2
        assert trace.minima_count == 2
        assert trace.sign_changes == 4
        assert trace.tangential_zeros == 0


def test_profile_counterexample1():
    fld = solved_field("counterexample1", 128, 64)
    prof = boundary_profile(fld)
    inner, outer = prof.interior, prof.exterior
    assert inner.maxima_count == 3 and inner.minima_count == 3
    assert inner.equal_maxima and inner.equal_minima
    # log(2 + sin 3 theta) touches zero tangentially at its three minima
    assert inner.sign_changes == 0 and inner.tangential_zeros == 3
    assert outer.maxima_count == 4 and outer.minima_count == 4
    assert outer.equal_maxima and outer.equal_minima
    # increasing radial field: gamma_I maxima and gamma_E minima are not
    # extrema relative to the closure, the other extrema are
    assert [e.relative_to_closure for e in inner.maxima] == [False] * 3
    assert [e.relative_to_closure for e in inner.minima] == [True] * 3
    assert [e.relative_to_closure for e in outer.maxima] == [True] * 4
    assert [e.relative_to_closure for e in outer.minima] == [False] * 4
    assert prof.z1 == pytest.approx(0.0, abs=1e-6)
    assert prof.Z1 == pytest.approx(math.log(3), abs=1e-6)
    assert prof.z2 == pytest.approx(math.log(5), abs=1e-6)
    assert prof.Z2 == pytest.approx(math.log(7), abs=1e-6)
    assert prof.ordering_case() == "separated"


def test_profile_constant_trace_degenerate():
    fld = solved_field("log_annulus", 64, 32)
    prof = boundary_profile(fld)
    assert prof.interior.is_constant and prof.exterior.is_constant
    assert prof.interior.maxima_count is None
    assert prof.ordering_case() is None


# ------------------------------------------------------------ local structure

def test_local_structure_saddle():
    fld = solved_field("z_plus_inv", 128, 64)
    for p in find_critical_points(fld):
        assert local_structure(fld, p) == (2, 2)


def test_local_structure_multiplicity_two():
    fld = solved_field("disk_z3", 128, 64)
    (p,) = find_critical_points(fld)
    assert local_structure(fld, p) == (3, 3)


def test_local_structure_regular_point():
    from levelset_lab.critical import CriticalPoint
    fld = solved_field("log_annulus", 64, 32)
    probe = CriticalPoint(x=1.6, y=0.0, value=float(fld.evaluate(1.6, 0.0)),
                          multiplicity=0, is_zero=False, degree_radius=0.2,
                          grad_norm=1.0, winding_raw=0.0)
    assert local_structure(fld, probe) == (1, 1)


# --------------------------------------------------------- contact clauses

def test_contact_clause_counterexample1():
    fld = solved_field("counterexample1", 128, 64)
    prof = boundary_profile(fld)
    census = level_census(fld, math.log(6.0))  # in (z2, Z2) = (log 5, log 7)
    report = check_component_contact(census, prof)
    assert report["applicable"]
    assert report["holds"]


def test_contact_clause_not_applicable_for_equal_ranges():
    fld = solved_field("z_plus_inv", 128, 64)
    prof = boundary_profile(fld)
    report = check_component_contact(level_census(fld, 2.2), prof)
    assert not report["applicable"]
    assert "ordering" in report["reason"]


def test_contact_clause_synthetic_violation():
    fld = solved_field("counterexample1", 128, 64)
    prof = boundary_profile(fld)
    fake = LevelSetCensus(t=math.log(6.0), refine=2, uncertain_band=0.0, components=[
        LevelComponent(sign="super", label=1, cell_count=40, touches_interior=False,
                       touches_exterior=False, extremal_value=1.8,
                       extremal_contact_value=None, all_uncertain=False),
    ])
    report = check_component_contact(fake, prof)
    assert report["applicable"] and report["holds"] is False
    assert report["failures"][0]["label"] == 1


# ------------------------------------------------------- Euler characteristic

def euler_by_sets(i_arr, j_arr, n_theta):
    """Reference: vertices and edges of the cell set collected one cell at a time."""
    verts = set()
    edges = set()
    for i, j in zip(i_arr.tolist(), j_arr.tolist()):
        i1 = (i + 1) % n_theta
        verts.update(((i, j), (i1, j), (i, j + 1), (i1, j + 1)))
        edges.update((("h", i, j), ("h", i, j + 1), ("v", i, j), ("v", i1, j)))
    return len(verts) - len(edges) + len(i_arr)


def test_component_euler_matches_reference():
    from levelset_lab.topology import _component_euler

    n_theta, n_s = 24, 10
    ring = np.zeros((n_theta, n_s), dtype=bool)
    ring[:, 3:6] = True                          # wraps the seam: chi = 0
    frame = np.zeros((n_theta, n_s), dtype=bool)
    frame[20:, 2:7] = True
    frame[:4, 2:7] = True                        # straddles the seam
    frame[22:, 4] = frame[:2, 4] = False         # with a hole: chi = 0
    blob = np.zeros((n_theta, n_s), dtype=bool)
    blob[5:9, 0:3] = True                        # disk-like: chi = 1
    for mask, chi in ((ring, 0), (frame, 0), (blob, 1)):
        i_arr, j_arr = np.nonzero(mask)
        assert _component_euler(i_arr, j_arr, n_theta) == euler_by_sets(i_arr, j_arr, n_theta) == chi

    rng = np.random.default_rng(20261017)
    seen = set()
    for _ in range(60):
        mask = rng.random((n_theta, n_s)) < rng.uniform(0.3, 0.8)
        labels, n = label_wrapped(mask)
        for k in range(1, n + 1):
            i_arr, j_arr = np.nonzero(labels == k)
            chi = euler_by_sets(i_arr, j_arr, n_theta)
            assert _component_euler(i_arr, j_arr, n_theta) == chi
            seen.add((chi, bool(np.any(i_arr == 0) and np.any(i_arr == n_theta - 1))))
    # the random sets include seam-crossing components and ones with holes
    assert (1, True) in seen and any(chi < 1 for chi, _ in seen)


# ------------------------------------------------------------ seam labelling

def label_wrapped_by_union_find(mask):
    """Reference: ndi.label, a union-find over the labels that meet across
    the theta seam, then a renumbering loop in first-appearance order."""
    labels, n = ndi.label(mask)
    if n == 0:
        return labels, 0
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
    uniq = []
    remap = np.zeros(n + 1, dtype=int)
    for k in range(1, n + 1):
        r = roots[k]
        if remap[r] == 0:
            uniq.append(r)
            remap[r] = len(uniq)
        remap[k] = remap[r]
    return remap[labels], len(uniq)


def test_label_wrapped_matches_union_find():
    rng = np.random.default_rng(20261018)
    masks = [np.zeros((12, 7), dtype=bool), np.ones((12, 7), dtype=bool),
             rng.random((1, 9)) < 0.5, np.ones((1, 9), dtype=bool)]
    stripes = np.zeros((16, 6), dtype=bool)
    stripes[:3, ::2] = stripes[-2:, ::2] = True      # seam-wrapping pieces
    stripes[-1, 1] = stripes[0, 1] = True
    masks.append(stripes)
    masks += [rng.random(rng.integers(2, 20, size=2)) < rng.uniform(0.2, 0.8) for _ in range(400)]
    wrapped = 0
    for mask in masks:
        labels, n = label_wrapped(mask)
        ref_labels, ref_n = label_wrapped_by_union_find(mask)
        assert n == ref_n and type(n) is int
        assert np.array_equal(labels, ref_labels)
        wrapped += n < ndi.label(mask)[1]
    # the seeded masks merge components across the seam
    assert wrapped > 50
