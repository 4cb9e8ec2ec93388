"""Censuses, level lines, boundary profiles; brute-force cross-checks."""

import ast
import math
import os
import re
import subprocess
import sys
from collections import Counter, deque
from dataclasses import replace
from pathlib import Path
from types import ModuleType, SimpleNamespace

import numpy as np
import pytest
import scipy.ndimage as ndi

from conftest import BUILTIN_NAMES, builtin_report, builtin_spec, field_from_function, make_scenario, solved_field, value_at
import levelset_lab
from levelset_lab import expressions as ex
from levelset_lab.critical import find_critical_points, label_wrapped
from levelset_lab.domain import FINE_FACTOR
from levelset_lab.errors import RadiusExhaustedError
from levelset_lab.geometry import TWO_PI, winding_number
from levelset_lab.solver import SolutionField, resolve_tolerances, solve_scenario
from levelset_lab.topology import (
    _CASES,
    BoundaryProfile,
    LevelComponent,
    LevelSetCensus,
    TraceProfile,
    _closure_relative,
    _count_zero_structure,
    _run_length_extrema,
    boundary_profile,
    check_component_contact,
    level_census,
    local_structure,
    region_components,
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


# ------------------------------------------------- per-component reference

def census_by_components(field, t):
    """Reference: the census with one lattice scan per component of
    label_wrapped's labels (the loop that `level_census` replaced)."""
    uc = field.lattice().centres
    nrs = uc.shape[1]
    band = field.interp_error_estimate()
    uncertain = np.abs(uc - t) <= band
    comps = []
    for sign, mask in (("super", uc > t), ("sub", uc < t)):
        labels, n, chi = label_wrapped(mask)
        for k in range(1, n + 1):
            sel = labels == k
            i_arr, j_arr = np.nonzero(sel)
            vals = uc[sel]
            extremal = float(np.max(vals)) if sign == "super" else float(np.min(vals))
            contact = None
            contact_sel = (j_arr == nrs - 1) | ((j_arr == 0) & (not field.domain.is_disk))
            if np.any(contact_sel):
                cv = uc[i_arr[contact_sel], j_arr[contact_sel]]
                contact = float(np.max(cv)) if sign == "super" else float(np.min(cv))
            comps.append(LevelComponent(
                sign=sign, label=k, cell_count=int(sel.sum()),
                touches_interior=bool(np.any(j_arr == 0)) and not field.domain.is_disk,
                touches_exterior=bool(np.any(j_arr == nrs - 1)),
                extremal_value=extremal, extremal_contact_value=contact,
                all_uncertain=bool(np.all(uncertain[sel])), euler_char=int(chi[k]),
            ))
    return LevelSetCensus(t=t, components=comps, uncertain_band=band)


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_census_matches_per_component_reference(name):
    """level_census == census_by_components on every census level that
    run_scenario takes, on the configured grid and on the refinement, and
    at 20 seeded thresholds inside the range of u on each."""
    nt, ns = builtin_spec(name).grid
    levels = [census.t for _, census in builtin_report(name).censuses]
    rng = np.random.default_rng(20261021)
    for factor in (1, FINE_FACTOR):
        field = solved_field(name, factor * nt, factor * ns)
        for t in levels + rng.uniform(np.min(field.values), np.max(field.values), size=20).tolist():
            assert level_census(field, t) == census_by_components(field, t), (name, factor, t)


def _synthetic_field(fn, interior="1", band=None):
    """A 16x8 field sampled from fn on 1 < r < 2, or on r < 2 with no
    interior; `band` replaces the interpolation-error estimate."""
    spec = make_scenario("2", interior, "0", "0" if interior else None, grid=(16, 8), name="synthetic")
    fld = field_from_function(spec, fn)
    if band is not None:
        fld.interp_error_estimate = lambda: band
    return fld


def _census_pair(field, t):
    census = level_census(field, t)
    assert census == census_by_components(field, t)
    return {sign: [c for c in census.components if c.sign == sign] for sign in ("super", "sub")}


def test_census_edge_cases_match_per_component_reference():
    """Synthetic fields for the cases a run reading must tell apart: one
    sign empty, a component across the theta seam that meets both rims
    with full-row runs, rings beside disk-like pieces, an all-uncertain
    component, and a disk, whose s = 0 column is no rim."""
    x = _synthetic_field(lambda x, y: x)
    for t, empty in ((10.0, "super"), (-10.0, "sub")):
        comps = _census_pair(x, t)
        assert comps[empty] == [] and len(comps["sub" if empty == "super" else "super"]) == 1

    (cap,), (rest,) = _census_pair(x, 0.5).values()   # x > 0.5 holds the seam's rows from rim to rim
    assert cap.touches_interior and cap.touches_exterior and cap.euler_char == 1
    assert cap.extremal_contact_value == cap.extremal_value and rest.euler_char == 1
    mask = x.lattice().centres > 0.5
    assert mask[0].all() and mask[-1].all()

    (ring,), (inner,) = _census_pair(_synthetic_field(lambda x, y: np.hypot(x, y)), 1.5).values()
    assert ring.euler_char == inner.euler_char == 0
    assert ring.touches_exterior and not ring.touches_interior and ring.extremal_contact_value > 1.9
    comps = _census_pair(_synthetic_field(lambda x, y: np.hypot(x, y) * np.cos(3 * np.arctan2(y, x))), 1.2)
    assert [c.euler_char for c in comps["super"]] == [1, 1, 1] and [c.euler_char for c in comps["sub"]] == [0]

    wide = _synthetic_field(lambda x, y: x, band=0.2)  # the cap x > 1.9 lies inside the band
    comps = _census_pair(wide, 1.9)
    assert [c.all_uncertain for c in comps["super"]] == [True] and [c.all_uncertain for c in comps["sub"]] == [False]
    assert level_census(x, 1.9).M1 == 1 and level_census(wide, 1.9).M1 == 0

    comps = _census_pair(_synthetic_field(lambda x, y: x, interior=None), 0.5)
    assert not any(c.touches_interior for c in comps["super"] + comps["sub"])
    assert all(c.touches_exterior for c in comps["super"] + comps["sub"])


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


def test_region_components_hand_built():
    """{lo < u < hi} on a hand-set lattice: strict bounds, 4-connectivity,
    and the theta seam joining rows 0 and n - 1."""
    centres = np.zeros((8, 4))
    centres[[0, 7], 1] = 2.0   # one component across the seam
    centres[1, 1] = 3.0        # on the upper bound: outside, so ...
    centres[2, 1] = 2.0        # ... this cell stands alone
    centres[[3, 4], 2] = 2.0   # one component
    centres[5, 3] = 2.5        # touches (4, 2) only at a corner
    centres[7, 0] = 1.0        # on the lower bound: outside
    fake = SimpleNamespace(lattice=lambda: SimpleNamespace(centres=centres))
    assert region_components(fake, 1.0, 3.0) == 4
    assert region_components(fake, 0.5, 3.5) == 3   # (1, 1) and (7, 0) join the seam one
    assert region_components(fake, 3.0, 4.0) == 0


# ------------------------------------------------------------- level lines

def test_trace_circle_level_line():
    fld = solved_field("log_annulus", 256, 128)
    polys, _ = trace_level_lines(fld, 0.5)
    assert len(polys) == 1
    poly = polys[0]
    assert np.hypot(*(poly[0] - poly[-1])) <= 1e-9 * (1.0 + np.max(np.abs(poly)))
    assert abs(winding_number(np.arctan2(poly[:, 1], poly[:, 0]))) >= 1
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
        vals = value_at(fld, poly[:, 0], poly[:, 1])
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


def collar_patch(field, which, theta0, depth_cells=5):
    """u on the collar patch that `topology._closure_relative` used to
    sample itself: (4 d + 1) x (2 d + 1) points at half-cell spacing,
    centred on theta0 itself, evaluated point by point with `evaluate_ref`."""
    half = depth_cells * field.dtheta
    th = np.linspace(theta0 - half, theta0 + half, 4 * depth_cells + 1)
    depth = depth_cells * field.ds
    if which == "exterior":
        ss = np.linspace(max(0.0, 1.0 - depth), 1.0, 2 * depth_cells + 1)
    else:
        ss = np.linspace(0.0, min(1.0, depth), 2 * depth_cells + 1)
    T, S = np.meshgrid(np.mod(th, TWO_PI), ss, indexing="ij")
    return field.evaluate_ref(T.ravel(), S.ravel())


def closure_relative_on_patch(field, which, theta0, value, kind, rt):
    """The collar test that `topology._closure_relative` replaced."""
    patch = collar_patch(field, which, theta0)
    slack = rt.equal_value_tol
    if kind == "max":
        return bool(value >= float(np.max(patch)) - slack)
    return bool(value <= float(np.min(patch)) + slack)


def test_collar_test_on_lattice_matches_patch_reference():
    """On the refined field of every built-in, each boundary extremum gets
    the same closure-relative flag from the lattice nodes as from the
    off-lattice patch around its own angle."""
    seen = Counter()
    for name in BUILTIN_NAMES:
        nt, ns = builtin_spec(name).grid
        fld = solved_field(name, 2 * nt, 2 * ns)
        rt = resolve_tolerances(fld)
        prof = boundary_profile(fld)
        for trace in filter(None, (prof.interior, prof.exterior)):
            for e in trace.maxima + trace.minima:
                want = closure_relative_on_patch(fld, trace.which, e.theta, e.value, e.kind, rt)
                assert e.relative_to_closure is want, (name, trace.which, e)
                seen[want] += 1
    assert seen[True] >= 10 and seen[False] >= 10, seen


def test_collar_on_lattice_column_reads_the_reference_patch():
    """At an angle on a lattice column the two collars sample the same
    points, so both flags flip at the same value, within round-off."""
    fld = solved_field("counterexample1", 64, 32)
    rt = resolve_tolerances(fld)
    slack, delta = rt.equal_value_tol, 1e-9 * fld.u_range()
    theta = fld.lattice().theta
    for which in ("interior", "exterior"):
        for col in range(0, 128, 9):
            patch = collar_patch(fld, which, theta[col])
            for kind, edge in (("max", float(np.max(patch)) - slack), ("min", float(np.min(patch)) + slack)):
                inside = delta if kind == "max" else -delta
                assert _closure_relative(fld, which, theta[col], edge + inside, kind, rt), (which, col, kind)
                assert not _closure_relative(fld, which, theta[col], edge - inside, kind, rt), (which, col, kind)


def test_profile_constant_trace_degenerate():
    fld = solved_field("log_annulus", 64, 32)
    prof = boundary_profile(fld)
    assert prof.interior.is_constant and prof.exterior.is_constant
    assert prof.interior.maxima_count is None
    assert prof.ordering_case() is None


def run_length_extrema_by_loop(values, flat_tol):
    """The step-by-step walk that `topology._run_length_extrema` replaced."""
    n = len(values)
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
            span = (k - prev_pos) % n
            mid = (prev_pos + 1 + span // 2) % n
            if prev_dir > 0 and d < 0:
                maxima.append((int(mid), float(values[mid])))
            elif prev_dir < 0 and d > 0:
                minima.append((int(mid), float(values[mid])))
            prev_dir = d
        prev_pos = k
    return maxima, minima


def count_zero_structure_by_loop(values, ztol):
    """The step-by-step walk that `topology._count_zero_structure` replaced."""
    sign = np.where(values > ztol, 1, np.where(values < -ztol, -1, 0))
    nz = np.nonzero(sign)[0]
    if len(nz) == 0:
        return 0, 0
    crossings = touches = 0
    prev_sign, prev_pos = sign[nz[-1]], nz[-1]
    n = len(values)
    for k in nz:
        gap = (k - prev_pos) % n
        if sign[k] != prev_sign:
            crossings += 1
        elif gap > 1:
            touches += 1
        prev_sign, prev_pos = sign[k], k
    return crossings, touches


def assert_scans_match(values, tol):
    maxima, minima = _run_length_extrema(values, tol)
    ref_max, ref_min = run_length_extrema_by_loop(values, tol)
    assert set(maxima) == set(ref_max) and set(minima) == set(ref_min), (values.tolist(), tol)
    assert _count_zero_structure(values, tol) == count_zero_structure_by_loop(values, tol), (values.tolist(), tol)


def test_trace_scans_match_loops_on_random_samples():
    """Extrema (as sets) and zero counts equal the loop references on
    periodic samples with plateaus, ties and flat stretches."""
    rng = np.random.default_rng(20260)
    for case in range(1500):
        n = int(rng.integers(1, 41))
        kind = case % 4
        if kind == 0:
            values = rng.normal(size=n)
        elif kind == 1:
            values = np.round(rng.normal(size=n), 1)
        elif kind == 2:
            values = rng.integers(-2, 3, size=n).astype(float)
        else:
            values = np.full(n, float(rng.integers(-1, 2))) + rng.normal(scale=1e-3, size=n) * (case % 8 == 3)
        for tol in (0.0, 1e-3, 0.05, 0.5, 1.0):
            assert_scans_match(values, tol)


def test_trace_scans_match_loops_on_builtin_traces():
    """The 14 boundary traces of the built-ins (6 annuli with two rims, 2
    disks with one), at the profile's own tolerances and at zero."""
    traces = 0
    for name in BUILTIN_NAMES:
        spec = builtin_spec(name)
        nt, ns = spec.grid
        rt = resolve_tolerances(solved_field(name, 2 * nt, 2 * ns))
        theta = np.arange(4096) * (TWO_PI / 4096)
        for curve, psi in ((spec.domain.exterior, spec.psi_exterior), (spec.domain.interior, spec.psi_interior)):
            if curve is None:
                continue
            r = curve.radius(theta)
            values = ex.evaluate_xy(psi, r * np.cos(theta), r * np.sin(theta))
            vmin, vmax = float(np.min(values)), float(np.max(values))
            flat_tol = rt.equal_extrema_tol * max(vmax - vmin, abs(vmax), abs(vmin), 1e-300)
            for tol in (0.0, flat_tol, rt.value_zero_tol):
                assert_scans_match(values, tol)
            traces += 1
    assert traces == 14


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
    probe = CriticalPoint(x=1.6, y=0.0, value=float(value_at(fld, 1.6, 0.0)),
                          multiplicity=0, is_zero=False, degree_radius=0.2)
    assert local_structure(fld, probe) == (1, 1)


def test_local_structure_patch_outside_the_domain_raises():
    fld = solved_field("z_plus_inv", 128, 64)
    probe = replace(find_critical_points(fld)[0], degree_radius=1.0)
    with pytest.raises(RadiusExhaustedError, match="local-structure patch leaves the domain"):
        local_structure(fld, probe)


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
    fake = LevelSetCensus(t=math.log(6.0), uncertain_band=0.0, components=[
        LevelComponent(sign="super", label=1, cell_count=40, touches_interior=False,
                       touches_exterior=False, extremal_value=1.8,
                       extremal_contact_value=None, all_uncertain=False, euler_char=1),
    ])
    report = check_component_contact(fake, prof)
    assert report["applicable"] and report["holds"] is False
    assert report["failures"][0]["label"] == 1


def _trace(lo, hi):
    return TraceProfile(which="fake", constant_value=None, min_value=lo, max_value=hi,
                        maxima=[], minima=[], sign_changes=0, tangential_zeros=0,
                        equal_maxima=None, equal_minima=None)


# z1, Z1, z2, Z2 = 0, 1, 2, 3 (separated) and 0, 2, 1, 3 (interleaved)
@pytest.mark.parametrize("interior, exterior, expected", [
    ((0.0, 1.0), (2.0, 3.0), {0.0: None, 0.5: "lower", 1.0: None, 1.5: None,
                              2.0: None, 2.5: "upper", 3.0: None}),
    ((0.0, 1.0), (1.0, 3.0), {0.5: "lower", 1.0: None, 2.0: "upper"}),  # Z1 = z2
    ((0.0, 2.0), (1.0, 3.0), {0.0: None, 0.5: "lower", 1.0: "lower", 1.5: "middle",
                              2.0: "upper", 2.5: "upper", 3.0: None}),
])
def test_band_lookup_and_contact_clause(interior, exterior, expected):
    """The band rule at z1, Z1, z2 and Z2 and between them, and the contact
    clause that check_component_contact takes there."""
    prof = BoundaryProfile(exterior=_trace(*exterior), interior=_trace(*interior))
    clause = {"upper": ["super->exterior"], "lower": ["sub->interior"]}
    for t, band in expected.items():
        assert prof.band(t) == band, t
        census = LevelSetCensus(t=t, components=[], uncertain_band=0.0)
        report = check_component_contact(census, prof)
        assert report["applicable"] == (band in clause), t
        assert report["clause"] == clause.get(band), t


@pytest.mark.parametrize("interior, exterior", [
    ((0.0, 3.0), (1.0, 2.0)),   # nested ranges
    ((1.0, 2.0), (0.0, 3.0)),
    ((1.0, 3.0), (0.0, 2.0)),   # the interior range on top
])
def test_no_bands_without_an_ordering_case(interior, exterior):
    prof = BoundaryProfile(exterior=_trace(*exterior), interior=_trace(*interior))
    assert prof.ordering_case() is None and prof.bands() == []
    assert [prof.band(t) for t in (0.5, 1.0, 1.5, 2.0, 2.5)] == [None] * 5
    assert BoundaryProfile(exterior=_trace(*exterior), interior=None).bands() == []


def test_unconstrained_reason_prints_no_round_off():
    """The reason of an unconstrained threshold prints t to 9 significant
    digits, as census tags do, so round-off in t leaves it unchanged."""
    prof = BoundaryProfile(exterior=_trace(2.0, 3.0), interior=_trace(0.0, 1.0))
    for t in (1.2424533248940002, 1.2424533248940002 * (1.0 + 1e-13)):
        report = check_component_contact(LevelSetCensus(t=t, components=[], uncertain_band=0.0), prof)
        assert report["reason"] == "threshold 1.24245332 falls in an unconstrained interval"


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


def component_euler(i_arr, j_arr, n_theta):
    """Reference: Euler characteristic of one 4-connected cell set on the
    theta cylinder from sorted integer ids.  Vertex (i, j) is i * stride + j,
    and an edge is twice the id of its lower-left vertex, plus one for an
    edge along theta.  A sorted id list holds one distinct id more than it
    has rises between neighbours; the two extra ones cancel in chi."""
    stride = int(j_arr.max()) + 2
    i1 = (i_arr + 1) % n_theta
    v00, v10 = i_arr * stride + j_arr, i1 * stride + j_arr
    verts = np.sort(np.concatenate([v00, v10, v00 + 1, v10 + 1]))
    edges = np.sort(np.concatenate([2 * v00 + 1, 2 * v00 + 3, 2 * v00, 2 * v10]))
    return int(np.count_nonzero(np.diff(verts)) - np.count_nonzero(np.diff(edges))) + len(i_arr)


def _mask(rows):
    return np.array([[c == "#" for c in row] for row in rows])


# masks whose runs along s meet in the ways a run labelling must tell
# apart, each with the Euler characteristics of its components
RUN_MASKS = [
    (np.zeros((5, 4), dtype=bool), []),
    (np.ones((5, 4), dtype=bool), [0]),                  # full rows round the cylinder
    (_mask(["....", "####", "####", "...."]), [1]),      # full rows, rim to rim
    (_mask(["##.#."]), [0, 0]),                          # one row: each run is a ring
    (_mask(["##..", ".##."]), [0]),                      # two rows meet on both sides
    (_mask(["#...", ".#.."]), [1, 1]),                   # ... or only at corners
    (_mask(["##..", "..##"]), [1, 1]),
    (_mask(["..#.", "....", ".#.."]), [1, 1]),           # ... across the seam
    (_mask(["###.", "#.#.", "##..", "...."]), [0]),      # a hole closed at a corner
    (_mask(["..##", "....", ".###", ".#.#"]), [0]),      # ... across the seam, mirrored in s
]


def _check_euler_kernel(mask):
    """label_wrapped's chi of every label of the mask, against both references."""
    labels, n, chi = label_wrapped(mask)
    assert len(chi) == n + 1
    out = []
    for k in range(1, n + 1):
        i_arr, j_arr = np.nonzero(labels == k)
        ref = euler_by_sets(i_arr, j_arr, mask.shape[0])
        assert chi[k] == component_euler(i_arr, j_arr, mask.shape[0]) == ref
        out.append((ref, bool(np.any(i_arr == 0) and np.any(i_arr == mask.shape[0] - 1))))
    return out


def test_component_euler_matches_reference():
    n_theta, n_s = 24, 10
    ring = np.zeros((n_theta, n_s), dtype=bool)
    ring[:, 3:6] = True                          # wraps the seam: chi = 0
    frame = np.zeros((n_theta, n_s), dtype=bool)
    frame[20:, 2:7] = True
    frame[:4, 2:7] = True                        # straddles the seam
    frame[22:, 4] = frame[:2, 4] = False         # with a hole: chi = 0
    blob = np.zeros((n_theta, n_s), dtype=bool)
    blob[5:9, 0:3] = True                        # disk-like, on the j = 0 column: chi = 1
    core = np.zeros((n_theta, n_s), dtype=bool)
    core[:, 0] = True                            # the j = 0 column of a disk: chi = 0
    diagonal = np.zeros((n_theta, n_s), dtype=bool)
    diagonal[[3, 4, 23, 0], [5, 6, 1, 2]] = True  # two diagonal pairs, one across the seam
    cases = [(ring, [0]), (frame, [0]), (blob, [1]), (core, [0]), (diagonal, [1, 1, 1, 1])]
    for mask, chis in cases + RUN_MASKS:
        assert [chi for chi, _ in _check_euler_kernel(mask)] == chis

    rng = np.random.default_rng(20261017)
    seen = set()
    for _ in range(60):
        mask = rng.random((n_theta, n_s)) < rng.uniform(0.3, 0.8)
        seen.update(_check_euler_kernel(mask))
        seen.update(_check_euler_kernel(~mask))
    # the random sets include seam-crossing components and ones with holes
    assert (1, True) in seen and any(chi < 1 for chi, _ in seen)


def test_census_components_carry_euler_characteristics():
    fld = solved_field("z2_minus_zm2", 128, 64)
    census = level_census(fld, 0.5)
    uc = fld.lattice().centres
    for sign, mask in (("super", uc > 0.5), ("sub", uc < 0.5)):
        labels, _, _ = label_wrapped(mask)
        for comp in (c for c in census.components if c.sign == sign):
            i_arr, j_arr = np.nonzero(labels == comp.label)
            assert comp.euler_char == euler_by_sets(i_arr, j_arr, uc.shape[0])
            assert comp.simply_connected == (comp.euler_char == 1)


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
    masks += [mask for mask, _ in RUN_MASKS]
    masks += [rng.random(rng.integers(2, 20, size=2)) < rng.uniform(0.2, 0.8) for _ in range(400)]
    wrapped = 0
    for mask in masks:
        labels, n, _ = label_wrapped(mask)
        ref_labels, ref_n = label_wrapped_by_union_find(mask)
        assert n == ref_n and type(n) is int
        assert labels.dtype == np.int32 and np.array_equal(labels, ref_labels)
        wrapped += n < ndi.label(mask)[1]
    # the seeded masks merge components across the seam
    assert wrapped > 50


def test_package_imports_no_private_name_of_another_module():
    """A name that one module of the package uses from another is public:
    no `from .module import _name` in any of them."""
    package = Path(levelset_lab.__file__).resolve().parent
    private = [(path.name, node.module, alias.name)
               for path in sorted(package.glob("*.py"))
               for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.ImportFrom) and node.level > 0
               for alias in node.names if alias.name.startswith("_")]
    assert private == []


def test_package_root_exports_the_readme_entry_points():
    """The root's public names, modules aside, are the names of README's
    `from levelset_lab import (...)` block: every other name is imported
    from the module that defines it."""
    readme = (Path(levelset_lab.__file__).resolve().parents[2] / "README.md").read_text(encoding="utf-8")
    block = readme.split("from levelset_lab import (")[1].split(")")[0]
    exported = {name for name, value in vars(levelset_lab).items()
                if not name.startswith("_") and not isinstance(value, ModuleType)}
    assert exported == set(re.findall(r"\w+", block))


def test_package_imports_each_name_from_its_defining_module():
    """Outside `__init__.py`, every `from .module import name` in the package
    names a def, class or assignment at the top level of that module: no
    module forwards a name it imported itself."""
    package = Path(levelset_lab.__file__).resolve().parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    defined = {}
    for module, tree in trees.items():
        targets = [t for node in tree.body if isinstance(node, ast.Assign) for t in node.targets]
        targets += [node.target for node in tree.body if isinstance(node, ast.AnnAssign)]
        defined[module] = ({node.name for node in tree.body if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
                           | {name.id for t in targets for name in ast.walk(t) if isinstance(name, ast.Name)})
    forwarded = [(module, node.module, alias.name)
                 for module, tree in trees.items() if module != "__init__"
                 for node in ast.walk(tree) if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
                 for alias in node.names if alias.name not in defined[node.module]]
    assert forwarded == []


def test_every_public_function_has_a_reader():
    """A public function or method of the package is read by name
    somewhere in the package, in `perfbench/`, or in README's "Library
    entry points": one that only tests read is a test helper, and lives
    under `tests/`."""
    package = Path(levelset_lab.__file__).resolve().parent
    root = package.parent.parent
    defined, read = [], set()
    for path in sorted(package.glob("*.py")) + sorted((root / "perfbench").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        read |= {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        if path.parent == package:
            for node in tree.body:
                body = node.body if isinstance(node, ast.ClassDef) else [node]
                defined += [(path.name, fn.name) for fn in body
                            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")]
    entry_points = (root / "README.md").read_text(encoding="utf-8").split("## Library entry points")[1]
    read |= set(re.findall(r"\w+", entry_points.split("\n## ")[0]))
    assert [(module, name) for module, name in defined if name not in read] == []


def test_package_does_not_import_scipy_ndimage():
    """The package labels cell sets itself: a fresh interpreter that imports
    it has loaded no scipy.ndimage module."""
    src = str(Path(levelset_lab.__file__).resolve().parent.parent)
    code = "import sys, levelset_lab; print([m for m in sys.modules if m.startswith('scipy.ndimage')])"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"
