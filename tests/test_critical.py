"""Critical-point detection, winding multiplicities, clustering."""

import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.ndimage as ndi

import levelset_lab.critical as critical_mod
from conftest import BUILTIN_NAMES, builtin_spec, field_from_function, make_scenario, solved_field
from levelset_lab.critical import (
    _MAX_NEWTON_STEPS,
    _newton_refine,
    _scan_cells,
    cluster_critical_sets,
    find_critical_points,
    find_critical_points_report,
    multiplicity,
    separating_network_through,
    winding_multiplicity,
)
from levelset_lab.domain import FINE_FACTOR, ToleranceSet
from levelset_lab.errors import BandTooWideError, LevelSetLabError, NotAnAnnulusError, OutsideDomainError
from levelset_lab.geometry import TWO_PI, winding_number
from levelset_lab.solver import ResolvedTolerances, SolutionField, resolve_tolerances, solve_scenario
from levelset_lab.verify import run_scenario


def test_z_plus_inv_two_saddles():
    fld = solved_field("z_plus_inv", 256, 128)
    pts = find_critical_points(fld)
    assert len(pts) == 2
    neg, pos = pts  # sorted by value
    assert (neg.x, neg.y) == pytest.approx((-1.0, 0.0), abs=1e-3)
    assert (pos.x, pos.y) == pytest.approx((1.0, 0.0), abs=1e-3)
    assert neg.value == pytest.approx(-2.0, abs=1e-3)
    assert pos.value == pytest.approx(2.0, abs=1e-3)
    assert [p.multiplicity for p in pts] == [1, 1]
    assert not any(p.is_zero for p in pts)


def test_z2m_four_critical_zero_points():
    fld = solved_field("z2_minus_zm2", 256, 128)
    pts = find_critical_points(fld)
    assert len(pts) == 4
    c = math.sqrt(0.5)
    expected = {(c, c), (-c, c), (-c, -c), (c, -c)}
    for p in pts:
        best = min(expected, key=lambda q: math.hypot(p.x - q[0], p.y - q[1]))
        assert math.hypot(p.x - best[0], p.y - best[1]) <= 1e-3
        assert p.multiplicity == 1
        assert p.is_zero
    zeros = [p for p in find_critical_points(fld) if p.is_zero]
    assert sum(p.multiplicity for p in zeros) == 4


def test_gradient_free_log_field_empty():
    fld = solved_field("counterexample1", 128, 64)
    assert find_critical_points(fld) == []


def test_linear_field_on_disk_empty():
    spec = make_scenario("1", None, "x", None, grid=(64, 32), name="linear")
    fld = solve_scenario(spec)
    assert find_critical_points(fld) == []


def test_no_point_inside_margin_band():
    fld = solved_field("z2_minus_zm2", 128, 64)
    rt = resolve_tolerances(fld)
    for p in find_critical_points(fld):
        _, s, _ = fld.domain.reference(p.x, p.y)
        assert rt.interior_margin <= float(s) <= 1.0 - rt.interior_margin


# -------------------------------------------------------------- multiplicity

def test_multiplicity_simple_disk_zero():
    fld = solved_field("disk_z2", 128, 64)
    assert multiplicity(fld, (0.0, 0.0)) == 1


def test_multiplicity_two_disk_zero():
    fld = solved_field("disk_z3", 128, 64)
    assert multiplicity(fld, (0.0, 0.0)) == 2
    (p,) = find_critical_points(fld)
    assert p.multiplicity == 2
    assert critical_mod.winding_multiplicity(fld, (p.x, p.y), resolve_tolerances(fld)) == (2, p.degree_radius)


def test_multiplicity_nondegenerate_saddle():
    fld = solved_field("z_plus_inv", 128, 64)
    assert multiplicity(fld, (1.0, 0.0)) == 1


def test_degree_additivity_along_enclosing_curve():
    """A closed curve around two of the four z2m zeros turns the gradient
    by -2 full turns (no circle encloses two points without entering the
    hole, so a polar-rectangle curve is used)."""
    fld = solved_field("z2_minus_zm2", 256, 128)
    # positively oriented polar rectangle around the right-hand pair e^{+-i pi/4}
    n = 400
    r_lo, r_hi, th_hw = 0.6, 1.8, 1.2
    legs = [
        np.stack([np.linspace(r_lo, r_hi, n) * math.cos(-th_hw),
                  np.linspace(r_lo, r_hi, n) * math.sin(-th_hw)], axis=1),
        np.stack([np.full(n, r_hi) * np.cos(np.linspace(-th_hw, th_hw, n)),
                  np.full(n, r_hi) * np.sin(np.linspace(-th_hw, th_hw, n))], axis=1),
        np.stack([np.linspace(r_hi, r_lo, n) * math.cos(th_hw),
                  np.linspace(r_hi, r_lo, n) * math.sin(th_hw)], axis=1),
        np.stack([np.full(n, r_lo) * np.cos(np.linspace(th_hw, -th_hw, n)),
                  np.full(n, r_lo) * np.sin(np.linspace(th_hw, -th_hw, n))], axis=1),
    ]
    curve = np.vstack(legs)
    gx, gy = fld.gradient(curve[:, 0], curve[:, 1])
    assert winding_number(np.arctan2(gy, gx)) == -2


def test_order_of_equal_valued_points_ignores_round_off():
    """The four zero points of z2_minus_zm2 have values of +-2e-14.  Adding
    1e-12 x to the solved values changes those values and their signs, but
    not the order of the points: one value class, then the polar angle."""
    fld = solved_field("z2_minus_zm2", 256, 128)
    _, _, x, _ = fld.node_positions()
    tilted = SolutionField(fld.spec, fld.values + 1e-12 * x)
    orders = []
    for field in (fld, tilted):
        pts = find_critical_points(field)
        assert len(pts) == 4 and all(p.is_zero for p in pts)
        orders.append([(round(p.x, 3), round(p.y, 3)) for p in pts])
    assert orders[0] == orders[1] == [(0.707, 0.707), (-0.707, 0.707), (-0.707, -0.707), (0.707, -0.707)]


def test_refinement_stability_of_detection():
    coarse = find_critical_points(solved_field("z2_minus_zm2", 128, 64))
    fine = find_critical_points(solved_field("z2_minus_zm2", 256, 128))
    assert len(coarse) == len(fine) == 4
    cell = 2.0 * solved_field("z2_minus_zm2", 128, 64).median_cell_diag()
    for b in fine:
        d = min(math.hypot(b.x - a.x, b.y - a.y) for a in coarse)
        assert d <= cell
    assert sorted(p.multiplicity for p in coarse) == sorted(p.multiplicity for p in fine)


# ------------------------------------------------------- rejection branches

def annulus_field(fn, **tolerances):
    """fn sampled on 1 < r < 3 at 64x32, with the given tolerances."""
    spec = make_scenario("3", "1", "0", "0", grid=(64, 32), tolerances=ToleranceSet(**tolerances))
    return field_from_function(spec, fn)


def saddle_at(theta, s, order=2):
    """Re (z - p)^order, with p at the reference point (theta, s) of 1 < r < 3."""
    p = complex(*annulus_field(lambda x, y: x).domain.map_point(theta, s))
    return lambda x, y: np.real((x + 1j * y - p) ** order)


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("cell", [(10, 16), (3, 9), (40, 25)])
def test_degenerate_point_at_a_cell_centre_found_once(cell, order):
    """A degenerate zero at the centre of a cell is seeded from its own and
    its neighbours' corner signs; it is found once, within a cell diagonal."""
    i, j = cell
    fld = annulus_field(lambda x, y: x)
    theta, s = (i + 0.5) * fld.dtheta, (j + 0.5) * fld.ds
    px, py = fld.domain.map_point(theta, s)
    fld = annulus_field(saddle_at(theta, s, order))
    (p,) = find_critical_points(fld)
    assert p.multiplicity == order - 1
    assert math.hypot(p.x - px, p.y - py) <= fld.cell_diagonals()[i, j]


def test_stalled_seeds_are_counted():
    pts, suspects, warnings = find_critical_points_report(annulus_field(saddle_at(0.3, 0.5), grad_zero_tol=1e-30))
    assert pts == [] and suspects == []
    (w,) = warnings
    n = w.split()[0]
    assert w == f"{n} of {n} Newton seed(s) stalled and were discarded" and int(n) > 0


def cell_centre_saddle(cell, order):
    """(field, (x, y)): Re (z - p)^order with p at the centre of `cell` of
    1 < r < 3 at 64x32."""
    i, j = cell
    fld = annulus_field(lambda x, y: x)
    theta, s = (i + 0.5) * fld.dtheta, (j + 0.5) * fld.ds
    return annulus_field(saddle_at(theta, s, order)), fld.domain.map_point(theta, s)


@pytest.mark.parametrize("cell", [(10, 16), (3, 9), (40, 25)])
def test_seeds_stalled_beside_a_found_point_are_not_reported(cell):
    """Newton converges only linearly at a degenerate zero, so some seeds
    around it stall a few hundredths away; the point is found, and those
    seeds lost nothing, so the detection is clean."""
    fld, _ = cell_centre_saddle(cell, 4)
    pts, suspects, warnings = find_critical_points_report(fld)
    assert [p.multiplicity for p in pts] == [3] and suspects == [] and warnings == []


def test_stalled_seed_far_from_every_point_is_reported(monkeypatch):
    """Of two extra stalled seeds, the one beside the found saddle is not
    reported and the one across the annulus is."""
    fld, (px, py) = cell_centre_saddle((10, 16), 2)
    refine, seeds = critical_mod._newton_refine, []

    def with_stalled_seeds(*args):
        x, y, g, ok = refine(*args)
        assert ok.all()
        seeds.append(ok.size + 2)
        return (np.append(x, [px + 0.05, -px]), np.append(y, [py, -py]),
                np.append(g, [1.0, 1.0]), np.append(ok, [False, False]))

    monkeypatch.setattr(critical_mod, "_newton_refine", with_stalled_seeds)
    pts, suspects, warnings = find_critical_points_report(fld)
    assert [p.multiplicity for p in pts] == [1] and suspects == []
    assert warnings == [f"1 of {seeds[0]} Newton seed(s) stalled and were discarded"]


def test_degree_circle_doubles_while_the_gradient_is_flat():
    """|grad Re (z - p)^2| is 2 |z - p|: with 5 grad_zero_tol = 6 cell
    diagonals, the first circle (radius 2 diagonals) is too flat and the
    doubled one is not."""
    fld, p = cell_centre_saddle((10, 16), 2)
    diag = float(fld.cell_diagonals()[10, 16])
    rt = replace(resolve_tolerances(fld), grad_zero_tol=1.2 * diag)
    m, radius = winding_multiplicity(fld, p, rt)
    assert m == 1 and radius == 4.0 * diag
    assert winding_multiplicity(fld, p, resolve_tolerances(fld)) == (1, 2.0 * diag)


def test_point_in_the_margin_band_is_a_suspect():
    """A saddle at s = 0.066, inside the margin of 0.07, is reached from a
    seed whose cell centre lies in the band; it is reported as a suspect,
    and `run_scenario` warns about it."""
    pts, suspects, warnings = find_critical_points_report(
        annulus_field(saddle_at(0.3, 0.066), interior_margin=0.07))
    assert pts == [] and warnings == []
    (sus,) = suspects
    assert sus["s"] == pytest.approx(0.066, abs=1e-4)
    psi = "(x - 1.132)^2 - y^2"  # harmonic, with its saddle at s = 0.066
    report = run_scenario(make_scenario("3", "1", psi, psi, grid=(64, 32),
                                        tolerances=ToleranceSet(interior_margin=0.07)))
    assert report.points == [] and len(report.suspects) == 1
    assert "1 near-boundary critical-point suspect(s) excluded" in report.warnings


def test_point_half_a_cell_from_a_rim_has_no_degree_circle():
    pts, suspects, warnings = find_critical_points_report(
        annulus_field(saddle_at(0.3, 0.012), interior_margin=0.01))
    assert pts == [] and suspects == []
    (w,) = warnings
    assert w.startswith("critical-point candidate at (") and "rejected: no admissible degree circle" in w


def test_local_maximum_is_discarded():
    px, py = annulus_field(lambda x, y: x).domain.map_point(0.3, 0.5)
    pts, suspects, warnings = find_critical_points_report(
        annulus_field(lambda x, y: -((x - px) ** 2 + (y - py) ** 2)))
    assert pts == [] and suspects == []
    (w,) = warnings
    assert w.startswith("candidate at (") and w.endswith(") discarded: gradient winding +1 is not a saddle-type zero")


# ----------------------------------------------------------------- clusters

def test_cluster_single_point():
    fld = solved_field("z_plus_inv", 128, 64)
    pts = [p for p in find_critical_points(fld) if p.value > 0]
    assert len(cluster_critical_sets(fld, pts, pts[0].value)[1]) == 1


def test_cluster_connected_zero_network():
    fld = solved_field("z2_minus_zm2", 128, 64)
    pts = find_critical_points(fld)
    assert len(cluster_critical_sets(fld, pts, 0.0)[1]) == 1


def test_cluster_two_disjoint_loops():
    """Synthetic sampled field: two localized saddle patterns with disjoint
    zero loops in a positive background give q = 2 (on an annulus, since a
    disk is refused)."""
    spec = make_scenario("6", "1", "0", "0", grid=(128, 64), name="synthetic",
                         tolerances=ToleranceSet(value_zero_tol=0.05))
    cx = 3.0

    def f(x, y):
        w1 = np.exp(-((x - cx) ** 2 + y ** 2))
        w2 = np.exp(-((x + cx) ** 2 + y ** 2))
        q1 = ((x - cx) ** 2 - y ** 2) / 4.0
        q2 = ((x + cx) ** 2 - y ** 2) / 4.0
        return w1 * q1 + w2 * q2 + (1.0 - w1 - w2) * 0.5

    fld = field_from_function(spec, f)
    _, holding = cluster_critical_sets(fld, [(cx, 0.0), (-cx, 0.0)], 0.0)
    assert len(holding) == 2


def test_separating_network_detection():
    # the zero set of z2m contains the circle r = 1 through all four points
    fld = solved_field("z2_minus_zm2", 128, 64)
    pts = find_critical_points(fld)
    assert separating_network_through(fld, *cluster_critical_sets(fld, pts, 0.0))
    # the level network at a saddle of z + 1/z does not wind around the hole
    fld2 = solved_field("z_plus_inv", 128, 64)
    pos = [p for p in find_critical_points(fld2) if p.value > 0]
    assert not separating_network_through(fld2, *cluster_critical_sets(fld2, pos, pos[0].value))


def test_no_separating_network_on_a_disk_or_without_clusters():
    disk = field_from_function(make_scenario("2", None, "0", None, name="disk"),
                               lambda x, y: (x - 0.5) ** 2 - (y - 0.3) ** 2)
    (p,) = find_critical_points(disk)
    with pytest.raises(NotAnAnnulusError):
        cluster_critical_sets(disk, [p], p.value)
    labels = np.ones(disk.lattice().centres.shape, dtype=np.int32)
    assert not separating_network_through(disk, labels, {1})
    fld = solved_field("z2_minus_zm2", 128, 64)
    labels, holding = cluster_critical_sets(fld, find_critical_points(fld), 0.0)
    assert holding and not separating_network_through(fld, labels, set())


@pytest.mark.parametrize("name", ["disk_z2", "disk_z3"])
def test_cluster_refuses_a_disk(name):
    """Clustering a built-in disk at its own critical value is refused by
    name; the band guard, which raised BandTooWideError there, is not
    reached."""
    fld = solved_field(name, 128, 64)
    pts = find_critical_points(fld)
    with pytest.raises(NotAnAnnulusError, match="not on a disk"):
        cluster_critical_sets(fld, pts, pts[0].value)


def test_detector_is_deterministic():
    a = find_critical_points_report(solved_field("z2_minus_zm2", 128, 64))
    b = find_critical_points_report(solved_field("z2_minus_zm2", 128, 64))
    assert [(p.x, p.y, p.value, p.multiplicity) for p in a[0]] == \
           [(p.x, p.y, p.value, p.multiplicity) for p in b[0]]


def test_cluster_rejects_off_level_points():
    fld = solved_field("z_plus_inv", 128, 64)
    pts = find_critical_points(fld)
    with pytest.raises(ValueError):
        cluster_critical_sets(fld, pts, 1.0)  # points sit at +-2, not at 1


def test_band_too_wide_guard():
    spec = make_scenario("2", "1", "1", "0", grid=(64, 32), name="ramp",
                         tolerances=ToleranceSet(value_zero_tol=1.0, equal_extrema_tol=1.0))
    fld = field_from_function(spec, lambda x, y: np.hypot(x, y))
    fld.interp_error_estimate = lambda: 0.225  # the level band is twice this: 0.45
    probe = [(1.5, 0.0)]
    with pytest.raises(BandTooWideError):
        cluster_critical_sets(fld, probe, 1.5)


def _guard_raises(monkeypatch, band_only, sign_change):
    """Does cluster_critical_sets raise BandTooWideError on the given marks
    (band-only and sign-change cells) in place of the field's?"""
    spec = make_scenario("2", "1", "1", "0", grid=(16, 8), name="ramp",
                         tolerances=ToleranceSet(value_zero_tol=1.0, equal_extrema_tol=1.0))
    fld = field_from_function(spec, lambda x, y: np.hypot(x, y))
    monkeypatch.setattr(critical_mod, "_marked_level_cells", lambda field, t: (band_only | sign_change, band_only))
    try:
        cluster_critical_sets(fld, [(1.5, 0.0)], 1.5)
    except BandTooWideError:
        return True
    return False


@pytest.mark.parametrize("steps", [10, 11])
def test_band_guard_edge(monkeypatch, steps):
    """The guard raises when a band-only cell lies more than 10 taxicab
    steps from every sign-change cell, measured on the theta cylinder:
    across the seam two rows are 2 steps apart, not 11."""
    sign_change = np.zeros((13, 16), dtype=bool)
    sign_change[0, 0] = True
    band_only = np.zeros_like(sign_change)
    band_only[0, 1:steps + 1] = True             # the farthest is `steps` cells along s
    assert _guard_raises(monkeypatch, band_only, sign_change) == (steps > 10)
    band_only = np.zeros_like(sign_change)
    band_only[11:, 0] = True                     # 2 and 1 rows across the seam
    assert not _guard_raises(monkeypatch, band_only, sign_change)
    for cell, far in (((6, 5), True), ((6, 4), False)):  # 6 rows either way round, then 5 or 4 along s
        band_only = np.zeros_like(sign_change)
        band_only[cell] = True
        assert _guard_raises(monkeypatch, band_only, sign_change) == far, cell


def cylinder_taxicab_distance(sign_change):
    """Reference: the taxicab distance to the nearest sign-change cell on
    the theta cylinder, from the distance transform of the mask tiled three
    times along theta, read on the middle copy."""
    nt = sign_change.shape[0]
    return ndi.distance_transform_cdt(~np.tile(sign_change, (3, 1)), metric="taxicab")[nt:2 * nt]


def test_band_guard_matches_chamfer_distance(monkeypatch):
    """The guard raises exactly when the taxicab distance on the theta
    cylinder exceeds 10 on some band-only cell; an empty band or an empty
    sign-change set never raises."""
    rng = np.random.default_rng(20261020)
    raised = unmeasured = 0
    for k in range(300):
        shape = tuple(rng.integers(1, 40, size=2))
        sign_change = rng.random(shape) < rng.uniform(0.0, 0.02)
        band_only = (rng.random(shape) < rng.uniform(0.0, 0.6)) & ~sign_change
        far = np.any(band_only) and np.any(sign_change) and \
            cylinder_taxicab_distance(sign_change)[band_only].max() > 10
        assert _guard_raises(monkeypatch, band_only, sign_change) == far, k
        raised += far
        unmeasured += np.any(band_only) and not np.any(sign_change)
    assert 50 < raised < 250 and unmeasured > 10


# ------------------------------------------------ batched detection references

def builtin_fields():
    """(name, field) for every built-in at its configured grid and at the
    refinement that `run_scenario` adds."""
    for name in BUILTIN_NAMES:
        nt, ns = builtin_spec(name).grid
        for factor in (1, FINE_FACTOR):
            yield f"{name}@{factor * nt}x{factor * ns}", solved_field(name, factor * nt, factor * ns)


class NewtonStallError(LevelSetLabError):
    """Raised by the scalar reference refinement when a seed stalls."""


def reference_newton_refine(field: SolutionField, x0: float, y0: float, tol: ResolvedTolerances, max_step: float):
    """The scalar refinement that the batched `_newton_refine` replaced,
    one seed per call; it raises NewtonStallError or OutsideDomainError
    where the batched version reports the seed as not converged."""
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


def reference_scan_cells(field: SolutionField, tol):
    """The cell scan on a full (theta, s) mesh of cell centres."""
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

    lo = tol.interior_margin if not field.domain.is_disk else 0.0
    hi = 1.0 - tol.interior_margin
    band_ok = (Sc >= lo) & (Sc <= hi)
    flagged = sign_flip & band_ok
    return list(zip(*field.domain.map_point(Tc[flagged], Sc[flagged])))


def _test_seeds(field, tol, rng):
    """Scan seeds plus random ones: anywhere in and around the domain
    (s in [-0.2, 1.2], so some start outside), and in the two margin bands."""
    x0, y0 = _scan_cells(field, tol)
    m = tol.interior_margin
    s = np.concatenate([rng.uniform(-0.2, 1.2, 16), rng.uniform(0.0, m, 4), rng.uniform(1.0 - m, 1.0, 4)])
    xr, yr = field.domain.map_point(rng.uniform(0.0, TWO_PI, s.size), s)
    return np.concatenate([x0, xr]), np.concatenate([y0, yr])


def _evaluated_points(field, run):
    """Run `run()` and return the physical points at which it evaluated the
    gradient and the Hessian through `gradient_ref` and `hessian_ref`
    (both implementations evaluate there, the scalar one through
    `gradient(x, y)` and `hessian(x, y)`)."""
    logs = {"gradient_ref": [], "hessian_ref": []}
    for name, log in logs.items():
        def spy(theta, s, method=getattr(field, name), log=log):
            log.append(np.ravel(field.domain.map_point(theta, s)).reshape(2, -1))
            return method(theta, s)
        vars(field)[name] = spy
    try:
        run()
    finally:
        for name in logs:
            del vars(field)[name]
    return [np.concatenate(log, axis=1) if log else np.zeros((2, 0)) for log in logs.values()]


def _assert_newton_matches_reference(key, fld, x0, y0, max_step):
    """Every seed gets the status the scalar refinement gives it, and every
    converged seed the same point within 1e-12 of the diameter.  Both
    evaluate the gradient and the Hessian at as many points, with the same
    coordinate sums, so both take the same steps and line-search trials.
    Returns the set of statuses seen."""
    rt = resolve_tolerances(fld)
    want = []

    def scalar():
        for k in range(x0.size):
            try:
                want.append(reference_newton_refine(fld, x0[k], y0[k], rt, max_step))
            except (NewtonStallError, OutsideDomainError):
                want.append(None)

    got = []
    batched = _evaluated_points(fld, lambda: got.extend(_newton_refine(fld, x0, y0, rt, max_step)))
    scalar_points = _evaluated_points(fld, scalar)
    x, y, g, ok = got
    bound = 1e-12 * fld.diameter()
    for k in range(x0.size):
        assert bool(ok[k]) == (want[k] is not None), (key, k, x0[k], y0[k])
        if ok[k]:
            assert math.hypot(x[k] - want[k][0], y[k] - want[k][1]) <= bound, (key, k)
            assert g[k] <= rt.grad_zero_tol
    for b, s in zip(batched, scalar_points):
        assert b.shape == s.shape, key
        assert np.abs(b.sum(axis=1) - s.sum(axis=1)).max() <= bound * s.shape[1], key
    return set(ok.tolist())


def test_batched_newton_matches_scalar_reference():
    rng = np.random.default_rng(20)
    statuses = set()
    for key, fld in builtin_fields():
        x0, y0 = _test_seeds(fld, resolve_tolerances(fld), rng)
        statuses |= _assert_newton_matches_reference(key, fld, x0, y0, 4.0 * fld.median_cell_diag())
    assert statuses == {True, False}


def test_batched_newton_step_limit_matches_reference():
    """Steps clipped to 1% of the diameter spread the step counts up to the
    limit of 50: some seeds stall there and one converges on the last step."""
    fld = solved_field("z_plus_inv", 64, 32)
    rng = np.random.default_rng(1)
    x0, y0 = fld.domain.map_point(rng.uniform(0.0, TWO_PI, 200), rng.uniform(0.1, 0.9, 200))
    statuses = _assert_newton_matches_reference("z_plus_inv", fld, x0, y0, 0.01 * fld.diameter())
    assert statuses == {True, False}


def test_scan_cells_matches_reference():
    for key, fld in builtin_fields():
        rt = resolve_tolerances(fld)
        assert list(zip(*_scan_cells(fld, rt))) == reference_scan_cells(fld, rt), key


