"""Discretization, sparse solve and the bicubic interpolant."""

import numpy as np
import pytest

from conftest import make_scenario, solved_field
from levelset_lab import expressions as ex
from levelset_lab.errors import NoConvergenceError, OutsideDomainError
from levelset_lab.geometry import TWO_PI
from levelset_lab.solver import (
    SolutionField,
    assemble,
    convergence_study,
    solve,
    solve_scenario,
)


def log_annulus_spec(grid=(64, 32)):
    return make_scenario("e", "1", "1", "0", grid=grid, name="log_annulus",
                         reference="log(r)")


# ----------------------------------------------------------------- assembly

def test_interior_rows_at_most_nine_nonzeros():
    system = assemble(log_annulus_spec())
    counts = np.diff(system.matrix.indptr)
    assert np.all(counts[system.interior_rows()] <= 9)


def test_row_sums_zero_without_zeroth_order():
    system = assemble(log_annulus_spec())
    sums = np.asarray(system.matrix @ np.ones(system.size))
    scale = np.max(np.abs(system.matrix.data))
    assert np.max(np.abs(sums[system.interior_rows()])) <= 1e-12 * scale


def test_row_sums_match_zeroth_order_coefficient():
    data_ops = {"a11": "1", "a12": "0", "a22": "1", "b1": "0", "b2": "0"}
    from levelset_lab.domain import EllipticOperator
    op = EllipticOperator(
        *(ex.parse_expression(data_ops[k]) for k in ("a11", "a12", "a22", "b1", "b2")),
        c=ex.parse_expression("-1"),
    )
    spec = make_scenario("2", "1", "1", "0", operator=op, name="with_c")
    system = assemble(spec)
    sums = np.asarray(system.matrix @ np.ones(system.size))
    interior = system.interior_rows()
    scale = np.max(np.abs(system.matrix.data))
    assert np.max(np.abs(sums[interior] - (-1.0))) <= 1e-12 * scale


def test_truncation_error_second_order():
    """A |log r| sample hits the assembled operator with O(h^2) residual."""
    errs = []
    for grid in ((64, 32), (128, 64)):
        system = assemble(log_annulus_spec(grid))
        exact = np.log(np.hypot(system.node_x, system.node_y))
        if system.is_disk:
            raise AssertionError
        vec = exact.T.reshape(-1)
        resid = np.asarray(system.matrix @ vec - system.rhs)
        errs.append(np.max(np.abs(resid[system.interior_rows()])))
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.5  # ~4x per doubling


def test_dirichlet_rows_are_identity():
    system = assemble(log_annulus_spec())
    A = system.matrix
    for row in np.where(system.dirichlet_mask)[0]:
        lo, hi = A.indptr[row], A.indptr[row + 1]
        cols = A.indices[lo:hi]
        vals = A.data[lo:hi]
        nz = vals != 0
        assert list(cols[nz]) == [row]
        assert vals[nz][0] == 1.0


# -------------------------------------------------------------------- solve

def test_log_annulus_solution_error():
    fld = solve_scenario(log_annulus_spec((256, 128)))
    _, _, X, Y = fld.node_positions()
    err = np.max(np.abs(fld.values - np.log(np.hypot(X, Y))))
    assert err <= 1e-3


def test_z_plus_inv_solution_error():
    spec = make_scenario("2", "0.5", "(r + 1/r)*cos(theta)", "(r + 1/r)*cos(theta)",
                         grid=(256, 128), name="zpi")
    fld = solve_scenario(spec)
    _, _, X, Y = fld.node_positions()
    r = np.hypot(X, Y)
    exact = (r + 1.0 / r) * np.cos(np.arctan2(Y, X))
    assert np.max(np.abs(fld.values - exact)) <= 5e-3


def test_dirichlet_exactness():
    spec = make_scenario("6 + sin(4*theta)", "2 + sin(3*theta)", "log(r)", "log(r)")
    fld = solve_scenario(spec)
    _, _, X, Y = fld.node_positions()
    exact = np.log(np.hypot(X, Y))
    for j in (0, fld.n_s):
        scale = np.maximum(np.abs(exact[:, j]), 1.0)
        assert np.max(np.abs(fld.values[:, j] - exact[:, j]) / scale) <= 1e-13


def test_constant_data_reproduced_exactly():
    spec = make_scenario("2", "1", "3", "3", name="const")
    fld = solve_scenario(spec)
    assert np.max(np.abs(fld.values - 3.0)) <= 1e-11


def test_maximum_principle_on_m_matrix():
    system = assemble(log_annulus_spec())
    assert system.is_m_matrix()
    fld = solve(system)
    assert np.min(fld.values) >= 0.0 - 1e-12
    assert np.max(fld.values) <= 1.0 + 1e-12


def test_zero_pivot_reports_no_convergence():
    system = assemble(log_annulus_spec())
    row = system.interior_rows()[7]
    A = system.matrix.tolil()
    A[row, :] = 0.0
    system.matrix = A.tocsr()
    with pytest.raises(NoConvergenceError):
        solve(system)


# ------------------------------------------------------------- interpolation

def test_interpolant_reproduces_nodes():
    fld = solved_field("log_annulus", 64, 32)
    T, S, _, _ = fld.node_positions()
    vals = fld.evaluate_ref(T.ravel(), S.ravel()).reshape(T.shape)
    assert np.max(np.abs(vals - fld.values)) <= 1e-12


def test_interpolant_c1_across_edges():
    fld = solved_field("log_annulus", 64, 32)
    # approach an interior cell edge from both sides: value and gradient agree
    theta_edge = 5 * fld.dtheta
    s_edge = 11 * fld.ds
    for th, s in ((theta_edge, 0.37), (1.23, s_edge)):
        eps = 1e-10
        if th == theta_edge:
            a = fld.evaluate_ref(th - eps, s, derivatives=True)
            b = fld.evaluate_ref(th + eps, s, derivatives=True)
        else:
            a = fld.evaluate_ref(th, s - eps, derivatives=True)
            b = fld.evaluate_ref(th, s + eps, derivatives=True)
        for key in ("u", "ut", "us"):
            assert a[key] == pytest.approx(b[key], rel=1e-5, abs=1e-6)


def test_point_evaluation_log_annulus():
    fld = solved_field("log_annulus", 256, 128)
    assert float(fld.evaluate(1.5, 0.0)) == pytest.approx(np.log(1.5), abs=1e-4)
    gx, gy = fld.gradient(1.5, 0.0)
    assert float(gx) == pytest.approx(1.0 / 1.5, abs=1e-3)
    assert float(gy) == pytest.approx(0.0, abs=1e-3)


def test_outside_domain_rejected():
    fld = solved_field("log_annulus", 64, 32)
    with pytest.raises(OutsideDomainError):
        fld.evaluate(3.0, 0.0)
    with pytest.raises(OutsideDomainError):
        fld.evaluate(0.5, 0.0)


def test_cubic_in_s_reproduced_exactly():
    # derivative estimates are exact on cubics, so the Hermite interpolant
    # reproduces a cubic-in-s field up to rounding
    spec = log_annulus_spec((64, 32))
    fld = SolutionField.from_function(spec, lambda x, y: (np.hypot(x, y) - 1.0) ** 3)
    th = np.linspace(0.0, TWO_PI, 23)
    ss = np.linspace(0.0, 1.0, 29)
    T, S = np.meshgrid(th, ss, indexing="ij")
    X, Y = spec.domain.map_point(T, S)
    exact = (np.hypot(X, Y) - 1.0) ** 3
    got = fld.evaluate_ref(T.ravel() % TWO_PI, S.ravel()).reshape(T.shape)
    assert np.max(np.abs(got - exact)) <= 1e-10


# --------------------------------------------------------------- convergence

def test_convergence_study_log_annulus():
    rows = convergence_study(log_annulus_spec(), [(64, 32), (128, 64), (256, 128)])
    orders = [r["order"] for r in rows[1:]]
    assert all(1.7 <= p <= 2.3 for p in orders)
    assert rows[-1]["error"] <= 5e-3


def test_convergence_study_constant_is_exact():
    spec = make_scenario("2", "1", "3", "3", name="const", reference="3")
    rows = convergence_study(spec, [(32, 16), (64, 32)])
    assert all(r["error"] <= 1e-11 for r in rows)


def test_convergence_study_self_reference():
    spec = make_scenario("e", "1", "1", "0", name="log_noref")
    rows = convergence_study(spec, [(32, 16), (64, 32)])
    assert rows[1]["error"] < rows[0]["error"]


# -------------------------------------------------------------------- disk

def test_disk_center_row_reduces_to_polar_average():
    spec = make_scenario("1", None, "cos(2*theta)", None, grid=(64, 32), name="disk")
    system = assemble(spec)
    A = system.matrix.tocsr()
    lo, hi = A.indptr[0], A.indptr[1]
    cols, vals = A.indices[lo:hi], A.data[lo:hi]
    h = 1.0 / system.n_s
    centre = vals[cols == 0][0]
    ring = vals[cols != 0]
    assert centre == pytest.approx(-4.0 / h ** 2, rel=1e-8)
    assert np.allclose(ring, 4.0 / (system.n_theta * h ** 2), rtol=1e-8)


def test_disk_solution_and_gradient():
    spec = make_scenario("1", None, "cos(2*theta)", None, grid=(128, 64), name="disk_z2",
                         reference="r^2*cos(2*theta)")
    fld = solve_scenario(spec)
    _, _, X, Y = fld.node_positions()
    exact = (X ** 2 - Y ** 2)
    assert np.max(np.abs(fld.values - exact)) <= 2e-3
    gx, gy = fld.gradient(0.01, 0.0)
    assert float(gx) == pytest.approx(0.02, abs=2e-4)


def test_field_csv_dump(tmp_path):
    fld = solved_field("log_annulus", 64, 32)
    out = tmp_path / "field.csv"
    fld.to_csv(out)
    lines = out.read_text().splitlines()
    assert lines[0] == "theta,s,x,y,u"
    assert len(lines) == 1 + fld.n_theta * (fld.n_s + 1)


# ------------------------------------------------------------ cached derivatives

def test_derived_quantities_cached_and_read_only():
    from levelset_lab.solver import REFINE, resolve_tolerances
    fld = solve_scenario(log_annulus_spec())
    assert fld.node_positions() is fld.node_positions()
    assert fld.cell_diagonals() is fld.cell_diagonals()
    assert resolve_tolerances(fld) is resolve_tolerances(fld)
    lat = fld.lattice()
    assert lat is fld.lattice()
    nrt, nrs = REFINE * fld.n_theta, REFINE * fld.n_s
    assert lat.nodes.shape == (nrt + 1, nrs + 1) and lat.centres.shape == (nrt, nrs)
    for arr in (*fld.node_positions(), fld.cell_diagonals(), lat.nodes, lat.centres):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_lattice_matches_pointwise_evaluation():
    fld = solved_field("z_plus_inv", 64, 32)
    lat = fld.lattice()
    i, j = 37, 11
    assert lat.nodes[i, j] == fld.evaluate_ref(lat.theta[i], lat.s[j])
    centre = fld.evaluate_ref(0.5 * (lat.theta[i] + lat.theta[i + 1]), 0.5 * (lat.s[j] + lat.s[j + 1]))
    assert lat.centres[i, j] == pytest.approx(float(centre), rel=1e-12)
