"""Discretization, sparse solve and the bicubic interpolant."""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs

from conftest import BUILTIN_NAMES, builtin_spec, field_from_function, make_scenario, solved_field, value_at
from levelset_lab import expressions as ex
from levelset_lab import solver as solver_mod
from levelset_lab.domain import validate_scenario
from levelset_lab.errors import AssemblyError, NoConvergenceError, OutsideDomainError, ValidationFailure
from levelset_lab.geometry import TWO_PI
from levelset_lab.solver import (
    assemble,
    convergence_study,
    solve,
    solve_scenario,
)


def log_annulus_spec(grid=(64, 32)):
    return make_scenario("e", "1", "1", "0", grid=grid, name="log_annulus",
                         reference="log(r)")


# ----------------------------------------------------------------- assembly

def row_sums(system):
    """Row sums of the interior rows over the interior and Dirichlet columns."""
    return (np.asarray(system.matrix.sum(axis=1)).ravel()
            + np.asarray(system.couplings.sum(axis=1)).ravel())


def system_scale(system):
    return max(np.max(np.abs(system.matrix.data)), np.max(np.abs(system.couplings.data)))


# Off-diagonal entries of -A up to this fraction of its largest entry count
# as non-positive in is_m_matrix.
M_MATRIX_TOL = 1e-12


def is_m_matrix(system) -> bool:
    """True when every row of -A has a positive diagonal and non-positive
    off-diagonal entries, Dirichlet couplings included (discrete maximum
    principle)."""
    A, coupled = system.matrix.tocoo(), system.couplings.data
    off = np.concatenate((A.data[A.row != A.col], coupled))
    scale = float(np.max(np.abs(np.concatenate((A.data, coupled))))) or 1.0
    return bool(np.all(A.diagonal() < 0) and not np.any(-off > M_MATRIX_TOL * scale))


def test_interior_rows_at_most_nine_nonzeros():
    system = assemble(log_annulus_spec())
    counts = np.diff(system.matrix.tocsr().indptr) + np.diff(system.couplings.indptr)
    assert counts.size == system.size == 64 * 31
    assert np.all(counts <= 9)


def test_row_sums_zero_without_zeroth_order():
    system = assemble(log_annulus_spec())
    assert np.max(np.abs(row_sums(system))) <= 1e-12 * system_scale(system)


def test_row_sums_match_zeroth_order_coefficient():
    data_ops = {"a11": "1", "a12": "0", "a22": "1", "b1": "0", "b2": "0"}
    from levelset_lab.domain import EllipticOperator
    op = EllipticOperator(
        *(ex.parse_expression(data_ops[k]) for k in ("a11", "a12", "a22", "b1", "b2")),
        c=ex.parse_expression("-1"),
    )
    spec = make_scenario("2", "1", "1", "0", operator=op, name="with_c")
    system = assemble(spec)
    assert np.max(np.abs(row_sums(system) - (-1.0))) <= 1e-12 * system_scale(system)


def test_a_coefficient_infinite_at_a_node_is_named_before_use():
    """a11 = 1 + 1/(r - 1.5)^2 is infinite on band_annulus's s = 0.5 ring,
    a ring of the nodes that validation samples and assembly reads:
    validation names a11 with the first node on that ring, and assembling
    the spec unvalidated names the stencil term before any weight is formed
    from it, with no warning."""
    spec = builtin_spec("band_annulus")
    spec = replace(spec, operator=replace(spec.operator, a11=ex.parse_expression("1 + 1/(r - 1.5)^2")))
    with pytest.raises(ValidationFailure) as err:
        validate_scenario(spec)
    assert err.value.violations == [{"check": "operator_finite", "message": "operator coefficient(s) a11 non-finite",
                                     "witness": {"x": 1.5, "y": 0.0}}]
    with pytest.raises(AssemblyError, match="^non-finite stencil term a_tt at a grid node$"):
        assemble(spec)


def test_truncation_error_second_order():
    """A |log r| sample hits the assembled operator with O(h^2) residual."""
    errs = []
    for grid in ((64, 32), (128, 64)):
        spec = log_annulus_spec(grid)
        system = assemble(spec)
        X, Y = spec.domain.map_point(*np.meshgrid(np.arange(grid[0]) * (TWO_PI / grid[0]),
                                                  np.arange(grid[1] + 1) / grid[1], indexing="ij"))
        exact = np.empty(system.size + system.boundary.size)
        exact[system.node_index] = np.log(np.hypot(X, Y))
        resid = system.matrix @ exact[:system.size] - system.rhs
        errs.append(np.max(np.abs(resid)))
    ratio = errs[0] / errs[1]
    assert 2.5 <= ratio <= 6.5  # ~4x per doubling


def test_boundary_data_and_rhs():
    """The Dirichlet data sit at the boundary positions of node_index, and
    rhs is minus the couplings applied to them."""
    spec = log_annulus_spec()
    system = assemble(spec)
    nt, ns = system.spec.grid
    rings = system.node_index[:, [0, ns]] - system.size
    assert np.array_equal(rings, np.arange(2 * nt).reshape(2, nt).T)
    assert np.all(system.node_index[:, 1:ns] < system.size)
    assert np.allclose(system.boundary[nt:], 1.0) and np.allclose(system.boundary[:nt], 0.0, atol=1e-15)
    assert np.array_equal(system.rhs, -(system.couplings @ system.boundary))


def test_m_matrix_rejects_positive_off_diagonal():
    """A positive off-diagonal entry of -A fails the check, whether it sits
    among the interior columns or in a Dirichlet coupling."""
    system = assemble(log_annulus_spec())
    assert is_m_matrix(system)
    matrix, couplings = system.matrix, system.couplings
    A = matrix.tocoo()
    k = np.argmax(np.where(A.row != A.col, A.data, -np.inf))
    flipped = A.data.copy()
    flipped[k] = -flipped[k]
    system.matrix = sp.csc_matrix((flipped, (A.row, A.col)), shape=A.shape)
    assert not is_m_matrix(system)
    system.matrix = matrix
    system.couplings = couplings.copy()
    k = np.argmax(couplings.data)
    system.couplings.data[k] = -couplings.data[k]
    assert not is_m_matrix(system)
    system.couplings = couplings
    assert is_m_matrix(system)


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
    assert is_m_matrix(system)
    fld = solve(system)
    assert np.min(fld.values) >= 0.0 - 1e-12
    assert np.max(fld.values) <= 1.0 + 1e-12


def test_zero_pivot_reports_no_convergence():
    system = assemble(log_annulus_spec())
    indptr = system.matrix.indptr
    system.matrix.data[indptr[7]:indptr[8]] = 0.0  # row 7
    with pytest.raises(NoConvergenceError):
        solve(system)


def test_corrupted_solution_fails_residual_gate(monkeypatch):
    """The gate checks the solution it is handed: on a grid that does not
    halve, which is factored directly, an LU solve that returns a perturbed
    vector raises instead of passing."""
    import levelset_lab.solver as solver_mod
    real_splu = solver_mod.spla.splu

    class Corrupted:
        def __init__(self, lu):
            self.lu = lu

        def solve(self, b):
            x = self.lu.solve(b)
            x[len(x) // 3] += 1e-6 * np.max(np.abs(x))
            return x

    system = assemble(log_annulus_spec((65, 32)))
    assert solve(system).residual <= 1e-13
    monkeypatch.setattr(solver_mod.spla, "splu", lambda *a, **k: Corrupted(real_splu(*a, **k)))
    with pytest.raises(NoConvergenceError):
        solve(system)


# ------------------------------------------------------ assembly plan reference

def reference_assemble(spec):
    """The assembly the per-grid plan replaced: node (i, j) numbered
    i (n_s - 1) + j - 1 along the s-lines, the disk centre last, every
    stencil entry as a COO triple, and CSR to sum the duplicate
    disk-centre entries within their row in stencil order.  The weights
    come from the same `_stencil`."""
    nt, ns = spec.grid
    is_disk = spec.domain.is_disk
    weights, boundary = solver_mod._stencil(spec)
    n = nt * (ns - 1) + is_disk
    rings = [ns] if is_disk else [0, ns]
    index = np.empty((nt, ns + 1), dtype=np.intp)
    index[:, 0] = n - 1
    index[:, 1:ns] = np.arange(nt * (ns - 1)).reshape(nt, ns - 1)
    index[:, rings] = n + np.arange(len(rings) * nt).reshape(len(rings), nt).T
    I, J = np.meshgrid(np.arange(nt), np.arange(1, ns), indexing="ij")
    rows, cols, data = [], [], []
    for (di, dj), w in zip(solver_mod._STENCIL, weights):
        rows.append(index[:, 1:ns].ravel())
        cols.append(index[(I + di) % nt, J + dj].ravel())
        data.append(w.ravel())
    if is_disk:
        rows.append(np.full(nt + 1, n - 1))
        cols.append(np.concatenate(([n - 1], index[:, 1])))
        data.append(weights[-1])
    rows, cols, data = (np.concatenate(a) for a in (rows, cols, data))
    inner = cols < n
    matrix = sp.csr_matrix((data[inner], (rows[inner], cols[inner])), shape=(n, n))
    couplings = sp.csr_matrix((data[~inner], (rows[~inner], cols[~inner] - n)), shape=(n, boundary.size))
    return solver_mod.DiscreteSystem(
        spec=spec, matrix=matrix, couplings=couplings, boundary=boundary,
        rhs=-(couplings @ boundary), node_index=index,
    )


def assert_bit_identical(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def assert_matches_reference(spec):
    """Filling the cached plan gives the reference system bit for bit (the
    sign of every zero included) and the same solved values."""
    got, want = assemble(spec), reference_assemble(spec)
    for a, b in ((got.matrix, want.matrix), (got.couplings, want.couplings)):
        assert a.format == b.format and a.shape == b.shape
        assert_bit_identical(a.data, b.data)
        assert np.array_equal(a.indices, b.indices) and np.array_equal(a.indptr, b.indptr)
    assert_bit_identical(got.rhs, want.rhs)
    assert_bit_identical(got.boundary, want.boundary)
    assert np.array_equal(got.node_index, want.node_index)
    assert_bit_identical(solve(got).values, solve(want).values)


@pytest.mark.parametrize("scale", [1, 2])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_plan_assembly_matches_reference(name, scale):
    spec = builtin_spec(name)
    assert_matches_reference(spec.with_grid(scale * spec.n_theta, scale * spec.n_s))


@pytest.mark.parametrize("n_theta, n_s, disk", [(65, 32, False), (64, 33, True), (37, 16, True), (6, 2, False)])
def test_plan_assembly_matches_reference_on_grids_that_do_not_halve(n_theta, n_s, disk):
    """The same on odd grids and on a grid with one interior ring, which
    are factored directly."""
    grid = (n_theta, n_s)
    assert_matches_reference(make_scenario("1", None, "x", None, grid=grid) if disk else log_annulus_spec(grid))


def test_plan_cached_per_grid_and_read_only():
    """A second assembly on the same grid reuses the plan and shares its
    index arrays; annulus and disk, and different grids, get their own
    plans; every plan array is read-only."""
    annulus, disk = log_annulus_spec((48, 24)), make_scenario("1", None, "x", None, grid=(48, 24))
    first, second = assemble(annulus), assemble(annulus)
    plan = solver_mod._grid_plan(48, 24, False)
    assert first.node_index is second.node_index is plan.node_index
    for system in (first, second):
        assert np.shares_memory(system.matrix.indices, plan.indices)
        assert np.shares_memory(system.matrix.indptr, plan.indptr)
        assert np.shares_memory(system.couplings.indices, plan.c_indices)
    assert not np.shares_memory(first.matrix.data, second.matrix.data)
    others = [solver_mod._grid_plan(48, 24, True), solver_mod._grid_plan(48, 25, False)]
    assert assemble(disk).node_index is others[0].node_index
    assert all(other is not plan for other in others) and others[0] is not others[1]
    for arr in (*plan, *others[0]):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_plan_cache_shared_by_threads():
    """Six threads on two cores, switching as often as the interpreter
    allows, assemble seven grids (one more than the cache holds: the half,
    configured and refined grids of an annulus and of a disk, and one more
    annulus) from an empty cache, and build their seven two-grid plans
    (three more than that cache holds); every system and plan matches the
    one built alone."""
    import sys
    import threading

    hierarchy = ((32, 16), (64, 32), (128, 64))
    specs = [log_annulus_spec(g) for g in hierarchy + ((36, 16),)]
    specs += [make_scenario("1", None, "x", None, grid=g) for g in hierarchy]
    want = [assemble(spec) for spec in specs]

    def two_grid_plan(spec):
        return solver_mod._two_grid_plan(*spec.grid, spec.domain.is_disk)

    want_two_grid = [plan_arrays(two_grid_plan(spec)) for spec in specs]
    failures = []

    def work(offset):
        try:
            for k in range(3 * len(specs)):
                i = (k + offset) % len(specs)
                got = assemble(specs[i])
                if got.matrix.data.tobytes() != want[i].matrix.data.tobytes() or \
                        not np.array_equal(got.matrix.indices, want[i].matrix.indices) or \
                        not np.array_equal(got.node_index, want[i].node_index):
                    failures.append(i)
                if not all(np.array_equal(a, b) for a, b in
                           zip(plan_arrays(two_grid_plan(specs[i])), want_two_grid[i])):
                    failures.append(specs[i].grid)
        except Exception as err:  # reported by the assertion below
            failures.append(err)

    interval = sys.getswitchinterval()
    solver_mod._grid_plan.cache_clear()
    solver_mod._two_grid_plan.cache_clear()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,)) for k in range(6)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert failures == []


# L + U nonzeros of the factors in the geometric nested-dissection order that SuperLU's own order replaced
NESTED_DISSECTION_FILL = {("counterexample1", 64): 119402, ("counterexample1", 128): 604522,
                          ("disk_z3", 64): 111102, ("disk_z3", 128): 566026}


@pytest.mark.parametrize("name, n_theta", NESTED_DISSECTION_FILL)
def test_half_grid_factor_keeps_nested_dissection_fill(name, n_theta):
    """The half grids of the default grid and of its refinement, the only
    grids a verify factors, keep no more nonzeros in their factors than
    nested dissection did (COLAMD keeps 1.3-1.6 times as many)."""
    lu = solver_mod._factor(assemble(builtin_spec(name).with_grid(n_theta, n_theta // 2)).matrix)
    assert lu.L.nnz + lu.U.nnz <= NESTED_DISSECTION_FILL[name, n_theta]


@pytest.mark.parametrize("name", ["z_plus_inv", "disk_z3"])
def test_fine_grid_passes_residual_gate(name):
    """At 512x256 the reduced-system residual stays at round-off, far
    below the 1e-10 gate that the full-system measure crossed."""
    spec = builtin_spec(name).with_grid(512, 256)
    assert spec.tolerances.linear_residual_tol == 1e-10
    fld = solve(assemble(spec))
    assert fld.residual <= 1e-13


# ----------------------------------------------------------- two-grid solve

ANNULUS_NAMES = tuple(name for name in BUILTIN_NAMES if not name.startswith("disk"))


def plan_arrays(plan):
    """Every array of a two-grid plan, the sparse operators' included."""
    out = []
    for part in plan:
        out += [part.data, part.indices, part.indptr] if sp.issparse(part) else [part]
    return out


def solved_pair(name, scale):
    """The solved system of a built-in at `scale` times its grid, and the
    assembled system at twice that."""
    spec = builtin_spec(name)
    coarse = assemble(spec.with_grid(scale * spec.n_theta, scale * spec.n_s))
    solve(coarse)
    return coarse, assemble(spec.with_grid(2 * scale * spec.n_theta, 2 * scale * spec.n_s))


def direct_values(system):
    """The grid values of the direct LU of `system`."""
    x = solver_mod._factor(system.matrix).solve(system.rhs)
    return np.concatenate((x, system.boundary))[system.node_index]


def factored_sizes(monkeypatch):
    """The size of each matrix `solve` factors from now on, in call order."""
    sizes, real_splu = [], solver_mod.spla.splu

    def splu(matrix, **kwargs):
        sizes.append(matrix.shape[0])
        return real_splu(matrix, **kwargs)

    monkeypatch.setattr(solver_mod.spla, "splu", splu)
    return sizes


def half_size(spec):
    return assemble(spec.with_grid(spec.n_theta // 2, spec.n_s // 2)).size


def keeps_its_factor(system):
    """Whether the inverse `system` kept is its exact factor: applied to
    the right side it gives the solution bit for bit, which a cycle does not."""
    return np.array_equal(system.inverse(system.rhs), system.solution)


@pytest.mark.parametrize("name, scale", [(name, 1) for name in ANNULUS_NAMES]
                         + [("counterexample2", 2), ("z_plus_inv", 2)]
                         + [(name, scale) for name in ("disk_z2", "disk_z3") for scale in (1, 2)])
def test_two_grid_solve_matches_direct(name, scale, monkeypatch):
    """An annulus or a disk is solved over its half grid's factor, and its
    refined grid over a three-level V-cycle whose coarsest level is that
    factor; on both grids GMRES iterates fewer times than the cap to a
    residual of at most 1e-13, and the values match the direct LU of the
    same system.  Only the half grid is factored; the configured system
    keeps its solution and its cycle, not a factor, until the refined
    solve takes them and clears them."""
    spec = builtin_spec(name)
    spec = spec.with_grid(scale * spec.n_theta, scale * spec.n_s)
    coarse, fine = assemble(spec), assemble(spec.with_grid(2 * spec.n_theta, 2 * spec.n_s))
    factored = factored_sizes(monkeypatch)
    got = [solve(coarse)]
    assert factored == [half_size(spec)]
    assert coarse.solution is not None and not keeps_its_factor(coarse)
    got.append(solve(fine, coarse=coarse))
    assert coarse.inverse is None and coarse.solution is None
    assert factored == [half_size(spec)] and not keeps_its_factor(fine)
    monkeypatch.undo()
    for field, system in zip(got, (coarse, fine)):
        assert field.solved_by == "two-grid" and 0 < field.iterations < solver_mod._TWO_GRID_CAP
        assert field.residual <= 1e-13
        want = direct_values(system)
        assert np.max(np.abs(field.values - want)) <= 1e-11 * np.max(np.abs(want))


def test_disk_keeps_its_factor_for_the_two_grid_path(monkeypatch):
    """A disk keeps its half grid's factor, as an annulus does, under the
    configured grid's cycle, and its refined grid takes the two-grid path
    over that cycle, which clears it and factors nothing."""
    factored = factored_sizes(monkeypatch)
    coarse, fine = solved_pair("disk_z2", 1)
    assert factored == [half_size(builtin_spec("disk_z2"))] and not keeps_its_factor(coarse)
    got = solve(fine, coarse=coarse)
    # `keeps_its_factor` above shows that the kept inverse is the cycle; the count cannot:
    # over the configured grid's exact factor the refined grid takes as many iterations
    assert got.solved_by == "two-grid" and 0 < got.iterations < solver_mod._TWO_GRID_CAP
    assert coarse.inverse is None and len(factored) == 1


@pytest.mark.parametrize("grid", [(65, 32), (64, 33), (8, 2), (4, 8)])
def test_grid_that_does_not_halve_is_factored_directly(grid, monkeypatch):
    """A grid with an odd dimension, or one whose half would have no
    interior ring or fewer than 3 nodes a ring, is factored directly and
    keeps its factor; its refined grid is then solved over that factor by
    the two-grid cycle, which clears it and factors nothing.  A grid
    refined once more is solved over the refined grid's kept cycle, a
    three-level cycle whose coarsest level is that factor, and its values
    match the direct LU."""
    spec = log_annulus_spec(grid)
    coarse, fine = assemble(spec), assemble(spec.with_grid(2 * grid[0], 2 * grid[1]))
    factored = factored_sizes(monkeypatch)
    got = solve(coarse)
    assert got.solved_by == "direct" and got.iterations == 0
    assert factored == [coarse.size] and keeps_its_factor(coarse)
    refined = solve(fine, coarse=coarse)
    assert refined.solved_by == "two-grid" and 0 < refined.iterations < solver_mod._TWO_GRID_CAP
    assert coarse.inverse is None and len(factored) == 1 and refined.residual <= 1e-13
    finer = assemble(spec.with_grid(4 * grid[0], 4 * grid[1]))
    chained = solve(finer, coarse=fine)
    assert chained.solved_by == "two-grid" and 0 < chained.iterations < solver_mod._TWO_GRID_CAP
    assert chained.residual <= 1e-13 and fine.solution is None and len(factored) == 1
    monkeypatch.undo()
    want = direct_values(finer)
    assert np.max(np.abs(chained.values - want)) <= 1e-11 * np.max(np.abs(want))


# a coarse correction of the wrong matrix, and one that returns NaN
WRONG = {"identity": np.copy, "nan": lambda r: np.full_like(r, np.nan)}


@pytest.mark.parametrize("wrong, name", [
    pytest.param(wrong, name, id=wrong if name == "z_plus_inv" else f"{wrong}-{name}")
    for name in ("z_plus_inv", "disk_z2") for wrong in ("identity", "nan")])
def test_wrong_coarse_factor_falls_back_to_lu(wrong, name, monkeypatch):
    """With a coarse correction of the wrong matrix the refined grid's
    iteration reaches the cap, with one that returns NaN it gives up at
    once; either way the solve factors the fine system, keeps that factor
    and says so."""
    coarse, fine = solved_pair(name, 1)
    monkeypatch.setattr(coarse, "inverse", WRONG[wrong])
    got = solve(fine, coarse=coarse)
    assert got.solved_by == "direct after two-grid"
    assert got.iterations == (solver_mod._TWO_GRID_CAP if wrong == "identity" else 0)
    assert coarse.inverse is None and keeps_its_factor(fine)
    assert got.residual <= 1e-13
    assert np.array_equal(got.values, direct_values(fine))


@pytest.mark.parametrize("wrong, name", [
    pytest.param(wrong, name, id=wrong if name == "z_plus_inv" else f"{wrong}-{name}")
    for name in ("z_plus_inv", "disk_z2") for wrong in ("identity", "nan")])
def test_wrong_half_factor_falls_back_to_lu_on_the_configured_grid(wrong, name, monkeypatch):
    """The same on the configured grid: with its half grid factored wrong,
    its iteration reaches the cap or gives up at once, and the configured
    system is factored directly and keeps that factor in place of its cycle."""
    real_splu, spec = spla.splu, builtin_spec(name)
    size = half_size(spec)

    def splu(matrix, **kwargs):
        return SimpleNamespace(solve=WRONG[wrong]) if matrix.shape[0] == size else real_splu(matrix, **kwargs)

    monkeypatch.setattr(solver_mod.spla, "splu", splu)
    system = assemble(spec)
    got = solve(system)
    assert got.solved_by == "direct after two-grid"
    assert got.iterations == (solver_mod._TWO_GRID_CAP if wrong == "identity" else 0)
    assert keeps_its_factor(system)
    assert got.residual <= 1e-13
    monkeypatch.undo()
    assert np.array_equal(got.values, direct_values(system))


@pytest.mark.parametrize("name", ["z_plus_inv", "disk_z2"])
def test_perturbed_two_grid_result_fails_residual_gate(name, monkeypatch):
    """The gate reads the vector the iteration returns, not its estimate:
    a converged iterate perturbed afterwards raises."""
    real_gmres = solver_mod._gmres

    def perturbed(*args):
        x, iterations = real_gmres(*args)
        x[len(x) // 3] += 1e-6 * np.max(np.abs(x))
        return x, iterations

    coarse, fine = solved_pair(name, 1)
    assert solve(fine, coarse=coarse).residual <= 1e-13
    solve(coarse)  # the refined solve cleared the configured system's solution and cycle
    monkeypatch.setattr(solver_mod, "_gmres", perturbed)
    with pytest.raises(NoConvergenceError):
        solve(fine, coarse=coarse)


def test_two_grid_operators():
    """Coarse node (I, J) is fine node (2I, 2J): injection rows of P copy the
    coarse value, every row of P with its rim part sums to 1 (and P's alone
    away from the rims), P interpolates linearly in theta and in s, and
    R = P^T / 4 is full weighting."""
    nt, ns = 48, 24
    plan = solver_mod._two_grid_plan(nt, ns, False)
    fine, coarse = solver_mod._grid_plan(nt, ns, False), solver_mod._grid_plan(nt // 2, ns // 2, False)
    nc = coarse.indptr.size - 1
    P = plan.prolong.toarray()
    for i in range(0, nt, 2):
        for j in range(2, ns, 2):
            row = np.zeros(nc)
            row[coarse.node_index[i // 2, j // 2]] = 1.0
            assert np.array_equal(P[fine.node_index[i, j]], row)
    sums = P.sum(axis=1) + plan.rim.toarray().sum(axis=1)
    assert np.array_equal(sums, np.ones(fine.indptr.size - 1))
    away = fine.node_index[:, 2:ns - 1].ravel()
    assert np.array_equal(P.sum(axis=1)[away], np.ones(away.size))
    # u = g(I) * J on the coarse grid, with g arbitrary: linear in J, so P
    # gives g at even i and the mean of its neighbours at odd i, times j / 2
    g = np.arange(nt // 2) % 3
    coarse_u = np.empty(coarse.node_index.size)
    coarse_u[coarse.node_index] = np.outer(g, np.arange(ns // 2 + 1))
    fine_u = plan.prolong @ coarse_u[:nc] + plan.rim @ coarse_u[nc:]
    i = np.arange(nt)
    want = np.outer((g[i // 2] + g[(i + 1) // 2 % (nt // 2)]) / 2, np.arange(1, ns) / 2)
    assert np.array_equal(fine_u[fine.node_index[:, 1:ns]], want)
    # the restriction R = P^T / 4 is full weighting: 1/4 at the coarse node's
    # own fine node, 1/8 at its four edge neighbours, 1/16 at its corners
    R = plan.prolong.T.toarray() / 4
    for I in range(nt // 2):
        for J in range(1, ns // 2):
            want = np.zeros(R.shape[1])
            for di in (-1, 0, 1):
                for dj in (-1, 0, 1):
                    want[fine.node_index[(2 * I + di) % nt, 2 * J + dj]] = 0.25 / 2 ** (abs(di) + abs(dj))
            assert np.array_equal(R[coarse.node_index[I, J]], want)


def cycle_reads(system, monkeypatch):
    """The arguments of the s-line factors, even i first, and on a disk of
    the ring solvers, even j first, that `_v_cycle` builds for `system`."""
    reads = {"dgttrf": [], "_periodic_tridiagonal": []}
    for name in reads:
        def read(*args, name=name, original=getattr(solver_mod, name)):
            reads[name].append(args)
            return original(*args)
        monkeypatch.setattr(solver_mod, name, read)
    assert solver_mod._v_cycle(system, None) is not None
    # the ring solvers factor their cut rows with dgttrf too, after the s-lines
    return reads["dgttrf"][:2], list(reads["_periodic_tridiagonal"])


def line_order(even, odd, n_theta, n_s):
    """A band that dgttrf read for the even and for the odd s-lines, back in
    line order; an off-diagonal, one shorter, gets its last line end's 0."""
    out = np.zeros((n_theta, n_s - 1))
    out[0::2].flat[:even.size], out[1::2].flat[:odd.size] = even, odd
    return out.ravel()


def test_line_diagonals_are_the_s_line_blocks(monkeypatch):
    """The s-line entries the cycle factors, one colour of lines at a time,
    are the matrix's diagonals 0 and +-1, its tridiagonal part, whose
    s-lines are blocks of n_s - 1 unknowns, and read 0 exactly where a line
    meets a rim."""
    system = assemble(builtin_spec("counterexample1").with_grid(48, 24))
    colours, _ = cycle_reads(system, monkeypatch)
    assert [band.size for band in colours[0] + colours[1]] == [24 * 23 - 1, 24 * 23, 24 * 23 - 1] * 2
    down, diag, up = (line_order(even, odd, 48, 24) for even, odd in zip(*colours))
    lines = system.matrix.toarray()
    assert np.array_equal(np.diag(lines), diag)
    assert np.array_equal(np.diag(lines, 1), up[:-1]) and np.array_equal(np.diag(lines, -1), down[:-1])
    inside = np.arange(lines.shape[0]) % 23 != 22  # (m, m + 1) on one line of 23 unknowns
    assert np.all(up[inside] != 0) and np.all(up[~inside] == 0)
    assert np.all(down[inside] != 0) and np.all(down[~inside] == 0)


def test_two_grid_operators_on_a_disk():
    """On a disk the fine centre, the last unknown, injects the coarse
    centre; each first-ring row reads the coarse centre with weight 1/2,
    through the node index, and the coarse first ring with the rest; every
    row of P with its rim part sums to 1."""
    nt, ns = 48, 24
    plan = solver_mod._two_grid_plan(nt, ns, True)
    fine, coarse = solver_mod._grid_plan(nt, ns, True), solver_mod._grid_plan(nt // 2, ns // 2, True)
    n, nc = fine.indptr.size - 1, coarse.indptr.size - 1
    assert fine.node_index[0, 0] == n - 1 and coarse.node_index[0, 0] == nc - 1
    P = plan.prolong.toarray()
    centre = np.zeros(nc)
    centre[nc - 1] = 1.0
    assert np.array_equal(P[n - 1], centre)
    first = fine.node_index[:, 1]
    assert np.array_equal(P[first, nc - 1], np.full(nt, 0.5))
    assert np.array_equal(P[first].sum(axis=1), np.ones(nt))
    assert np.all(P[np.setdiff1d(np.arange(n), np.append(first, n - 1)), nc - 1] == 0)
    sums = P.sum(axis=1) + plan.rim.toarray().sum(axis=1)
    assert np.array_equal(sums, np.ones(n))


def test_ring_diagonals_and_centre_row_read_their_entries(monkeypatch):
    """On a disk the s-lines are blocks of n_s - 1 unknowns and the rings
    the columns of their (n_theta, n_s - 1) view; the ring entries the
    cycle reads for the even and the odd rings, diagonals +-(n_s - 1)
    taken cyclically, are each ring's periodic tridiagonal block of the
    matrix, the centre row's entries in CSR order are the first ring, then
    the centre, and that row's only entries, which the cycle's last step
    solves exactly, and the s-line entries leave out the first ring's
    coupling to the centre."""
    nt, ns = 48, 24
    system = assemble(builtin_spec("disk_z3").with_grid(nt, ns))
    colours, ring_colours = cycle_reads(system, monkeypatch)
    down, diag, up = (line_order(even, odd, nt, ns) for even, odd in zip(*colours))
    assert [band.shape for bands in ring_colours for band in bands] == [(12, nt)] * 3 + [(11, nt)] * 3
    ring_diag, nxt, prev = (np.concatenate((even, odd))[np.argsort(np.r_[0:ns - 1:2, 1:ns - 1:2])]
                            for even, odd in zip(*ring_colours))
    A = system.matrix.toarray()
    n = A.shape[0]
    lines = np.arange(n - 1).reshape(nt, ns - 1)
    assert np.array_equal(solver_mod._grid_plan(nt, ns, True).node_index[:, 1:ns], lines)
    rings = lines.T
    i = np.arange(nt)
    for k, ring in enumerate(rings):
        block = A[np.ix_(ring, ring)]
        assert np.array_equal(np.diag(block), ring_diag[k])
        assert np.array_equal(block[i, (i + 1) % nt], nxt[k]) and np.array_equal(block[i, (i - 1) % nt], prev[k])
        assert np.all(nxt[k] != 0) and np.all(prev[k] != 0)
    columns = np.append(rings[0], n - 1)
    assert np.array_equal(system.matrix.data[system.matrix.indptr[n - 1]:], A[n - 1, columns])
    assert np.count_nonzero(A[n - 1]) == np.count_nonzero(A[n - 1, columns]) == nt + 1
    r = np.random.default_rng(3).standard_normal(n)
    residual = r - system.matrix @ solver_mod._v_cycle(system, np.zeros_like)(r)
    assert abs(residual[-1]) <= 1e-12 * np.max(np.abs(residual))
    assert np.array_equal(np.diag(A)[:-1], diag)
    assert np.array_equal(np.diag(A, 1)[:-1], up[:-1]) and np.array_equal(np.diag(A, -1)[:-1], down[:-1])
    assert np.all(down[rings[0][1:] - 1] == 0) and np.all(A[rings[0], n - 1] != 0)


@pytest.mark.parametrize("name", ["counterexample1", "disk_z3"])
def test_zebra_half_sweep_solves_its_lines(name, monkeypatch):
    """One half-sweep, the bands of one colour solved on r from z = 0,
    leaves r - A z at round-off on the lines of that colour and not on the
    others: the even and the odd s-lines, and on a disk the even and the
    odd rings, so that no band is split off by one.  The cycle's own last
    half-sweep does the same on its lines, with no coarse correction: the
    odd s-lines of an annulus, and the odd rings of a disk, which the
    centre update after them does not touch."""
    nt, ns = 48, 24
    system = assemble(builtin_spec(name).with_grid(nt, ns))
    A, m = system.matrix, nt * (ns - 1)
    colours, ring_colours = cycle_reads(system, monkeypatch)

    def view(v, on_rings):
        grid = v[:m].reshape(nt, ns - 1)
        return grid.T if on_rings else grid

    def line_solver(bands):
        *factor, info = dgttrf(*bands)
        assert info == 0
        return lambda rows: dgttrs(*factor, rows.ravel())[0].reshape(rows.shape)

    half_sweeps = [(False, c, line_solver(bands)) for c, bands in enumerate(colours)]
    half_sweeps += [(True, c, solver_mod._periodic_tridiagonal(*bands)) for c, bands in enumerate(ring_colours)]
    assert len(half_sweeps) == (4 if system.spec.domain.is_disk else 2)
    r = np.random.default_rng(7).standard_normal(system.size)
    scale = np.max(np.abs(r))
    for on_rings, c, solve_rows in half_sweeps:
        z = np.zeros_like(r)
        view(z, on_rings)[c::2] = solve_rows(view(r, on_rings)[c::2])
        residual = view(r - A @ z, on_rings)
        assert np.max(np.abs(residual[c::2])) <= 1e-12 * scale
        assert np.max(np.abs(residual[1 - c::2])) > 0.1 * scale
    residual = view(r - A @ solver_mod._v_cycle(system, np.zeros_like)(r), system.spec.domain.is_disk)
    assert np.max(np.abs(residual[1::2])) <= 1e-12 * scale < np.max(np.abs(residual[0::2]))


@pytest.mark.parametrize("name", ["counterexample1", "disk_z3"])
def test_cycle_is_a_fixed_linear_map(name):
    """Right-preconditioned GMRES needs one fixed linear preconditioner: over
    the half grid's factor the cycle maps a r1 + r2 to a cycle(r1) + cycle(r2)."""
    spec = builtin_spec(name).with_grid(48, 24)
    system, half = assemble(spec), assemble(spec.with_grid(24, 12))
    cycle = solver_mod._v_cycle(system, solver_mod._factor(half.matrix).solve)
    r1, r2 = np.random.default_rng(11).standard_normal((2, system.size))
    want = -3.7 * cycle(r1) + cycle(r2)
    assert np.max(np.abs(cycle(-3.7 * r1 + r2) - want)) <= 1e-12 * np.max(np.abs(want))


def test_dropped_solved_system_is_freed_without_the_collector():
    """A system solved by the two-grid path keeps its cycle as its inverse,
    and the cycle holds no reference back, so that a dropped system is
    freed at once and not at the next run of the cycle collector."""
    import gc
    import weakref

    gc.disable()
    try:
        for name in ("counterexample1", "disk_z3"):
            system = assemble(builtin_spec(name).with_grid(32, 16))
            assert solve(system).solved_by == "two-grid"
            dropped = weakref.ref(system)
            del system
            assert dropped() is None
    finally:
        gc.enable()


def test_two_grid_plan_cached_and_read_only():
    plan = solver_mod._two_grid_plan(48, 24, False)
    assert solver_mod._two_grid_plan(48, 24, False) is plan
    assert plan._fields == ("prolong", "rim")
    lines = np.arange(48 * 23).reshape(48, 23)  # an s-line is a block of n_s - 1 unknowns
    assert np.array_equal(solver_mod._grid_plan(48, 24, False).node_index[:, 1:24], lines)
    disk = solver_mod._two_grid_plan(48, 24, True)
    assert disk is not plan and solver_mod._two_grid_plan(48, 24, True) is disk
    for arr in plan_arrays(plan) + plan_arrays(disk):
        with pytest.raises(ValueError):
            arr[0] = 0


def test_periodic_tridiagonal_solves_each_row():
    """Each row's solve matches the dense solve of its periodic tridiagonal
    matrix, for diagonally dominant rows of length 5 and 7, and a matrix
    with a zero column gives None."""
    rng = np.random.default_rng(5)
    for length in (5, 7):
        up, down = rng.uniform(-1.0, 1.0, (2, 3, length))
        diag = (np.abs(up) + np.abs(down) + rng.uniform(0.5, 1.5, (3, length))) * rng.choice((-1.0, 1.0), (3, length))
        r = rng.standard_normal((3, length))
        x = solver_mod._periodic_tridiagonal(diag, up, down)(r)
        i = np.arange(length)
        for k in range(3):
            M = np.diag(diag[k])
            M[i, (i + 1) % length] += up[k]
            M[i, (i - 1) % length] += down[k]
            want = np.linalg.solve(M, r[k])
            assert np.max(np.abs(x[k] - want)) <= 1e-12 * np.max(np.abs(want))
    diag[1, 2] = up[1, 1:3] = down[1, 2:4] = 0.0  # column 2 of row 1's matrix
    assert solver_mod._periodic_tridiagonal(diag, up, down) is None


def test_tridiagonal_rows_solves_each_row():
    """Each row's solve matches the dense solve of its tridiagonal matrix,
    which does not read up[:, -1] and down[:, 0], for diagonally dominant
    rows of length 5 and 7, and a matrix with a zero column gives None."""
    rng = np.random.default_rng(6)
    for length in (5, 7):
        up, down = rng.uniform(-1.0, 1.0, (2, 3, length))
        diag = (np.abs(up) + np.abs(down) + rng.uniform(0.5, 1.5, (3, length))) * rng.choice((-1.0, 1.0), (3, length))
        r = rng.standard_normal((3, length))
        x = solver_mod._tridiagonal_rows(diag, up, down)(r)
        for k in range(3):
            M = np.diag(diag[k]) + np.diag(up[k, :-1], 1) + np.diag(down[k, 1:], -1)
            want = np.linalg.solve(M, r[k])
            assert np.max(np.abs(x[k] - want)) <= 1e-12 * np.max(np.abs(want))
    diag[1, 2] = up[1, 1] = down[1, 3] = 0.0  # column 2 of row 1's matrix
    assert solver_mod._tridiagonal_rows(diag, up, down) is None


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
    assert float(value_at(fld, 1.5, 0.0)) == pytest.approx(np.log(1.5), abs=1e-4)
    gx, gy = fld.gradient(1.5, 0.0)
    assert float(gx) == pytest.approx(1.0 / 1.5, abs=1e-3)
    assert float(gy) == pytest.approx(0.0, abs=1e-3)


def test_outside_domain_rejected():
    fld = solved_field("log_annulus", 64, 32)
    with pytest.raises(OutsideDomainError):
        value_at(fld, 3.0, 0.0)
    with pytest.raises(OutsideDomainError):
        value_at(fld, 0.5, 0.0)


def test_cubic_in_s_reproduced_exactly():
    # derivative estimates are exact on cubics, so the Hermite interpolant
    # reproduces a cubic-in-s field up to rounding
    spec = log_annulus_spec((64, 32))
    fld = field_from_function(spec, lambda x, y: (np.hypot(x, y) - 1.0) ** 3)
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
    row = system.node_index[0, 0]
    assert row == system.size - 1  # eliminated last
    assert np.all(system.node_index[:, 0] == row)
    lo, hi = A.indptr[row], A.indptr[row + 1]
    cols, vals = A.indices[lo:hi], A.data[lo:hi]
    assert np.array_equal(np.sort(cols[cols != row]), np.sort(system.node_index[:, 1]))
    h = 1.0 / system.spec.n_s
    centre = vals[cols == row][0]
    ring = vals[cols != row]
    assert centre == pytest.approx(-4.0 / h ** 2, rel=1e-8)
    assert np.allclose(ring, 4.0 / (system.spec.n_theta * h ** 2), rtol=1e-8)


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


def csv_by_loop(field, path):
    """Reference: the node table written one row at a time, s-major."""
    T, S, X, Y = field.node_positions()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("theta,s,x,y,u\n")
        for j in range(field.n_s + 1):
            for i in range(field.n_theta):
                fh.write(f"{T[i, j]:.12g},{S[i, j]:.12g},{X[i, j]:.12g},{Y[i, j]:.12g},{field.values[i, j]:.12g}\n")


@pytest.mark.parametrize("name", ["log_annulus", "disk_z3"])
def test_field_csv_matches_row_loop(tmp_path, name):
    fld = solved_field(name, 64, 32)
    fld.to_csv(tmp_path / "field.csv")
    csv_by_loop(fld, tmp_path / "reference.csv")
    assert (tmp_path / "field.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# ------------------------------------------------------------ cached derivatives

def test_derived_quantities_cached_and_read_only():
    from levelset_lab.solver import REFINE, resolve_tolerances
    fld = solve_scenario(log_annulus_spec())
    assert fld.node_positions() is fld.node_positions()
    assert fld.cell_diagonals() is fld.cell_diagonals()
    assert resolve_tolerances(fld) is resolve_tolerances(fld)
    assert fld.median_cell_diag() is fld.median_cell_diag()
    assert fld.interp_error_estimate() is fld.interp_error_estimate()
    assert fld.node_gradients() is fld.node_gradients()
    assert fld._corner_data() is fld._corner_data()
    assert fld._node_derivatives() is fld._node_derivatives()
    lat = fld.lattice()
    assert lat is fld.lattice()
    nrt, nrs = REFINE * fld.n_theta, REFINE * fld.n_s
    assert lat.nodes.shape == (nrt + 1, nrs + 1) and lat.centres.shape == (nrt, nrs)
    for arr in (*fld.node_positions(), fld.cell_diagonals(), lat.nodes, lat.centres,
                *fld.node_gradients(), fld._corner_data(), *fld._node_derivatives()):
        with pytest.raises(ValueError):
            arr[0] = 0.0


def test_one_derivative_pass_per_field(monkeypatch):
    """The interpolant and the node gradients share one finite-difference
    pass over the nodal values; on a disk the interpolant projects a copy,
    so the shared derivatives stay those of the nodal values."""
    import levelset_lab.solver as solver_mod

    calls = []

    def counted(name):
        real = getattr(solver_mod, name)
        return lambda u, h: calls.append((name, u.shape)) or real(u, h)

    for name in ("_axis_derivative_periodic", "_axis_derivative_bounded"):
        monkeypatch.setattr(solver_mod, name, counted(name))
    fld = solve_scenario(builtin_spec("disk_z2").with_grid(64, 32))
    calls.clear()
    fld._corner_data()
    fld.node_gradients()
    nodal = [(name, fld.values.shape) for name in ("_axis_derivative_periodic", "_axis_derivative_bounded")]
    # the third call is the mixed derivative u_ts, from the projected u_s
    assert calls == nodal + [("_axis_derivative_periodic", fld.values.shape)]
    monkeypatch.undo()
    ut, us = fld._node_derivatives()
    assert np.array_equal(ut, solver_mod._axis_derivative_periodic(fld.values, fld.dtheta))
    assert np.array_equal(us, solver_mod._axis_derivative_bounded(fld.values, fld.ds))


@pytest.mark.parametrize("exterior", ["1", "1 + 0.2*cos(3*theta)"], ids=["circle", "wavy"])
def test_disk_centre_node_gradient_is_the_gradient(exterior):
    """On a circular and a wavy disk, u = 2x + 3y has the node gradient
    (2, 3) at the centre, as on the ring around it (up to the error of the
    theta differences there)."""
    fld = field_from_function(make_scenario(exterior, None, "0", None, grid=(64, 32)),
                              lambda x, y: 2.0 * x + 3.0 * y)
    g = np.stack(fld.node_gradients()) - np.array([2.0, 3.0])[:, None, None]
    assert np.max(np.abs(g[:, :, 0])) <= 1e-12
    assert np.max(np.abs(g[:, :, 1])) <= 1e-2


def test_lattice_matches_pointwise_evaluation():
    fld = solved_field("z_plus_inv", 64, 32)
    lat = fld.lattice()
    i, j = 37, 11
    assert lat.nodes[i, j] == fld.evaluate_ref(lat.theta[i], lat.s[j])
    centre = fld.evaluate_ref(0.5 * (lat.theta[i] + lat.theta[i + 1]), 0.5 * (lat.s[j] + lat.s[j + 1]))
    assert lat.centres[i, j] == pytest.approx(float(centre), rel=1e-12)


# ------------------------------------------------- Hermite kernel reference

def reference_evaluate_ref(fld, theta, s):
    """The per-point evaluator that `SolutionField.evaluate_ref` replaced:
    four hand-built power stacks and six separate einsum contractions over
    the reference cell coefficients, here in long double (`reference_hermite`)
    so that the reference's own round-off stays far below the bounds it is
    held to.  Returns u and its five reference derivatives."""
    C = reference_hermite(fld, np.longdouble)
    i, j, xi, eta = np.atleast_1d(*solver_mod.cell_index(theta, s, fld.n_theta, fld.n_s))
    cells = C[i, j]  # (K, 4, 4)
    xi, eta = xi.astype(np.longdouble), eta.astype(np.longdouble)
    X0 = np.stack([np.ones_like(xi), xi, xi ** 2, xi ** 3], axis=-1)
    E0 = np.stack([np.ones_like(eta), eta, eta ** 2, eta ** 3], axis=-1)
    X1 = np.stack([np.zeros_like(xi), np.ones_like(xi), 2.0 * xi, 3.0 * xi ** 2], axis=-1)
    X2 = np.stack([np.zeros_like(xi), np.zeros_like(xi), 2.0 * np.ones_like(xi), 6.0 * xi], axis=-1)
    E1 = np.stack([np.zeros_like(eta), np.ones_like(eta), 2.0 * eta, 3.0 * eta ** 2], axis=-1)
    E2 = np.stack([np.zeros_like(eta), np.zeros_like(eta), 2.0 * np.ones_like(eta), 6.0 * eta], axis=-1)
    d = {
        "u": np.einsum("ka,kab,kb->k", X0, cells, E0),
        "ut": np.einsum("ka,kab,kb->k", X1, cells, E0) / fld.dtheta,
        "us": np.einsum("ka,kab,kb->k", X0, cells, E1) / fld.ds,
        "utt": np.einsum("ka,kab,kb->k", X2, cells, E0) / fld.dtheta ** 2,
        "uts": np.einsum("ka,kab,kb->k", X1, cells, E1) / (fld.dtheta * fld.ds),
        "uss": np.einsum("ka,kab,kb->k", X0, cells, E2) / fld.ds ** 2,
    }
    return {key: v.astype(float) for key, v in d.items()}


@pytest.mark.parametrize("name", ["counterexample1", "disk_z3"])
def test_evaluate_ref_matches_reference(name):
    """u and all five reference derivatives from the one contraction agree
    with the six-einsum evaluator on random points, the seam theta = 0 and
    both rims, arrays and scalars alike."""
    fld = solved_field(name, 48, 24)
    rng = np.random.default_rng(7)
    theta = np.concatenate([[0.0, 0.0, 0.0, 2.5, 4.0], rng.uniform(0.0, TWO_PI, 500)])
    s = np.concatenate([[0.0, 1.0, 0.4, 0.0, 1.0], rng.uniform(0.0, 1.0, 500)])
    bound = 1e-13 * fld.u_range()
    got, want = fld.evaluate_ref(theta, s, derivatives=True), reference_evaluate_ref(fld, theta, s)
    assert set(got) == set(want)
    for key in want:
        assert got[key].shape == theta.shape
        assert np.max(np.abs(got[key] - want[key])) <= bound, key
    assert np.max(np.abs(fld.evaluate_ref(theta, s) - want["u"])) <= bound
    one = fld.evaluate_ref(theta[3], s[3], derivatives=True)
    for key in want:
        assert np.ndim(one[key]) == 0 and abs(one[key] - want[key][3]) <= bound, key


# Hermite-to-monomial matrix of the data (f0, f1, m0, m1) of a unit interval
HERMITE_A = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [-3.0, 3.0, -2.0, -1.0],
    [2.0, -2.0, 1.0, 1.0],
])


def reference_hermite(fld, dtype=float):
    """The Hermite cell coefficients C = A F A^T of every cell, with F
    stacked corner by corner and block by block from the (projected) nodal
    values and derivatives: the interpolant that the basis-weight
    contractions of `SolutionField` must reproduce, in `dtype`."""
    u = fld.values
    ut, us = fld._node_derivatives()
    if fld.domain.is_disk:
        ut, us = ut.copy(), us.copy()
        theta = np.arange(fld.n_theta) * fld.dtheta
        rs = fld.domain.exterior.radius(theta)
        M = np.stack([rs * np.cos(theta), rs * np.sin(theta)], axis=1)
        coef, *_ = np.linalg.lstsq(M, us[:, 0], rcond=None)
        us[:, 0] = M @ coef
        ut[:, 0] = 0.0
    uts = solver_mod._axis_derivative_periodic(us, fld.dtheta)
    nt, ns = fld.n_theta, fld.n_s
    F = np.empty((nt, ns, 4, 4), dtype=dtype)
    ip1 = np.r_[1:nt, 0]

    def corner(arr, scale):
        # (nt, ns, 2, 2) array of [j, j+1] x [i, i+1] corner data
        return np.stack([
            np.stack([arr[:, :-1], arr[:, 1:]], axis=-1),
            np.stack([arr[ip1, :-1], arr[ip1, 1:]], axis=-1),
        ], axis=-2) * scale

    F[:, :, 0:2, 0:2] = corner(u, 1.0)
    F[:, :, 0:2, 2:4] = corner(us, fld.ds)
    F[:, :, 2:4, 0:2] = corner(ut, fld.dtheta)
    F[:, :, 2:4, 2:4] = corner(uts, fld.dtheta * fld.ds)
    A = HERMITE_A.astype(dtype)
    return A @ F @ A.T


def reference_cell_samples(C, rows_theta, rows_s):
    """Every cell at every pair of the given offsets, as one batched matmul:
    shaped (n_theta, n_s, len(rows_theta), len(rows_s))."""
    return rows_theta @ C @ rows_s.T


def reference_lattice(fld):
    """(nodes, centres) of the refined lattice, as two tensor products per
    cell over the reference coefficients."""
    from levelset_lab.solver import REFINE
    C = reference_hermite(fld)
    nrt, nrs = REFINE * fld.n_theta, REFINE * fld.n_s
    rows = np.vander(np.arange(REFINE + 1) / REFINE, 4, increasing=True)
    at_nodes = reference_cell_samples(C, rows[:-1], rows)
    nodes = np.empty((nrt + 1, nrs + 1))
    nodes[:-1, :-1] = at_nodes[..., :-1].transpose(0, 2, 1, 3).reshape(nrt, nrs)
    nodes[:-1, -1] = at_nodes[:, -1, :, -1].ravel()
    nodes[-1] = nodes[0]
    rows = np.vander((np.arange(REFINE) + 0.5) / REFINE, 4, increasing=True)
    centres = reference_cell_samples(C, rows, rows).transpose(0, 2, 1, 3).reshape(nrt, nrs)
    return nodes, centres


@pytest.mark.parametrize("configured", [False, True])
@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_hermite_kernel_matches_reference(name, configured):
    """The lattice nodes and centres from the basis-weight contractions
    agree with the matmul references over the cell coefficients within
    round-off, off a power of two and at the configured grid, disks
    included."""
    fld = solved_field(name, *(builtin_spec(name).grid if configured else (48, 24)))
    bound = 1e-13 * fld.u_range()
    lat, (nodes, centres) = fld.lattice(), reference_lattice(fld)
    assert np.max(np.abs(lat.nodes - nodes)) <= bound
    assert np.max(np.abs(lat.centres - centres)) <= bound


@pytest.mark.parametrize("name", ["counterexample1", "disk_z3"])
def test_lattice_matches_evaluate_ref_off_power_of_two(name):
    """At 48x24 every lattice node and cell centre equals the pointwise
    evaluation at its (theta, s) within round-off."""
    fld = solved_field(name, 48, 24)
    lat = fld.lattice()
    bound = 1e-13 * fld.u_range()
    T, S = np.meshgrid(lat.theta, lat.s, indexing="ij")
    assert np.max(np.abs(lat.nodes - fld.evaluate_ref(T, S))) <= bound
    T, S = np.meshgrid(0.5 * (lat.theta[1:] + lat.theta[:-1]), 0.5 * (lat.s[1:] + lat.s[:-1]), indexing="ij")
    assert np.max(np.abs(lat.centres - fld.evaluate_ref(T, S))) <= bound


@pytest.mark.parametrize("name", ["counterexample1", "disk_z3"])
def test_no_whole_field_blocks(name):
    """After detection and the lattice on a 256x128 field, no cached array
    holds a 16-entry block per cell; the lattice nodes on solve nodes are
    the solved values bit for bit, and scattered values still agree with
    the reference evaluator.  (Derivatives are held to the same bound at
    48x24 in `test_evaluate_ref_matches_reference`; at 256x128 the
    double-precision floor of u_ss alone, about |u_s| eps / ds, is of the
    bound's size.)"""
    from levelset_lab.critical import find_critical_points
    fld = solved_field(name, 256, 128)
    find_critical_points(fld)
    lat = fld.lattice()
    cached = [a for v in fld.__dict__.values()
              for a in (v if isinstance(v, tuple) else vars(v).values() if hasattr(v, "__dataclass_fields__") else (v,))
              if isinstance(a, np.ndarray)]
    assert any(a is fld._corner_data() for a in cached) and any(a is lat.centres for a in cached)
    assert all(a.size < fld.n_theta * fld.n_s * 16 for a in cached)
    assert np.array_equal(lat.nodes[:-1:solver_mod.REFINE, ::solver_mod.REFINE], fld.values)
    rng = np.random.default_rng(36)
    theta, s = rng.uniform(0.0, TWO_PI, 400), rng.uniform(0.0, 1.0, 400)
    want = reference_evaluate_ref(fld, theta, s)["u"]
    assert np.max(np.abs(fld.evaluate_ref(theta, s) - want)) <= 1e-13 * fld.u_range()
