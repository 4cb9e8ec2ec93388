"""Finite-difference discretization on the boundary-fitted (theta, s) grid.

The operator is transformed to reference coordinates through the radial map
and discretized with second-order centered differences on a 9-point stencil;
theta is periodic, the s = 0 / s = 1 rings carry Dirichlet data.  For
disk-like domains the s = 0 ring collapses to a single centre unknown whose
row comes from moment-matched weights over the first ring.

The solved field exposes a C^1 bicubic Hermite interpolant for off-grid
evaluation of u, its gradient and its Hessian.
"""

from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy.linalg.lapack import dgttrf, dgttrs

from . import expressions as ex
from .domain import ScenarioSpec
from .errors import AssemblyError, NoConvergenceError, OutsideDomainError
from .geometry import TWO_PI

_DISK_S_FLOOR = 1e-9
# Off-diagonal entries of -A up to this fraction of its largest entry count
# as non-positive in is_m_matrix.
_M_MATRIX_TOL = 1e-12

# Level-set routines read u on the solve grid refined this many times in
# each direction.
REFINE = 2

# p(xi) = [1, xi, xi^2, xi^3] . (A @ [f0, f1 - f0, m0, m1]) on a unit interval with end
# values f and derivatives m; f1 - f0, not f1, so derivatives do not cancel f0 against f1
_HERMITE_A = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [0.0, 3.0, -2.0, -1.0],
    [0.0, -2.0, 1.0, 1.0],
])

# d^k/dx^k x^n = _FALLING[k, n] * x^_DROP[k, n], for k = 0, 1, 2 and n = 0..3
_FALLING = np.array([[1.0, 1.0, 1.0, 1.0], [0.0, 1.0, 2.0, 3.0], [0.0, 0.0, 2.0, 6.0]])
_DROP = np.maximum(np.arange(4) - np.arange(3)[:, None], 0)


def _basis(x, order: int) -> np.ndarray:
    """The Hermite basis weights of the data (f0, f1 - f0, m0, m1) and their
    first `order` derivatives at each x, shaped x.shape + (order + 1, 4)."""
    return _FALLING[:order + 1] * np.asarray(x, dtype=float)[..., None, None] ** _DROP[:order + 1] @ _HERMITE_A


def fd_weights(offsets, order: int) -> np.ndarray:
    """Finite-difference weights for given integer offsets (exact Vandermonde solve)."""
    offsets = np.asarray(offsets, dtype=float)
    n = len(offsets)
    M = np.vander(offsets, n, increasing=True).T  # M[m, k] = offsets[k]^m
    rhs = np.zeros(n)
    rhs[order] = math.factorial(order)
    return np.linalg.solve(M, rhs)


def _axis_derivative_periodic(u: np.ndarray, h: float) -> np.ndarray:
    """4th-order centred first derivative along axis 0, periodic."""
    return (np.roll(u, 2, axis=0) - 8.0 * np.roll(u, 1, axis=0)
            + 8.0 * np.roll(u, -1, axis=0) - np.roll(u, -2, axis=0)) / (12.0 * h)


def _axis_derivative_bounded(u: np.ndarray, h: float) -> np.ndarray:
    """First derivative along axis 1 with one-sided 4-point stencils at the edges."""
    n = u.shape[1]
    du = np.empty_like(u)
    du[:, 2:n - 2] = (u[:, 0:n - 4] - 8.0 * u[:, 1:n - 3] + 8.0 * u[:, 3:n - 1] - u[:, 4:n]) / (12.0 * h)
    w0 = fd_weights([0, 1, 2, 3], 1)
    w1 = fd_weights([-1, 0, 1, 2], 1)
    du[:, 0] = (u[:, 0:4] @ w0) / h
    du[:, 1] = (u[:, 0:4] @ w1) / h
    du[:, n - 2] = -(u[:, n - 4:n][:, ::-1] @ w1) / h
    du[:, n - 1] = -(u[:, n - 4:n][:, ::-1] @ w0) / h
    return du


@dataclass
class DiscreteSystem:
    """Sparse linear system of the interior unknowns for one scenario on
    one grid, numbered along the s-lines: matrix @ x = rhs, where
    rhs = -couplings @ boundary moves the Dirichlet data to the right.
    node_index and the index arrays of both pieces are the grid plan's, shared and read-only."""

    spec: ScenarioSpec
    n_theta: int
    n_s: int
    matrix: sp.csr_matrix     # interior rows x interior columns
    couplings: sp.csr_matrix  # interior rows x Dirichlet nodes
    boundary: np.ndarray      # Dirichlet data, ring by ring (s = 0 first)
    rhs: np.ndarray
    node_index: np.ndarray    # (n_theta, n_s + 1) position of each node in [x, boundary]
    is_disk: bool
    solution: np.ndarray | None = None  # x, once solved; a finer grid's solve starts from it
    inverse: object = None              # r -> approximate A^-1 r, once solved: a finer grid's coarse correction

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def is_m_matrix(self) -> bool:
        """True when every row of -A has a positive diagonal and non-positive
        off-diagonal entries, Dirichlet couplings included (discrete maximum
        principle)."""
        A, coupled = self.matrix.tocoo(), self.couplings.data
        off = np.concatenate((A.data[A.row != A.col], coupled))
        scale = float(np.max(np.abs(np.concatenate((A.data, coupled))))) or 1.0
        return bool(np.all(A.diagonal() < 0) and not np.any(-off > _M_MATRIX_TOL * scale))


def _grid_nodes(spec: ScenarioSpec):
    nt, ns = spec.grid
    theta = np.arange(nt) * (TWO_PI / nt)
    s = np.arange(ns + 1) / ns
    T, S = np.meshgrid(theta, s, indexing="ij")
    return T, S


# Stencil offsets (di, dj), in the order a node's weights are summed.
_STENCIL = ((1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1), (0, 0))


def _stencil(spec: ScenarioSpec):
    """The weights of the interior rows, one (n_theta, n_s - 1) array per
    _STENCIL offset, then on a disk the centre row over [centre, first
    ring]; and the Dirichlet data, ring by ring."""
    nt, ns = spec.grid
    dtheta, ds = TWO_PI / nt, 1.0 / ns
    is_disk = spec.domain.is_disk

    T, S = _grid_nodes(spec)
    full = spec.domain.metric(T, np.maximum(S, _DISK_S_FLOOR) if is_disk else S)
    X, Y = full["x"], full["y"]
    # coefficients and metric at the interior nodes, each checked before any product of them
    met = {k: v[:, 1:ns] for k, v in full.items()}
    co = spec.operator.coefficients_at(met["x"], met["y"])
    for kind, values in (("coefficient", co), ("metric term", met)):
        for label, arr in values.items():
            if not np.all(np.isfinite(arr)):
                raise AssemblyError(f"non-finite {kind} {label} at a grid node")

    a11, a12, a22 = co["a11"], co["a12"], co["a22"]
    t_x, t_y, s_x, s_y = met["t_x"], met["t_y"], met["s_x"], met["s_y"]
    att = a11 * t_x ** 2 + 2.0 * a12 * t_x * t_y + a22 * t_y ** 2
    ats = a11 * t_x * s_x + a12 * (t_x * s_y + t_y * s_x) + a22 * t_y * s_y
    ass = a11 * s_x ** 2 + 2.0 * a12 * s_x * s_y + a22 * s_y ** 2
    bt = a11 * met["t_xx"] + 2.0 * a12 * met["t_xy"] + a22 * met["t_yy"] + co["b1"] * t_x + co["b2"] * t_y
    bs = a11 * met["s_xx"] + 2.0 * a12 * met["s_xy"] + a22 * met["s_yy"] + co["b1"] * s_x + co["b2"] * s_y
    weights = [
        att / dtheta ** 2 + bt / (2.0 * dtheta),
        att / dtheta ** 2 - bt / (2.0 * dtheta),
        ass / ds ** 2 + bs / (2.0 * ds),
        ass / ds ** 2 - bs / (2.0 * ds),
        ats / (2.0 * dtheta * ds),
        ats / (2.0 * dtheta * ds),
        -ats / (2.0 * dtheta * ds),
        -ats / (2.0 * dtheta * ds),
        -2.0 * att / dtheta ** 2 - 2.0 * ass / ds ** 2 + co["c"],
    ]
    if is_disk:
        # centre row: weights over {centre} + first ring matching L on quadratics
        cc = spec.operator.coefficients_at(np.array([0.0]), np.array([0.0]))
        px, py = np.concatenate(([0.0], X[:, 1])), np.concatenate(([0.0], Y[:, 1]))
        M = np.stack([np.ones_like(px), px, py, px ** 2, px * py, py ** 2])
        target = np.array([cc["c"][0], cc["b1"][0], cc["b2"][0],
                           2.0 * cc["a11"][0], 2.0 * cc["a12"][0], 2.0 * cc["a22"][0]], dtype=float)
        weights.append(np.linalg.lstsq(M, target, rcond=None)[0])

    psi = {0: spec.psi_interior, ns: spec.psi_exterior}
    rings = [ns] if is_disk else [0, ns]
    return weights, np.concatenate([ex.evaluate_xy(psi[j], X[:, j], Y[:, j]) for j in rings])


def assemble(spec: ScenarioSpec) -> DiscreteSystem:
    """Discretize the operator on the scenario grid: the stencil weights
    fill the slots of the grid's plan.  A grid that halves also gets its
    two-grid plan here, before any array of a solve: built in the middle of
    a solve, the long-lived plan sat on top of the heap and kept 50-70 MB
    more resident after each `--grid 256x128` verify."""
    nt, ns = spec.grid
    if _halves(nt, ns):
        _two_grid_plan(nt, ns, spec.domain.is_disk)
    return _discretize(spec)


def _discretize(spec: ScenarioSpec) -> DiscreteSystem:
    """`assemble` without the two-grid plan."""
    nt, ns = spec.grid
    weights, boundary = _stencil(spec)
    plan = _grid_plan(nt, ns, spec.domain.is_disk)
    n, nnz = plan.indptr.size - 1, plan.indices.size
    # onto -0.0 a lone weight keeps its bits and repeated slots sum in stencil order
    values = np.full(nnz + plan.c_indices.size, -0.0)
    np.add.at(values, plan.slot, np.concatenate([w.ravel() for w in weights]))
    matrix = sp.csr_matrix((values[:nnz], plan.indices, plan.indptr), shape=(n, n))
    couplings = sp.csr_matrix((values[nnz:], plan.c_indices, plan.c_indptr), shape=(n, boundary.size))
    return DiscreteSystem(
        spec=spec, n_theta=nt, n_s=ns, matrix=matrix, couplings=couplings, boundary=boundary,
        rhs=-(couplings @ boundary), node_index=plan.node_index, is_disk=spec.domain.is_disk,
    )


# All of a system that depends only on its grid, read-only: node numbering, CSR pattern of `matrix`,
# CSR pattern of `couplings`, and the slot of each `_stencil` weight in [matrix.data, couplings.data].
_GridPlan = namedtuple("_GridPlan", "node_index indptr indices c_indptr c_indices slot")


# three grids (half, configured, refined) of both domain kinds
@functools.lru_cache(maxsize=6)
def _grid_plan(nt: int, ns: int, is_disk: bool) -> _GridPlan:
    """The plan of one grid.  Node (i, j) of the interior rings is unknown
    i (n_s - 1) + j - 1, so that each s-line is a block of n_s - 1
    unknowns, and a disk's centre is the last unknown.  The slot of the
    entry that node p gives neighbour q is indptr[p] plus the rank of q
    among p's distinct neighbours."""
    n = nt * (ns - 1) + is_disk
    rings = [ns] if is_disk else [0, ns]
    index = np.empty((nt, ns + 1), dtype=np.int32)
    index[:, 0] = n - 1  # the disk centre, or overwritten by the Dirichlet ring
    index[:, 1:ns] = np.arange(nt * (ns - 1), dtype=np.int32).reshape(nt, ns - 1)
    index[:, rings] = n + np.arange(len(rings) * nt, dtype=np.int32).reshape(len(rings), nt).T
    row = index[:, 1:ns]
    nbr = np.stack([np.roll(index, -di, axis=0)[:, 1 + dj:ns + dj] for di, dj in _STENCIL])
    inner = nbr < n
    # rank of each neighbour among its node's; the one that repeats, the disk
    # centre, is the last unknown, so it shifts no other unknown's rank
    pos = np.sum(nbr[:, None] < nbr, axis=0, dtype=np.int32)
    n_inner = np.sum(inner, axis=0, dtype=np.int32)
    counts = np.zeros((2, n + 1), dtype=np.int32)
    counts[:, row + 1] = np.max(np.where(inner, pos + 1, 0), axis=0), len(_STENCIL) - n_inner
    counts[0, n] += is_disk * (nt + 1)
    indptr, c_indptr = np.cumsum(counts, axis=1, dtype=np.int32)
    nnz = indptr[-1]
    slot = np.where(inner, indptr[row] + pos, nnz + c_indptr[row] + pos - n_inner)
    indices = np.empty(nnz, dtype=np.int32)
    indices[slot[inner]] = nbr[inner]
    c_indices = np.empty(c_indptr[-1], dtype=np.int32)
    c_indices[slot[~inner] - nnz] = nbr[~inner] - n
    slot = slot.ravel()
    if is_disk:  # the centre row holds the first ring, then its diagonal; its weights are over [centre, first ring]
        centre = np.arange(nnz - nt - 1, nnz, dtype=np.int32)
        indices[centre] = np.append(row[:, 0], n - 1)
        slot = np.append(slot, np.roll(centre, 1))
    return _GridPlan(*_frozen(index, indptr, indices, c_indptr, c_indices, slot))


def solve(system: DiscreteSystem, coarse: DiscreteSystem | None = None) -> "SolutionField":
    """Sparse solve of the interior unknowns with a residual check.

    Only the coarsest grid is factored.  A grid that halves (both sizes
    even, and at least 6 x 4, so that the half grid has 3 nodes a ring and
    an interior ring) is solved by GMRES preconditioned by `_v_cycle`,
    whose coarse correction is the `inverse` of `coarse`: the solved
    half-grid system handed in, or else the half grid, which `solve`
    assembles and factors.  `solve` then clears the coarse system's
    solution and inverse, so that it serves one finer solve.  A grid that
    does not halve, and a system whose iteration gives up, is factored
    directly, SuperLU choosing the elimination order.  The
    system keeps its solution and its inverse: the factor's solve, or the
    cycle.  The gate is the relative residual of the returned x, whose
    both sides carry the 1/h^2 scale of the stencil, against the
    scenario's linear_residual_tol; the boundary values of u are the
    Dirichlet data exactly.
    """
    A, b, nt, ns = system.matrix, system.rhs, system.n_theta, system.n_s
    x, iterations, solved_by = None, 0, "direct"
    # the field's values before any array of the solve: allocated after the cycle that
    # the system keeps, they sat above it on the heap, which raised peak RSS by up to 10 MB
    values = np.empty(system.node_index.shape)
    if coarse is None and _halves(nt, ns):
        # the half grid is only factored, so it needs no two-grid plan of its own
        coarse = _discretize(system.spec.with_grid(nt // 2, ns // 2))
        coarse.inverse = _factor(coarse.matrix).solve
        coarse.solution = coarse.inverse(coarse.rhs)
    if coarse is not None:
        system.inverse = _v_cycle(system, coarse.inverse)
        if system.inverse is not None:
            plan = _two_grid_plan(nt, ns, system.is_disk)
            x0 = plan.prolong @ coarse.solution + plan.rim @ coarse.boundary
            x, iterations = _gmres(A, b, x0, system.inverse)
        solved_by = "two-grid" if x is not None else "direct after two-grid"
        coarse.solution = coarse.inverse = None
    if x is None:
        system.inverse = None  # freed before the factor that replaces it is built
        system.inverse = _factor(A).solve
        x = system.inverse(b)
    if not np.all(np.isfinite(x)):
        raise NoConvergenceError(0, float("inf"), "solution contains non-finite values")
    rel = _relative_residual(A, x, b)
    if rel > system.spec.tolerances.linear_residual_tol:
        raise NoConvergenceError(max(iterations, 1), rel, f"{solved_by} solve residual above tolerance")
    system.solution = x
    np.take(np.concatenate((x, system.boundary)), system.node_index, out=values)
    return SolutionField(system.spec, values, residual=rel, solved_by=solved_by, iterations=iterations)


def _halves(nt: int, ns: int) -> bool:
    """Whether `solve` takes an n_theta x n_s grid over its half grid: both
    sizes even, and the half grid keeps 3 nodes a ring and an interior ring."""
    return nt % 2 == ns % 2 == 0 and nt >= 6 and ns >= 4


def _factor(matrix):
    """The splu of `matrix`, whose columns SuperLU orders by minimum degree on A^T + A."""
    try:
        return spla.splu(matrix.tocsc(), permc_spec="MMD_AT_PLUS_A")
    except RuntimeError as err:
        raise NoConvergenceError(0, float("inf"), f"sparse factorization failed: {err}")


def _norm(v) -> float:
    """||v|| in numpy's own loops: BLAS dnrm2 wakes OpenBLAS's thread pool, whose
    spinning threads slowed the next ~0.1 s of work about 2x on a 2-vCPU host."""
    return math.sqrt(float(np.sum(v * v)))


def _relative_residual(A, x, b) -> float:
    """||A x - b|| / ||b||, or ||A x - b|| when b = 0."""
    bnorm, residual = _norm(b), _norm(A @ x - b)
    return residual / bnorm if bnorm > 0 else residual


# Stop rule and GMRES iteration cap of the two-grid solve.
_TWO_GRID_TOL = 1e-13
_TWO_GRID_CAP = 30

# All of the two-grid cycle that depends only on the grid, read-only: prolongation P from the
# unknowns and Dirichlet nodes of the half grid (fine node (i, j) is the mean of coarse nodes
# ((i + a) // 2, (j + b) // 2), a, b in {0, 1}, and a disk's centre is the coarse centre), split
# into its part over the unknowns and its rim part over the Dirichlet nodes.
_TwoGridPlan = namedtuple("_TwoGridPlan", "prolong rim")


# the two finer grids of both domain kinds
@functools.lru_cache(maxsize=4)
def _two_grid_plan(nt: int, ns: int, is_disk: bool) -> _TwoGridPlan:
    fine, coarse = _grid_plan(nt, ns, is_disk), _grid_plan(nt // 2, ns // 2, is_disk)
    n, nc = fine.indptr.size - 1, coarse.indptr.size - 1
    i, j = np.meshgrid(np.arange(nt), np.arange(1, ns), indexing="ij")
    cols = np.stack([coarse.node_index[(i + a) // 2 % (nt // 2), (j + b) // 2] for a in (0, 1) for b in (0, 1)])
    rows = np.broadcast_to(fine.node_index[:, 1:ns], cols.shape).ravel()
    cols, weights = cols.ravel(), np.full(cols.size, 0.25)
    if is_disk:  # the centre, the last unknown on both grids, injects
        rows, cols, weights = np.append(rows, n - 1), np.append(cols, nc - 1), np.append(weights, 1.0)
    full = sp.csr_matrix((weights, (rows, cols)), shape=(n, coarse.node_index.max() + 1))
    plan = _TwoGridPlan(full[:, :nc], full[:, nc:])
    _frozen(*(a for m in plan for a in (m.data, m.indices, m.indptr)))
    return plan


def _cyclic_diagonal(A, k: int, m: int) -> np.ndarray:
    """A[p, (p + k) mod m] for p < m, 0 < k < m, from diagonals k and k - m."""
    return np.concatenate((A.diagonal(k)[:m - k], A.diagonal(k - m)[:k]))


def _tridiagonal_rows(diag, up, down):
    """Solver for the tridiagonal systems along the rows of the arrays, of a
    right side shaped like them: diag[k, i] x[k, i] + up[k, i] x[k, i + 1]
    + down[k, i] x[k, i - 1], up[:, -1] and down[:, 0] read as 0; one LAPACK
    factor of all rows.  None on a zero pivot."""
    du, dl = up.copy(), down.copy()
    du[:, -1] = dl[:, 0] = 0.0
    *factor, info = dgttrf(dl.ravel()[1:], diag.ravel(), du.ravel()[:-1])
    return None if info != 0 else lambda r: dgttrs(*factor, r.ravel())[0].reshape(r.shape)


def _periodic_tridiagonal(diag, up, down):
    """`_tridiagonal_rows` with i taken modulo the row length: its solver
    of the rows with the corners cut, and a Sherman-Morrison correction per
    row (Numerical Recipes, 2.7).  None when a cut row is singular."""
    gamma, alpha, beta = -diag[:, 0], up[:, -1], down[:, 0]
    d = diag.copy()
    d[:, 0] -= gamma
    d[:, -1] -= alpha * beta / gamma
    if (cut := _tridiagonal_rows(d, up, down)) is None:
        return None
    u = np.zeros(diag.shape)
    u[:, 0], u[:, -1] = gamma, alpha
    q = cut(u)
    v_last = beta / gamma
    q /= (1.0 + q[:, 0] + v_last * q[:, -1])[:, None]

    def solve_rows(r):
        y = cut(r)
        return y - (y[:, 0] + v_last * y[:, -1])[:, None] * q
    return solve_rows


def _v_cycle(system: DiscreteSystem, correct):
    """One V(1,1) cycle on the grid of `system`: smoothing, the coarse
    correction `correct` of the restricted residual, prolongation,
    smoothing; None on a zero pivot.  The coarse correction is the half
    grid's factor, or the half grid's own cycle, so that the coarsest
    level is a factor.  A smoothing step is an undamped zebra sweep: the
    s-lines of even i solved exactly, then those of odd i on the updated
    residual; on a disk, whose cells near the centre couple most strongly
    along the rings, a zebra sweep of the rings (even j, then odd j) and an
    exact update of the centre row follow.  Both steps take the colours in
    this order, so that the cycle is one fixed linear map.  The s-lines are
    the rows of the (n_theta, n_s - 1) view of the unknowns, the rings its
    columns; the cycle reads their entries from A's diagonals 0 and +-1,
    which are 0 where a line ends, and +-(n_s - 1) taken cyclically."""
    # the closures hold nothing of `system`, which keeps the cycle: a loop of references kept dropped systems until gc
    A, nt, ns, is_disk = system.matrix, system.n_theta, system.n_s, system.is_disk
    m = nt * (ns - 1)  # the unknowns on the s-lines; a disk's centre follows them
    plan = _two_grid_plan(nt, ns, is_disk)

    def lines(v):  # rows the s-lines, columns the rings
        return v[:m].reshape(nt, ns - 1)

    def rings(v):
        return lines(v).T

    diag, up, down = (lines(b) for b in (
        A.diagonal(), np.append(A.diagonal(1)[:m - 1], 0.0), np.append(0.0, A.diagonal(-1)[:m - 1])))
    # (view, colour, solver of the colour's rows) in sweep order
    sweeps = [(lines, c, _tridiagonal_rows(diag[c::2], up[c::2], down[c::2])) for c in (0, 1)]
    if is_disk:
        nxt, prev = (lines(_cyclic_diagonal(A, k, m)) for k in (ns - 1, m - ns + 1))
        sweeps += [(rings, c, _periodic_tridiagonal(diag.T[c::2], nxt.T[c::2], prev.T[c::2])) for c in (0, 1)]
    if any(solve_rows is None for *_, solve_rows in sweeps):
        return None
    centre_row = A.data[A.indptr[m]:]  # the first ring, then the centre's diagonal

    def smooth(r):
        z = np.zeros_like(r)
        for k, (view, c, solve_rows) in enumerate(sweeps):  # the first colour reads r: z is still 0
            view(z)[c::2] += solve_rows(view(r - A @ z if k else r)[c::2])
        if is_disk:  # the centre unknown is the last, and no sweep has moved it
            z[-1] = (r[-1] - np.sum(centre_row[:-1] * z[:m:ns - 1])) / centre_row[-1]
        return z

    def cycle(r):
        z = smooth(r)
        z += plan.prolong @ correct(0.25 * (plan.prolong.T @ (r - A @ z)))  # restriction P^T / 4
        return z + smooth(r - A @ z)

    return cycle


def _gmres(A, b, x, precondition):
    """(x, iterations) of restarted right-preconditioned GMRES (Saad & Schultz
    1986) from x, inner products in numpy's own loops (see _norm); it stops on
    the iterate's residual, not on the rotated estimate, and x is None when
    _TWO_GRID_CAP iterations did not reach _TWO_GRID_TOL."""
    target, done = _TWO_GRID_TOL * (_norm(b) or 1.0), 0
    while not (beta := _norm(r := b - A @ x)) <= target:  # a NaN residual goes in, and gives up
        if done >= _TWO_GRID_CAP or not math.isfinite(beta):
            return None, done
        # the bases one vector at a time (see README's memory rule)
        V, Z, R, g, rotations = [r / beta], [], [], [beta], []
        while done < _TWO_GRID_CAP and abs(g[-1]) > target:
            Z.append(precondition(V[-1]))
            w, h = A @ Z[-1], []
            for v in V:  # modified Gram-Schmidt
                h.append(float(np.sum(w * v)))
                w -= h[-1] * v
            h.append(_norm(w))
            V.append(w / h[-1])
            for j, (c, s) in enumerate(rotations):
                h[j], h[j + 1] = c * h[j] + s * h[j + 1], c * h[j + 1] - s * h[j]
            rho = math.hypot(h[-2], h[-1])
            if not rho > 0:
                return None, done
            c, s = h[-2] / rho, h[-1] / rho
            rotations.append((c, s))
            R.append(h[:-2] + [rho])
            g[-1:] = [c * g[-1], -s * g[-1]]
            done += 1
        y = g[:-1]
        for k in reversed(range(len(y))):
            y[k] = (y[k] - sum(R[m][k] * y[m] for m in range(k + 1, len(y)))) / R[k][k]
        x = x + sum(yk * z for yk, z in zip(y, Z))
    return x, done


def cell_index(theta, s, n_theta: int, n_s: int):
    """(i, j, xi, eta) of reference points on an n_theta x n_s cell grid:
    the cell (i, j) holding each point, theta taken modulo 2 pi and s
    clipped to [0, 1], and the local offsets xi, eta in [0, 1] inside it."""
    dtheta, ds = TWO_PI / n_theta, 1.0 / n_s
    theta = np.mod(np.asarray(theta, dtype=float), TWO_PI)
    s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
    i = np.minimum((theta / dtheta).astype(int), n_theta - 1)
    j = np.minimum((s / ds).astype(int), n_s - 1)
    return i, j, theta / dtheta - i, s / ds - j


@dataclass(frozen=True)
class ResolvedTolerances:
    """All-concrete tolerance values for one solved field."""

    grad_zero_tol: float
    value_zero_tol: float
    dedup_radius: float
    equal_extrema_tol: float
    interior_margin: float
    value_scale: float

    @property
    def equal_value_tol(self) -> float:
        return self.equal_extrema_tol * self.value_scale


def _once(fn):
    """`fn(field)` computed on its first call and kept with the field."""
    key = "_once_" + fn.__name__

    @functools.wraps(fn)
    def cached(field):
        if key not in field.__dict__:
            field.__dict__[key] = fn(field)
        return field.__dict__[key]
    return cached


@_once
def resolve_tolerances(field: "SolutionField") -> ResolvedTolerances:
    """The scenario's tolerances with scale-aware defaults filled in, once
    per field: gradient threshold from the field range and domain diameter,
    dedup radius from three median grid cells."""
    tol = field.spec.tolerances
    rng = field.u_range()
    scale = rng if rng > 0 else 1.0
    return ResolvedTolerances(
        grad_zero_tol=tol.grad_zero_tol if tol.grad_zero_tol is not None else 1e-6 * scale / field.diameter(),
        value_zero_tol=tol.value_zero_tol if tol.value_zero_tol is not None else 2e-3 * scale,
        dedup_radius=tol.dedup_radius if tol.dedup_radius is not None else 3.0 * field.median_cell_diag(),
        equal_extrema_tol=tol.equal_extrema_tol,
        interior_margin=tol.interior_margin,
        value_scale=scale,
    )


@dataclass(frozen=True)
class RefinedLattice:
    """u on the solve grid refined REFINE times in each direction, sampled at
    the nodes and at the cell centres."""

    theta: np.ndarray    # node angles, (nrt + 1,); the last one is 2 pi
    s: np.ndarray        # node radial coordinates, (nrs + 1,)
    nodes: np.ndarray    # u at the nodes, (nrt + 1, nrs + 1)
    centres: np.ndarray  # u at the cell centres, (nrt, nrs)


def _frozen(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _contract(weights, terms):
    """sum_k weights[k] * terms[k] in the order of k, scalar weights of 0 left out: the one
    sum of `lattice` and `evaluate_ref`, so a lattice sample is its point's value bit for bit."""
    return functools.reduce(np.add, (w * t for w, t in zip(weights, terms) if np.ndim(w) or w))


class SolutionField:
    """Discrete solution on the reference grid plus a C^1 interpolant.

    Everything derived from the solved values (nodal corner data, node
    geometry, refined lattice, default tolerances) is computed on first use
    and cached with the field; cached arrays are read-only.  No per-cell
    coefficients are kept: a sample is the corner data of its cell
    contracted with the Hermite basis weights, along s and then along
    theta (`_contract`).  The lattice reads the corner data as shifted
    slices, and scattered queries gather only their own cells' corners.
    """

    def __init__(self, spec: ScenarioSpec, values: np.ndarray, residual: float = 0.0,
                 solved_by: str | None = None, iterations: int = 0):
        nt, ns = spec.grid
        values = np.asarray(values, dtype=float)
        if values.shape != (nt, ns + 1):
            raise ValueError(f"values shape {values.shape} does not match grid {(nt, ns + 1)}")
        self.spec = spec
        self.values = values
        self.residual = residual
        self.solved_by = solved_by    # "direct", "two-grid" or "direct after two-grid"; None when sampled
        self.iterations = iterations  # GMRES iterations of the solve
        self.n_theta = nt
        self.n_s = ns
        self.dtheta = TWO_PI / nt
        self.ds = 1.0 / ns

    # ------------------------------------------------------------ builders
    @classmethod
    def from_function(cls, spec: ScenarioSpec, fn) -> "SolutionField":
        """Sample ``fn(x, y)`` at the grid nodes (for oracles and synthetic tests)."""
        T, S = _grid_nodes(spec)
        X, Y = spec.domain.map_point(T, S)
        vals = np.asarray(fn(X, Y), dtype=float)
        if spec.domain.is_disk:
            vals[:, 0] = float(np.mean(vals[:, 0]))
        return cls(spec, vals)

    # ------------------------------------------------------------ geometry
    @property
    def domain(self):
        return self.spec.domain

    @_once
    def node_positions(self):
        """(theta, s, x, y) at the grid nodes, each (n_theta, n_s + 1)."""
        T, S = _grid_nodes(self.spec)
        return _frozen(T, S, *self.domain.map_point(T, S))

    def u_range(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    def diameter(self) -> float:
        return self.domain.diameter()

    @_once
    def cell_diagonals(self) -> np.ndarray:
        """Physical diagonal length per cell (n_theta, n_s)."""
        _, _, X, Y = self.node_positions()
        dx = np.roll(X, -1, axis=0)[:, 1:] - X[:, :-1]
        dy = np.roll(Y, -1, axis=0)[:, 1:] - Y[:, :-1]
        return _frozen(np.hypot(dx, dy))[0]

    @_once
    def median_cell_diag(self) -> float:
        return float(np.median(self.cell_diagonals()))

    @_once
    def lattice(self) -> RefinedLattice:
        """u on the refined lattice that every level-set routine reads, once per
        field: at fixed offsets the basis weights are fixed, so each sample is a
        weighted sum of shifted slices of the corner data, along s, then theta."""
        nrt, nrs = REFINE * self.n_theta, REFINE * self.n_s
        U, T = self._corner_data()
        # node rows of the theta data (f0, f1 - f0, m0, m1); rows i and i + 1 of T are m0 and m1
        rows = (U[:, :-1], U[:, 1:] - U[:, :-1], T)
        along_s = [(X[0, :, :-1], X[0, :, 1:] - X[0, :, :-1], X[1, :, :-1], X[1, :, 1:]) for X in rows]
        nodes, centres = np.empty((nrt + 1, nrs + 1)), np.empty((nrt, nrs))
        at, mid = np.arange(REFINE) / REFINE, (np.arange(REFINE) + 0.5) / REFINE
        for out, offsets in ((nodes, at), (centres, mid)):
            for n, eta in enumerate(offsets):
                # at eta = 0 only f0 is weighted: the node columns, so solve nodes keep their values
                f, df, t = ((X[0] for X in rows) if eta == 0 else
                            (_contract(_basis(eta, 0)[0], d) for d in along_s))
                for m, xi in enumerate(offsets):
                    out[m:nrt:REFINE, n::REFINE] = _contract(_basis(xi, 0)[0], (f, df, t[:-1], t[1:]))
        nodes[-1] = nodes[0]
        theta, s = np.arange(nrt + 1) * (TWO_PI / nrt), np.arange(nrs + 1) / nrs
        return RefinedLattice(*_frozen(theta, s, nodes, centres))

    @_once
    def interp_error_estimate(self) -> float:
        """Scale of the cell-interpolation error, from second differences."""
        u = self.values
        d2t = np.abs(np.roll(u, 1, axis=0) - 2.0 * u + np.roll(u, -1, axis=0))
        d2s = np.abs(u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:])
        return max(float(np.max(d2t)), float(np.max(d2s))) / 8.0

    # ------------------------------------------------------- interpolation
    @_once
    def _node_derivatives(self):
        """Finite-difference (u_theta, u_s) at every grid node."""
        return _frozen(_axis_derivative_periodic(self.values, self.dtheta),
                       _axis_derivative_bounded(self.values, self.ds))

    @_once
    def _disk_centre(self):
        """The gradient (u_x, u_y) at the centre of a disk and the centre
        row of u_s it implies.  Along the ray theta the radial derivative
        at the centre is R_s(theta) (u_x cos theta + u_y sin theta); the
        gradient is the least-squares fit of the one-sided u_s to that form."""
        theta = np.arange(self.n_theta) * self.dtheta
        rs = self.domain.exterior.radius(theta)
        M = np.stack([rs * np.cos(theta), rs * np.sin(theta)], axis=1)
        coef, *_ = np.linalg.lstsq(M, self._node_derivatives()[1][:, 0], rcond=None)
        return _frozen(coef, M @ coef)

    @_once
    def _corner_data(self):
        """N[a, b, i, j] = d^a/dxi^a d^b/deta^b of u at node (i, j) in cell units, with
        row n_theta repeating row 0 so that the corners of every cell are slices."""
        u = self.values
        ut, us = self._node_derivatives()
        if self.domain.is_disk:
            # the centre row takes the u_s of the one centre gradient, so the
            # interpolated gradient is continuous through the centre
            ut, us = ut.copy(), us.copy()
            us[:, 0] = self._disk_centre()[1]
            ut[:, 0] = 0.0
        uts = _axis_derivative_periodic(us, self.dtheta)
        N = np.stack([u, self.ds * us, self.dtheta * ut, (self.dtheta * self.ds) * uts])
        N = N.reshape(2, 2, self.n_theta, self.n_s + 1)
        return _frozen(np.concatenate([N, N[:, :, :1]], axis=2))[0]

    def evaluate_ref(self, theta, s, derivatives: bool = False):
        """Interpolated u at reference points; with `derivatives`, a dict of
        u and its reference derivatives ut, us, utt, uts and uss."""
        i, j, xi, eta = cell_index(theta, s, self.n_theta, self.n_s)
        order = 2 if derivatives else 0
        # c[a, b, p, q] = N[a, b, i + p, j + q]: the corner data of each point's cell
        c = self._corner_data()[:, :, np.add.outer((0, 1), i)[:, None], np.add.outer((0, 1), j)[None, :]]
        # the data and sums of `lattice`, along s, then along theta
        ws, wt = np.moveaxis(_basis(eta, order), -1, 0), np.moveaxis(_basis(xi, order), -1, 0)
        h = [_contract(ws, [d[..., None] for d in (X[0, 0], X[0, 1] - X[0, 0], X[1, 0], X[1, 1])])
             for X in (c[0, :, 0], c[0, :, 1] - c[0, :, 0], c[1, :, 0], c[1, :, 1])]
        # w[a, b] = d^a/dxi^a d^b/deta^b of the cell polynomial at each point
        w = np.moveaxis(_contract(wt[..., None], [x[..., None, :] for x in h]), (-2, -1), (0, 1))
        if not derivatives:
            return w[0, 0]
        dt, ds = self.dtheta, self.ds
        return {
            "u": w[0, 0],
            "ut": w[1, 0] / dt,
            "us": w[0, 1] / ds,
            "utt": w[2, 0] / dt ** 2,
            "uts": w[1, 1] / (dt * ds),
            "uss": w[0, 2] / ds ** 2,
        }

    # ------------------------------------------------------- physical eval
    def _invert(self, x, y):
        """(theta, s, inside) of physical points, as `DomainSpec.reference`
        gives them; on a disk s stays off the singular centre."""
        theta, s, inside = self.domain.reference(x, y)
        if self.domain.is_disk:
            s = np.maximum(s, _DISK_S_FLOOR)
        return theta, s, inside

    def _invert_inside(self, x, y):
        """(theta, s) of physical points; OutsideDomainError when any is outside."""
        theta, s, inside = self._invert(x, y)
        if not np.all(inside):
            raise OutsideDomainError("point outside domain")
        return theta, s

    def evaluate(self, x, y):
        """Interpolated u at physical points; OutsideDomainError when outside."""
        return self.evaluate_ref(*self._invert_inside(x, y))

    def gradient_ref(self, theta, s):
        """Physical gradient (u_x, u_y) at reference points."""
        d = self.evaluate_ref(theta, s, derivatives=True)
        return self._physical_gradient(theta, s, d["ut"], d["us"])

    def _physical_gradient(self, theta, s, ut, us):
        """(u_x, u_y) from the reference derivatives (u_theta, u_s) at (theta, s)."""
        met = self.domain.inverse_jacobian(theta, s)
        return met["t_x"] * ut + met["s_x"] * us, met["t_y"] * ut + met["s_y"] * us

    def gradient(self, x, y):
        """Physical gradient (u_x, u_y) at physical points."""
        return self.gradient_ref(*self._invert_inside(x, y))

    def hessian_ref(self, theta, s):
        """Physical Hessian entries (u_xx, u_xy, u_yy) at reference points."""
        d = self.evaluate_ref(theta, s, derivatives=True)
        met = self.domain.metric(theta, s)
        t_x, t_y, s_x, s_y = met["t_x"], met["t_y"], met["s_x"], met["s_y"]
        uxx = (d["utt"] * t_x ** 2 + 2.0 * d["uts"] * t_x * s_x + d["uss"] * s_x ** 2
               + d["ut"] * met["t_xx"] + d["us"] * met["s_xx"])
        uxy = (d["utt"] * t_x * t_y + d["uts"] * (t_x * s_y + s_x * t_y) + d["uss"] * s_x * s_y
               + d["ut"] * met["t_xy"] + d["us"] * met["s_xy"])
        uyy = (d["utt"] * t_y ** 2 + 2.0 * d["uts"] * t_y * s_y + d["uss"] * s_y ** 2
               + d["ut"] * met["t_yy"] + d["us"] * met["s_yy"])
        return uxx, uxy, uyy

    def hessian(self, x, y):
        """Physical Hessian entries (u_xx, u_xy, u_yy) at physical points."""
        return self.hessian_ref(*self._invert_inside(x, y))

    @_once
    def node_gradients(self):
        """Physical gradient at every grid node; on a disk the centre row
        holds the centre gradient of the interpolant (`_disk_centre`)."""
        ut, us = self._node_derivatives()
        T, S, _, _ = self.node_positions()
        s = np.maximum(S[:1], _DISK_S_FLOOR) if self.domain.is_disk else S[:1]
        gx, gy = self._physical_gradient(T[:, :1], s, ut, us)
        if self.domain.is_disk:
            gx[:, 0], gy[:, 0] = self._disk_centre()[0]
        return _frozen(gx, gy)

    # ----------------------------------------------------------------- io
    def to_csv(self, path) -> None:
        """Node table (theta, s, x, y, u), one row per node in s-major order."""
        cols = [a.T.ravel() for a in (*self.node_positions(), self.values)]
        np.savetxt(path, np.stack(cols, axis=1), fmt="%.12g", delimiter=",", header="theta,s,x,y,u", comments="")


def solve_scenario(spec: ScenarioSpec) -> SolutionField:
    return solve(assemble(spec))


def convergence_study(spec: ScenarioSpec, grids) -> list:
    """L-infinity node errors and observed orders against the scenario reference.

    Without a closed-form reference the finest grid is solved first and used
    as the reference through its interpolant.
    """
    rows = []
    reference = spec.reference
    ref_field = None
    if reference is None:
        finest = max(grids, key=lambda g: g[0] * g[1])
        ref_field = solve_scenario(spec.with_grid(2 * finest[0], 2 * finest[1]))
    for nt, ns in grids:
        fld = solve_scenario(spec.with_grid(nt, ns))
        T, S, X, Y = fld.node_positions()
        if reference is not None:
            exact = ex.evaluate_xy(reference, X, Y)
        else:
            exact = ref_field.evaluate_ref(T, S)
        err = float(np.max(np.abs(fld.values - exact)))
        rows.append({"grid": (nt, ns), "error": err, "order": None})
    for k in range(1, len(rows)):
        e0, e1 = rows[k - 1]["error"], rows[k]["error"]
        if e1 > 0 and e0 > 0:
            rows[k]["order"] = float(np.log2(e0 / e1))
    return rows
