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

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from . import expressions as ex
from .domain import ScenarioSpec, ToleranceSet
from .errors import AssemblyError, NoConvergenceError
from .geometry import TWO_PI

_DISK_S_FLOOR = 1e-9

# Level-set routines read u on the solve grid refined this many times in
# each direction.
REFINE = 2

# Hermite-to-monomial matrix: p(xi) = [1, xi, xi^2, xi^3] . (A @ [f0, f1, m0, m1])
_HERMITE_A = np.array([
    [1.0, 0.0, 0.0, 0.0],
    [0.0, 0.0, 1.0, 0.0],
    [-3.0, 3.0, -2.0, -1.0],
    [2.0, -2.0, 1.0, 1.0],
])


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
    """Sparse linear system for one scenario on one grid."""

    spec: ScenarioSpec
    n_theta: int
    n_s: int
    matrix: sp.csr_matrix
    rhs: np.ndarray
    dirichlet_mask: np.ndarray
    is_disk: bool
    node_theta: np.ndarray  # (n_theta, n_s + 1)
    node_s: np.ndarray
    node_x: np.ndarray
    node_y: np.ndarray
    c_values: np.ndarray    # zeroth-order coefficient at the nodes

    @property
    def size(self) -> int:
        return self.matrix.shape[0]

    def interior_rows(self) -> np.ndarray:
        return np.where(~self.dirichlet_mask)[0]

    def is_m_matrix(self, tol: float = 1e-12) -> bool:
        """True when every interior row of -A has a positive diagonal and
        non-positive off-diagonal entries (discrete maximum principle)."""
        A = self.matrix.tocsr()
        scale = float(np.max(np.abs(A.data))) or 1.0
        for row in self.interior_rows():
            lo, hi = A.indptr[row], A.indptr[row + 1]
            cols = A.indices[lo:hi]
            vals = -A.data[lo:hi]
            diag = vals[cols == row]
            if diag.size != 1 or diag[0] <= 0:
                return False
            if np.any(vals[cols != row] > tol * scale):
                return False
        return True


def _grid_nodes(spec: ScenarioSpec):
    nt, ns = spec.grid
    theta = np.arange(nt) * (TWO_PI / nt)
    s = np.arange(ns + 1) / ns
    T, S = np.meshgrid(theta, s, indexing="ij")
    return T, S


def assemble(spec: ScenarioSpec) -> DiscreteSystem:
    """Discretize the operator on the scenario grid."""
    nt, ns = spec.grid
    dtheta = TWO_PI / nt
    ds = 1.0 / ns
    is_disk = spec.domain.is_disk

    T, S = _grid_nodes(spec)
    S_eval = np.maximum(S, _DISK_S_FLOOR) if is_disk else S
    met = spec.domain.metric(T, S_eval)
    X, Y = met["x"], met["y"]
    co = spec.operator.coefficients_at(X, Y)

    a11, a12, a22 = co["a11"], co["a12"], co["a22"]
    t_x, t_y, s_x, s_y = met["t_x"], met["t_y"], met["s_x"], met["s_y"]
    A_tt = a11 * t_x ** 2 + 2.0 * a12 * t_x * t_y + a22 * t_y ** 2
    A_ts = a11 * t_x * s_x + a12 * (t_x * s_y + t_y * s_x) + a22 * t_y * s_y
    A_ss = a11 * s_x ** 2 + 2.0 * a12 * s_x * s_y + a22 * s_y ** 2
    B_t = a11 * met["t_xx"] + 2.0 * a12 * met["t_xy"] + a22 * met["t_yy"] + co["b1"] * t_x + co["b2"] * t_y
    B_s = a11 * met["s_xx"] + 2.0 * a12 * met["s_xy"] + a22 * met["s_yy"] + co["b1"] * s_x + co["b2"] * s_y
    C0 = co["c"]

    interior_j = slice(1, ns)
    for arr, label in ((A_tt, "A_tt"), (A_ts, "A_ts"), (A_ss, "A_ss"), (B_t, "B_t"), (B_s, "B_s"), (C0, "c")):
        if not np.all(np.isfinite(arr[:, interior_j])):
            raise AssemblyError(f"non-finite metric/coefficient term {label}")

    size = 1 + nt * ns if is_disk else nt * (ns + 1)

    def index_grid(i_arr, j_arr):
        i_arr = np.mod(i_arr, nt)
        if not is_disk:
            return j_arr * nt + i_arr
        return np.where(j_arr == 0, 0, 1 + (j_arr - 1) * nt + i_arr)

    I, J = np.meshgrid(np.arange(nt), np.arange(1, ns), indexing="ij")
    rows_idx = index_grid(I, J)
    att, ats, ass = A_tt[:, 1:ns], A_ts[:, 1:ns], A_ss[:, 1:ns]
    bt, bs, c0 = B_t[:, 1:ns], B_s[:, 1:ns], C0[:, 1:ns]

    stencil = [
        (1, 0, att / dtheta ** 2 + bt / (2.0 * dtheta)),
        (-1, 0, att / dtheta ** 2 - bt / (2.0 * dtheta)),
        (0, 1, ass / ds ** 2 + bs / (2.0 * ds)),
        (0, -1, ass / ds ** 2 - bs / (2.0 * ds)),
        (1, 1, ats / (2.0 * dtheta * ds)),
        (-1, -1, ats / (2.0 * dtheta * ds)),
        (1, -1, -ats / (2.0 * dtheta * ds)),
        (-1, 1, -ats / (2.0 * dtheta * ds)),
        (0, 0, -2.0 * att / dtheta ** 2 - 2.0 * ass / ds ** 2 + c0),
    ]
    rows, cols, data = [], [], []
    for di, dj, w in stencil:
        rows.append(rows_idx.ravel())
        cols.append(index_grid(I + di, J + dj).ravel())
        data.append(w.ravel())

    rhs = np.zeros(size)
    dirichlet = np.zeros(size, dtype=bool)

    def add_dirichlet(j: int, expr):
        idx = index_grid(np.arange(nt), np.full(nt, j))
        rows.append(idx)
        cols.append(idx)
        data.append(np.ones(nt))
        values = ex.evaluate_xy(expr, X[:, j], Y[:, j])
        rhs[idx] = values
        dirichlet[idx] = True

    add_dirichlet(ns, spec.psi_exterior)
    if not is_disk:
        add_dirichlet(0, spec.psi_interior)
    else:
        # centre row: weights over {centre} + first ring matching L on quadratics
        ring_x, ring_y = X[:, 1], Y[:, 1]
        cc = spec.operator.coefficients_at(np.array([0.0]), np.array([0.0]))
        pts_x = np.concatenate(([0.0], ring_x))
        pts_y = np.concatenate(([0.0], ring_y))
        M = np.stack([
            np.ones_like(pts_x), pts_x, pts_y,
            pts_x ** 2, pts_x * pts_y, pts_y ** 2,
        ])
        target = np.array([
            float(cc["c"][0]),
            float(cc["b1"][0]), float(cc["b2"][0]),
            2.0 * float(cc["a11"][0]), 2.0 * float(cc["a12"][0]), 2.0 * float(cc["a22"][0]),
        ])
        weights, *_ = np.linalg.lstsq(M, target, rcond=None)
        rows.append(np.zeros(nt + 1, dtype=int))
        cols.append(np.concatenate(([0], index_grid(np.arange(nt), np.ones(nt, dtype=int)))))
        data.append(weights)

    A = sp.coo_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
        shape=(size, size),
    ).tocsr()
    A.sum_duplicates()

    return DiscreteSystem(
        spec=spec, n_theta=nt, n_s=ns, matrix=A, rhs=rhs, dirichlet_mask=dirichlet,
        is_disk=is_disk, node_theta=T, node_s=S, node_x=X, node_y=Y, c_values=C0,
    )


def solve(system: DiscreteSystem, tol: float | None = None) -> "SolutionField":
    """Direct sparse solve with a residual check."""
    if tol is None:
        tol = system.spec.tolerances.linear_residual_tol
    try:
        lu = spla.splu(system.matrix.tocsc())
        u = lu.solve(system.rhs)
    except RuntimeError as err:
        raise NoConvergenceError(0, float("inf"), f"sparse factorization failed: {err}")
    if not np.all(np.isfinite(u)):
        raise NoConvergenceError(0, float("inf"), "solution contains non-finite values")
    bnorm = float(np.linalg.norm(system.rhs))
    residual = float(np.linalg.norm(system.matrix @ u - system.rhs))
    rel = residual / bnorm if bnorm > 0 else residual
    if rel > tol:
        raise NoConvergenceError(1, rel, "direct solve residual above tolerance")
    # Dirichlet rows are identities; pin them exactly to remove LU rounding
    u[system.dirichlet_mask] = system.rhs[system.dirichlet_mask]

    nt, ns = system.n_theta, system.n_s
    values = np.empty((nt, ns + 1))
    if system.is_disk:
        values[:, 0] = u[0]
        values[:, 1:] = u[1:].reshape(ns, nt).T
    else:
        values[:, :] = u.reshape(ns + 1, nt).T
    return SolutionField(system.spec, values, residual=rel)


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


def resolve_tolerances(field: "SolutionField", tol: ToleranceSet | None = None) -> ResolvedTolerances:
    """Fill scale-aware defaults: gradient threshold from the field range and
    domain diameter, dedup radius from three median grid cells.  Without
    `tol` the field's own tolerance set is resolved, once per field."""
    if tol is None:
        if field._tolerances is None:
            field._tolerances = resolve_tolerances(field, field.spec.tolerances)
        return field._tolerances
    rng = field.u_range()
    diam = field.diameter()
    scale = rng if rng > 0 else 1.0
    return ResolvedTolerances(
        grad_zero_tol=tol.grad_zero_tol if tol.grad_zero_tol is not None else 1e-6 * scale / diam,
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


class SolutionField:
    """Discrete solution on the reference grid plus a C^1 interpolant.

    Everything derived from the solved values (interpolant coefficients,
    node geometry, refined lattice, default tolerances) is computed on
    first use and cached with the field; cached arrays are read-only.
    """

    def __init__(self, spec: ScenarioSpec, values: np.ndarray, residual: float = 0.0):
        nt, ns = spec.grid
        values = np.asarray(values, dtype=float)
        if values.shape != (nt, ns + 1):
            raise ValueError(f"values shape {values.shape} does not match grid {(nt, ns + 1)}")
        self.spec = spec
        self.values = values
        self.residual = residual
        self.n_theta = nt
        self.n_s = ns
        self.dtheta = TWO_PI / nt
        self.ds = 1.0 / ns
        self._coeffs = None
        self._node_grad = None
        self._nodes = None
        self._diagonals = None
        self._median_diag = None
        self._lattice = None
        self._tolerances = None

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

    def node_positions(self):
        """(theta, s, x, y) at the grid nodes, each (n_theta, n_s + 1)."""
        if self._nodes is None:
            T, S = _grid_nodes(self.spec)
            self._nodes = _frozen(T, S, *self.domain.map_point(T, S))
        return self._nodes

    def u_range(self) -> float:
        return float(np.max(self.values) - np.min(self.values))

    def diameter(self) -> float:
        return self.domain.diameter()

    def cell_diagonals(self) -> np.ndarray:
        """Physical diagonal length per cell (n_theta, n_s)."""
        if self._diagonals is None:
            _, _, X, Y = self.node_positions()
            dx = np.roll(X, -1, axis=0)[:, 1:] - X[:, :-1]
            dy = np.roll(Y, -1, axis=0)[:, 1:] - Y[:, :-1]
            (self._diagonals,) = _frozen(np.hypot(dx, dy))
        return self._diagonals

    def median_cell_diag(self) -> float:
        if self._median_diag is None:
            self._median_diag = float(np.median(self.cell_diagonals()))
        return self._median_diag

    def lattice(self) -> RefinedLattice:
        """u on the refined lattice that every level-set routine reads,
        evaluated once per field."""
        if self._lattice is None:
            nrt, nrs = REFINE * self.n_theta, REFINE * self.n_s
            theta = np.arange(nrt + 1) * (TWO_PI / nrt)
            s = np.arange(nrs + 1) / nrs
            # nodes and centres in separate calls: the per-point cell
            # coefficients of one call over both would double peak memory
            nodes = self._evaluate_grid(theta, s)
            centres = self._evaluate_grid((np.arange(nrt) + 0.5) * (TWO_PI / nrt), (np.arange(nrs) + 0.5) / nrs)
            self._lattice = RefinedLattice(*_frozen(theta, s, nodes, centres))
        return self._lattice

    def _evaluate_grid(self, theta, s) -> np.ndarray:
        """u at the tensor grid theta x s, shaped (len(theta), len(s))."""
        T, S = np.meshgrid(theta, s, indexing="ij")
        return self.evaluate_ref(T.ravel(), S.ravel()).reshape(T.shape)

    def interp_error_estimate(self) -> float:
        """Scale of the cell-interpolation error, from second differences."""
        u = self.values
        d2t = np.abs(np.roll(u, 1, axis=0) - 2.0 * u + np.roll(u, -1, axis=0))
        d2s = np.abs(u[:, :-2] - 2.0 * u[:, 1:-1] + u[:, 2:])
        est = max(float(np.max(d2t)), float(np.max(d2s)))
        return est / 8.0

    # ------------------------------------------------------- interpolation
    def _hermite(self):
        if self._coeffs is not None:
            return self._coeffs
        u = self.values
        ut = _axis_derivative_periodic(u, self.dtheta)
        us = _axis_derivative_bounded(u, self.ds)
        if self.domain.is_disk:
            # At the centre the radial derivative along the ray theta must be
            # the single vector field  R_s(theta) (u_x cos + u_y sin); project
            # the one-sided estimates onto that form so the interpolated
            # gradient is continuous through the centre.
            theta = np.arange(self.n_theta) * self.dtheta
            rs = self.domain.exterior.radius(theta)
            M = np.stack([rs * np.cos(theta), rs * np.sin(theta)], axis=1)
            coef, *_ = np.linalg.lstsq(M, us[:, 0], rcond=None)
            us[:, 0] = M @ coef
            ut[:, 0] = 0.0
        uts = _axis_derivative_periodic(us, self.dtheta)
        nt, ns = self.n_theta, self.n_s
        F = np.empty((nt, ns, 4, 4))
        ip1 = np.r_[1:nt, 0]

        def corner(arr, scale):
            # (nt, ns, 2, 2) array of [j, j+1] x [i, i+1] corner data
            return np.stack([
                np.stack([arr[:, :-1], arr[:, 1:]], axis=-1),
                np.stack([arr[ip1, :-1], arr[ip1, 1:]], axis=-1),
            ], axis=-2) * scale

        val = corner(u, 1.0)
        dsn = corner(us, self.ds)
        dtn = corner(ut, self.dtheta)
        dts = corner(uts, self.dtheta * self.ds)
        F[:, :, 0:2, 0:2] = val
        F[:, :, 0:2, 2:4] = dsn
        F[:, :, 2:4, 0:2] = dtn
        F[:, :, 2:4, 2:4] = dts
        A = _HERMITE_A
        self._coeffs = np.einsum("ab,ijbc,dc->ijad", A, F, A)
        return self._coeffs

    def _locate(self, theta, s):
        theta = np.mod(np.asarray(theta, dtype=float), TWO_PI)
        s = np.clip(np.asarray(s, dtype=float), 0.0, 1.0)
        i = np.minimum((theta / self.dtheta).astype(int), self.n_theta - 1)
        j = np.minimum((s / self.ds).astype(int), self.n_s - 1)
        xi = theta / self.dtheta - i
        eta = s / self.ds - j
        return i, j, xi, eta

    def evaluate_ref(self, theta, s, derivatives: bool = False):
        """Interpolated u (and reference derivatives) at reference points."""
        C = self._hermite()
        i, j, xi, eta = self._locate(theta, s)
        scalar = np.ndim(xi) == 0
        i, j, xi, eta = np.atleast_1d(i, j, xi, eta)
        cells = C[i, j]  # (K, 4, 4)
        X0 = np.stack([np.ones_like(xi), xi, xi ** 2, xi ** 3], axis=-1)
        E0 = np.stack([np.ones_like(eta), eta, eta ** 2, eta ** 3], axis=-1)
        u = np.einsum("ka,kab,kb->k", X0, cells, E0)
        if not derivatives:
            return u[0] if scalar else u
        X1 = np.stack([np.zeros_like(xi), np.ones_like(xi), 2.0 * xi, 3.0 * xi ** 2], axis=-1)
        X2 = np.stack([np.zeros_like(xi), np.zeros_like(xi), 2.0 * np.ones_like(xi), 6.0 * xi], axis=-1)
        E1 = np.stack([np.zeros_like(eta), np.ones_like(eta), 2.0 * eta, 3.0 * eta ** 2], axis=-1)
        E2 = np.stack([np.zeros_like(eta), np.zeros_like(eta), 2.0 * np.ones_like(eta), 6.0 * eta], axis=-1)
        out = {
            "u": u,
            "ut": np.einsum("ka,kab,kb->k", X1, cells, E0) / self.dtheta,
            "us": np.einsum("ka,kab,kb->k", X0, cells, E1) / self.ds,
            "utt": np.einsum("ka,kab,kb->k", X2, cells, E0) / self.dtheta ** 2,
            "uts": np.einsum("ka,kab,kb->k", X1, cells, E1) / (self.dtheta * self.ds),
            "uss": np.einsum("ka,kab,kb->k", X0, cells, E2) / self.ds ** 2,
        }
        if scalar:
            out = {k: v[0] for k, v in out.items()}
        return out

    # ------------------------------------------------------- physical eval
    def _invert(self, x, y):
        theta, s = self.domain.invert_point(x, y)
        if self.domain.is_disk:
            s = np.maximum(s, _DISK_S_FLOOR)
        return theta, s

    def evaluate(self, x, y):
        """Interpolated u at physical points; OutsideDomainError when outside."""
        theta, s = self._invert(x, y)
        return self.evaluate_ref(theta, s)

    def gradient(self, x, y):
        """Physical gradient (u_x, u_y) at physical points."""
        theta, s = self._invert(x, y)
        d = self.evaluate_ref(theta, s, derivatives=True)
        met = self.domain.metric(theta, s)
        gx = met["t_x"] * d["ut"] + met["s_x"] * d["us"]
        gy = met["t_y"] * d["ut"] + met["s_y"] * d["us"]
        return gx, gy

    def hessian(self, x, y):
        """Physical Hessian entries (u_xx, u_xy, u_yy)."""
        theta, s = self._invert(x, y)
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

    def node_gradients(self):
        """Physical gradient at every grid node (centre row zeroed for disks)."""
        if self._node_grad is not None:
            return self._node_grad
        u = self.values
        ut = _axis_derivative_periodic(u, self.dtheta)
        us = _axis_derivative_bounded(u, self.ds)
        T, S, _, _ = self.node_positions()
        S_eval = np.maximum(S, _DISK_S_FLOOR) if self.domain.is_disk else S
        met = self.domain.metric(T, S_eval)
        gx = met["t_x"] * ut + met["s_x"] * us
        gy = met["t_y"] * ut + met["s_y"] * us
        if self.domain.is_disk:
            gx[:, 0] = np.mean(gx[:, 0])
            gy[:, 0] = np.mean(gy[:, 0])
        self._node_grad = (gx, gy)
        return self._node_grad

    # ----------------------------------------------------------------- io
    def to_csv(self, path) -> None:
        T, S, X, Y = self.node_positions()
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("theta,s,x,y,u\n")
            for j in range(self.n_s + 1):
                for i in range(self.n_theta):
                    fh.write(f"{T[i, j]:.12g},{S[i, j]:.12g},{X[i, j]:.12g},{Y[i, j]:.12g},{self.values[i, j]:.12g}\n")


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
            exact = ref_field.evaluate_ref(T.ravel(), S.ravel()).reshape(T.shape)
        err = float(np.max(np.abs(fld.values - exact)))
        rows.append({"grid": (nt, ns), "error": err, "order": None})
    for k in range(1, len(rows)):
        e0, e1 = rows[k - 1]["error"], rows[k]["error"]
        if e1 > 0 and e0 > 0:
            rows[k]["order"] = float(np.log2(e0 / e1))
    return rows
