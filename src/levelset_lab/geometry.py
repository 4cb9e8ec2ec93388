"""Domain geometry: polar-graph boundary curves and the radial reference map.

The reference domain is the rectangle (theta, s) in [0, 2pi) x [0, 1];
physical points follow the radial blend

    R(theta, s) = (1 - s) * r_I(theta) + s * r_E(theta),
    x = R cos(theta),  y = R sin(theta).

Simply connected (disk-like) domains use r_I == 0, so s = 0 collapses to
the centre point.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import expressions as ex
from .errors import OutsideDomainError, SingularMapError

TWO_PI = 2.0 * np.pi


def winding_turns(angles) -> float:
    """Turns made by a closed sequence of angles (first not repeated): the
    increments, each wrapped into [-pi, pi), summed and divided by 2 pi."""
    inc = np.diff(np.concatenate([angles, angles[:1]]))
    inc = np.mod(inc + np.pi, TWO_PI) - np.pi
    return float(np.sum(inc) / TWO_PI)


@dataclass(frozen=True)
class BoundaryCurve:
    """Polar-graph boundary r = radius_expr(theta)."""

    radius_expr: tuple
    source: str

    def radius(self, theta):
        return ex.evaluate_theta(self.radius_expr, theta)

    def radius_d1(self, theta):
        return ex.evaluate_theta(self._d1, theta)

    def radius_d2(self, theta):
        return ex.evaluate_theta(self._d2, theta)

    @property
    def _d1(self):
        return ex.differentiate(self.radius_expr, "theta")

    @property
    def _d2(self):
        return ex.differentiate(self._d1, "theta")

    @staticmethod
    def from_source(src: str) -> "BoundaryCurve":
        return BoundaryCurve(ex.parse_expression(src), src)


_ZERO_CURVE = BoundaryCurve(("num", 0.0), "0")


@dataclass(frozen=True)
class DomainSpec:
    """Annulus (interior + exterior curve) or disk-like domain (exterior only)."""

    exterior: BoundaryCurve
    interior: BoundaryCurve | None = None

    @property
    def is_disk(self) -> bool:
        return self.interior is None

    @property
    def inner(self) -> BoundaryCurve:
        return self.interior if self.interior is not None else _ZERO_CURVE

    def diameter(self) -> float:
        theta = np.linspace(0.0, TWO_PI, 2048, endpoint=False)
        return 2.0 * float(np.max(self.exterior.radius(theta)))

    # ---------------------------------------------------------------- map
    def blend(self, theta, s):
        """R, R_theta, R_s, R_thetatheta, R_thetas at (theta, s)."""
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        ri, re_ = self.inner, self.exterior
        r0, r1 = ri.radius(theta), re_.radius(theta)
        d0, d1 = ri.radius_d1(theta), re_.radius_d1(theta)
        dd0, dd1 = ri.radius_d2(theta), re_.radius_d2(theta)
        R = (1.0 - s) * r0 + s * r1
        Rt = (1.0 - s) * d0 + s * d1
        Rs = r1 - r0
        Rtt = (1.0 - s) * dd0 + s * dd1
        Rts = d1 - d0
        return R, Rt, Rs, Rtt, Rts

    def map_point(self, theta, s):
        R = self.blend(theta, s)[0]
        return R * np.cos(theta), R * np.sin(theta)

    def metric(self, theta, s) -> dict:
        """Map derivatives and inverse-map derivatives at (theta, s).

        Returns arrays for x, y, the Jacobian entries, the inverse-map
        first derivatives (theta_x, ..., s_y) and second derivatives
        (theta_xx, theta_xy, theta_yy, s_xx, s_xy, s_yy).
        """
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        R, Rt, Rs, Rtt, Rts = self.blend(theta, s)
        c, sn = np.cos(theta), np.sin(theta)
        x = R * c
        y = R * sn
        x_t = Rt * c - R * sn
        y_t = Rt * sn + R * c
        x_s = Rs * c
        y_s = Rs * sn
        x_tt = Rtt * c - 2.0 * Rt * sn - R * c
        y_tt = Rtt * sn + 2.0 * Rt * c - R * sn
        x_ts = Rts * c - Rs * sn
        y_ts = Rts * sn + Rs * c
        det = x_t * y_s - x_s * y_t  # equals -R * Rs
        t_x = y_s / det
        t_y = -x_s / det
        s_x = -y_t / det
        s_y = x_t / det
        # second derivatives of the inverse map:
        #   xi_(ab) = - sum_{beta,gamma} T^xi_(beta gamma) xi^beta_a xi^gamma_b
        # with T^xi_(bg) = xi_x * x_(bg) + xi_y * y_(bg); x_ss = y_ss = 0.
        out = {
            "x": x, "y": y,
            "x_t": x_t, "y_t": y_t, "x_s": x_s, "y_s": y_s,
            "det": det,
            "t_x": t_x, "t_y": t_y, "s_x": s_x, "s_y": s_y,
        }
        for name, g_x, g_y in (("t", t_x, t_y), ("s", s_x, s_y)):
            T_tt = g_x * x_tt + g_y * y_tt
            T_ts = g_x * x_ts + g_y * y_ts
            out[f"{name}_xx"] = -(T_tt * t_x * t_x + 2.0 * T_ts * t_x * s_x)
            out[f"{name}_xy"] = -(T_tt * t_x * t_y + T_ts * (t_x * s_y + s_x * t_y))
            out[f"{name}_yy"] = -(T_tt * t_y * t_y + 2.0 * T_ts * t_y * s_y)
        return out

    def map_reference(self, ref_pt):
        """Physical point and Jacobian d(x,y)/d(theta,s) at one reference point.

        Raises SingularMapError when |det J| < 1e-14 (disk centre).
        """
        theta, s = ref_pt
        R, Rt, Rs, _, _ = self.blend(theta, s)
        c, sn = np.cos(theta), np.sin(theta)
        point = (float(R * c), float(R * sn))
        J = np.array([[Rt * c - R * sn, Rs * c], [Rt * sn + R * c, Rs * sn]], dtype=float)
        if abs(float(np.linalg.det(J))) < 1e-14:
            raise SingularMapError(f"map Jacobian singular at theta={float(theta)!r}, s={float(s)!r}")
        return point, J

    # ------------------------------------------------------------- invert
    def invert_point(self, x, y, s_tol: float = 1e-9):
        """Reference coordinates (theta, s) of physical points.

        theta = atan2(y, x) wrapped to [0, 2pi); the blend is linear in s so
        the radial equation solves in closed form.  Raises OutsideDomainError
        when any point falls outside s in [0, 1] (within `s_tol`).
        """
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        theta = np.mod(np.arctan2(y, x), TWO_PI)
        rho = np.hypot(x, y)
        r0 = self.inner.radius(theta)
        r1 = self.exterior.radius(theta)
        s = (rho - r0) / (r1 - r0)
        if np.any(s < -s_tol) or np.any(s > 1.0 + s_tol):
            worst = float(np.max(np.abs(s - 0.5)) - 0.5)
            raise OutsideDomainError(f"point outside domain (s overflow {worst:.3e})")
        return theta, np.clip(s, 0.0, 1.0)

    def contains(self, x, y, margin: float = 0.0) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        theta = np.mod(np.arctan2(y, x), TWO_PI)
        rho = np.hypot(x, y)
        r0 = self.inner.radius(theta)
        r1 = self.exterior.radius(theta)
        s = (rho - r0) / (r1 - r0)
        lo = margin if not self.is_disk else 0.0
        return (s >= lo) & (s <= 1.0 - margin)


def map_reference(spec: DomainSpec, ref_pt):
    """Module-level convenience wrapper around DomainSpec.map_reference."""
    return spec.map_reference(ref_pt)
