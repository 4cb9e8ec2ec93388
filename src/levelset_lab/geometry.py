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

TWO_PI = 2.0 * np.pi
# DomainSpec.reference counts points up to this far outside s in [0, 1] as inside.
_S_TOL = 1e-9
# On a disk, the map's derivatives are read at s >= DISK_S_FLOOR, off the singular centre.
DISK_S_FLOOR = 1e-9


def winding_number(angles) -> int:
    """Turns made by a closed sequence of angles (first not repeated): the
    increments, each wrapped into [-pi, pi), sum to 2 pi times this integer,
    up to round-off."""
    inc = np.diff(np.concatenate([angles, angles[:1]]))
    inc = np.mod(inc + np.pi, TWO_PI) - np.pi
    return round(float(np.sum(inc) / TWO_PI))


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
    def blend(self, theta, s, order: int = 0):
        """The blend of the order-th theta derivatives of the two radii and
        its s derivative at (theta, s): (R, R_s) for order 0, (R_theta,
        R_thetas) for 1 and (R_thetatheta, R_thetathetas) for 2.  Callers
        ask only for the orders they read: each costs two curve evaluations."""
        ri, re_ = self.inner, self.exterior
        r0, r1 = ((c.radius, c.radius_d1, c.radius_d2)[order](theta) for c in (ri, re_))
        return (1.0 - s) * r0 + s * r1, r1 - r0

    def map_point(self, theta, s):
        theta = np.asarray(theta, dtype=float)
        R = self.blend(theta, np.asarray(s, dtype=float))[0]
        return R * np.cos(theta), R * np.sin(theta)

    def _jacobian(self, theta, s):
        """R, R_theta, R_s and R_thetas, cos and sin of theta, and the dict
        of Jacobian entries of the map and first derivatives of its inverse."""
        theta = np.asarray(theta, dtype=float)
        s = np.asarray(s, dtype=float)
        R, Rs = self.blend(theta, s)
        Rt, Rts = self.blend(theta, s, 1)
        c, sn = np.cos(theta), np.sin(theta)
        x_t = Rt * c - R * sn
        y_t = Rt * sn + R * c
        x_s = Rs * c
        y_s = Rs * sn
        det = x_t * y_s - x_s * y_t  # equals -R * Rs
        return (R, Rt, Rs, Rts), c, sn, {
            "x_t": x_t, "y_t": y_t, "x_s": x_s, "y_s": y_s,
            "det": det,
            "t_x": y_s / det, "t_y": -x_s / det, "s_x": -y_t / det, "s_y": x_t / det,
        }

    def inverse_jacobian(self, theta, s) -> dict:
        """The Jacobian entries and the inverse-map first derivatives
        (theta_x, ..., s_y) at (theta, s): the part of `metric` that a
        physical gradient needs."""
        return self._jacobian(theta, s)[3]

    def metric(self, theta, s) -> dict:
        """Map derivatives and inverse-map derivatives at (theta, s).

        Returns arrays for x, y, the Jacobian entries, the inverse-map
        first derivatives (theta_x, ..., s_y) and second derivatives
        (theta_xx, theta_xy, theta_yy, s_xx, s_xy, s_yy).
        """
        theta, s = np.asarray(theta, dtype=float), np.asarray(s, dtype=float)
        (R, Rt, Rs, Rts), c, sn, out = self._jacobian(theta, s)
        Rtt = self.blend(theta, s, 2)[0]
        out["x"] = R * c
        out["y"] = R * sn
        x_tt = Rtt * c - 2.0 * Rt * sn - R * c
        y_tt = Rtt * sn + 2.0 * Rt * c - R * sn
        x_ts = Rts * c - Rs * sn
        y_ts = Rts * sn + Rs * c
        t_x, t_y, s_x, s_y = out["t_x"], out["t_y"], out["s_x"], out["s_y"]
        # second derivatives of the inverse map:
        #   xi_(ab) = - sum_{beta,gamma} T^xi_(beta gamma) xi^beta_a xi^gamma_b
        # with T^xi_(bg) = xi_x * x_(bg) + xi_y * y_(bg); x_ss = y_ss = 0.
        for name, g_x, g_y in (("t", t_x, t_y), ("s", s_x, s_y)):
            T_tt = g_x * x_tt + g_y * y_tt
            T_ts = g_x * x_ts + g_y * y_ts
            out[f"{name}_xx"] = -(T_tt * t_x * t_x + 2.0 * T_ts * t_x * s_x)
            out[f"{name}_xy"] = -(T_tt * t_x * t_y + T_ts * (t_x * s_y + s_x * t_y))
            out[f"{name}_yy"] = -(T_tt * t_y * t_y + 2.0 * T_ts * t_y * s_y)
        return out

    # ------------------------------------------------------------- invert
    def reference(self, x, y):
        """(theta, s, inside) of physical points: theta = atan2(y, x) wrapped
        to [0, 2pi), s from the blend, which is linear in s and so solves in
        closed form, clipped to [0, 1]; inside where the point lies within
        _S_TOL of s in [0, 1].  This is the one inside rule of the package."""
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        theta = np.mod(np.arctan2(y, x), TWO_PI)
        r0 = self.inner.radius(theta)
        s = (np.hypot(x, y) - r0) / (self.exterior.radius(theta) - r0)
        inside = (s >= -_S_TOL) & (s <= 1.0 + _S_TOL)
        return theta, np.clip(s, 0.0, 1.0), inside
