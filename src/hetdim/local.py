"""Iterates of the local map in cross (boundary-value) form; the direct
iterates are ``saddle.orbit``.

The cross form solves for the orbit segment connecting an entry plane to an
exit plane: given (x0, yk, z0) it finds the unique (xk, y0, zk) such that k
forward steps from (x0, y0, z0) land at (xk, yk, zk).  On the linear tier
y0 = yk / gamma^k in closed form, and one forward orbit gives xk and zk.  On
the nonlinear tiers the y-equation is a scalar contraction at rate
|gamma|^-k, so a Newton polish of y0 with forward shooting closes it quickly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import newton_1d
from .saddle import SaddleModel, jacobian_along, orbit, stay_exit

Array = np.ndarray


def _forward_y(model: SaddleModel, x0: float, y0: float, z0: Array, k: int) -> tuple[float, float, float, Array]:
    """Forward-shoot k steps; return (yk, dyk/dy0, xk, zk)."""
    traj = orbit(model, np.concatenate(([x0, y0], z0)), k)
    e_y = np.zeros(model.dim)
    e_y[1] = 1.0
    dy = jacobian_along(model, traj, e_y)
    v = traj[k]
    return float(v[1]), float(dy[1]), float(v[0]), v[2:]


@dataclass(frozen=True)
class CrossFormResult:
    x_k: float
    y_0: float
    z_k: Array
    residual: float
    iterations: int


def solve_cross_form(model: SaddleModel, x0, yk, z0, k: int) -> CrossFormResult:
    """Solve the cross form: find (x_k, y_0, z_k) with prescribed (x0, yk, z0).

    On the linear tier y0 = yk / gamma^k, and x_k, z_k come from one
    ``stay_exit`` from (x0, y0, z0): its y_k misses yk by a few ulps, far below
    the 1e-12 tolerance, so the result is the one shooting would return
    after its first evaluation (iterations 1).  The nonlinear tiers polish y0
    by Newton (the shooting derivative dyk/dy0 ~ gamma^k) from that guess;
    tolerance 1e-12 on |yk(y0) - yk|.  ItineraryError when the orbit leaves
    the box.  On the linear tier, (N,) arrays x0 and yk with an (N, D-2)
    z0 solve N cross forms in one ``stay_exit`` block: each row of the
    result's arrays is its point call's, bit for bit, and NaN throughout
    where that call raises.  k may then be an (N,) array, one stay per row.
    """
    gamma = model.multipliers.gamma
    # each row's gamma^k with the scalar power of its point call
    y0 = yk / (np.array([gamma ** n for n in k.tolist()]) if isinstance(k, np.ndarray)
               else gamma ** k)
    if model.nonlinearity.kind == "linear":
        if getattr(x0, "ndim", 0):
            v = stay_exit(model, np.column_stack((x0, y0, z0)), k)
            y0[np.isnan(v[:, 0])] = np.nan
            return CrossFormResult(v[:, 0], y0, v[:, 2:], np.abs(v[:, 1] - yk), 1)
        v = stay_exit(model, np.concatenate(([x0, y0], np.atleast_1d(z0))), k)
        return CrossFormResult(float(v[0]), float(y0), v[2:], abs(float(v[1]) - yk), 1)
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))
    y0 = float(y0)

    def shoot(y0: float) -> tuple[float, float, tuple[float, Array]]:
        y_end, slope, xk, zk = _forward_y(model, x0, y0, z0, k)
        return y_end - yk, slope, (xk, zk)

    y0, resid, _, (xk, zk), evals = newton_1d(shoot, y0, tol=1e-12, name=f"cross form k={k}")
    return CrossFormResult(xk, y0, zk, abs(resid), evals)


def strong_derivative_bounds(model: SaddleModel, v: Array, k: int) -> tuple[float, float]:
    """Decay ratios of the strong-stable derivative blocks after k steps from
    the flat (D,) point v.

    Returns (||dx_k/dz_0|| / lambda0^k, ||dz_k/dz_0|| / lambda0^k); both stay
    bounded uniformly in k for admissible models.
    """
    J = jacobian_along(model, orbit(model, v, k))
    lam0 = model.multipliers.lambda0
    dx_dz = np.atleast_2d(J[0, 2:])
    dz_dz = J[2:, 2:]
    scale = lam0 ** k
    return (float(np.linalg.norm(dx_dz, 2)) / scale,
            float(np.linalg.norm(dz_dz, 2)) / scale)
