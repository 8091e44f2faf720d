"""Iterates of the local map in direct and cross (boundary-value) form.

The cross form solves for the orbit segment connecting an entry plane to an
exit plane: given (x0, yk, z0) it finds the unique (xk, y0, zk) such that k
forward steps from (x0, y0, z0) land at (xk, yk, zk).  The y-equation is a
scalar contraction at rate |gamma|^-k, so a Newton polish of y0 with forward
shooting closes it quickly; the linear tier converges in one step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .numerics import newton_1d
from .saddle import SaddleModel, SplitVector, jacobian_along, orbit

Array = np.ndarray


def iterate_local(model: SaddleModel, p: SplitVector, k: int,
                  with_jacobian: bool = True) -> tuple[SplitVector, Array | None, Array]:
    """k-fold local map with chained Jacobian and the dense trajectory.

    Raises ItineraryError carrying the first step j at which the orbit leaves
    the validity box.  k = 0 returns the identity.
    """
    v = p.as_array()
    if np.max(np.abs(v)) > model.box:
        raise DomainError("starting point outside validity box")
    traj = orbit(model, v, k)
    J = jacobian_along(model, traj) if with_jacobian else None
    return SplitVector.from_array(traj[k]), J, traj


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


def solve_cross_form(model: SaddleModel, x0: float, yk: float, z0, k: int) -> CrossFormResult:
    """Solve the cross form: find (x_k, y_0, z_k) with prescribed (x0, yk, z0).

    Newton on y0 (the shooting derivative dyk/dy0 ~ gamma^k) from the linear
    guess yk / gamma^k; tolerance 1e-12 on |yk(y0) - yk|.
    """
    z0 = np.atleast_1d(np.asarray(z0, dtype=float))

    def shoot(y0: float) -> tuple[float, float, tuple[float, Array]]:
        y_end, slope, xk, zk = _forward_y(model, x0, y0, z0, k)
        return y_end - yk, slope, (xk, zk)

    y0, resid, _, (xk, zk), evals = newton_1d(
        shoot, yk / model.multipliers.gamma ** k, tol=1e-12, name=f"cross form k={k}")
    return CrossFormResult(xk, y0, zk, abs(resid), evals)


def strong_derivative_bounds(model: SaddleModel, p: SplitVector, k: int) -> tuple[float, float]:
    """Decay ratios of the strong-stable derivative blocks after k steps.

    Returns (||dx_k/dz_0|| / lambda0^k, ||dz_k/dz_0|| / lambda0^k); both stay
    bounded uniformly in k for admissible models.
    """
    _, J, _ = iterate_local(model, p, k)
    lam0 = model.multipliers.lambda0
    dx_dz = np.atleast_2d(J[0, 2:])
    dz_dz = J[2:, 2:]
    scale = lam0 ** k
    return (float(np.linalg.norm(dx_dz, 2)) / scale,
            float(np.linalg.norm(dz_dz, 2)) / scale)
