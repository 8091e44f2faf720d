"""Small numerical kernels: damped/equilibrated Newton, scalar root polish,
finite differences, Jacobian chain products, frame orthonormalization,
eigenvalue bookkeeping.

Everything here is deterministic and allocation-light; the dynamical modules
call these in inner loops.
"""

from __future__ import annotations

import math
from typing import Any, Callable

import numpy as np

from .errors import ConvergenceError, NumericalError

Array = np.ndarray


def fd_jacobian(f: Callable[[Array], Array], u: Array, scales: Array | None = None,
                rel_step: float = 1e-7) -> Array:
    """Central finite-difference Jacobian of ``f`` at ``u``.

    ``scales`` sets the magnitude floor per variable so offsets of very
    different sizes (eta ~ lambda^k vs mu ~ 1) all get sensible steps.
    Probes that step outside a map's domain fall back to one-sided
    differences; when every probe of a variable leaves the domain the
    Jacobian is unknown there and ConvergenceError names the variable.
    """
    u = np.asarray(u, dtype=float)
    f0 = np.asarray(f(u), dtype=float)
    n, m = u.size, f0.size
    if scales is None:
        scales = np.ones(n)
    J = np.empty((m, n))
    for i in range(n):
        h = rel_step * max(abs(u[i]), scales[i])
        up = u.copy()
        um = u.copy()
        up[i] += h
        um[i] -= h
        try:
            J[:, i] = (np.asarray(f(up)) - np.asarray(f(um))) / (2.0 * h)
            continue
        except NumericalError:
            pass
        try:
            J[:, i] = (np.asarray(f(up)) - f0) / h
            continue
        except NumericalError:
            pass
        try:
            J[:, i] = (f0 - np.asarray(f(um))) / h
        except NumericalError:
            raise ConvergenceError(f"fd_jacobian: every probe of variable {i} "
                                   "left the domain", seed=u) from None
    return J


def newton_solve(f: Callable[[Array], Array], u0: Array, *,
                 scales: Array | None = None,
                 tol: float | Array = 1e-13,
                 accept_tol: float | Array | None = None,
                 max_iter: int = 40,
                 damping: float = 1.0,
                 jac_reuse: int = 1,
                 name: str = "newton") -> tuple[Array, float, int]:
    """Newton iteration with FD Jacobian and row/column equilibration.

    ``tol`` may be per-component (residuals of mixed character, e.g. absolute
    closure errors next to normalized derivative conditions).  If the
    residual stalls above ``tol`` but below ``accept_tol`` (float-noise floor
    of deeply composed maps), the best iterate is returned instead of
    raising.  Raises ConvergenceError with the seed and last residual
    otherwise.  ``jac_reuse`` > 1 switches to a modified Newton that
    refreshes the FD Jacobian only every so many iterations (the cycle
    solvers' evaluations are expensive).  The equilibration matters: closure
    systems mix residual scales from O(1) down to O(gamma^-k).
    """
    u = np.asarray(u0, dtype=float).copy()
    scales_arr = None if scales is None else np.asarray(scales, dtype=float)
    tol_arr = np.atleast_1d(np.asarray(tol, dtype=float))
    accept = tol_arr if accept_tol is None else np.atleast_1d(np.asarray(accept_tol, dtype=float))

    def _score(F: Array) -> float:
        return float(np.max(np.abs(F) / tol_arr))

    best_u, best_res = u.copy(), np.inf
    F = np.asarray(f(u), dtype=float)
    fact = None
    window_best = np.inf
    for it in range(max_iter):
        res = _score(F)
        if not np.isfinite(res):
            raise ConvergenceError(f"{name}: residual became non-finite", residual=res, seed=u0)
        if res < best_res:
            best_u, best_res = u.copy(), res
        if np.all(np.abs(F) < tol_arr):
            return u, float(np.max(np.abs(F))), it
        if it % 12 == 11:
            if it >= 23 and best_res > 0.8 * window_best:
                break  # progress died at the float noise floor
            window_best = best_res
        fresh = fact is None or it % jac_reuse == 0
        if fresh:
            J = fd_jacobian(f, u, scales=scales_arr)
            # equilibrate rows then columns to tame the gamma^k dynamic range
            r = np.max(np.abs(J), axis=1)
            r[r == 0.0] = 1.0
            Jr = J / r[:, None]
            c = np.max(np.abs(Jr), axis=0)
            c[c == 0.0] = 1.0
            fact = (Jr / c[None, :], r, c)
        Jrc, r, c = fact
        try:
            step = np.linalg.solve(Jrc, -F / r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(Jrc, -F / r, rcond=None)
        step = damping * (step / c)
        # backtrack on evaluations that leave the maps' domains or that
        # balloon the residual (loose safeguard; quadratic convergence near
        # the root is monotone anyway)
        alpha = 1.0
        ok = False
        fallback = None
        for _ in range(20):
            try:
                F_new = np.asarray(f(u + alpha * step), dtype=float)
            except NumericalError:
                alpha *= 0.5
                continue
            if np.all(np.isfinite(F_new)):
                if _score(F_new) <= 3.0 * res:
                    ok = True
                    break
                if fallback is None:
                    fallback = (alpha, F_new)
            alpha *= 0.5
        if not ok and fallback is not None:
            alpha, F_new = fallback
            ok = True
        if not ok:
            if not fresh:
                fact = None  # stale direction was garbage; refresh and retry
                continue
            raise ConvergenceError(f"{name}: step landed outside the domain",
                                   residual=best_res, seed=u0)
        u = u + alpha * step
        F = F_new
    res = _score(F)
    if res < best_res:
        best_u, best_res = u.copy(), res
    F_best = np.asarray(f(best_u), dtype=float)
    if np.all(np.abs(F_best) < accept):
        return best_u, float(np.max(np.abs(F_best))), max_iter
    raise ConvergenceError(f"{name}: no convergence after {max_iter} iterations "
                           f"(residual {np.max(np.abs(F_best)):.3e})",
                           residual=float(np.max(np.abs(F_best))), seed=u0)


NEWTON_1D_MAX_ITER = 60


def newton_1d(f: Callable[[float], tuple[float, float, Any]], t0: float, *,
              tol: float, accept_tol: float | None = None,
              name: str) -> tuple[float, float, float, Any, int]:
    """Scalar Newton root polish on ``f(t) -> (value, slope, payload)``.

    Takes the plain step first, then the small-root quadratic step
    -2 f / (f' + sign(f') sqrt(f'^2 - 2 f'' f)) once a secant curvature f''
    is available: near the folds of the forge's composed maps |f''| grows
    like gamma^(j+k), and a plain step overshoots at once.  A step on which ``f`` raises
    NumericalError (it left a map's domain) is halved, at most 20 times.
    Returns ``(t, value, slope, payload, evaluations)`` at the first t with
    |value| < tol; after NEWTON_1D_MAX_ITER steps, |value| < accept_tol is
    accepted too.  Raises ConvergenceError naming ``name`` otherwise, or on a
    flat or non-finite spot or a domain trap.
    """
    t = t0
    val, slope, payload = f(t)
    evals = 1
    t_prev = slope_prev = None
    for _ in range(NEWTON_1D_MAX_ITER):
        if abs(val) < tol:
            return float(t), val, slope, payload, evals
        if slope == 0.0 or not math.isfinite(val):
            raise ConvergenceError(f"{name}: hit a flat or non-finite spot",
                                   residual=abs(val), seed=t0)
        step = -val / slope
        if t_prev is not None and t != t_prev:
            d2 = (slope - slope_prev) / (t - t_prev)
            disc = slope * slope - 2.0 * d2 * val
            if d2 != 0.0 and disc > 0.0:
                step = -2.0 * val / (slope + math.copysign(math.sqrt(disc), slope))
        for _ in range(20):
            try:
                new = f(t + step)
                break
            except NumericalError:
                step *= 0.5
        else:
            raise ConvergenceError(f"{name}: trapped at a domain edge",
                                   residual=abs(val), seed=t0)
        evals += 1
        t_prev, slope_prev = t, slope
        t = t + step
        val, slope, payload = new
    if accept_tol is not None and abs(val) < accept_tol:
        return float(t), val, slope, payload, evals
    raise ConvergenceError(f"{name}: no convergence after {NEWTON_1D_MAX_ITER} steps "
                           f"(residual {abs(val):.3e})", residual=abs(val), seed=t0)


def chain_product(chain: Array, M: Array | None = None) -> Array:
    """The product chain[-1] @ ... @ chain[0] @ M of a chain of step
    Jacobians, multiplied in step order; M is the identity when None."""
    if M is None:
        M = np.eye(chain.shape[1])
    for J in chain:
        M = J @ M
    return M


def orthonormal_frame(V: Array) -> Array:
    """Orthonormalize the columns of ``V`` (thin QR with sign fixing).

    One nonzero column is divided by its norm: that is the QR frame, with
    an error relative to each component rather than to ||V||.
    """
    if V.shape[1] == 1:
        norm = np.linalg.norm(V)
        if norm > 0.0:
            return V / norm
    Q, R = np.linalg.qr(V)
    # fix signs so the frame depends continuously on V
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    return Q * signs[None, :]


def sorted_eigvals(M: Array) -> Array:
    """Eigenvalues of ``M`` sorted by decreasing modulus (ties by real part)."""
    w = np.linalg.eigvals(M)
    order = np.lexsort((-w.real, -np.abs(w)))
    return w[order]
