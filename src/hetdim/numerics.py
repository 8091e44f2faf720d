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


FD_REL_STEP = 1e-7


def fd_jacobian(f: Callable[[Array], Array], u: Array,
                scales: Array | None = None, block: bool = False) -> Array:
    """Central finite-difference Jacobian of ``f`` at ``u``.

    ``scales`` sets the magnitude floor per variable so offsets of very
    different sizes (eta ~ lambda^k vs mu ~ 1) all get sensible steps.
    The 2n probes u + h_i e_i, u - h_i e_i are the rows of one (2n, n)
    array, all evaluated first: with ``block`` in one call of ``f`` on that
    array, which returns their rows, NaN for a probe that raises; otherwise
    in one point call each, a probe that raises NumericalError giving a NaN
    row.  A probe whose row is not finite left the map's domain: its
    variable takes the one-sided difference of its other probe, and when
    both left, the Jacobian is unknown there and ConvergenceError names the
    variable.  ``f(u)`` itself is evaluated, as one more call, only for a
    one-sided difference: the Newton that asks for the Jacobian holds it.
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    h = FD_REL_STEP * np.maximum(np.abs(u), np.ones(n) if scales is None else scales)
    probes = np.repeat(u[None], 2 * n, axis=0)
    d = np.arange(n)
    probes[2 * d, d] += h
    probes[2 * d + 1, d] -= h
    if block:
        rows = np.asarray(f(probes), dtype=float)
    else:
        def point(p: Array) -> Array | float:
            try:
                return np.asarray(f(p), dtype=float)
            except NumericalError:
                return np.nan
        rows = np.array(np.broadcast_arrays(*(point(p) for p in probes)))
    rows = rows.reshape(2 * n, -1)
    ok = np.isfinite(rows).all(axis=1)
    J = (rows[0::2] - rows[1::2]) / (2.0 * h)[:, None]
    one_sided = np.flatnonzero(~(ok[0::2] & ok[1::2]))
    if one_sided.size:
        f0 = np.asarray(f(u[None]) if block else f(u), dtype=float).reshape(-1)
        ok0 = np.isfinite(f0).all()
        for i in one_sided.tolist():
            if ok0 and ok[2 * i]:
                J[i] = (rows[2 * i] - f0) / h[i]
            elif ok0 and ok[2 * i + 1]:
                J[i] = (f0 - rows[2 * i + 1]) / h[i]
            else:
                raise ConvergenceError(f"fd_jacobian: every probe of variable {i} "
                                       "left the domain", seed=u)
    return np.ascontiguousarray(J.T)


FOLD_ULPS = 256  # the ulps each floor probe moves its input


def fold_tol(f: Callable[[Array], Any], u: Array, ulps,
             least: float | Array = 1e-13, block: bool = False) -> float | Array:
    """The stop tolerance of a Newton whose rows ``f(u)`` land on a float
    floor: twice each row's floor at u, never below ``least``.  ``ulps``
    holds one step of u per probed input, each one ulp of that input; a
    row's floor is the sum of its changes over FOLD_ULPS such steps, per ulp.
    Below it a Newton only random-walks its unknowns.  Returns a float for a
    scalar row and an array (one tolerance per row) for a vector of rows.
    With ``block``, ``f`` takes u and every probe as the rows of one block
    (see ``fd_jacobian``).  A point's floor that is not finite (a probe
    left the map's domain) raises ConvergenceError.

    An (N, n) block u, with each step of ``ulps`` an (N, n) block too, gives
    the (N, m) tolerances of N rows in one call of ``f`` on the pair (rows,
    points) of ``newton_solve``'s rows: each row its point call's, bit for
    bit, NaN where that call raises.
    """
    if np.ndim(u) == 2:
        points = np.concatenate([u] + [u + FOLD_ULPS * e for e in ulps])
        rows = np.tile(np.arange(len(u)), len(ulps) + 1)
        f0, *probed = np.asarray(f((rows, points)), dtype=float).reshape(
            len(ulps) + 1, len(u), -1)
    elif block:
        f0, *probed = np.asarray(f(np.array([u] + [u + FOLD_ULPS * e for e in ulps])),
                                 dtype=float)
    else:
        f0 = np.asarray(f(u), dtype=float)
        probed = (np.asarray(f(u + FOLD_ULPS * e), dtype=float) for e in ulps)
    floor = sum(np.abs(fp - f0) for fp in probed) / FOLD_ULPS
    if np.ndim(u) < 2 and not np.isfinite(floor).all():
        raise ConvergenceError("fold_tol: a floor probe left the domain", seed=u)
    tol = np.maximum(least, 2.0 * floor)
    return float(tol) if tol.ndim == 0 else tol


def newton_solve(f: Callable[[Array], Array], u0: Array, *,
                 scales: Array,
                 tol: float | Array,
                 accept_tol: float | Array,
                 max_iter: int = 40,
                 jac_reuse: int = 1,
                 block: bool = False,
                 jac: Callable[[Array], Array] | None = None,
                 name: str = "newton") -> tuple[Array, float, int]:
    """Newton iteration with FD Jacobian and row/column equilibration.

    ``tol`` may be per-component (residuals of mixed character, e.g. absolute
    closure errors next to normalized derivative conditions).  If the
    residual stalls above ``tol`` but below ``accept_tol`` (float-noise floor
    of deeply composed maps), the best iterate is returned instead of
    raising.  Raises ConvergenceError with the seed and last residual
    otherwise.  ``jac_reuse`` > 1 switches to a modified Newton that
    refreshes the FD Jacobian only every so many iterations (the cycle
    solvers' evaluations are expensive).  ``block`` hands ``fd_jacobian``'s
    probes to ``f`` as one block.  ``jac``, when given, returns the exact
    Jacobian at u and takes the place of every FD Jacobian; the rest of the
    iteration is the same.  The equilibration matters: closure systems mix
    residual scales from O(1) down to O(gamma^-k).

    An (N, n) seed block u0 starts N rows that step in lock-step, each to
    its own stop (``_newton_rows``); ``scales``, ``tol`` and ``accept_tol``
    may then hold one row per seed.  Each row returns its point solve's
    result, or the block raises the error of the lowest row whose point
    solve raises.
    """
    if np.ndim(u0) == 2:
        if jac_reuse != 1:
            raise ValueError("newton_solve: the rows take a fresh Jacobian every iteration")
        return _newton_rows(f, np.asarray(u0, dtype=float), scales, tol, accept_tol,
                            max_iter, jac, name)
    # a point loop: as one-row blocks the battery's 39 solves take 0.304 s, not 0.212 s
    u = np.asarray(u0, dtype=float).copy()
    scales_arr = np.asarray(scales, dtype=float)
    tol_arr = np.atleast_1d(np.asarray(tol, dtype=float))
    accept = np.atleast_1d(np.asarray(accept_tol, dtype=float))

    def _score(F: Array) -> float:
        return float((np.abs(F) / tol_arr).max())

    F = np.asarray(f(u), dtype=float)
    best_u, best_F, best_res = u.copy(), F, np.inf
    fact = None
    window_best = np.inf
    for it in range(max_iter):
        res = _score(F)
        if not np.isfinite(res):
            raise ConvergenceError(f"{name}: residual became non-finite", residual=res, seed=u0)
        if res < best_res:
            best_u, best_F, best_res = u.copy(), F, res
        if (np.abs(F) < tol_arr).all():
            return u, float(np.abs(F).max()), it
        if it % 12 == 11:
            if it >= 23 and best_res > 0.8 * window_best:
                break  # progress died at the float noise floor
            window_best = best_res
        fresh = fact is None or it % jac_reuse == 0
        if fresh:
            J = (fd_jacobian(f, u, scales=scales_arr, block=block) if jac is None
                 else jac(u))
            # equilibrate rows then columns to tame the gamma^k dynamic range
            r = np.abs(J).max(axis=1)
            r[r == 0.0] = 1.0
            Jr = J / r[:, None]
            c = np.abs(Jr).max(axis=0)
            c[c == 0.0] = 1.0
            fact = (Jr / c[None, :], r, c)
        Jrc, r, c = fact
        try:
            step = np.linalg.solve(Jrc, -F / r)
        except np.linalg.LinAlgError:
            step, *_ = np.linalg.lstsq(Jrc, -F / r, rcond=None)
        step = step / c
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
            if np.isfinite(F_new).all():
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
    if _score(F) < best_res:
        best_u, best_F = u.copy(), F
    worst = float(np.abs(best_F).max())
    if (np.abs(best_F) < accept).all():
        return best_u, worst, max_iter
    raise ConvergenceError(f"{name}: no convergence after {max_iter} iterations "
                           f"(residual {worst:.3e})", residual=worst, seed=u0)


def _newton_rows(f: Callable[[tuple[Array, Array]], Array], u0: Array, scales, tol,
                 accept_tol, max_iter: int,
                 jac: Callable[[tuple[Array, Array]], Array] | None,
                 name: str) -> tuple[Array, Array, int]:
    """``newton_solve`` for N rows at once: each row takes the point call's
    steps, bit for bit, and stops where that call stops.

    ``f`` takes a pair (rows, u): the indices of the rows it evaluates and
    their (M, n) block; it returns their (M, m) residual rows, NaN on a row
    whose point call raises.  ``jac``, when given, takes the same pair and
    returns their (M, m, n) Jacobians; otherwise each live row takes its own
    ``fd_jacobian`` on a block of its probes.  Every residual call carries
    only the rows still iterating, and NaN counts as a raise while a row
    backtracks, as it does in the point call.  Returns the (N, n)
    solutions, their (N,) max |F| and the number of lock-step iterations
    (max_iter when any row accepted on its floor).  A row stops where its
    point call raises ConvergenceError; once every row has stopped, the
    error of the lowest such row is raised, its row index added to the text
    and kept as ``row``.
    """
    N, n = u0.shape
    u = u0.copy()
    F = np.asarray(f((np.arange(N), u)), dtype=float)
    m = F.shape[1]
    scales = np.broadcast_to(np.asarray(scales, dtype=float), (N, n))
    tol = np.broadcast_to(np.asarray(tol, dtype=float), (N, m))
    accept = np.broadcast_to(np.asarray(accept_tol, dtype=float), (N, m))
    out, out_res = np.empty((N, n)), np.empty(N)
    failed: dict[int, ConvergenceError] = {}
    # the rows still iterating; every array below holds only theirs
    rows, row_tol = np.arange(N), tol
    best_u, best_F, best_res = u, F, np.full(N, np.inf)
    res = window_best = best_res
    floor_accepts = 0
    iterations = 0

    def keep_only(keep: Array) -> None:
        nonlocal rows, row_tol, u, F, res, best_u, best_F, best_res, window_best
        rows, row_tol, u, F, res, best_u, best_F, best_res, window_best = (
            a[keep] for a in (rows, row_tol, u, F, res, best_u, best_F, best_res, window_best))

    def fail(sel: Array, residual: Array, reason: str) -> None:
        # the point calls of the rows ``sel`` raise; reason's "{}" is the residual
        for r, x in zip(rows[sel].tolist(), residual[sel].tolist()):
            failed[r] = ConvergenceError(f"{name}: " + reason.format(x), residual=x, seed=u0[r])

    def floor_check(sel: Array) -> int:
        # the end of a point call that stalled or ran out of iterations
        later = (np.abs(F) / row_tol).max(axis=1) < best_res
        bu = np.where(later[:, None], u, best_u)
        bF = np.where(later[:, None], F, best_F)
        worst = np.abs(bF).max(axis=1)
        ok = sel & (np.abs(bF) < accept[rows]).all(axis=1)
        out[rows[ok]], out_res[rows[ok]] = bu[ok], worst[ok]
        fail(sel & ~ok, worst, f"no convergence after {max_iter} iterations "
             "(residual {:.3e})")
        return int(ok.sum())

    for it in range(max_iter):
        if not rows.size:
            break
        iterations = it
        res = (np.abs(F) / row_tol).max(axis=1)
        better = res < best_res
        best_u = np.where(better[:, None], u, best_u)
        best_F = np.where(better[:, None], F, best_F)
        best_res = np.where(better, res, best_res)
        stop = (np.abs(F) < row_tol).all(axis=1)
        bad = ~np.isfinite(res)
        fail(bad, res, "residual became non-finite")
        leave = stop | bad
        if it % 12 == 11:
            if it >= 23:
                stall = ~leave & (best_res > 0.8 * window_best)
                floor_accepts += floor_check(stall)
                leave |= stall
            window_best = best_res
        if leave.any():
            out[rows[stop]] = u[stop]
            out_res[rows[stop]] = np.abs(F[stop]).max(axis=1)
            keep_only(~leave)
            if not rows.size:
                break
        if jac is not None:
            J = np.asarray(jac((rows, u)), dtype=float)
        else:
            J, fd_ok = np.empty((len(rows), m, n)), np.ones(len(rows), bool)
            for j, r in enumerate(rows.tolist()):
                try:
                    J[j] = fd_jacobian(lambda q, r=r: f((np.full(len(q), r), q)), u[j],
                                       scales=scales[r], block=True)
                except ConvergenceError as exc:
                    failed[r], fd_ok[j] = exc, False
            if not fd_ok.all():
                keep_only(fd_ok)
                J = J[fd_ok]
        # equilibrate rows then columns, each row as its point call does
        r = np.abs(J).max(axis=2)
        r[r == 0.0] = 1.0
        Jr = J / r[:, :, None]
        c = np.abs(Jr).max(axis=1)
        c[c == 0.0] = 1.0
        Jrc, rhs = Jr / c[:, None, :], -F / r
        try:
            step = np.linalg.solve(Jrc, rhs[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:
            step = np.empty(u.shape)
            for j in range(len(rows)):
                try:
                    step[j] = np.linalg.solve(Jrc[j], rhs[j])
                except np.linalg.LinAlgError:
                    step[j], *_ = np.linalg.lstsq(Jrc[j], rhs[j], rcond=None)
        step = step / c
        # backtrack each row as its point call does: a row with no trial
        # within 3x its residual takes its first finite trial (its
        # fallback; alpha is never 0, so 0 marks none)
        alpha, fallback = np.ones(len(rows)), np.zeros(len(rows))
        F_new = np.empty(F.shape)
        todo = np.ones(len(rows), bool)
        for _ in range(20):
            j = np.flatnonzero(todo)
            if not j.size:
                break
            trial = np.asarray(f((rows[j], u[j] + alpha[j, None] * step[j])), dtype=float)
            finite = np.isfinite(trial).all(axis=1)
            good = finite & ((np.abs(trial) / row_tol[j]).max(axis=1) <= 3.0 * res[j])
            first = finite & ~good & (fallback[j] == 0.0)
            F_new[j[good | first]] = trial[good | first]
            fallback[j[first]] = alpha[j[first]]
            todo[j[good]] = False
            alpha[j[~good]] *= 0.5
        late = todo & (fallback > 0.0)
        alpha[late] = fallback[late]
        todo &= ~late
        u, F = u + alpha[:, None] * step, F_new
        if todo.any():
            # no finite residual along the step
            fail(todo, best_res, "step landed outside the domain")
            keep_only(~todo)
    if rows.size:
        floor_accepts += floor_check(np.ones(len(rows), bool))
    if failed:
        r, exc = min(failed.items())
        raise ConvergenceError(f"{exc} (row {r})", residual=exc.residual, seed=exc.seed,
                               row=r) from exc
    return out, out_res, max_iter if floor_accepts else iterations


NEWTON_1D_MAX_ITER = 60


def newton_1d(f: Callable[..., tuple[Any, Any, Any]], t0: float | Array, *,
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

    An (N,) array t0 starts N rows that take these steps in lock-step, each
    to its own stop (``_newton_1d_rows``).
    """
    if np.ndim(t0):
        return _newton_1d_rows(f, np.asarray(t0, dtype=float), tol, accept_tol)
    # a point loop: a one-row residual block costs more (t1_array 17.7 us, not 7.1 us)
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


def _newton_1d_rows(f: Callable[[Array, Array], tuple], t0: Array, tol: float,
                    accept_tol: float | None) -> tuple[Array, Array, Array, tuple, Array]:
    """``newton_1d`` for N rows at once: each row takes the point call's
    steps, bit for bit, halves a step that leaves a domain as that call
    does, and stops where that call stops.  ``f(t, rows)`` evaluates the
    rows still iterating (indices ``rows``) at their t and returns their
    values, slopes and payload, a tuple of arrays with one row each, NaN on
    a row that leaves a domain.  Returns the point call's five results as
    arrays: NaN (and 0 evaluations) on each row whose point call raises.
    """
    n = t0.size
    t = t0.copy()
    val, slope, payload = f(t, np.arange(n))
    val, slope = np.array(val, dtype=float), np.array(slope, dtype=float)
    payload = tuple(np.array(p, dtype=float) for p in payload)
    evals = np.ones(n, dtype=int)
    # NaN before a row's first step: no secant curvature yet
    t_prev, slope_prev = np.full(n, np.nan), np.full(n, np.nan)
    done, live = np.zeros(n, bool), np.ones(n, bool)
    for _ in range(NEWTON_1D_MAX_ITER):
        i = np.flatnonzero(live)
        stop = np.abs(val[i]) < tol
        done[i[stop]] = True
        # a row that stops, or that is flat or non-finite, iterates no more
        live[i[stop | (slope[i] == 0.0) | ~np.isfinite(val[i])]] = False
        i = np.flatnonzero(live)
        if not i.size:
            break
        v, s, ti = val[i], slope[i], t[i]
        step = -v / s
        with np.errstate(all="ignore"):
            d2 = (s - slope_prev[i]) / (ti - t_prev[i])
            disc = s * s - 2.0 * d2 * v
            small = -2.0 * v / (s + np.copysign(np.sqrt(disc), s))
        quad = (ti != t_prev[i]) & (d2 != 0.0) & (disc > 0.0)
        step = np.where(quad, small, step)
        new_val, new_slope, new_payload = f(ti + step, i)
        out = np.flatnonzero(np.isnan(new_val))
        if out.size:
            # halve each step that left a domain, 20 evaluations in all, as
            # the point call does; a row still outside is trapped at its edge
            new_val, new_slope = np.array(new_val, dtype=float), np.array(new_slope, dtype=float)
            new_payload = tuple(np.array(p, dtype=float) for p in new_payload)
            for _ in range(19):
                step[out] *= 0.5
                val_h, slope_h, payload_h = f(ti[out] + step[out], i[out])
                new_val[out], new_slope[out] = val_h, slope_h
                for full, p in zip(new_payload, payload_h):
                    full[out] = p
                out = out[np.isnan(val_h)]
                if not out.size:
                    break
            live[i[out]] = False
        evals[i] += 1
        t_prev[i], slope_prev[i] = ti, s
        t[i] = ti + step
        val[i], slope[i] = new_val, new_slope
        for full, p in zip(payload, new_payload):
            full[i] = p
    if accept_tol is not None:
        i = np.flatnonzero(live)
        done[i[np.abs(val[i]) < accept_tol]] = True
    for a in (t, val, slope) + payload:
        a[~done] = np.nan
    evals[~done] = 0
    return t, val, slope, payload, evals


def chain_product(chain: Array, M: Array | None = None) -> Array:
    """The product chain[-1] @ ... @ chain[0] @ M of a chain of step
    Jacobians, multiplied in step order; M is the identity when None."""
    if M is None:
        M = np.eye(chain.shape[1])
    for J in chain:
        M = J @ M
    return M


def frobenius(A: Array) -> float:
    """``np.linalg.norm(A)`` of a real array, bit for bit, without its
    dispatch: the sqrt of the dot product of A's entries in memory order."""
    a = A.ravel(order="K")
    return math.sqrt(a @ a)


def row_norms(A: Array) -> Array:
    """``frobenius(A[i])`` of each C-ordered A[i], bit for bit: matmul on a
    stack of (row, column) pairs takes the same dot product."""
    a = np.ascontiguousarray(A).reshape(len(A), -1)
    return np.sqrt((a[:, None, :] @ a[:, :, None])[:, 0, 0])


def orthonormal_frame(V: Array) -> Array:
    """Orthonormalize the columns of ``V`` (thin QR with sign fixing), or
    of each matrix of an (N, D, c) block, bit for bit.

    One nonzero column is divided by its norm: that is the QR frame, with
    an error relative to each component rather than to ||V||.
    """
    if V.ndim == 3:
        single = V.shape[2] == 1
        if single:
            norm = row_norms(V)[:, None, None]
            if (norm > 0.0).all():
                return V / norm
        Q, R = np.linalg.qr(V)
        signs = np.sign(np.diagonal(R, axis1=1, axis2=2))
        signs[signs == 0.0] = 1.0
        out = Q * signs[:, None, :]
        if single:
            # only a zero column keeps the QR frame, as in its point call
            div = norm[:, 0, 0] > 0.0
            out[div] = V[div] / norm[div]
        return out
    if V.shape[1] == 1:
        norm = frobenius(V)
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
