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

from .errors import ContractError, ConvergenceError, DomainError, NumericalError

Array = np.ndarray


FD_REL_STEP = 1e-7


def fd_jacobian(f: Callable[[Array], Array], u: Array, scales: Array) -> Array:
    """Central finite-difference Jacobian of ``f`` at ``u``.

    ``scales`` sets the magnitude floor per variable so offsets of very
    different sizes (eta ~ lambda^k vs mu ~ 1) all get sensible steps.
    The 2n probes u + h_i e_i, u - h_i e_i go to ``f`` as the rows of one
    (2n, n) block, which returns their rows, NaN for a probe that raises.
    A probe whose row is not finite left the map's domain: its variable
    takes the one-sided difference of its other probe, and when both left,
    the Jacobian is unknown there and ConvergenceError names the variable.
    ``f(u[None])`` is evaluated, as one more call, only for a one-sided
    difference: the Newton that asks for the Jacobian holds f(u).
    """
    u = np.asarray(u, dtype=float)
    n = u.size
    h = FD_REL_STEP * np.maximum(np.abs(u), scales)
    probes = np.repeat(u[None], 2 * n, axis=0)
    d = np.arange(n)
    probes[2 * d, d] += h
    probes[2 * d + 1, d] -= h
    rows = np.asarray(f(probes), dtype=float).reshape(2 * n, -1)
    ok = np.isfinite(rows).all(axis=1)
    J = (rows[0::2] - rows[1::2]) / (2.0 * h)[:, None]
    one_sided = np.flatnonzero(~(ok[0::2] & ok[1::2]))
    if one_sided.size:
        f0 = np.asarray(f(u[None]), dtype=float).reshape(-1)
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
             least: float | Array = 1e-13) -> float | Array:
    """The stop tolerance of a Newton whose rows ``f(u)`` land on a float
    floor: twice each row's floor at u, never below ``least``.  ``ulps``
    holds one step of u per probed input, each one ulp of that input; a
    row's floor is the sum of its changes over FOLD_ULPS such steps, per ulp.
    Below it a Newton only random-walks its unknowns.  Returns a float for a
    scalar row and an array (one tolerance per row) for a vector of rows.
    ``f`` takes u and every probe as the rows of one block (see
    ``fd_jacobian``).  A point's floor that is not finite (a probe left the
    map's domain) raises ConvergenceError.

    An (N, n) block u, with each step of ``ulps`` an (N, n) block too, gives
    the (N, m) tolerances of N rows in one call of ``f`` on the pair (rows,
    points) of ``newton_solve``'s rows: each row its point call's, bit for
    bit, NaN where that call raises.
    """
    points = np.array([u] + [u + FOLD_ULPS * e for e in ulps])
    if np.ndim(u) == 2:
        rows = np.tile(np.arange(len(u)), len(points))
        values = np.reshape(f((rows, np.concatenate(points))), (len(points), len(u), -1))
    else:
        values = f(points)
    f0, *probed = np.asarray(values, dtype=float)
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
    solvers' evaluations are expensive).  ``f`` takes a point for the seed
    and each trial, and the block of ``fd_jacobian``'s probes.  ``jac``,
    when given, returns the exact Jacobian at u and takes the place of every
    FD Jacobian; the rest of the iteration is the same.  The equilibration
    matters: closure systems mix residual scales from O(1) down to
    O(gamma^-k).  Returns the solution, its max |F| and the iterations run
    (``max_iter`` for a floor accept).

    The iteration exists once, as the generator ``_newton_steps``.  An (N,
    n) seed block u0 drives one per row in lock-step (``_newton_rows``);
    ``scales``, ``tol`` and ``accept_tol`` may then hold one row per seed.
    Each row returns its point solve's result, or the block raises the
    error of the lowest row whose point solve raises.
    """
    u0 = np.array(u0, dtype=float)
    tol, accept = (np.atleast_1d(np.asarray(a, dtype=float)) for a in (tol, accept_tol))
    scales = np.asarray(scales, dtype=float)
    if u0.ndim == 2:
        return _newton_rows(f, u0, scales, tol, accept, max_iter, jac_reuse, jac, name)
    u = step = None

    def answer(request):
        nonlocal u, step
        if isinstance(request, tuple):
            u, F, fact = request
            if fact is None:
                fact = _equilibrated(fd_jacobian(f, u, scales) if jac is None else jac(u))
            step = _newton_step(fact, F)
            return fact
        point = u0 if request is None else u + request * step
        F = np.asarray(f(point), dtype=float)
        return (point, F, *_scored(F, tol))

    return _drive(_newton_steps(accept, max_iter, jac_reuse, name), answer)


def _newton_steps(accept: Array, max_iter: int, jac_reuse: int, name: str):
    """One ``newton_solve`` as a generator of the evaluations it needs: None
    for the seed and a float alpha for the trial u + alpha step, each
    answered with (point, F, *``_scored(F, tol)``) or with F's
    NumericalError thrown in; (u, F, fact) for the step at u, answered with
    the factor of the Jacobian it used, made fresh where fact is None.  It
    returns the solve's result or raises its error."""
    u, F, res, finite, below = yield None
    u0 = u
    # every later F is a trial that passed the finiteness check
    if not finite:
        raise ConvergenceError(f"{name}: residual became non-finite",
                               residual=float(np.abs(F).max()), seed=u0)
    best_u, best_F, best_res = u, F, np.inf
    fact, window_best = None, np.inf
    for it in range(max_iter):
        if res < best_res:
            best_u, best_F, best_res = u, F, res
        if below:
            return u, float(np.abs(F).max()), it
        if it % 12 == 11:
            if it >= 23 and best_res > 0.8 * window_best:
                break  # progress died at the float noise floor
            window_best = best_res
        if it % jac_reuse == 0:
            fact = None
        fresh = fact is None
        fact = yield u, F, fact
        # backtrack on evaluations that leave the maps' domains or that
        # balloon the residual (loose safeguard; quadratic convergence near
        # the root is monotone anyway), else take the first finite trial
        alpha, trial, fallback = 1.0, None, None
        for _ in range(20):
            try:
                reply = yield alpha
            except NumericalError:
                alpha *= 0.5
                continue
            if reply[3]:
                if reply[2] <= 3.0 * res:
                    trial = reply
                    break
                fallback = fallback or reply
            alpha *= 0.5
        trial = trial or fallback
        if trial is None:
            if not fresh:
                fact = None  # stale direction was garbage; refresh and retry
                continue
            raise ConvergenceError(f"{name}: step landed outside the domain",
                                   residual=float(best_res), seed=u0)
        u, F, res, _, below = trial
    if res < best_res:
        best_u, best_F = u, F
    worst = float(np.abs(best_F).max())
    if (np.abs(best_F) < accept).all():
        return best_u, worst, max_iter
    raise ConvergenceError(f"{name}: no convergence after {max_iter} iterations "
                           f"(residual {worst:.3e})", residual=worst, seed=u0)


# |F| above this scores as if it were this: far beyond any residual a solve
# keeps, and its quotient by any tol above 1e-100 stays inside the float range
_SCORE_CAP = 1e200


def _scored(F: Array, tol: Array) -> tuple[Any, Any, Any]:
    """Over the last axis of F: its score max min(|F|, _SCORE_CAP) / tol (a
    finite F past the float range scores huge, without an overflow), its
    finiteness and whether |F| < tol throughout."""
    a = np.abs(F)
    return ((np.minimum(a, _SCORE_CAP) / tol).max(axis=-1), np.isfinite(F).all(axis=-1),
            (a < tol).all(axis=-1))


def _equilibrated(J: Array) -> tuple[Array, Array, Array]:
    """(J / r / c, r, c) of a Jacobian or of each of a stack: its rows r, then
    its columns c, scaled to a largest entry of 1 (the gamma^k range)."""
    r = np.abs(J).max(axis=-1)
    r[r == 0.0] = 1.0
    Jr = J / r[..., None]
    c = np.abs(Jr).max(axis=-2)
    c[c == 0.0] = 1.0
    return Jr / c[..., None, :], r, c


def _newton_step(fact: tuple[Array, Array, Array], F: Array) -> Array:
    """The step -J^-1 F from J's ``_equilibrated`` factor, of one system or
    of each of a stack; least squares where a system is singular."""
    Jrc, r, c = fact
    b = -F / r
    try:
        return (np.linalg.solve(Jrc, b) if b.ndim == 1
                else np.linalg.solve(Jrc, b[..., None])[..., 0]) / c
    except np.linalg.LinAlgError:
        if b.ndim == 1:
            return np.linalg.lstsq(Jrc, b, rcond=None)[0] / c
        return np.array([_newton_step(row[:3], row[3]) for row in zip(Jrc, r, c, F)])


def _drive(steps, answer: Callable[[Any], Any]):
    """Run the generator ``steps`` to its return value: answer each request
    it yields, and throw an answer's NumericalError back in."""
    reply = error = None
    while True:
        try:
            request = steps.send(reply) if error is None else steps.throw(error)
        except StopIteration as stop:
            return stop.value
        try:
            reply, error = answer(request), None
        except NumericalError as exc:
            error = exc


def _drive_rows(steps: list, serve: Callable[[list, list], dict]) -> list:
    """Run the generators ``steps`` in lock-step.  Each round ``serve(live,
    requests)`` answers some of the rows ``live`` still running, from their
    pending ``requests`` (by row), as {row: reply}; an exception reply is
    thrown in.  Returns each row's return value, or its NumericalError.  A
    round that answers no live row raises ContractError: the rows would
    wait for ever."""
    requests, results = [None] * len(steps), [None] * len(steps)
    live, replies = list(range(len(steps))), dict.fromkeys(range(len(steps)))
    while True:
        for j, reply in replies.items():
            try:
                requests[j] = (steps[j].throw(reply) if isinstance(reply, Exception)
                               else steps[j].send(reply))
                continue
            except StopIteration as stop:
                results[j] = stop.value
            except NumericalError as exc:
                results[j] = exc
            live.remove(j)
        if not live:
            return results
        replies = serve(live, requests)
        if replies.keys().isdisjoint(live):
            raise ContractError(f"a lock-step round answered none of the live rows {live}")


def _newton_rows(f: Callable[[tuple[Array, Array]], Array], u0: Array, scales: Array,
                 tol: Array, accept: Array, max_iter: int, jac_reuse: int,
                 jac: Callable[[tuple[Array, Array]], Array] | None,
                 name: str) -> tuple[Array, Array, int]:
    """``newton_solve`` on the rows of u0, one ``_newton_steps`` per row in
    lock-step.  ``f`` takes a pair (rows, u), the indices of the rows it
    evaluates and their (M, n) block, and returns their (M, m) residuals,
    NaN on a row whose point call raises; ``jac`` takes the same pair and
    returns their (M, m, n) Jacobians, else each fresh row takes its own
    block ``fd_jacobian``.  A round is one residual call on every row that
    asks for one, else every row's step.  The third result is the most
    iterations a row ran.  Once all rows stop, the lowest row that raised
    raises, " (row r)" and ``row`` added."""
    N, n = u0.shape
    scales = np.broadcast_to(scales, (N, n))
    tol, accept = (np.broadcast_to(a, (N, a.shape[-1])) for a in (tol, accept))
    base, along = u0.copy(), np.empty((N, n))  # each row's point and step at its last step

    def serve(live: list, requests: list) -> dict:
        trials = [j for j in live if not isinstance(requests[j], tuple)]
        if trials:
            rows = np.array(trials)
            U = base[rows]
            if requests[trials[0]] is not None:  # the seeds are every row's first request
                U = U + np.array([requests[j] for j in trials])[:, None] * along[rows]
            F = np.asarray(f((rows, U)), dtype=float)
            return dict(zip(trials, zip(U, F, *(a.tolist() for a in _scored(F, tol[rows])))))
        replies, fresh = {}, [j for j in live if requests[j][2] is None]
        if jac is None:
            J = []
            for j in fresh:
                try:
                    J.append(fd_jacobian(lambda q, j=j: f((np.full(len(q), j), q)),
                                         requests[j][0], scales[j]))
                except ConvergenceError as exc:
                    replies[j] = exc
            fresh, live = ([j for j in js if j not in replies] for js in (fresh, live))
        if not live:
            return replies
        U, F = (np.array([requests[j][k] for j in live]) for k in (0, 1))
        # each row's fact: the batch of its last fresh Jacobian, and its place there
        facts = {j: requests[j][2] for j in live}
        if fresh:
            if jac is not None:
                J = jac((np.array(fresh), U if len(fresh) == len(live)
                         else U[[live.index(j) for j in fresh]]))
            fact = _equilibrated(np.asarray(J, dtype=float))
            facts.update((j, (fact, i)) for i, j in enumerate(fresh))
        if len(fresh) < len(live):
            fact = tuple(np.array([b[k][i] for b, i in facts.values()]) for k in range(3))
        base[live], along[live] = U, _newton_step(fact, F)
        return {**replies, **facts}

    results = _drive_rows([_newton_steps(a, max_iter, jac_reuse, name) for a in accept], serve)
    for r, exc in enumerate(results):
        if isinstance(exc, Exception):
            raise ConvergenceError(f"{exc} (row {r})", residual=exc.residual, seed=exc.seed,
                                   row=r) from exc
    U, res, its = zip(*results) if N else ((), (), ())
    return np.array(U).reshape(N, n), np.array(res), max(its, default=0)


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

    The iteration exists once, as the generator ``_newton_1d_steps``.  An
    (N,) array t0 drives one per row in lock-step (``_newton_1d_rows``).
    """
    if np.ndim(t0):
        return _newton_1d_rows(f, np.asarray(t0, dtype=float), tol, accept_tol, name)
    return _drive(_newton_1d_steps(t0, tol, accept_tol, name), f)


def _newton_1d_steps(t0, tol: float, accept_tol: float | None, name: str):
    """One ``newton_1d`` from t0 as a generator: it yields each t where it
    needs ``f(t)``, and a NumericalError thrown in instead halves the step
    tried.  It returns the call's result or raises its error."""
    t = t0
    val, slope, payload = yield t
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
                new = yield t + step
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
                    accept_tol: float | None,
                    name: str) -> tuple[Array, Array, Array, tuple, Array]:
    """``newton_1d`` on the entries of t0, one ``_newton_1d_steps`` per row in
    lock-step.  ``f(t, rows)`` evaluates the rows ``rows`` at their t and
    returns their values, slopes and payload, a tuple of arrays with one row
    each (possibly none); a NaN value means the row's point call raises, so
    its step halves.  Returns the five results as arrays, NaN (0
    evaluations) on each row whose point call raises."""
    N, payload = t0.size, None

    def serve(live: list, requests: list) -> dict:
        nonlocal payload
        val, slope, pay = f(np.array([requests[j] for j in live], dtype=float), np.array(live))
        if payload is None:
            payload = tuple(np.full(np.shape(p), np.nan) for p in pay)
        val, slope = np.asarray(val, dtype=float).tolist(), np.asarray(slope, dtype=float).tolist()
        # an empty payload gives each row an empty tuple
        return {j: DomainError(f"{name}: row {j} left the domain") if v != v else (v, s, p)
                for j, v, s, p in zip(live, val, slope, zip(*pay) if pay else [()] * len(live))}

    results = _drive_rows([_newton_1d_steps(t, tol, accept_tol, name) for t in t0.tolist()],
                          serve)
    t, val, slope = (np.full(N, np.nan) for _ in range(3))
    evals = np.zeros(N, dtype=int)
    for j, result in enumerate(results):
        if not isinstance(result, Exception):
            t[j], val[j], slope[j], row_payload, evals[j] = result
            for full, p in zip(payload, row_payload):
                full[j] = p
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
