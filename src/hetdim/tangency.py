"""Secondary homoclinic tangencies with the two admissibility properties.

Splitting one tangency of the pair creates, at explicit parameter values
mu_k, a new quadratic tangency of the doubly-composed return map together
with nearby transverse homoclinic points.  The forge pipeline below produces
a tangency whose preimage on the local unstable manifold is strictly
straddled in y by transverse homoclinic preimages, and whose induced global
map has positive product c * x+ * y-.  Both properties are verified
numerically on the certificate, never assumed.

Two sign regimes drive the asymptotics (even k throughout, y- normalized
positive at ingestion):

* c*d*x+ < 0: mu_k = y- * gamma^-k * (1 + o(1)), tangency offsets
  Y ~ +-|lambda|^(k/2) * sqrt|c x+ / d|.
* c*d*x+ > 0: mu_k = -c*x+*lambda^k * (1 + o(1)), offsets
  X ~ +-b*|lambda|^(k/2) * sqrt(c x+ / d).

When additionally d > 0 in the second regime the straddle property needs the
two-stage route: the secondary tangency is treated as a primary one and
perturbed again (the delta^k_j sequence), inheriting straddling points from
the first stage.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from itertools import islice

import numpy as np

from .errors import ConvergenceError, HetdimError, HypothesisError, NumericalError
from .global_map import (GlobalMapCoeffs, _check_itinerary, axis_jet, axis_point,
                         first_return_array, k_star, t1_array, t1_jac_array)
from .local import CrossFormResult, solve_cross_form
from .numerics import fold_tol, newton_1d, newton_solve
from .saddle import SaddleModel, jacobian_along, orbit, stay_exit, stay_jacobian

Array = np.ndarray


def case_tag(coeffs: GlobalMapCoeffs) -> str:
    cdx = coeffs.c * coeffs.d * coeffs.x_plus
    return ("cdx_pos" if cdx > 0 else "cdx_neg") + ("_d_pos" if coeffs.d > 0 else "_d_neg")


def double_return_y(model: SaddleModel, coeffs: GlobalMapCoeffs, t: float, k: int,
                    with_slope: bool = False):
    """y-component (and optionally d/dt) of T1 o T0^k o T1 at the axis point y- + t."""
    w, J = axis_jet(model, coeffs, coeffs.y_minus + t, (k,), jacobian=with_slope)
    return (float(w[1]), float(J[1, 1])) if with_slope else float(w[1])


def _cross_form_jet(model: SaddleModel, cm: GlobalMapCoeffs, X, Y,
                    k: int) -> tuple[CrossFormResult, Array]:
    """Cross-form solution at the curve offsets (X, Y), and the Jacobian of
    T1 o T0^k o T1 at the axis point y- + X/b chained through the
    cross-form-consistent orbit.

    Its [1, 1] entry is the slope of the composed y along the axis (the
    tangency condition) and its [1, 0] entry the induced c.  The direct path
    would lose the suppressed exit offset Y to the cancellation in the curve
    height, and with it the sign of the 2 d Y entry of the exit Jacobian.
    On the linear tier, (N,) arrays X and Y, and k an int or an (N,) array
    of stays, give the N cross forms of ``solve_cross_form``'s block and
    (N, D, D) Jacobians: each row its point call's, bit for bit, NaN
    throughout where that call raises.
    """
    block = getattr(X, "ndim", 0)
    t = X / cm.b
    v = axis_point(model, cm.y_minus + t)
    x0 = cm.x_plus + X
    z0 = cm.z_plus + cm.b_t * (t[:, None] if block else t)
    cf = solve_cross_form(model, x0, cm.y_minus + Y, z0, k)
    if model.nonlinearity.kind == "linear":
        # the stay's Jacobian is diagonal: carry T1's Jacobian through it as
        # one running product of the multipliers
        chain = stay_jacobian(model, t1_jac_array(cm, v), k)
    else:
        traj = orbit(model, np.concatenate(([x0, cf.y_0], z0)), k)
        chain = jacobian_along(model, traj, t1_jac_array(cm, v))
    if block:
        J = t1_jac_array(cm, np.column_stack((cf.x_k, cm.y_minus + Y, cf.z_k))) @ chain
        J[np.isnan(cf.y_0)] = np.nan
        return cf, J
    endpoint = np.concatenate(([cf.x_k, cm.y_minus + Y], cf.z_k))
    return cf, t1_jac_array(cm, endpoint) @ chain


# ---------------------------------------------------------------------------
# secondary tangencies


@dataclass
class TangencyBranch:
    """One solved secondary-tangency branch at stay number k.

    X = x - x+ and Y = y_k - y- are the offsets of the tangency point along
    the curve and at the strip exit; mu_k is the splitting value creating the
    tangency, and c_value the induced c of the composed global map.
    tangency_point and preimage are flat (D,) arrays.  straddle_ok records
    the forge's straddle check on the branch it chose (None when it checked
    none).  slope_tol is the ``fold_tol`` the secondary or the stage-two
    tertiary solve held the slope row to (None on a branch built by hand).
    """

    k: int
    branch: int
    mu_k: float
    X: float
    Y: float
    residual: float
    case: str
    tangency_point: Array
    preimage: Array
    t_param: float = 0.0
    c_sign: int | None = None
    c_value: float | None = None
    straddle_ok: bool | None = None
    slope_tol: float | None = None


def _seed(coeffs: GlobalMapCoeffs, lam: float, gamma: float, k: int, sign: int):
    """(X, Y, mu) seed for one tangency branch.

    Dominant balance of the exact system: the homoclinic equation gives the
    larger offset (Y when c*d*x+ < 0, X otherwise) from
    c*lambda^k*x+ + gamma^-k*y- + d*(offset)^2-type terms, and the quadratic
    degeneracy pins the small one via X*Y = -c b^2 lambda^k gamma^-k / (4d^2).
    """
    b, c, d, xp, ym = coeffs.b, coeffs.c, coeffs.d, coeffs.x_plus, coeffs.y_minus
    lead = c * lam ** k * xp + ym * gamma ** (-k)
    cross = -c * b * b * lam ** k * gamma ** (-k) / (4.0 * d * d)
    if c * d * xp < 0:
        y_sq = -lead / d
        if y_sq <= 0.0:
            y_sq = abs(c * xp / d) * abs(lam) ** k
        Y = sign * np.sqrt(y_sq)
        X = cross / Y
    else:
        x_sq = b * b * lead / d
        if x_sq <= 0.0:
            x_sq = b * b * abs(c * xp / d) * abs(lam) ** k
        X = sign * np.sqrt(x_sq)
        Y = cross / X
    t = X / b
    mu = (ym + Y) / gamma ** k - (d / b ** 2) * X * X - coeffs.e3 * t ** 3
    return float(X), float(Y), float(mu)


def _exact_jac(model: SaddleModel, coeffs: GlobalMapCoeffs, ks: Array):
    """The exact Jacobian in (X, Y, mu) of ``solve_secondary_tangency``'s
    three rows on the linear tier, row i at stay ks[i]: a function of the
    pair (rows, u) of ``newton_solve``'s rows, u an (M, 3) block, that
    returns the (M, 3, 3) Jacobians.

    A stay is the diagonal factor diag(s), s the product of k multipliers,
    so with t = X/b, g(v) = 2d v + 3e3 v^2 (T1's dy/dy at offset v) and g'
    its derivative the rows are polynomials in (X, Y, mu):
    r1 = mu + d t^2 + e3 t^3 - (y- + Y)/gamma^k, r2 = T1's y at the exit
    (s_x (x+ + X), y- + Y, s_z (z+ + b_t t)), and r3 = J[1, 1] =
    c s_x b + g(Y) s_y g(t) + alpha2 . (s_z b_t).
    """
    b, d, e3 = coeffs.b, coeffs.d, coeffs.e3
    # each row's stay factor s, as the one column of a (D, 1) stay Jacobian
    s = stay_jacobian(model, np.ones((len(ks), model.dim, 1)), ks)[..., 0]
    s_y = s[:, 1]
    inv_gk = np.array([1.0 / model.multipliers.gamma ** k for k in ks.tolist()])
    r2_x = np.array([coeffs.c * row[0] + coeffs.alpha2 @ (row[2:] * coeffs.b_t) / b
                     for row in s])

    def jac(arg: tuple[Array, Array]) -> Array:
        rows, u = arg
        X, Y = u[:, 0], u[:, 1]
        t = X / b
        g_t, g_Y = 2.0 * d * t + 3.0 * e3 * t * t, 2.0 * d * Y + 3.0 * e3 * Y * Y
        one = np.ones(len(u))
        return np.stack((g_t / b, -inv_gk[rows], one,
                         r2_x[rows], g_Y, one,
                         g_Y * s_y[rows] * (2.0 * d + 6.0 * e3 * t) / b,
                         (2.0 * d + 6.0 * e3 * Y) * s_y[rows] * g_t, 0.0 * one),
                        axis=1).reshape(-1, 3, 3)

    return jac


def _tangency_jet(model: SaddleModel, coeffs: GlobalMapCoeffs, u: Array,
                 k) -> tuple[Array, Array]:
    """The three rows of ``solve_secondary_tangency``'s residual at u = (X,
    Y, mu) and stay k, with the Jacobian of ``_cross_form_jet``; or at each
    row of an (N, 3) block u, k an int or one stay per row: each row its
    point call's, bit for bit, NaN throughout where that call raises."""
    b, d, e3 = coeffs.b, coeffs.d, coeffs.e3
    if u.ndim == 2:
        k = k if isinstance(k, np.ndarray) else np.full(len(u), k)
        if model.nonlinearity.kind != "linear":
            # the nonlinear cross form shoots each row on its own
            rows = np.full(u.shape, np.nan)
            J = np.full((len(u), model.dim, model.dim), np.nan)
            for i, n in enumerate(k.tolist()):
                with contextlib.suppress(NumericalError):
                    rows[i], J[i] = _tangency_jet(model, coeffs, u[i], n)
            return rows, J
        X, Y, mu = u.T
        cf, J = _cross_form_jet(model, coeffs.with_mu(mu), X, Y, k)
        t = X / b
        # the cubes with the scalar power, as t1_array takes them
        y_curve = mu + d * t * t + e3 * np.array([s ** 3 for s in t.tolist()])
        r2 = (mu + coeffs.c * cf.x_k + d * Y * Y + (coeffs.alpha2 @ cf.z_k[:, :, None])[:, 0]
              + e3 * np.array([s ** 3 for s in Y.tolist()]))
        return np.column_stack((y_curve - cf.y_0, r2, J[:, 1, 1])), J
    X, Y, mu = u
    cf, J = _cross_form_jet(model, coeffs.with_mu(mu), X, Y, k)
    t = X / b
    y_curve = mu + d * t * t + e3 * t ** 3
    r2 = (mu + coeffs.c * cf.x_k + d * Y * Y + coeffs.alpha2 @ cf.z_k + e3 * Y ** 3)
    return np.array([y_curve - cf.y_0, r2, J[1, 1]]), J


# the Newton's accept floors of the rows (r1, r2, slope), and the least
# tolerances its floors take (the value rows are clamped after)
ACCEPT_TOLS = np.array([1e-12, 1e-12, 1e-10])
FLOOR_LEAST = np.array([0.0, 0.0, 1e-13])


def _branch_setup(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, sign: int):
    """The seed (X, Y, mu), FD scales and floor steps of one branch."""
    b = coeffs.b
    seed = X0, Y0, mu0 = _seed(coeffs, model.multipliers.lam, model.multipliers.gamma, k, sign)
    # FD steps must stay above the float resolution of x+ + X and
    # y- + Y, but the Y probe must also not dwarf a deeply suppressed
    # branch seed (it would step onto a neighboring solution branch)
    scales = np.array([0.01 * abs(b), min(0.01, max(10.0 * abs(Y0), 1e-9)),
                       max(10.0 * abs(mu0), 1e-6)])
    ulps = (np.array([b * np.spacing(coeffs.y_minus + X0 / b), 0.0, 0.0]),
            np.array([0.0, np.spacing(coeffs.y_minus + Y0), 0.0]))
    return seed, scales, ulps


def solve_secondary_tangency(model: SaddleModel, coeffs: GlobalMapCoeffs, k):
    """Both secondary-tangency branches at stay number k, as a list; or at
    each k of a sequence, as a dict from k to its pair.

    Newton on (X, Y, mu): cross-form consistency of the curve point, the
    homoclinic condition after the second global-map application, and the
    vanishing derivative along the curve (quadratic contact).  Seeds come
    from the scaled-limit solutions.  Every row stops at twice its float
    floor at the seed (``fold_tol``; its inputs are the axis point y- + X/b
    and the exit height y- + Y), measured once for all three rows.  The
    slope row's floor grows like gamma^k and never goes below 1e-13: that
    tolerance is the branch's slope_tol.  Each value row adds mu, so its
    tolerance lies between spacing(|mu|) at the seed and 1e-14.  On the
    linear tier the Newton takes the residual's exact Jacobian
    (``_exact_jac``); on the nonlinear tiers an FD Jacobian, whose probes,
    like the floor's, go to the residual as one (N, 3) block.
    The induced c = d(G_y)/dx, G = T1 o T0^k o T1, is the [1, 0] entry of the
    final evaluation's exact Jacobian (an FD probe in x would be amplified by
    gamma^k); HypothesisError when |c| < 1e-14 leaves its sign open.

    Every (k, branch) pair is one row of a single lock-step Newton
    (``newton_solve`` on a block), and each row's floors, steps and final
    jet are those of its pair's solve on its own, bit for bit.  The error
    raised is the one the per-k calls in turn would raise: the first in k
    order, a (k, branch) row's Newton failure wrapped as "secondary
    tangency diverged (k=..., branch ..., seed=(...)): ..." ahead of the
    HypothesisError of its k's branches.
    """
    ks = [k] if np.ndim(k) == 0 else list(dict.fromkeys(int(n) for n in k))
    for n in ks:
        _check_itinerary(n)
    if not ks:
        return {}
    pairs = [(n, branch_id, sign) for n in ks for branch_id, sign in ((1, +1), (2, -1))]
    seeds, scales, ulps = zip(*(_branch_setup(model, coeffs, n, sign) for n, _, sign in pairs))
    seeds = np.array(seeds)
    stays = np.array([n for n, _, _ in pairs])

    def rows_jet(arg: tuple[Array, Array]) -> Array:
        rows, u = arg
        return _tangency_jet(model, coeffs, u, stays[rows])[0]

    tol = fold_tol(rows_jet, seeds, [np.array(e) for e in zip(*ulps)], least=FLOOR_LEAST)
    # each value row's tolerance lies between spacing(|mu0|) and 1e-14
    tol[:, :2] = np.maximum(np.spacing(np.abs(seeds[:, 2]))[:, None],
                            np.minimum(1e-14, tol[:, :2]))
    jac = _exact_jac(model, coeffs, stays) if model.nonlinearity.kind == "linear" else None
    try:
        u, _, _ = newton_solve(rows_jet, seeds, scales=np.array(scales), tol=tol,
                               accept_tol=ACCEPT_TOLS, max_iter=60, jac=jac,
                               name="secondary tangency")
    except ConvergenceError as exc:
        n, branch_id, _ = pairs[exc.row]
        # an earlier k's branches raise first where they raise
        solve_secondary_tangency(model, coeffs, ks[:ks.index(n)])
        X0, Y0, mu0 = seeds[exc.row]
        raise ConvergenceError(
            f"secondary tangency diverged (k={n}, branch {branch_id}, "
            f"seed=({X0:.3e}, {Y0:.3e}, {mu0:.3e})): {exc.__cause__}",
            seed=tuple(seeds[exc.row])) from exc
    # one final jet block for c and the tangency points
    rows, J = _tangency_jet(model, coeffs, u, stays)
    points = axis_jet(model, coeffs.with_mu(u[:, 2]), coeffs.y_minus + u[:, 0] / coeffs.b)[0]
    solved: dict[int, list[TangencyBranch]] = {n: [] for n in ks}
    for i, (n, branch_id, _) in enumerate(pairs):
        X, Y, mu = (float(x) for x in u[i])
        c = float(J[i, 1, 0])
        if abs(c) < 1e-14:
            raise HypothesisError(f"secondary c is sign-indeterminate (k={n}, |c| < 1e-14)")
        t = X / coeffs.b
        solved[n].append(TangencyBranch(
            k=n, branch=branch_id, mu_k=mu, X=X, Y=Y,
            residual=float(max(abs(rows[i, 0]), abs(rows[i, 1]))), case=case_tag(coeffs),
            tangency_point=points[i], preimage=axis_point(model, coeffs.y_minus + t),
            t_param=t, c_sign=int(np.sign(c)), c_value=c, slope_tol=float(tol[i, 2])))
    return solved[k] if np.ndim(k) == 0 else solved


def verify_tangency_branch(model: SaddleModel, coeffs: GlobalMapCoeffs,
                           branch: TangencyBranch) -> tuple[float, float, float, float]:
    """Independent double-root check of the solved branch.

    Carries the preimage through the composed map T1 o T0^k o T1 by direct
    forward iteration.  Returns (|value at t*|, |slope at the vertex|,
    second derivative, |vertex offset from t*|): the direct path's critical
    point must coincide with the claimed parameter, and the contact must be
    quadratic.  Slopes use the exact chained derivative; the raw slope at t*
    itself only reflects the last-ulp placement of t* against a curvature of
    order gamma^k.  The second-difference step in t is 1e-6 at k = 12 and
    scales with the stay like |gamma|^(12 - k): the t-width of the stay-k
    strip shrinks like |gamma|^-k while the curvature grows like |gamma|^k,
    so a fixed step would leave the strip at deep k.
    """
    cm = coeffs.with_mu(branch.mu_k)
    t = branch.t_param
    h = 1e-6 * abs(model.multipliers.gamma) ** (12 - branch.k)
    g0, slope0 = double_return_y(model, cm, t, branch.k, with_slope=True)
    gp = double_return_y(model, cm, t + h, branch.k)
    gm = double_return_y(model, cm, t - h, branch.k)
    second = (gp - 2.0 * g0 + gm) / (h * h)
    tv, slope_v = t, slope0
    if second != 0.0:
        for _ in range(3):
            tv = tv - slope_v / second
            _, slope_v = double_return_y(model, cm, tv, branch.k, with_slope=True)
    return abs(g0), abs(slope_v), second, abs(tv - t)


# ---------------------------------------------------------------------------
# transverse homoclinic points


@dataclass(frozen=True)
class TransverseHomoclinic:
    """A transverse homoclinic point: the image, on its stage's curve, of
    its unstable-manifold preimage (a quartet point lands on {y = 0} after
    one more return T1 o T0^k); both are flat (D,) arrays."""

    point: Array
    preimage: Array
    t: float
    slope: float
    route: str        # "split_pair" or "quartet", "_stage2" on the composed curve
    k: int | None     # the last stay of the composition (None: the curve itself)


@dataclass(frozen=True)
class ForgeCurve:
    """A forge curve: the axis points (0, ybase + t, 0) carried by
    ``axis_jet`` through T1 and ``stays``, with the vertex model
    level + D (t - tc)^2 of its height and the x+ and x-slope b of its image.
    Stage one's is T1(W^u_loc), stage two's the composed map T1 o T0^k o T1
    around a stage-one tangency preimage."""

    ybase: float
    stays: tuple
    tc: float
    level: float
    D: float
    xp: float
    b: float


def stage_one_curve(cm: GlobalMapCoeffs) -> ForgeCurve:
    return ForgeCurve(cm.y_minus, (), 0.0, cm.mu, cm.d, cm.x_plus, cm.b)


SLOPE_MIN = 1e-6  # transversality threshold on |dy0/dt|
ROOT_TOL = 1e-13  # residual tolerance of the root polish


def _polish_roots(f, seeds, label: str, diagnostics: list) -> list[tuple[float, float]]:
    """Polish 1d root seeds of ``f(t) -> (value, slope)``, deduplicate, and
    keep only transverse roots; each dropped seed or root appends a message
    to ``diagnostics``.  ``f(t, False)`` gives the value alone (its slope
    None), bit for bit, for the second difference.

    Transversality is double-root aware: a polish that slides into a
    quadratic tangency stops at |slope| ~ sqrt(2 |d2| tol), which can exceed
    a naive slope threshold, so roots whose slope is within a factor 30 of
    that stopping radius are rejected as "the tangency itself".
    """
    roots: list[tuple[float, float]] = []
    for tseed in seeds:
        try:
            t, _, slope, _, _ = newton_1d(lambda t: (*f(t), None), tseed,
                                          tol=ROOT_TOL, name=label)
        except NumericalError:
            diagnostics.append(f"{label} seed t={tseed:.3e} failed to converge")
            continue
        if any(abs(t - r) < 1e-10 + 1e-7 * abs(t) for r, _ in roots):
            continue
        d2, hh = None, 1e-6
        for _ in range(4):
            try:
                d2 = (f(t + hh, False)[0] - 2.0 * f(t, False)[0]
                      + f(t - hh, False)[0]) / (hh * hh)
                break
            except NumericalError:
                hh *= 0.1
        if d2 is None:
            continue
        if abs(slope) <= SLOPE_MIN or abs(slope) <= 30.0 * np.sqrt(2.0 * ROOT_TOL * abs(d2)):
            diagnostics.append(f"{label} root t={t:.3e} not transverse; dropped")
            continue
        roots.append((t, slope))
    return roots


def _exit_offset(model: SaddleModel, cm: GlobalMapCoeffs, curve: ForgeCurve,
                 n: int) -> float | None:
    """Exit offset r at stay n: T1 maps the strip exit (lambda^n x+, y- +- r)
    of the curve's image onto {y = 0} when r^2 = (-mu - c lambda^n x+) / d;
    None when r^2 <= 0."""
    r_sq = (-cm.mu - cm.c * model.multipliers.lam ** n * curve.xp) / cm.d
    return float(np.sqrt(r_sq)) if r_sq > 0.0 else None


def curve_points(model: SaddleModel, cm: GlobalMapCoeffs, curve: ForgeCurve, ret: tuple,
                 diagnostics: list) -> list[TransverseHomoclinic]:
    """Transverse zeros of the y-component of axis_jet(ybase + t, stays + ret).

    ``ret`` () is the split pair, where the curve itself crosses {y = 0};
    (n,) is the quartet at stay n, where one more return T1 o T0^n lands
    there.  Seeds come from the vertex model: the curve reaches the height h
    at tc +- sqrt((h - level) / D), for h = 0 (split pair) or the two heights
    gamma^-n (y- +- r) that T0^n carries to the exits y- +- r of
    ``_exit_offset`` (quartet).
    """
    if ret:
        r = _exit_offset(model, cm, curve, ret[0])
        g = model.multipliers.gamma ** (-ret[0])
        heights = () if r is None else (g * (cm.y_minus + r), g * (cm.y_minus - r))
    else:
        heights = (0.0,)
    seeds = []
    for height in heights:
        arg = (height - curve.level) / curve.D
        if arg > 0.0:
            off = float(np.sqrt(arg))
            seeds += [curve.tc + off, curve.tc - off]
    stays = curve.stays + ret
    k = stays[-1] if stays else None
    route = ("quartet" if ret else "split_pair") + ("_stage2" if curve.stays else "")

    def f(t, jacobian=True):
        # without the Jacobian each stay is one stay_exit, not a trajectory
        w, J = axis_jet(model, cm, curve.ybase + t, stays, jacobian=jacobian)
        return float(w[1]), float(J[1, 1]) if jacobian else None

    found = []
    label = route if k is None else f"{route}(k={k})"
    for t, slope in _polish_roots(f, seeds, label, diagnostics):
        y = curve.ybase + t
        found.append(TransverseHomoclinic(
            point=axis_jet(model, cm, y, curve.stays)[0], preimage=axis_point(model, y),
            t=t, slope=float(slope), route=route, k=k))
    return found


def find_transverse_homoclinics(model: SaddleModel, coeffs: GlobalMapCoeffs, mu: float,
                                diagnostics: list | None = None
                                ) -> list[TransverseHomoclinic]:
    """The split pair of the stage-one curve T1(W^u_loc) at the given mu,
    polished to |y| < ROOT_TOL: where mu*d < 0 the curve itself crosses the
    local stable manifold at t = +-sqrt(-mu/d) + o(1).

    Seeds that fail to converge and roots that are not transverse are
    dropped, with a message appended to ``diagnostics`` when a list is given.
    The quartet at stay n, where the doubly-iterated curve crosses in up to
    four points, is ``curve_points(model, cm, stage_one_curve(cm), (n,), ...)``.
    """
    cm = coeffs.with_mu(mu)
    return curve_points(model, cm, stage_one_curve(cm), (),
                        [] if diagnostics is None else diagnostics)


def quartet_stays(model: SaddleModel, cm: GlobalMapCoeffs, curve: ForgeCurve,
                  skip: int | None = None):
    """Even stay numbers n >= k* other than ``skip`` at which the curve's
    quartet is numerically usable: its exits sit well inside the strip
    (0 < r <= 0.3 delta/2) and the curve's level leaves it standing
    (gamma^-n y- >= 2 level)."""
    gamma, n_min = model.multipliers.gamma, k_star(model, cm)
    for n in range(n_min + n_min % 2, 81, 2):
        r = _exit_offset(model, cm, curve, n)
        if (n != skip and r is not None and r <= 0.3 * cm.delta / 2.0
                and gamma ** (-n) * cm.y_minus >= 2.0 * curve.level):
            yield n


# ---------------------------------------------------------------------------
# the induced coefficient of the composed global map


def predicted_c_signs(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int) -> tuple[int, int]:
    """Branch signs of the induced c from the closed forms (v2 term dropped)."""
    c, d, xp, b = coeffs.c, coeffs.d, coeffs.x_plus, coeffs.b
    gamma = model.multipliers.gamma
    if c * d * xp > 0:
        s_plus = b * np.sqrt(c * xp / d) / (4.0 * d * xp)
        s1 = int(np.sign((-1) ** 1 * 2.0 * c * d * s_plus))
    else:
        s_minus = np.sqrt(abs(c * xp / d))
        s1 = int(np.sign((-1) ** (1 + 1) * 2.0 * c * d * gamma ** k * s_minus))
    return s1, -s1


# ---------------------------------------------------------------------------
# the forge pipeline


@dataclass
class ForgeCertificate:
    """Outcome of the Lemma-2/3 pipeline: an admissible secondary tangency.

    The straddle witnesses are the nearest transverse preimages below and
    above the tangency preimage (pairing by nearest y-coordinate).
    ``branches`` maps every scheduled stay number to the branch pair the
    forge solved there; when some k's solve failed, only the ks the forge
    reached that solved.
    """

    branch: TangencyBranch
    c_product: float
    stages: int
    witnesses: dict
    diagnostics: list = field(default_factory=list)
    branches: dict = field(default_factory=dict)


STRADDLE_MARGIN = 1e-9


def _collect_and_check(cands: list[TransverseHomoclinic], y_hat: float) -> tuple[bool, dict]:
    # the transversality filters already rejected near-double roots; the
    # remaining margin only guards against exact numerical coincidence
    cands = [c for c in cands if abs(c.preimage[1] - y_hat) > STRADDLE_MARGIN]
    below = [c for c in cands if c.preimage[1] < y_hat]
    above = [c for c in cands if c.preimage[1] > y_hat]
    if below and above:
        lower = max(below, key=lambda c: c.preimage[1])
        upper = min(above, key=lambda c: c.preimage[1])
        return True, {"below": lower, "above": upper,
                      "gap_below": float(y_hat - lower.preimage[1]),
                      "gap_above": float(upper.preimage[1] - y_hat)}
    return False, {"candidate_ys": [float(c.preimage[1]) for c in cands], "y_hat": y_hat}


def _straddle(model: SaddleModel, coeffs: GlobalMapCoeffs, branch: TangencyBranch,
              diagnostics: list,
              extra: list[TransverseHomoclinic] | None = None) -> tuple[bool, dict]:
    """Check the straddle property on stage one's points (and ``extra``):
    split pair first, the quartets of the first three usable stays as
    fallback."""
    mu, cm = branch.mu_k, coeffs.with_mu(branch.mu_k)
    cands = list(extra or ()) + find_transverse_homoclinics(model, coeffs, mu,
                                                            diagnostics=diagnostics)
    y_hat = float(branch.preimage[1])
    ok, witnesses = _collect_and_check(cands, y_hat)
    if ok:
        return ok, witnesses
    curve = stage_one_curve(cm)
    for n in islice(quartet_stays(model, cm, curve, skip=branch.k), 3):
        cands += curve_points(model, cm, curve, (n,), diagnostics)
    return _collect_and_check(cands, y_hat)


def forge_admissible_tangency(model: SaddleModel, coeffs: GlobalMapCoeffs,
                              k_schedule) -> ForgeCertificate:
    """Lemma-2/3 pipeline: pick the branch whose induced c gives
    c * x+ * y- > 0 and certify the straddle property, taking the two-stage
    route (tangency of tangency) when the sign case requires it.

    The whole schedule's branch pairs come from one lock-step
    ``solve_secondary_tangency`` call, so the certificate holds every
    scheduled k.  When some k's solve raises, the walk solves each k it
    reaches on its own instead, as the per-k calls did: a k whose solve
    fails is a diagnostics line, and only the ks up to the certified one
    are solved.
    """
    diagnostics = []
    try:
        solved = solve_secondary_tangency(model, coeffs, k_schedule)
    except HetdimError:
        # the walk raises, or records, each k's own error where it gets there
        solved = {}
    for k in k_schedule:
        try:
            if k not in solved:
                solved[k] = solve_secondary_tangency(model, coeffs, k)
        except ConvergenceError as exc:
            diagnostics.append(f"k={k}: secondary solve failed: {exc}")
            continue
        branches = solved[k]
        for br in branches:
            # x+ and y- of the global map induced around the new tangency orbit
            y = float(br.preimage[1])
            xp_eff = float(axis_jet(model, coeffs.with_mu(br.mu_k), y, (k,))[0][0])
            prod = br.c_value * xp_eff * y
            if prod > 0.0:
                break
        else:
            diagnostics.append(f"k={k}: no branch with positive c*x+*y- "
                               f"(signs {[b.c_sign for b in branches]})")
            continue
        ok, witnesses = _straddle(model, coeffs, br, diagnostics)
        br.straddle_ok = ok
        if ok:
            return ForgeCertificate(branch=br, c_product=prod, stages=1, witnesses=witnesses,
                                    diagnostics=diagnostics, branches=solved)
        # two-stage route: perturb the secondary tangency once more and use
        # its persistent transverse points as outer witnesses; either branch
        # of the first stage may carry the admissible configuration
        for base in branches:
            try:
                cert = _second_stage(model, coeffs, base, k, diagnostics)
            except NumericalError as exc:
                diagnostics.append(f"k={k}: second stage on branch {base.branch} "
                                   f"failed: {exc}")
                continue
            if cert is not None:
                cert.diagnostics, cert.branches = diagnostics, solved
                return cert
        diagnostics.append(f"k={k}: straddle not restored by second stage")
    raise HypothesisError("forge schedule exhausted: " + "; ".join(diagnostics))


def stage_two_curve(model: SaddleModel, coeffs: GlobalMapCoeffs,
                    base: TangencyBranch) -> ForgeCurve:
    """The composed curve T1 o T0^k o T1 around the stage-one tangency
    preimage at its mu_k: x+ and b from the jet and its exact Jacobian, D
    from a second difference."""
    h, ybase, cm = 1e-6, float(base.preimage[1]), coeffs.with_mu(base.mu_k)
    w0, J = axis_jet(model, cm, ybase, (base.k,), jacobian=True)
    wp, wm = (axis_jet(model, cm, ybase + s, (base.k,))[0] for s in (h, -h))
    return ForgeCurve(ybase, (base.k,), 0.0, float(w0[1]),
                      D=float(wp[1] - 2.0 * w0[1] + wm[1]) / (h * h) / 2.0,
                      xp=float(w0[0]), b=float(J[0, 1]))


def vertex_at(model: SaddleModel, coeffs: GlobalMapCoeffs, curve: ForgeCurve, mu: float,
              tc_guess: float) -> ForgeCurve:
    """The curve at mu, its vertex (tc, level) found by ``newton_1d`` on the
    jet's exact slope from ``tc_guess``, with the curvature 2 D held fixed;
    it stops at the slope's ``fold_tol`` at tc_guess (input: ybase + t)."""
    cm = coeffs.with_mu(mu)

    def slope(t: float) -> tuple[float, float, float]:
        w, J = axis_jet(model, cm, curve.ybase + t, curve.stays, jacobian=True)
        return float(J[1, 1]), 2.0 * curve.D, float(w[1])

    tol = fold_tol(lambda t: slope(t)[0], tc_guess, [np.spacing(curve.ybase + tc_guess)])
    tc, _, _, level, _ = newton_1d(slope, tc_guess, tol=tol, name="stage-two vertex")
    return replace(curve, tc=tc, level=level)


def _second_stage(model: SaddleModel, coeffs: GlobalMapCoeffs, base: TangencyBranch,
                  k: int, diagnostics: list) -> ForgeCertificate | None:
    """Tangency-of-tangency: split the secondary tangency along delta^k_j.

    The composed map T1 o T0^k o T1 plays the role of the global map; its
    effective coefficients seed the tertiary solve, and the straddle is
    inherited from the stage-one tangency's transverse points, which persist
    at the nearby parameter value.  Every curve parameter t of this stage is
    the offset from the stage-one preimage: the axis point ybase + t.  mu
    enters each T1 additively in its y row, so the composed height moves
    with mu at 1 + J[1, 1], J that of T1 o T0^k at T1(preimage).  The
    tertiary slope row stops at ``fold_tol`` at its seed, its slope_tol.
    """
    ybase, mu_base = float(base.preimage[1]), base.mu_k
    curve = stage_two_curve(model, coeffs, base)
    cm = coeffs.with_mu(mu_base)
    dmu = 1.0 + float(first_return_array(model, cm, t1_array(cm, base.preimage), k)[1][1, 1])

    # the composed curve's critical parameter drifts with mu; without this
    # recentering the seeds land outside the stay-k strip of the first leg
    sp, sm = (axis_jet(model, coeffs.with_mu(mu_base + s), ybase, (k,), jacobian=True)[1][1, 1]
              for s in (1e-8, -1e-8))
    dtc_dmu = -float(sp - sm) / 2e-8 / (2.0 * curve.D)

    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    # the delta^k_j sequence accumulates on mu_k, so the needed mu-shift
    # shrinks only for j > k: smaller j would wreck the stay-k itinerary of
    # the composed map's first leg.  Seeds come from the same dominant
    # balance as the secondary solve, with the curve side played by the
    # composed map (b', d', x+') and the final leg by the original (c, d).
    for j in range(k + 2, k + 14, 2):
        r = _exit_offset(model, cm, curve, j)
        if r is None:
            continue
        for Yp in (r, -r):
            # degeneracy of the mixed system pairs the composed curve's
            # curvature D with the final leg's d: X'Y' = -c b'^2 lam^j gamma^-j/(4 d D)
            Xp = (-coeffs.c * curve.b ** 2 * lam ** j * gamma ** (-j)
                  / (4.0 * coeffs.d * curve.D * Yp))
            mu_eff_needed = gamma ** (-j) * (coeffs.y_minus + Yp)
            # the linearized mu-shift that lifts the composed curve's vertex
            # to the needed gamma^-j height, and the vertex itself there
            mu_seed = mu_base + mu_eff_needed / dmu
            try:
                tc = vertex_at(model, coeffs, curve, mu_seed, dtc_dmu * (mu_seed - mu_base)).tc
            except NumericalError:
                continue
            tseed = tc + Xp / curve.b

            def F(u: Array) -> Array:
                t, mu = u
                w3, J = axis_jet(model, coeffs.with_mu(mu), ybase + t, (k, j), jacobian=True)
                return np.array([w3[1], J[1, 1]])

            try:
                slope_tol = fold_tol(lambda u: F(u)[1], np.array([tseed, mu_seed]),
                                     [np.array([np.spacing(ybase + tseed), 0.0])])
                u, res, _ = newton_solve(F, np.array([tseed, mu_seed]),
                                         scales=np.array([1e-4, max(abs(mu_seed), 1e-6)]),
                                         tol=np.array([1e-13, slope_tol]),
                                         accept_tol=np.array([1e-11, 30.0 * slope_tol]),
                                         max_iter=40,
                                         name=f"tertiary tangency j={j}")
            except NumericalError:
                continue
            t3, mu3 = float(u[0]), float(u[1])
            cm3 = coeffs.with_mu(mu3)
            try:
                # reject solutions whose j-leg exits near the strip boundary
                # (Newton occasionally settles on such artifacts)
                w2, _ = axis_jet(model, cm3, ybase + t3, (k,))
                if abs(stay_exit(model, w2, j)[1] - cm3.y_minus) >= 0.7 * cm3.delta / 2.0:
                    continue
                y3 = ybase + t3
                # c of the induced (triple-composed) global map decides csign
                w3, J3 = axis_jet(model, cm3, y3, (k, j), jacobian=True)
                xp3, c3 = float(w3[0]), float(J3[1, 0])
                br3 = TangencyBranch(k=j, branch=1 if Yp > 0 else 2, mu_k=mu3,
                                     X=t3 * curve.b, Y=float("nan"), residual=res,
                                     case=case_tag(coeffs) + "+stage2",
                                     tangency_point=w2, preimage=axis_point(model, y3),
                                     t_param=t3, c_sign=int(np.sign(c3)), c_value=c3,
                                     slope_tol=slope_tol)
                prod = c3 * xp3 * y3
                if prod <= 0.0:
                    continue
                # straddle from stage-one structures persisting at mu3, and
                # the composed curve's own split pair and its quartet at the
                # first usable stay other than j
                curve3 = vertex_at(model, coeffs, curve, mu3, t3)
                extra = curve_points(model, cm3, curve3, (), diagnostics)
                for n in quartet_stays(model, cm3, curve3, skip=j):
                    quartet = curve_points(model, cm3, curve3, (n,), diagnostics)
                    if quartet:
                        extra += quartet
                        break
                ok, witnesses = _straddle(model, cm3, br3, diagnostics, extra=extra)
            except NumericalError:
                continue
            if not ok:
                continue
            br3.straddle_ok = True
            return ForgeCertificate(branch=br3, c_product=prod, stages=2, witnesses=witnesses)
    return None


# ---------------------------------------------------------------------------
# CSV emission


def branches_to_csv(branches: list[TangencyBranch]) -> str:
    lines = ["k,branch,mu_k,X,Y,c_sign,straddle_ok,residual"]
    for br in branches:
        lines.append(f"{br.k},{br.branch},{br.mu_k:.17g},{br.X:.17g},{br.Y:.17g},"
                     f"{br.c_sign if br.c_sign is not None else ''},"
                     f"{br.straddle_ok if br.straddle_ok is not None else ''},"
                     f"{br.residual:.17g}")
    return "\n".join(lines) + "\n"
