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

from dataclasses import dataclass, field

import numpy as np

from .errors import ConvergenceError, HypothesisError, ItineraryError, NumericalError
from .global_map import GlobalMapCoeffs, first_return_array, t1_array, t1_jac_array
from .local import solve_cross_form
from .numerics import newton_1d, newton_solve
from .saddle import SaddleModel, SplitVector, jacobian_along, orbit

Array = np.ndarray


def case_tag(coeffs: GlobalMapCoeffs) -> str:
    cdx = coeffs.c * coeffs.d * coeffs.x_plus
    return ("cdx_pos" if cdx > 0 else "cdx_neg") + ("_d_pos" if coeffs.d > 0 else "_d_neg")


def curve_point(coeffs: GlobalMapCoeffs, t: float) -> Array:
    """Point of T1(W^u_loc) at unstable-manifold parameter t = y1 - y-."""
    dim = 2 + coeffs.z_plus.size
    v = np.zeros(dim)
    v[1] = coeffs.y_minus + t
    return t1_array(coeffs, v)


def curve_tangent(coeffs: GlobalMapCoeffs, t: float) -> Array:
    dim = 2 + coeffs.z_plus.size
    v = np.zeros(dim)
    v[1] = coeffs.y_minus + t
    return t1_jac_array(coeffs, v)[:, 1]


def double_return_y(model: SaddleModel, coeffs: GlobalMapCoeffs, t: float, k: int,
                    with_slope: bool = False):
    """y-component (and optionally d/dt) of T1 o T0^k applied to the curve."""
    out, J = first_return_array(model, coeffs, curve_point(coeffs, t), k,
                                with_jacobian=with_slope)
    if not with_slope:
        return float(out[1])
    slope = float((J @ curve_tangent(coeffs, t))[1])
    return float(out[1]), slope


# ---------------------------------------------------------------------------
# secondary tangencies


@dataclass
class TangencyBranch:
    """One solved secondary-tangency branch at stay number k.

    X = x - x+ and Y = y_k - y- are the offsets of the tangency point along
    the curve and at the strip exit; mu_k is the splitting value creating the
    tangency.  transverse_points holds the straddling preimages on the local
    unstable manifold once the forge has certified them.
    """

    k: int
    branch: int
    mu_k: float
    X: float
    Y: float
    residual: float
    case: str
    tangency_point: SplitVector
    preimage: SplitVector
    t_param: float = 0.0
    c_sign: int | None = None
    c_value: float | None = None
    straddle_ok: bool | None = None
    transverse_points: list[SplitVector] = field(default_factory=list)
    pairing: dict = field(default_factory=dict)


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


def solve_secondary_tangency(model: SaddleModel, coeffs: GlobalMapCoeffs,
                             k: int) -> list[TangencyBranch]:
    """Both secondary-tangency branches at stay number k.

    Newton on (X, Y, mu): cross-form consistency of the curve point, the
    homoclinic condition after the second global-map application, and the
    vanishing derivative along the curve (quadratic contact).  Seeds come
    from the scaled-limit solutions and are polished to residual 1e-12.
    """
    if k % 2 != 0:
        raise ValueError("itinerary parity: k must be even")
    lam = model.multipliers.lam
    gamma = model.multipliers.gamma
    b = coeffs.b
    e3 = coeffs.e3
    d = coeffs.d

    def residuals(u: Array) -> Array:
        X, Y, mu = u
        cm = coeffs.with_mu(mu)
        t = X / b
        x0 = coeffs.x_plus + X
        z0 = coeffs.z_plus + coeffs.b_t * t
        cf = solve_cross_form(model, x0, coeffs.y_minus + Y, z0, k)
        y_curve = mu + d * t * t + e3 * t ** 3
        r1 = y_curve - cf.y_0
        endpoint = np.concatenate(([cf.x_k, coeffs.y_minus + Y], cf.z_k))
        r2 = (mu + coeffs.c * cf.x_k + d * Y * Y + coeffs.alpha2 @ cf.z_k + e3 * Y ** 3)
        # tangency: derivative of the composed y along the curve, chained
        # through the cross-form-consistent orbit
        traj = orbit(model, np.concatenate(([x0, cf.y_0], z0)), k)
        w = jacobian_along(model, traj) @ curve_tangent(cm, t)
        r3 = float((t1_jac_array(cm, endpoint) @ w)[1])
        return np.array([r1, r2, r3])

    branches = []
    for branch_id, sign in ((1, +1), (2, -1)):
        X0, Y0, mu0 = _seed(coeffs, lam, gamma, k, sign)
        # FD steps must stay above the float resolution of x+ + X and
        # y- + Y, but the Y probe must also not dwarf a deeply suppressed
        # branch seed (it would step onto a neighboring solution branch)
        scales = np.array([0.01 * abs(b), min(0.01, max(10.0 * abs(Y0), 1e-9)),
                           max(10.0 * abs(mu0), 1e-6)])
        try:
            u, _, _ = newton_solve(residuals, np.array([X0, Y0, mu0]),
                                   scales=scales,
                                   tol=np.array([1e-14, 1e-14, 1e-13]),
                                   accept_tol=np.array([1e-12, 1e-12, 1e-10]),
                                   max_iter=60,
                                   name=f"secondary tangency k={k} branch {branch_id}")
        except (ConvergenceError, NumericalError) as exc:
            raise ConvergenceError(
                f"secondary tangency diverged (k={k}, branch {branch_id}, "
                f"seed=({X0:.3e}, {Y0:.3e}, {mu0:.3e})): {exc}",
                seed=(X0, Y0, mu0)) from exc
        X, Y, mu = u
        r_final = residuals(u)
        res = float(max(abs(r_final[0]), abs(r_final[1])))
        t = X / b
        cm = coeffs.with_mu(mu)
        point = SplitVector.from_array(curve_point(cm, t))
        pre = SplitVector(0.0, coeffs.y_minus + t, np.zeros(model.dim - 2))
        branches.append(TangencyBranch(
            k=k, branch=branch_id, mu_k=float(mu), X=float(X), Y=float(Y),
            residual=res, case=case_tag(coeffs), tangency_point=point,
            preimage=pre, t_param=float(t)))
    return branches


def verify_tangency_branch(model: SaddleModel, coeffs: GlobalMapCoeffs,
                           branch: TangencyBranch,
                           h: float = 1e-6) -> tuple[float, float, float, float]:
    """Independent double-root check of the solved branch.

    Carries the preimage through the composed map T1 o T0^k o T1 by direct
    forward iteration.  Returns (|value at t*|, |slope at the vertex|,
    second derivative, |vertex offset from t*|): the direct path's critical
    point must coincide with the claimed parameter, and the contact must be
    quadratic.  Slopes use the exact chained derivative; the raw slope at t*
    itself only reflects the last-ulp placement of t* against a curvature of
    order gamma^k.
    """
    cm = coeffs.with_mu(branch.mu_k)
    t = branch.t_param
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
    """A transverse homoclinic point with its unstable-manifold preimage."""

    point: SplitVector
    preimage: SplitVector
    t: float
    slope: float
    route: str        # "split_pair" (mu*d < 0) or "quartet"
    k: int | None


SLOPE_MIN = 1e-6  # transversality threshold on |dy0/dt|
ROOT_TOL = 1e-13  # residual tolerance of the root polish


def _polish_roots(f, seeds, label: str, diagnostics: list) -> list[tuple[float, float]]:
    """Polish 1d root seeds of ``f(t) -> (value, slope)``, deduplicate, and
    keep only transverse roots; each dropped seed or root appends a message
    to ``diagnostics``.

    Transversality is double-root aware: a polish that slides into a
    quadratic tangency stops at |slope| ~ sqrt(2 |d2| tol), which can exceed
    a naive slope threshold, so roots whose slope is within a factor 30 of
    that stopping radius are rejected as "the tangency itself".
    """
    roots: list[tuple[float, float]] = []
    h = 1e-6
    for tseed in seeds:
        try:
            t, _, slope, _, _ = newton_1d(lambda t: (*f(t), None), tseed,
                                          tol=ROOT_TOL, name=label)
        except NumericalError:
            diagnostics.append(f"{label} seed t={tseed:.3e} failed to converge")
            continue
        if any(abs(t - r) < 1e-10 + 1e-7 * abs(t) for r, _ in roots):
            continue
        d2 = None
        hh = h
        for _ in range(4):
            try:
                d2 = (f(t + hh)[0] - 2.0 * f(t)[0] + f(t - hh)[0]) / (hh * hh)
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


def find_transverse_homoclinics(model: SaddleModel, coeffs: GlobalMapCoeffs, mu: float,
                                k_range=(), diagnostics: list | None = None
                                ) -> list[TransverseHomoclinic]:
    """Transverse homoclinic points at the given mu, polished to residual 1e-12.

    Route "split_pair" (needs mu*d < 0): the curve itself crosses the local
    stable manifold at t = +-sqrt(-mu/d) + o(1).  Route "quartet": for each k
    in k_range, the doubly-iterated curve crosses it in four points seeded
    from the gamma^(-k/2) asymptotics.  Seeds that fail to converge and
    roots that are not transverse are dropped, with a message appended to
    ``diagnostics`` when a list is given.
    """
    if diagnostics is None:
        diagnostics = []
    cm = coeffs.with_mu(mu)
    d, b, ym = coeffs.d, coeffs.b, coeffs.y_minus
    found: list[TransverseHomoclinic] = []

    if mu * d < 0.0:
        t0 = float(np.sqrt(-mu / d))

        def f(t):
            val = mu + d * t * t + coeffs.e3 * t ** 3
            return val, 2.0 * d * t + 3.0 * coeffs.e3 * t * t

        for t, slope in _polish_roots(f, (t0, -t0), "split-pair", diagnostics):
            found.append(TransverseHomoclinic(
                point=SplitVector.from_array(curve_point(cm, t)),
                preimage=SplitVector(0.0, ym + t, np.zeros(model.dim - 2)),
                t=t, slope=float(slope), route="split_pair", k=None))

    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    for k in k_range:
        lead = (ym - mu * gamma ** k) / d
        if lead <= 0.0:
            continue
        t0 = float(gamma ** (-k / 2.0) * np.sqrt(lead))
        rho = abs(lam) ** (k / 2.0) * np.sqrt(abs(coeffs.c * coeffs.x_plus / d)) / (2.0 * ym)
        seeds = [t0 * (1.0 + rho), t0 * (1.0 - rho), -t0 * (1.0 + rho), -t0 * (1.0 - rho)]

        def g(t, k=k):
            return double_return_y(model, cm, t, k, with_slope=True)

        for t, slope in _polish_roots(g, seeds, f"quartet(k={k})", diagnostics):
            found.append(TransverseHomoclinic(
                point=SplitVector.from_array(curve_point(cm, t)),
                preimage=SplitVector(0.0, ym + t, np.zeros(model.dim - 2)),
                t=t, slope=float(slope), route="quartet", k=k))
    return found


# ---------------------------------------------------------------------------
# the induced coefficient of the composed global map


def composed_return_y(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array, k: int) -> float:
    """y-component of T1 o T0^k o T1 at a point of Pi1 (flat array)."""
    out, _ = first_return_array(model, coeffs, t1_array(coeffs, v), k, with_jacobian=False)
    return float(out[1])


def secondary_c_coefficient(model: SaddleModel, coeffs: GlobalMapCoeffs,
                            branch: TangencyBranch, method: str = "auto") -> float:
    """d(G_y)/dx at the tangency preimage, G = T1 o T0^k o T1.

    Central finite differences through the composed map where the probe
    window allows: the step must keep the perturbed orbit inside the stay-k
    strip (an x-offset h moves the curve level by ~c*h, amplified by
    gamma^k), which at deep k shrinks the FD signal below float noise.
    There the exact chained derivative takes over ("auto").
    """
    cm = coeffs.with_mu(branch.mu_k)
    gam = abs(model.multipliers.gamma)
    h = min(1e-7, 1e-3 * coeffs.delta * gam ** (-branch.k) / max(abs(coeffs.c), 1.0))
    if method == "auto":
        method = "fd" if h > 3e-11 else "chain"
    if method == "chain":
        # chain through the cross-form-consistent orbit: the direct path
        # loses the suppressed exit offset Y to the cancellation in the
        # curve height, and with it the sign of the 2 d Y Jacobian entry
        t = branch.t_param
        x0 = coeffs.x_plus + branch.X
        z0 = coeffs.z_plus + coeffs.b_t * t
        cf = solve_cross_form(model, x0, coeffs.y_minus + branch.Y, z0, branch.k)
        v = branch.preimage.as_array()
        traj = orbit(model, np.concatenate(([x0, cf.y_0], z0)), branch.k)
        J = jacobian_along(model, traj, t1_jac_array(cm, v))
        endpoint = np.concatenate(([cf.x_k, coeffs.y_minus + branch.Y], cf.z_k))
        val = float((t1_jac_array(cm, endpoint) @ J)[1, 0])
    else:
        base = branch.preimage.as_array()
        vp, vm = base.copy(), base.copy()
        vp[0] += h
        vm[0] -= h
        val = (composed_return_y(model, cm, vp, branch.k)
               - composed_return_y(model, cm, vm, branch.k)) / (2.0 * h)
    if abs(val) < 1e-14:
        raise HypothesisError("secondary c coefficient is sign-indeterminate (|value| < 1e-14)")
    return float(val)


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
    """

    branch: TangencyBranch
    c_product: float
    straddle_ok: bool
    csign_ok: bool
    stages: int
    witnesses: dict
    diagnostics: list = field(default_factory=list)


def _effective_xplus_yminus(model: SaddleModel, coeffs: GlobalMapCoeffs,
                            branch: TangencyBranch) -> tuple[float, float]:
    """x+ and y- of the global map induced around the new tangency orbit."""
    cm = coeffs.with_mu(branch.mu_k)
    out, _ = first_return_array(model, cm, branch.tangency_point.as_array(),
                                branch.k, with_jacobian=False)
    return float(out[0]), float(branch.preimage.y)


def quartet_stay_numbers(model: SaddleModel, coeffs: GlobalMapCoeffs, mu: float,
                         limit: int = 3) -> list[int]:
    """Stay numbers at which the persistent quartet is numerically usable:
    its points must sit well inside the strip (offsets a fraction of delta/2)
    and survive the splitting (mu*gamma^k well below y-)."""
    from .global_map import k_star
    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    s = np.sqrt(abs(coeffs.c * coeffs.x_plus / coeffs.d))
    out = []
    for k in range(k_star(model, coeffs) + (k_star(model, coeffs) % 2), 81, 2):
        if abs(lam) ** (k / 2.0) * s > 0.3 * coeffs.delta / 2.0:
            continue
        if mu * gamma ** k > 0.5 * coeffs.y_minus:
            break
        if (coeffs.y_minus - mu * gamma ** k) / coeffs.d <= 0.0:
            continue
        out.append(k)
        if len(out) >= limit:
            break
    return out


STRADDLE_MARGIN = 1e-9


def _collect_and_check(cands: list[TransverseHomoclinic], y_hat: float) -> tuple[bool, dict]:
    # the transversality filters already rejected near-double roots; the
    # remaining margin only guards against exact numerical coincidence
    cands = [c for c in cands if abs(c.preimage.y - y_hat) > STRADDLE_MARGIN]
    below = [c for c in cands if c.preimage.y < y_hat]
    above = [c for c in cands if c.preimage.y > y_hat]
    if below and above:
        lower = max(below, key=lambda c: c.preimage.y)
        upper = min(above, key=lambda c: c.preimage.y)
        return True, {"below": lower, "above": upper,
                      "gap_below": y_hat - lower.preimage.y,
                      "gap_above": upper.preimage.y - y_hat}
    return False, {"candidate_ys": [c.preimage.y for c in cands], "y_hat": y_hat}


def _straddle(model: SaddleModel, coeffs: GlobalMapCoeffs, branch: TangencyBranch,
              diagnostics: list,
              extra: list[TransverseHomoclinic] | None = None) -> tuple[bool, dict]:
    """Check the straddle property; split pair first, quartet as fallback."""
    mu = branch.mu_k
    cands = list(extra) if extra else []
    cands += find_transverse_homoclinics(model, coeffs, mu, k_range=(),
                                         diagnostics=diagnostics)
    ok, witnesses = _collect_and_check(cands, branch.preimage.y)
    if ok:
        return ok, witnesses
    ks = [kk for kk in quartet_stay_numbers(model, coeffs, mu) if kk != branch.k]
    cands += find_transverse_homoclinics(model, coeffs, mu, k_range=ks,
                                         diagnostics=diagnostics)
    return _collect_and_check(cands, branch.preimage.y)


def forge_admissible_tangency(model: SaddleModel, coeffs: GlobalMapCoeffs,
                              k_schedule) -> ForgeCertificate:
    """Lemma-2/3 pipeline: pick the branch whose induced c gives
    c * x+ * y- > 0 and certify the straddle property, taking the two-stage
    route (tangency of tangency) when the sign case requires it.
    """
    diagnostics = []
    for k in k_schedule:
        try:
            branches = solve_secondary_tangency(model, coeffs, k)
        except ConvergenceError as exc:
            diagnostics.append(f"k={k}: secondary solve failed: {exc}")
            continue
        chosen = None
        for br in branches:
            br.c_value = secondary_c_coefficient(model, coeffs, br)
            br.c_sign = int(np.sign(br.c_value))
            xp_eff, ym_eff = _effective_xplus_yminus(model, coeffs, br)
            prod = br.c_value * xp_eff * ym_eff
            if prod > 0.0 and chosen is None:
                chosen = (br, prod)
        if chosen is None:
            diagnostics.append(f"k={k}: no branch with positive c*x+*y- "
                               f"(signs {[b.c_sign for b in branches]})")
            continue
        br, prod = chosen
        ok, witnesses = _straddle(model, coeffs, br, diagnostics)
        if ok:
            br.straddle_ok = True
            br.transverse_points = [witnesses["below"].preimage, witnesses["above"].preimage]
            return ForgeCertificate(branch=br, c_product=prod, straddle_ok=True,
                                    csign_ok=True, stages=1, witnesses=witnesses,
                                    diagnostics=diagnostics)
        # two-stage route: perturb the secondary tangency once more and use
        # its persistent transverse points as outer witnesses; either branch
        # of the first stage may carry the admissible configuration
        cert = None
        for base in branches:
            try:
                cert = _second_stage(model, coeffs, base, k, diagnostics)
            except (ConvergenceError, NumericalError) as exc:
                diagnostics.append(f"k={k}: second stage on branch {base.branch} "
                                   f"failed: {exc}")
                cert = None
            if cert is not None:
                break
        if cert is not None:
            cert.diagnostics = diagnostics
            return cert
        diagnostics.append(f"k={k}: straddle not restored by second stage")
    raise HypothesisError("forge schedule exhausted: " + "; ".join(diagnostics))


def _second_stage(model: SaddleModel, coeffs: GlobalMapCoeffs, base: TangencyBranch,
                  k: int, diagnostics: list) -> ForgeCertificate | None:
    """Tangency-of-tangency: split the secondary tangency along delta^k_j.

    The composed map T1 o T0^k o T1 plays the role of the global map; its
    effective coefficients seed the tertiary solve, and the straddle is
    inherited from the stage-one tangency's transverse points, which persist
    at the nearby parameter value.
    """
    t_base = base.t_param
    ym_eff = base.preimage.y
    mu_base = base.mu_k

    def G(t: float, mu: float) -> float:
        v = np.concatenate(([0.0, ym_eff + t], np.zeros(model.dim - 2)))
        return composed_return_y(model, coeffs.with_mu(mu), v, k)

    h = 1e-6
    # effective coefficients of the composed map around the tangency
    b_eff = (_composed_x(model, coeffs, mu_base, t_base + h, k)
             - _composed_x(model, coeffs, mu_base, t_base - h, k)) / (2 * h)
    d_eff = (G(h, mu_base) - 2.0 * G(0.0, mu_base) + G(-h, mu_base)) / (h * h) / 2.0
    xp_eff, _ = _effective_xplus_yminus(model, coeffs, base)
    dmu = (G(0.0, mu_base + 1e-8) - G(0.0, mu_base - 1e-8)) / 2e-8
    # the composed curve's critical parameter drifts with mu; without this
    # recentering the seeds land outside the stay-k strip of the first leg
    hm = 1e-8
    g_tmu = ((G(h, mu_base + hm) - G(-h, mu_base + hm))
             - (G(h, mu_base - hm) - G(-h, mu_base - hm))) / (4.0 * h * hm)
    dtc_dmu = -g_tmu / (2.0 * d_eff)

    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    c_orig, d_orig, ym_orig = coeffs.c, coeffs.d, coeffs.y_minus
    # the delta^k_j sequence accumulates on mu_k, so the needed mu-shift
    # shrinks only for j > k: smaller j would wreck the stay-k itinerary of
    # the composed map's first leg.  Seeds come from the same dominant
    # balance as the secondary solve, with the curve side played by the
    # composed map (b', d', x+') and the final leg by the original (c, d).
    for j in range(k + 2, k + 14, 2):
        y_sq = (-mu_base - c_orig * lam ** j * xp_eff) / d_orig
        if y_sq <= 0.0:
            continue
        for sign in (+1, -1):
            Yp = sign * float(np.sqrt(y_sq))
            # degeneracy of the mixed system pairs the curve-side curvature
            # d_eff with the final leg's d: X'Y' = -c b'^2 lam^j gamma^-j/(4 d d')
            Xp = -c_orig * b_eff ** 2 * lam ** j * gamma ** (-j) / (4.0 * d_orig * d_eff * Yp)
            mu_eff_needed = gamma ** (-j) * (ym_orig + Yp)
            # precondition: walk mu until the composed curve's critical level
            # sits at the needed gamma^-j height (the linearized envelope is
            # not accurate enough across this mu-shift)
            mu_seed = mu_base + mu_eff_needed / dmu
            tc = dtc_dmu * (mu_seed - mu_base)
            try:
                for _ in range(8):
                    tc, level = _composed_critical(model, coeffs, base, mu_seed, k, tc,
                                                   d_eff, h)
                    if abs(level - mu_eff_needed) < 1e-2 * abs(mu_eff_needed):
                        break
                    mu_seed -= (level - mu_eff_needed) / dmu
            except NumericalError:
                continue
            tseed = tc + Xp / b_eff

            def F(u: Array) -> Array:
                t, mu = u
                w3, J = _tertiary_jet(model, coeffs.with_mu(mu), base, t, k, j)
                return np.array([w3[1], J[1, 1]])

            # the slope cannot be driven below |G''| * ulp(y): the curve
            # parameter is only resolvable to the float granularity of y
            try:
                g3p = _tertiary_y(model, coeffs.with_mu(mu_seed), base, tseed + h, k, j)
                g3o = _tertiary_y(model, coeffs.with_mu(mu_seed), base, tseed, k, j)
                g3m = _tertiary_y(model, coeffs.with_mu(mu_seed), base, tseed - h, k, j)
            except NumericalError:
                continue
            d2_3 = (g3p - 2.0 * g3o + g3m) / (h * h)
            slope_floor = max(1e-12, 3.0 * abs(d2_3) * 1.2e-16 * max(1.0, abs(ym_eff)))
            try:
                u, res, _ = newton_solve(F, np.array([tseed, mu_seed]),
                                         scales=np.array([1e-4, max(abs(mu_seed), 1e-6)]),
                                         tol=np.array([1e-13, slope_floor]),
                                         accept_tol=np.array([1e-11, 30.0 * slope_floor]),
                                         max_iter=40,
                                         name=f"tertiary tangency j={j}")
            except (ConvergenceError, NumericalError):
                continue
            t3, mu3 = u
            if not _tertiary_exit_interior(model, coeffs.with_mu(mu3), base, t3, k, j):
                continue
            try:
                pre3 = SplitVector(0.0, ym_eff + t3, np.zeros(model.dim - 2))
                # c of the induced (triple-composed) global map decides csign
                w3, J3 = _tertiary_jet(model, coeffs.with_mu(mu3), base, t3, k, j)
                xp3, c3 = float(w3[0]), float(J3[1, 0])
                point3 = SplitVector.from_array(
                    _tertiary_point(model, coeffs.with_mu(mu3), base, t3, k))
                br3 = TangencyBranch(k=j, branch=1 if sign > 0 else 2, mu_k=float(mu3),
                                     X=float(t3 * b_eff), Y=float("nan"), residual=res,
                                     case=case_tag(coeffs) + "+stage2",
                                     tangency_point=point3, preimage=pre3, t_param=float(t3))
                br3.c_value = c3
                br3.c_sign = int(np.sign(c3))
                prod = c3 * xp3 * pre3.y
                if prod <= 0.0:
                    continue
                # straddle from stage-one structures persisting at mu3, the
                # pair born from splitting the secondary tangency itself, and
                # the composed map's persistent quartet
                extra = _composed_split_pair(model, coeffs, base, mu3, k, diagnostics)
                tc3, level3 = _composed_critical(model, coeffs, base, mu3, k, t3, d_eff)
                extra += _composed_quartet(model, coeffs, base, mu3, k, d_eff,
                                           tc3, level3, xp_eff, j_skip=j,
                                           diagnostics=diagnostics)
                ok, witnesses = _straddle(model, coeffs.with_mu(mu3), br3, diagnostics,
                                          extra=extra)
            except NumericalError:
                continue
            if not ok:
                continue
            br3.straddle_ok = True
            br3.transverse_points = [witnesses["below"].preimage, witnesses["above"].preimage]
            return ForgeCertificate(branch=br3, c_product=prod, straddle_ok=True,
                                    csign_ok=True, stages=2, witnesses=witnesses)
    return None


def _composed_x(model, coeffs, mu, t, k):
    cm = coeffs.with_mu(mu)
    v = np.concatenate(([0.0, coeffs.y_minus + t], np.zeros(model.dim - 2)))
    out, _ = first_return_array(model, cm, t1_array(cm, v), k, with_jacobian=False)
    return float(out[0])


def _tertiary_point(model, cm, base, t, k) -> Array:
    v = np.concatenate(([0.0, base.preimage.y + t], np.zeros(model.dim - 2)))
    out, _ = first_return_array(model, cm, t1_array(cm, v), k, with_jacobian=False)
    return out


def _tertiary_y(model, cm, base, t, k, j) -> float:
    w = _tertiary_point(model, cm, base, t, k)
    out, _ = first_return_array(model, cm, w, j, with_jacobian=False)
    return float(out[1])


def _tertiary_jet(model, cm, base, t, k, j) -> tuple[Array, Array]:
    """Image of the triple-composed map at the unstable-axis point of
    parameter t, and its exact chained Jacobian.

    Its [1, 1] entry is the slope of the image's y along the axis; its [1, 0]
    entry is the induced c = dG_y/dx, which an FD probe in x would miss: the
    probe is amplified quadratically through the composed orbit and leaves
    the strips.
    """
    v = np.concatenate(([0.0, base.preimage.y + t], np.zeros(model.dim - 2)))
    J0 = t1_jac_array(cm, v)
    w1 = t1_array(cm, v)
    w2, J1 = first_return_array(model, cm, w1, k, with_jacobian=True)
    w3, J2 = first_return_array(model, cm, w2, j, with_jacobian=True)
    return w3, J2 @ J1 @ J0


def _tertiary_exit_interior(model, cm, base, t, k, j, frac: float = 0.7) -> bool:
    """Reject tertiary solutions whose j-leg exits near the strip boundary
    (Newton occasionally settles on such artifacts)."""
    try:
        w = orbit(model, _tertiary_point(model, cm, base, t, k), j)[j]
    except ItineraryError:
        return False
    return abs(w[1] - cm.y_minus) < frac * cm.delta / 2.0


def _composed_critical(model, coeffs, base, mu: float, k: int, tc_guess: float,
                       d_eff: float, h: float = 1e-6) -> tuple[float, float]:
    """Critical parameter and level of the composed curve at the given mu."""
    cm = coeffs.with_mu(mu)
    tc = tc_guess
    for _ in range(8):
        s0 = (double_return_y(model, cm, base.t_param + tc + h, k)
              - double_return_y(model, cm, base.t_param + tc - h, k)) / (2.0 * h)
        step = -s0 / (2.0 * d_eff)
        tc += step
        if abs(step) < 1e-13:
            break
    return tc, double_return_y(model, cm, base.t_param + tc, k)


def _composed_quartet(model, coeffs, base, mu, k, d_eff, tc, level,
                      xp_eff, j_skip: int, diagnostics: list) -> list[TransverseHomoclinic]:
    """Persistent transverse points of the composed map: roots of the
    triple-composed y at stay numbers j' where the composed curve still
    reaches the corresponding strip level.  The analog of the primary
    quartet with the curve side played by the composed map."""
    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    ym = coeffs.y_minus
    out: list[TransverseHomoclinic] = []
    cm = coeffs.with_mu(mu)
    for jp in range(k_min_even(model, coeffs), 81, 2):
        if jp == j_skip:
            continue
        # exit-level roots of the final global leg must exist and stay
        # well inside the strip
        y_sq = (-mu - coeffs.c * lam ** jp * xp_eff) / coeffs.d
        if y_sq <= 0.0 or np.sqrt(y_sq) > 0.3 * coeffs.delta / 2.0:
            continue
        if gamma ** (-jp) * ym < 2.0 * abs(level):
            continue
        yr = float(np.sqrt(y_sq))
        seeds = []
        for y_exit in (ym + yr, ym - yr):
            arg = (gamma ** (-jp) * y_exit - level) / d_eff
            if arg <= 0.0:
                continue
            off = float(np.sqrt(arg))
            seeds += [tc + off, tc - off]
        if not seeds:
            continue

        def g(t, jp=jp):
            w3, J = _tertiary_jet(model, cm, base, t, k, jp)
            return float(w3[1]), float(J[1, 1])

        for t, slope in _polish_roots(g, seeds, f"composed quartet(j'={jp})", diagnostics):
            pre = SplitVector(0.0, base.preimage.y + t, np.zeros(model.dim - 2))
            out.append(TransverseHomoclinic(point=pre, preimage=pre, t=t,
                                            slope=float(slope),
                                            route="quartet_stage2", k=jp))
        if out:
            break
    return out


def k_min_even(model, coeffs) -> int:
    from .global_map import k_star
    ks = k_star(model, coeffs)
    return ks + (ks % 2)


def _composed_split_pair(model, coeffs, base, mu, k,
                         diagnostics: list) -> list[TransverseHomoclinic]:
    """Transverse points born from splitting the secondary tangency itself."""
    cm = coeffs.with_mu(mu)
    ybase = base.preimage.y

    def f(t):
        val, slope = double_return_y(model, cm, base.t_param + t, k, with_slope=True)
        return val, slope

    h = 1e-6
    try:
        g0 = f(0.0)[0]
        d2 = (f(h)[0] - 2.0 * g0 + f(-h)[0]) / (h * h)
    except NumericalError:
        return []
    if d2 == 0.0 or g0 / d2 > 0.0:
        return []
    t0 = float(np.sqrt(-2.0 * g0 / d2))
    out = []
    for t, slope in _polish_roots(f, (t0, -t0), "stage-2 split-pair", diagnostics):
        pre = SplitVector(0.0, ybase + t, np.zeros(model.dim - 2))
        out.append(TransverseHomoclinic(point=pre, preimage=pre, t=t,
                                        slope=float(slope), route="split_pair_stage2", k=k))
    return out


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
