"""Period-2 orbits of the first-return map, the index-2 criterion, and the
heterodimensional-cycle solvers.

A period-2 orbit with itinerary (k, m) visits

    Q01 --T0^k--> Q11 --T1--> Q02 --T0^m--> Q12 --T1--> Q01,

with k > m both even.  The closure system is solved in offset unknowns
(xi = x - x+, eta = y_exit - y-, zeta = z - z+) with cross-form local blocks;
residuals are verified afterwards by direct forward iteration, which is the
independent oracle for every solved orbit.

The cycle solvers append to the closure system the index relation

    eta1 * eta2 = s * lambda^(k+m) + (bc / 4d^2)(lambda^k gamma^-k
                                                 + lambda^m gamma^-m)

and the quasi-connection condition that the strong-stable leaf through Q02
meets the twin global map's image of the local unstable manifold.  The free
parameters are mu (one or two splitting parameters) and ln|gamma| (theta is
realized by adjusting gamma with lambda fixed).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import saddle
from .cones import invariant_cu_subspace, leaf_march, return_chain
from .errors import (AmbiguousIndexError, ContractError, ConvergenceError,
                     DomainError, HypothesisError, NumericalError,
                     ValidationError)
from .global_map import (GlobalMapCoeffs, first_return_array, coeffs_from_json,
                         t1_array, t1_tilde_array)
from .numerics import chain_product, newton_1d, newton_solve, sorted_eigvals
from .saddle import SaddleModel, SplitVector, build_model, model_from_json

Array = np.ndarray

SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# period-2 orbits


@dataclass
class PeriodTwoOrbit:
    """A solved period-2 point of the first return map.

    eta = (y11 - y-, y12 - y-) are the exit offsets at the two passages; the
    closure residual is measured by direct forward iteration through
    T1 o T0^m o T1 o T0^k.
    """

    points: dict                  # Q01, Q11, Q02, Q12 as SplitVector
    itinerary: tuple[int, int]
    eta: tuple[float, float]
    mu: float
    closure_residual: float
    jacobian_2: Array | None = None
    s_value: float | None = None

    @property
    def k(self) -> int:
        return self.itinerary[0]

    @property
    def m(self) -> int:
        return self.itinerary[1]


def _orbit_unknown_scales(model: SaddleModel, k: int, m: int) -> Array:
    # axis sizes: offsets perturb quantities of order x+, y- ~ 0.1 .. 0.5
    nz = model.dim - 2
    return np.concatenate(([0.02, 0.02], np.full(nz, 0.02),
                           [0.02, 0.02], np.full(nz, 0.02)))


def _closure_tols(model: SaddleModel, coeffs: GlobalMapCoeffs,
                  k: int, m: int) -> tuple[Array, Array]:
    """Per-component (tol, accept) for the closure residual vector.

    Targets stay tight; the y-matching components get amplification-aware
    acceptance floors (the Newton polishes until progress stalls, then the
    best iterate is accepted if below the floors).
    """
    nz = model.dim - 2
    fl1, fl2 = closure_floors(model, coeffs, k, m)
    tols = np.full(2 * model.dim, 1e-13)
    accepts = np.full(2 * model.dim, 1e-12)
    accepts[1] = max(fl2, 1e-12)
    accepts[3 + nz] = max(fl1, 1e-12)
    return tols, accepts


def _leg_points(model: SaddleModel, coeffs: GlobalMapCoeffs, u: Array,
                k: int, m: int) -> tuple[Array, Array, Array, Array]:
    """Entry points and leg exits from the unknown vector.

    Unknowns are (xi1, ups1, zeta1, xi2, ups2, zeta2) with ups = gamma^n * y
    at the entry: pre-amplifying the tiny entry heights keeps every residual
    and every float at the exit scale, where gamma^n no longer amplifies
    errors (this is what makes the forward-iteration oracle attainable at
    1e-10 for large itineraries).
    """
    nz = model.dim - 2
    gam = model.multipliers.gamma
    p1 = np.concatenate(([coeffs.x_plus + u[0], u[1] / gam ** k],
                         coeffs.z_plus + u[2:2 + nz]))
    p2 = np.concatenate(([coeffs.x_plus + u[2 + nz], u[3 + nz] / gam ** m],
                         coeffs.z_plus + u[4 + nz:4 + 2 * nz]))
    return p1, saddle.orbit(model, p1, k)[-1], p2, saddle.orbit(model, p2, m)[-1]


def _closure_residuals(model: SaddleModel, coeffs: GlobalMapCoeffs, u: Array,
                       k: int, m: int) -> tuple[Array, float, float]:
    """Closure residuals at exit scale, plus the exit offsets (eta1, eta2).

    Both global legs use the same T1 (the whole orbit stays near the first
    tangency); the twin map enters only through the connection curve.
    """
    nz = model.dim - 2
    gam = model.multipliers.gamma
    ym = coeffs.y_minus
    p1, e1, p2, e2 = _leg_points(model, coeffs, u, k, m)
    A = t1_array(coeffs, e1)
    B = t1_array(coeffs, e2)
    r = np.empty(2 * model.dim)
    r[0] = A[0] - p2[0]
    r[1] = A[1] * gam ** m - u[3 + nz]
    r[2:2 + nz] = A[2:] - p2[2:]
    r[2 + nz] = B[0] - p1[0]
    r[3 + nz] = B[1] * gam ** k - u[1]
    r[4 + nz:] = B[2:] - p1[2:]
    return r, float(e1[1] - ym), float(e2[1] - ym)


def _orbit_from_unknowns(model: SaddleModel, coeffs: GlobalMapCoeffs, u: Array,
                         k: int, m: int) -> PeriodTwoOrbit:
    p1, e1, p2, e2 = _leg_points(model, coeffs, u, k, m)
    ym = coeffs.y_minus
    Q01 = SplitVector.from_array(p1)
    Q11 = SplitVector.from_array(e1)
    Q02 = SplitVector.from_array(p2)
    Q12 = SplitVector.from_array(e2)
    res = closure_residual_forward(model, coeffs, Q01, k, m)
    return PeriodTwoOrbit(points={"Q01": Q01, "Q11": Q11, "Q02": Q02, "Q12": Q12},
                          itinerary=(k, m), eta=(float(e1[1] - ym), float(e2[1] - ym)),
                          mu=coeffs.mu, closure_residual=res)


def closure_residual_forward(model: SaddleModel, coeffs: GlobalMapCoeffs,
                             Q01: SplitVector, k: int, m: int) -> float:
    """Independent oracle: iterate Q01 through T1 o T0^m o T1 o T0^k directly."""
    v, _ = first_return_array(model, coeffs, Q01.as_array(), k, with_jacobian=False)
    v, _ = first_return_array(model, coeffs, v, m, with_jacobian=False)
    return float(np.max(np.abs(v - Q01.as_array())))


def orbit_to_unknowns(model: SaddleModel, coeffs: GlobalMapCoeffs,
                      orbit: PeriodTwoOrbit) -> Array:
    """Unknown vector (xi1, ups1, zeta1, xi2, ups2, zeta2) of a solved orbit."""
    gam = model.multipliers.gamma
    k, m = orbit.itinerary
    return np.concatenate((
        [orbit.points["Q01"].x - coeffs.x_plus, orbit.points["Q01"].y * gam ** k],
        orbit.points["Q01"].z - coeffs.z_plus,
        [orbit.points["Q02"].x - coeffs.x_plus, orbit.points["Q02"].y * gam ** m],
        orbit.points["Q02"].z - coeffs.z_plus))


def _index_relation(coeffs: GlobalMapCoeffs, lam: float, gamma: float,
                    k: int, m: int) -> float:
    """Right-hand side of the index relation minus the s-term."""
    bc = coeffs.b * coeffs.c
    return bc / (4.0 * coeffs.d ** 2) * (lam ** k * gamma ** (-k)
                                         + lam ** m * gamma ** (-m))


def eta_scale(model: SaddleModel, coeffs: GlobalMapCoeffs, n: int) -> float:
    """Natural size of the exit offsets at stay number n."""
    lam = model.multipliers.lam
    return abs(lam) ** (n / 2.0) * math.sqrt(abs(coeffs.c * coeffs.x_plus / coeffs.d))


def closure_floors(model: SaddleModel, coeffs: GlobalMapCoeffs,
                   k: int, m: int) -> tuple[float, float]:
    """Float-noise floors of the two exit-scale y-matching residuals.

    The exit offset after a leg is only determined to ~ulp(y-) because the
    leg exit lives at the O(y-) scale; feeding it through the quadratic term
    of the global map and re-amplifying by gamma^n gives the attainable
    matching precision.  Everything below these floors is noise, not signal;
    the orbit itself stays pinned by the x- and z-equations and by the index
    relation.
    """
    gam = abs(model.multipliers.gamma)
    eps = 2.5e-16 * max(1.0, abs(coeffs.y_minus))
    fl2 = 2.0 * abs(coeffs.d) * eta_scale(model, coeffs, k) * eps * gam ** m
    fl1 = 2.0 * abs(coeffs.d) * eta_scale(model, coeffs, m) * eps * gam ** k
    return max(1e-13, 2e2 * fl1), max(1e-13, 2e2 * fl2)


def index_relation_floor(model: SaddleModel, coeffs: GlobalMapCoeffs,
                         k: int, m: int) -> float:
    """Resolution of the normalized index residual (eta1 eta2 - target) /
    lambda^(k+m): the eta offsets are differences of O(y-) quantities, so
    their product carries ulp(y-) noise amplified by lambda^-(k+m)."""
    lam = model.multipliers.lam
    ulp = 2.5e-16 * max(1.0, abs(coeffs.y_minus))
    sc = (eta_scale(model, coeffs, k) + eta_scale(model, coeffs, m) + 1e-12)
    return max(1e-11, 1e2 * sc * ulp / abs(lam) ** (k + m))


def closure_oracle_floor(model: SaddleModel, coeffs: GlobalMapCoeffs,
                         k: int, m: int) -> float:
    """Attainable forward-iteration closure agreement for an itinerary."""
    fl1, fl2 = closure_floors(model, coeffs, k, m)
    gam = abs(model.multipliers.gamma)
    amp = max(abs(coeffs.b), 1.0)
    return max(1e-10, 10.0 * amp * max(fl1 / gam ** k, fl2 / gam ** m)
               * max(gam ** k, gam ** m))


def _period2_seed(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, m: int,
                  s_target: float, branch: int = -1) -> tuple[Array, float]:
    """Unknown vector and mu from the scaled solutions of the limit systems.

    With c d x+ > 0 the large exit offset lambda^(m/2) sqrt(c x+ / d) sits on
    eta1 and eta2 follows from the index-relation product P = eta1 eta2; the
    sign of eta1 is branch * sign(P), so eta2 carries the branch sign and the
    seed does not land on the mirror orbit (-eta1, -eta2).
    """
    lam = model.multipliers.lam
    c, d, xp, ym, b = coeffs.c, coeffs.d, coeffs.x_plus, coeffs.y_minus, coeffs.b
    nz = model.dim - 2
    half_m = lam ** (m // 2)
    if c * d * xp > 0:
        P = (s_target * lam ** (k + m)
             + _index_relation(coeffs, lam, model.multipliers.gamma, k, m))
        eta1 = branch * math.copysign(half_m * math.sqrt(c * xp / d), P)
        eta2 = P / eta1
    else:
        eta1 = branch * half_m * math.sqrt(abs(c * xp / d))
        eta2 = branch * s_target * lam ** k * half_m * math.sqrt(abs(d / (c * xp)))
    mu = (-0.5 * c * lam ** k * xp - 0.5 * coeffs.b * c * lam ** k * eta2
          - d * eta1 * eta1 - coeffs.e3 * eta1 ** 3)
    u = np.concatenate(([b * eta2, ym + eta1], np.zeros(nz),
                        [b * eta1, ym + eta2], np.zeros(nz)))
    return u, mu


def solve_period2(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, m: int,
                  mu: float | None = None, seed: Array | None = None,
                  branch: int = -1) -> PeriodTwoOrbit:
    """Newton on the closure system at fixed mu (taken from coeffs if None)."""
    if k % 2 or m % 2:
        raise ValidationError("itinerary parity: k must be even")
    if not k > m:
        raise ValidationError("itinerary order: k must exceed m")
    if mu is None:
        mu = coeffs.mu
    cm = coeffs.with_mu(mu)
    if seed is None:
        seed, _ = _period2_seed(model, coeffs, k, m, 0.0, branch)
        # at fixed mu the exit offsets follow from the static balance
        lam, gamma = model.multipliers.lam, model.multipliers.gamma
        nz = model.dim - 2
        ym = coeffs.y_minus
        e2_sq = (ym * gamma ** (-k) - mu - coeffs.c * lam ** m * coeffs.x_plus) / coeffs.d
        e1_sq = (ym * gamma ** (-m) - mu - coeffs.c * lam ** k * coeffs.x_plus) / coeffs.d
        if e2_sq > 0:
            seed[3 + nz] = ym + branch * math.sqrt(e2_sq)
        if e1_sq > 0:
            seed[1] = ym + branch * math.sqrt(e1_sq)

    def F(u: Array) -> Array:
        return _closure_residuals(model, cm, u, k, m)[0]

    tols, accepts = _closure_tols(model, coeffs, k, m)
    u, res, _ = newton_solve(F, seed, scales=_orbit_unknown_scales(model, k, m),
                             tol=tols, accept_tol=accepts, max_iter=60,
                             name=f"period-2 closure (k={k}, m={m})")
    return _orbit_from_unknowns(model, cm, u, k, m)


def solve_period2_with_s(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, m: int,
                         s_target: float, branch: int = -1) -> PeriodTwoOrbit:
    """Joint Newton on closure plus the index relation, with mu unknown."""
    if k % 2 or m % 2:
        raise ValidationError("itinerary parity: k must be even")
    if not k > m:
        raise ValidationError("itinerary order: k must exceed m")
    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    u0, mu0 = _period2_seed(model, coeffs, k, m, s_target, branch)
    shift = _index_relation(coeffs, lam, gamma, k, m)
    scale_idx = lam ** (k + m)

    def F(w: Array) -> Array:
        u, mu = w[:-1], w[-1]
        cm = coeffs.with_mu(mu)
        r, eta1, eta2 = _closure_residuals(model, cm, u, k, m)
        r_idx = (eta1 * eta2 - s_target * scale_idx - shift) / scale_idx
        return np.concatenate((r, [r_idx]))

    scales = np.concatenate((_orbit_unknown_scales(model, k, m),
                             [max(10 * abs(mu0), 1e-6)]))
    ctols, caccepts = _closure_tols(model, coeffs, k, m)
    fl_idx = index_relation_floor(model, coeffs, k, m)
    w, res, _ = newton_solve(F, np.concatenate((u0, [mu0])), scales=scales,
                             tol=np.concatenate((ctols, [max(1e-11, fl_idx)])),
                             accept_tol=np.concatenate((caccepts, [10.0 * fl_idx])),
                             max_iter=60, name=f"period-2 with s (k={k}, m={m})")
    orbit = _orbit_from_unknowns(model, coeffs.with_mu(w[-1]), w[:-1], k, m)
    orbit.s_value = s_target
    return orbit


# ---------------------------------------------------------------------------
# index


def orbit_jacobian_chain(model: SaddleModel, coeffs: GlobalMapCoeffs,
                         orbit: PeriodTwoOrbit) -> Array:
    """Per-step Jacobians along the orbit, (k + m + 2, D, D), each leg
    restarted from its stored entry point.  Restarting matters: iterating
    straight through both legs amplifies the closure residual by gamma^m,
    enough to perturb the exit Jacobians and flip marginal indices."""
    cm = coeffs.with_mu(orbit.mu)
    return np.concatenate((return_chain(model, cm, orbit.points["Q01"].as_array(), [orbit.k]),
                           return_chain(model, cm, orbit.points["Q02"].as_array(), [orbit.m])))


def orbit_index(model: SaddleModel, coeffs: GlobalMapCoeffs,
                orbit: PeriodTwoOrbit, tol_unit: float = 1e-8) -> int:
    """Count of multipliers of DT^2 outside the unit circle (dense solver)."""
    M = chain_product(orbit_jacobian_chain(model, coeffs, orbit))
    orbit.jacobian_2 = M
    eigs = sorted_eigvals(M)
    moduli = np.abs(eigs)
    if np.any(np.abs(moduli - 1.0) < tol_unit):
        raise AmbiguousIndexError("a multiplier lies within 1e-8 of the unit circle; "
                                  "adjust parameters")
    return int(np.sum(moduli > 1.0))


def index2_criterion(model: SaddleModel, coeffs: GlobalMapCoeffs,
                     orbit: PeriodTwoOrbit) -> tuple[float, bool]:
    """Invert the displayed index relation for s and compare with the index.

    The dense eigensolver is ground truth; s in (-1, 1) must match index = 2
    on every solved orbit.
    """
    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    k, m = orbit.itinerary
    shift = _index_relation(coeffs, lam, gamma, k, m)
    s = (orbit.eta[0] * orbit.eta[1] - shift) / lam ** (k + m)
    idx = orbit_index(model, coeffs, orbit)
    match = (abs(s) < 1.0) == (idx == 2)
    orbit.s_value = float(s)
    return float(s), match


def index2_reductions(model: SaddleModel, coeffs: GlobalMapCoeffs,
                      orbit: PeriodTwoOrbit) -> dict:
    """Trace and determinant of the cu-restriction against the closed forms.

    Both are taken from the two leading eigenvalues of the chain product:
    forming det from the restricted 2x2 directly cancels catastrophically
    when the two leading multipliers differ by many orders.
    """
    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    k, m = orbit.itinerary
    chain = orbit_jacobian_chain(model, coeffs, orbit)
    cu = invariant_cu_subspace(chain)
    eigs = sorted_eigvals(chain_product(chain))
    e1, e2 = eigs[0], eigs[1]
    tr = float((e1 + e2).real)
    det = float((e1 * e2).real)
    eta1, eta2 = orbit.eta
    bc = coeffs.b * coeffs.c
    tr_pred = gamma ** (k + m) * (4.0 * coeffs.d ** 2 * eta1 * eta2
                                  + bc * lam ** m * gamma ** (-m)
                                  + bc * lam ** k * gamma ** (-k))
    det_pred = bc * bc * (lam * gamma) ** (k + m)
    return {"trace": tr, "trace_predicted": tr_pred,
            "det": det, "det_predicted": det_pred,
            "C": det / (lam * gamma) ** (k + m), "cu": cu}


# ---------------------------------------------------------------------------
# heterodimensional cycles


@dataclass
class CycleCertificate:
    """A solved heterodimensional cycle with all its witnesses.

    parameters holds (mu, theta) in symmetric mode and (mu1, mu2, theta) in
    general mode; the gamma that realizes theta is recorded alongside.  All
    residuals are re-checkable from the serialized payload alone.
    """

    mode: str
    parameters: dict
    orbit: PeriodTwoOrbit
    index_evidence: list
    quasi_connection: dict
    theta_decomposition: dict
    model_spec: dict
    coeffs_spec: dict
    coeffs2_spec: dict | None = None
    transverse_connection: dict | None = None
    residuals: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def _tilde_curve(model: SaddleModel, coeffs2: GlobalMapCoeffs, t: float,
                 mu2: float) -> Array:
    """Point of the twin global map's image of the unstable axis at offset t
    from the twin tangency parameter."""
    cm = coeffs2.with_mu(mu2)
    v = np.concatenate(([0.0, -coeffs2.y_minus + t], np.zeros(model.dim - 2)))
    return t1_tilde_array(model, cm, v)


def _connection_gap(model: SaddleModel, coeffs: GlobalMapCoeffs,
                    coeffs2: GlobalMapCoeffs, mu2: float, orbit_u: Array,
                    k: int, m: int, eta1: float,
                    leaf_steps: int | None = None) -> tuple[float, dict]:
    """Gap along y between the strong-stable leaf of Q02 and the twin curve.

    The curve is a graph over t and the leaf a graph over z; the inner
    Newton matches x and z, leaving the y-mismatch as the reported gap.
    """
    nz = model.dim - 2
    gam = model.multipliers.gamma
    xi2 = orbit_u[2 + nz]
    ups2 = orbit_u[3 + nz]
    z2 = orbit_u[4 + nz:4 + 2 * nz]
    Q02 = SplitVector(coeffs.x_plus + xi2, ups2 / gam ** m, coeffs.z_plus + z2)

    # the z-equations are explicit (z* = q_z(t)), so the inner match is a
    # 1d solve in t with a near-analytic derivative from the leaf slopes
    def x_mismatch(t: float) -> tuple[float, float, tuple[Array, Array]]:
        q = _tilde_curve(model, coeffs2, t, mu2)
        xy, Phi, _ = leaf_march(model, coeffs, Q02, m, q[2:], n_steps=leaf_steps)
        hq = 1e-7
        dq = (_tilde_curve(model, coeffs2, t + hq, mu2)
              - _tilde_curve(model, coeffs2, t - hq, mu2)) / (2.0 * hq)
        slope = float(Phi[0] @ dq[2:]) - dq[0]
        return float(xy[0] - q[0]), slope, (q, xy)

    # seeded at t ~ (b1/b2) eta1
    t, _, _, (q, xy), _ = newton_1d(x_mismatch, eta1 * coeffs.b / coeffs2.b, tol=1e-13,
                                    accept_tol=1e-11, name="connection t-match")
    gap = float(xy[1] - q[1])
    return gap, {"t_param": t, "z_star": list(q[2:]),
                 "leaf_point": [float(xy[0]), float(xy[1])] + list(q[2:]),
                 "curve_point": list(q)}


def _rebuild_gamma(model: SaddleModel, g: float) -> SaddleModel:
    mult = model.multipliers
    if not (0.0 < g < 5.0):
        raise DomainError(f"ln|gamma| = {g:.3g} outside the admissible window")
    gamma = math.copysign(math.exp(g), mult.gamma)
    new_mult = replace(mult, gamma=gamma,
                       gamma_hat=math.copysign(max(abs(mult.gamma_hat), 1.3 * abs(gamma)),
                                               mult.gamma_hat))
    try:
        return build_model(new_mult, model.dim, model.nonlinearity.spec(),
                           model.symmetry_signs)
    except ValidationError as exc:
        # a Newton probe can push gamma past the multiplier constraints;
        # surface it as a domain error so the step backtracks
        raise DomainError(str(exc)) from exc


def _hetdim_solve(model: SaddleModel, coeffs: GlobalMapCoeffs,
                  coeffs2: GlobalMapCoeffs, k: int, m: int, s_target: float,
                  general: bool) -> CycleCertificate:
    if k % 2 or m % 2:
        raise ValidationError("itinerary parity: k must be even")
    if not k > m:
        raise ValidationError("itinerary order: k must exceed m")
    if abs(coeffs.x_plus - coeffs2.x_plus) > 1e-12:
        raise ValidationError("coincidence condition violated: the two global maps "
                              "must share x+ (leaf of the strong-stable foliation)")
    lam = model.multipliers.lam
    nz = model.dim - 2

    ratio = 2.0 * coeffs.y_minus / (coeffs.c * coeffs.x_plus)
    mu2_shift_flag = general and ratio < 0.0
    # with the mu2 shift by -2 c lambda^k x+ the gamma relation flips sign
    c_star_ratio = abs(ratio)

    # seeds: orbit offsets from the scaled solutions, gamma from the
    # lambda^k gamma^m relation, t from the x-match; phase A refines the
    # orbit and mu at frozen gamma before the full polish
    g0 = (math.log(abs(c_star_ratio)) - k * math.log(abs(lam))) / m
    model_g = _rebuild_gamma(model, g0)
    orbA = solve_period2_with_s(model_g, coeffs, k, m, s_target, branch=-1)
    u0 = orbit_to_unknowns(model_g, coeffs, orbA)
    mu0 = orbA.mu
    d1 = coeffs.d
    d2_eff = coeffs2.d * (coeffs.b / coeffs2.b) ** 2

    def mu2_of(mu1: float, eta1: float) -> float:
        mu2 = mu1 + (d1 - d2_eff) * eta1 * eta1
        if mu2_shift_flag:
            # sign fixed by consistency of the gamma relation with the
            # conjugation-form twin map (gamma^-m y- must stay positive)
            mu2 = mu2 + 2.0 * coeffs.c * lam ** k * coeffs.x_plus
        return mu2

    leaf_steps_holder: dict = {}

    def F(w: Array) -> Array:
        u, mu1, g = w[:-2], w[-2], w[-1]
        mdl = _rebuild_gamma(model, g)
        cm = coeffs.with_mu(mu1)
        r, eta1, eta2 = _closure_residuals(mdl, cm, u, k, m)
        gamma = mdl.multipliers.gamma
        shift = _index_relation(coeffs, lam, gamma, k, m)
        scale_idx = lam ** (k + m)
        r_idx = (eta1 * eta2 - s_target * scale_idx - shift) / scale_idx
        mu2 = mu2_of(mu1, eta1)
        gap, _ = _connection_gap(mdl, cm, coeffs2, mu2, u, k, m, eta1,
                                 leaf_steps=leaf_steps_holder.get("n"))
        return np.concatenate((r, [r_idx, gap / max(abs(gamma) ** (-m), 1e-300)]))

    # freeze a coarse leaf step count for the Newton iterations (the leaf is
    # nearly straight); the reported gap is re-measured afterwards at the
    # leaf module's reference resolution
    q0 = _tilde_curve(model_g, coeffs2, 0.0, mu0)
    dist0 = float(np.linalg.norm(q0[2:] - coeffs.z_plus))
    leaf_steps_holder["n"] = max(4, int(np.ceil(dist0 / 5e-3)))

    scales = np.concatenate((_orbit_unknown_scales(model, k, m),
                             [max(10 * abs(mu0), 1e-6), 0.05]))
    ctols, caccepts = _closure_tols(model_g, coeffs, k, m)
    fl_idx = index_relation_floor(model_g, coeffs, k, m)
    tols = np.concatenate((ctols, [max(1e-11, fl_idx), 1e-12]))
    accepts = np.concatenate((caccepts, [10.0 * fl_idx, 1e-10]))
    w, res, _ = newton_solve(F, np.concatenate((u0, [mu0, g0])), scales=scales,
                             tol=tols, accept_tol=accepts, max_iter=60,
                             jac_reuse=4,
                             name=f"heterodimensional cycle (k={k}, m={m})")

    u, mu1, g = w[:-2], float(w[-2]), float(w[-1])
    mdl = _rebuild_gamma(model, g)
    cm = coeffs.with_mu(mu1)
    orbit = _orbit_from_unknowns(mdl, cm, u, k, m)
    orbit.s_value = s_target
    eta1 = orbit.eta[0]
    mu2 = mu2_of(mu1, eta1)
    gap, conn = _connection_gap(mdl, cm, coeffs2, mu2, u, k, m, eta1,
                                leaf_steps=None)

    idx = orbit_index(mdl, cm, orbit)
    if idx != 2:
        raise HypothesisError(f"solved orbit has index {idx}, not 2")
    eigs = sorted_eigvals(orbit.jacobian_2)

    gamma = mdl.multipliers.gamma
    theta = -math.log(abs(lam)) / math.log(abs(gamma))
    c_star = (m / k - theta) * k * math.log(abs(gamma))
    lam_k_gam_m = lam ** k * gamma ** m

    params = {"mu": mu1, "theta": theta, "gamma": gamma} if not general else \
             {"mu1": mu1, "mu2": mu2, "theta": theta, "gamma": gamma}
    cert = CycleCertificate(
        mode="general" if general else "symmetric",
        parameters=params,
        orbit=orbit,
        index_evidence=[complex(e) for e in eigs],
        quasi_connection={"gap": gap, **conn, "mu2": mu2, "leaf_steps": None},
        theta_decomposition={"m_over_k": m / k, "C_star": c_star,
                             "lambda_k_gamma_m": lam_k_gam_m,
                             "target_ratio": c_star_ratio},
        model_spec=mdl.spec(),
        coeffs_spec=cm.spec(),
        coeffs2_spec=coeffs2.with_mu(mu2).spec(),
        residuals={"closure": orbit.closure_residual, "gap": abs(gap),
                   "newton": res},
    )
    return cert


def solve_hetdim_symmetric(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int,
                           m: int, s_target: float = 0.0) -> CycleCertificate:
    """Symmetric heterodimensional cycle at itinerary (k, m).

    Requires the positive product c * x+ * y- (the admissibility the forge
    guarantees); the twin global map is the conjugation of the same
    coefficient set, so mu2 = mu identically.
    """
    if not model.symmetric:
        raise ContractError("symmetric cycle solver needs a symmetric model")
    if coeffs.c * coeffs.x_plus * coeffs.y_minus <= 0.0:
        raise ContractError("hypothesis violated: c * x+ * y- must be positive")
    return _hetdim_solve(model, coeffs, coeffs, k, m, s_target, general=False)


def solve_hetdim_general(model: SaddleModel, coeffs1: GlobalMapCoeffs,
                         coeffs2: GlobalMapCoeffs, k: int, m: int,
                         s_target: float = 0.0) -> CycleCertificate:
    """General (non-symmetric) cycle with independent splitting parameters.

    mu2 is pinned by the exact gauge mu2 - mu1 = (d1 - d2 (b1/b2)^2) eta1^2,
    which selects the paper's representative on the one-parameter solution
    family and reduces to mu2 = mu1 for conjugate coefficient pairs.  When
    2 y1- / (c1 x+) < 0 the mu2 shift by -2 c1 lambda^k x+ reroutes the
    connection (the fallback of the general construction).
    """
    return _hetdim_solve(model, coeffs1, coeffs2, k, m, s_target, general=True)


# ---------------------------------------------------------------------------
# transverse connection (area mechanism)


def _stable_sheet_residual(coeffs: GlobalMapCoeffs, v: Array) -> float:
    """Signed distance functional whose zero set is the local stable-manifold
    piece T1^-1({y = 0}) through the split transverse points."""
    return float(t1_array(coeffs, v)[1])


def verify_transverse_connection(model: SaddleModel, coeffs: GlobalMapCoeffs,
                                 cert: CycleCertificate, r0: float | None = None,
                                 n_boundary: int = 48, max_returns: int = 50) -> dict:
    """Grow a disk in the center-unstable plane at Q01 until it crosses a
    piece of the stable manifold of the fixed point.

    The strip's horizontal boundaries are pieces of W^s(O) through the
    transverse homoclinic points that exist at the certificate's mu (the
    split pair requires mu * d < 0 there); crossing is detected as a sign
    change of the next-return y along the tracked polyline, refined by
    bisection.  The first-return area factor of the z-projected polygon is
    compared against |b c (lambda gamma)^k|.
    """
    mdl = model_from_json(cert.model_spec)
    cm = coeffs_from_json(cert.coeffs_spec)
    mu = cm.mu
    if mu * cm.d >= 0.0:
        raise HypothesisError("no straddling transverse pair at this mu "
                              "(mu * d >= 0); install quartet boundaries instead")
    k, m = cert.orbit.itinerary
    lam, gamma = mdl.multipliers.lam, mdl.multipliers.gamma
    if r0 is None:
        # small enough that the first return stays inside the installed
        # sub-strip (the orbit sits margin-deep inside it), so at least one
        # clean area factor is measured before the crossing
        width0 = math.sqrt(-mu / cm.d)
        margin = width0 - abs(cert.orbit.eta[0])
        r0 = min(1e-6, 2e-3 * abs(gamma) ** (-k))
        if margin > 0:
            r0 = min(r0, 0.25 * margin * abs(gamma) ** (-k))

    chain = return_chain(mdl, cm, cert.orbit.points["Q01"].as_array(), [k, m])
    cu = invariant_cu_subspace(chain)
    E = cu.subspace  # D x 2 orthonormal

    phis = np.linspace(0.0, 2.0 * np.pi, n_boundary, endpoint=False)
    base = cert.orbit.points["Q01"].as_array()
    stays = [k, m]
    predicted = abs(cm.b * cm.c) * abs(lam * gamma) ** k
    width = math.sqrt(-mu / cm.d)  # half-width of the installed sub-strip

    def poly_area(P: Array) -> float:
        # center first: the polygons are tiny and the raw shoelace would
        # cancel catastrophically against O(0.1) coordinates
        x = P[:, 0] - np.mean(P[:, 0])
        y = P[:, 1] - np.mean(P[:, 1])
        return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))

    def disk(r: float) -> Array:
        return np.array([base + r * (np.cos(p) * E[:, 0] + np.sin(p) * E[:, 1])
                         for p in phis])

    # the per-return area factor is measured on its own disk, small enough
    # that the exit spread stays below the orbit's exit offset (otherwise
    # the quadratic fold, not the linearization, dominates the area).  At
    # deep itineraries no representable disk satisfies this.
    area_factors = []
    r_area = min(1e-6, 5e-3 * abs(gamma) ** (-k),
                 0.2 * abs(cert.orbit.eta[0]) * abs(gamma) ** (-k))
    factor_measurable = r_area >= 64.0 * 2.3e-16
    if factor_measurable:
        P0 = disk(r_area)
        P1 = []
        for p in P0:
            try:
                out, _ = first_return_array(mdl, cm, p, k, with_jacobian=False)
                P1.append(out)
            except NumericalError:
                pass
        if len(P1) == len(P0):
            area_factors.append(poly_area(np.array(P1)) / poly_area(P0))

    pts = disk(r0)

    def exit_y(p: Array, n: int) -> float:
        return float(saddle.orbit(mdl, p, n)[-1, 1])

    def _crossing(p_lo: Array, p_hi: Array, stay: int, level: float, ret: int) -> dict:
        """Bisect the segment onto the boundary sheet {T0^stay(p)_y = level}."""
        f = lambda p: exit_y(p, stay) - level
        a, bpt = p_lo.copy(), p_hi.copy()
        fa = f(a)
        for _ in range(60):
            mid = 0.5 * (a + bpt)
            fm = f(mid)
            if fa * fm <= 0.0:
                bpt = mid
            else:
                a, fa = mid, fm
        crossing = 0.5 * (a + bpt)
        seg = p_hi - p_lo
        seg_n = seg / np.linalg.norm(seg)
        h = 1e-9
        slope = abs(f(crossing + h * seg_n) - f(crossing - h * seg_n)) / (2 * h)
        return {"found": True, "iterations_used": ret + 1,
                "crossing_point": list(crossing), "crossing_slope": slope,
                "boundary_level": level, "stay": stay,
                "area_factors": area_factors,
                "factor_measurable": factor_measurable,
                "predicted_first_factor": predicted, "r0": r0}

    area_prev = poly_area(pts)
    for ret in range(max_returns):
        stay = stays[ret % 2]
        # a segment crosses a W^s(O) piece when the exit heights of its ends
        # straddle one of the installed boundary levels y- +- width (the
        # sheets through the split transverse pair)
        exits = np.full(len(pts), np.nan)
        for i, p in enumerate(pts):
            try:
                exits[i] = exit_y(p, stay)
            except NumericalError:
                continue
        for i in range(len(pts)):
            j = (i + 1) % len(pts)
            if np.isnan(exits[i]) or np.isnan(exits[j]):
                continue
            lo, hi = min(exits[i], exits[j]), max(exits[i], exits[j])
            for level in (ym_level for ym_level in
                          (cm.y_minus - width, cm.y_minus + width)
                          if lo < ym_level < hi):
                try:
                    return _crossing(pts[i] if exits[i] < level else pts[j],
                                     pts[j] if exits[i] < level else pts[i],
                                     stay, level, ret)
                except NumericalError:
                    continue
        nxt = []
        for i, p in enumerate(pts):
            if np.isnan(exits[i]):
                continue
            try:
                out, _ = first_return_array(mdl, cm, p, stay, with_jacobian=False)
                nxt.append(out)
            except NumericalError:
                continue
        if len(nxt) < 3:
            raise HypothesisError("tracked polyline degenerated before crossing")
        coherent = len(nxt) == len(pts)
        pts = np.array(nxt)
        area = poly_area(pts)
        if coherent and area_prev > 0 and area / area_prev <= 1.0:
            raise HypothesisError("area growth stalled (factor <= 1); "
                                  "expansion hypothesis violated")
        area_prev = area
    raise ConvergenceError(f"no crossing within {max_returns} returns", residual=None)


# ---------------------------------------------------------------------------
# certificate (de)serialization and re-verification


def _split_to_list(p: SplitVector) -> list:
    return [p.x, p.y] + list(p.z)


def certificate_to_dict(cert: CycleCertificate) -> dict:
    return {
        "schema_version": cert.schema_version,
        "mode": cert.mode,
        "parameters": cert.parameters,
        "itinerary": list(cert.orbit.itinerary),
        "points": {k: _split_to_list(v) for k, v in cert.orbit.points.items()},
        "eta": list(cert.orbit.eta),
        "s_value": cert.orbit.s_value,
        "index_evidence": [[e.real, e.imag] for e in cert.index_evidence],
        "quasi_connection": cert.quasi_connection,
        "theta_decomposition": cert.theta_decomposition,
        "model": cert.model_spec,
        "coeffs": cert.coeffs_spec,
        "coeffs2": cert.coeffs2_spec,
        "transverse_connection": cert.transverse_connection,
        "residuals": cert.residuals,
        "tolerances": {"closure": 1e-10, "gap": 1e-8, "unit_circle": 1e-8},
    }


def certificate_to_json(cert: CycleCertificate) -> str:
    return json.dumps(certificate_to_dict(cert), indent=2, sort_keys=True)


def replay_certificate_dict(doc: dict) -> dict:
    """Re-evaluate every residual of a serialized certificate.

    Deterministic: rebuilds the model and maps from the embedded specs and
    reruns the closure oracle, the gap measurement, and the index count.
    """
    if doc.get("schema_version") != SCHEMA_VERSION:
        raise ValidationError(f"certificate schema mismatch: "
                              f"{doc.get('schema_version')} != {SCHEMA_VERSION}")
    model = model_from_json(doc["model"])
    coeffs = coeffs_from_json(doc["coeffs"])
    coeffs2 = coeffs_from_json(doc["coeffs2"]) if doc.get("coeffs2") else coeffs
    k, m = doc["itinerary"]
    tol = doc["tolerances"]
    pts = {name: SplitVector(v[0], v[1], np.array(v[2:]))
           for name, v in doc["points"].items()}

    checks = {}

    def guarded(name, tol_value, fn):
        # a residual that blows up (e.g. a perturbed certificate whose legs
        # leave the strips) is a failed check, not a crash
        try:
            value = fn()
        except NumericalError as exc:
            checks[name] = {"value": None, "tol": tol_value, "ok": False,
                            "error": str(exc)}
            return None
        checks[name] = {"value": value, "tol": tol_value,
                        "ok": value < tol_value if tol_value is not None else True}
        return value

    guarded("closure", tol["closure"],
            lambda: closure_residual_forward(model, coeffs, pts["Q01"], k, m))

    def legs():
        v = saddle.orbit(model, pts["Q01"].as_array(), k)[-1]
        leg = float(np.max(np.abs(v - pts["Q11"].as_array())))
        v = t1_array(coeffs, v)
        leg = max(leg, float(np.max(np.abs(v - pts["Q02"].as_array()))))
        v = saddle.orbit(model, v, m)[-1]
        return max(leg, float(np.max(np.abs(v - pts["Q12"].as_array()))))

    guarded("legs", 1e-10, legs)

    def index_check():
        orbit = PeriodTwoOrbit(points=pts, itinerary=(k, m),
                               eta=tuple(doc["eta"]), mu=coeffs.mu,
                               closure_residual=0.0)
        return orbit_index(model, coeffs, orbit, tol_unit=tol["unit_circle"])

    idx = guarded("index", None, index_check)
    checks["index"]["ok"] = idx == 2

    def gap_check():
        nz = model.dim - 2
        gam = model.multipliers.gamma
        u = np.concatenate((
            [pts["Q01"].x - coeffs.x_plus, pts["Q01"].y * gam ** k],
            pts["Q01"].z - coeffs.z_plus,
            [pts["Q02"].x - coeffs.x_plus, pts["Q02"].y * gam ** m],
            pts["Q02"].z - coeffs.z_plus))
        # in symmetric mode the twin map is the conjugation of the same
        # coefficient set, so its splitting parameter is coeffs.mu itself
        mu2 = coeffs.mu if doc["mode"] == "symmetric" else doc["quasi_connection"]["mu2"]
        gap, _ = _connection_gap(model, coeffs, coeffs2, mu2, u, k, m,
                                 eta1=float(doc["eta"][0]),
                                 leaf_steps=doc["quasi_connection"].get("leaf_steps"))
        return abs(gap)

    guarded("gap", tol["gap"], gap_check)

    checks["all_ok"] = all(c["ok"] for c in checks.values() if isinstance(c, dict))
    return checks
