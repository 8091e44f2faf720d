"""Period-2 orbits of the first-return map, the index-2 criterion, and the
heterodimensional-cycle solvers.

A period-2 orbit with itinerary (k, m) visits

    Q01 --T0^k--> Q11 --T1--> Q02 --T0^m--> Q12 --T1--> Q01,

with k > m both even: two legs of one kind, a stay T0^n and then T1.  The
closure system is solved in per-leg unknowns (xi, ups = gamma^n y, zeta) at the
entries (``_legs``); residuals are verified afterwards by direct forward
iteration, which is the independent oracle for every solved orbit.

The cycle solvers append to the closure system the index relation

    eta1 * eta2 = s * lambda^(k+m) + (bc / 4d^2)(lambda^k gamma^-k
                                                 + lambda^m gamma^-m)

and the quasi-connection condition that the strong-stable leaf through Q02
meets the twin global map's image of the local unstable manifold.  The free
parameters are mu (one or two splitting parameters) and ln|gamma| (theta is
realized by adjusting gamma with lambda fixed).
"""

from __future__ import annotations

import contextlib
import json
import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import saddle
from .cones import invariant_cu_subspace, leaf_march, return_chain, stable_slopes
from .errors import (AmbiguousIndexError, ContractError, ConvergenceError,
                     DomainError, HypothesisError, NumericalError,
                     ValidationError)
from .global_map import (GlobalMapCoeffs, _check_itinerary, axis_jet, check_dimensions,
                         coeffs_from_json, first_return_array, in_pi1, t1_array)
from .numerics import chain_product, fold_tol, newton_1d, newton_solve, sorted_eigvals
from .saddle import SaddleModel, SplitVector, build_model, model_from_json, reflect_array

Array = np.ndarray

SCHEMA_VERSION = 1
# no multiplier of DT^2 may lie closer than this to the unit circle
UNIT_CIRCLE_TOL = 1e-8
# a cycle certificate's tolerances; replay's leg check also reads "closure"
CERT_TOLERANCES = {"closure": 1e-10, "gap": 1e-8, "unit_circle": UNIT_CIRCLE_TOL}
# which of the two mirror-image period-2 seeds to take (see _period2_seed)
SEED_BRANCH = -1


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
    s_value: float | None = None

    @property
    def k(self) -> int:
        return self.itinerary[0]

    @property
    def m(self) -> int:
        return self.itinerary[1]


_LEG_NAMES = (("Q01", "Q11"), ("Q02", "Q12"))


def _legs(model: SaddleModel, coeffs: GlobalMapCoeffs, u: Array,
          stays: tuple[int, int]) -> list[tuple[Array, Array]]:
    """[(entry, exit), (entry, exit)] of the legs (Q01, Q11) and (Q02, Q12).

    Leg j's unknowns are u[j*D:(j+1)*D] = (x - x+, gamma^n y, z - z+) at its
    entry, with n = stays[j]; its exit is T0^n(entry).  Pre-amplifying the
    tiny entry heights keeps every residual and float at the exit scale,
    where gamma^n no longer amplifies errors (this makes the forward oracle
    attainable at 1e-10 for large itineraries).  An (N, 2D) block u gives
    (N, D) entries and exits, each row its point call's bit for bit, and a
    NaN exit where that call raises (``saddle.stay_exit``).
    """
    D, gam = model.dim, model.multipliers.gamma
    legs = []
    for j, n in enumerate(stays):
        v = u[..., j * D:(j + 1) * D]
        entry = np.empty_like(v)
        entry[..., 0] = coeffs.x_plus + v[..., 0]
        entry[..., 1] = v[..., 1] / gam ** n
        entry[..., 2:] = coeffs.z_plus + v[..., 2:]
        legs.append((entry, saddle.stay_exit(model, entry, n)))
    return legs


def _period2_residual(model: SaddleModel, cm: GlobalMapCoeffs, u: Array, k: int,
                      m: int, s_target: float) -> tuple[Array, float, Array]:
    """Closure rows at exit scale plus the normalised index row
    (eta1 eta2 - s lambda^(k+m) - shift) / lambda^(k+m); also returns the
    exit offset eta1 and the flat entry point Q02 of this evaluation.

    Leg j's block is T1(exit_j) - entry_other, with the y row at the other
    leg's exit scale.  Both legs use the same T1 (the whole orbit stays near
    the first tangency); the twin map enters only through the connection curve.

    An (N, 2D) block u, with cm carrying one mu or one per row
    (``GlobalMapCoeffs.with_mu``), gives (N, 2D+1) rows, (N,) eta1 and
    (N, D) Q02: each row its point call's, bit for bit, NaN where that call
    raises.
    """
    D = model.dim
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    stays = (k, m)
    legs = _legs(model, cm, u, stays)
    r = np.empty(u.shape[:-1] + (2 * D + 1,))
    for j, (_, exit_j) in enumerate(legs):
        o = 1 - j
        image = t1_array(cm, exit_j)
        r[..., j * D:(j + 1) * D] = image - legs[o][0]
        r[..., j * D + 1] = image[..., 1] * gam ** stays[o] - u[..., o * D + 1]
    (_, e1), (p2, e2) = legs
    eta1, eta2 = e1[..., 1] - cm.y_minus, e2[..., 1] - cm.y_minus
    if u.ndim == 1:
        eta1, eta2 = float(eta1), float(eta2)
    scale_idx = lam ** (k + m)
    r[..., -1] = (eta1 * eta2 - s_target * scale_idx
                  - _index_relation(cm, lam, gam, k, m)) / scale_idx
    if u.ndim == 2:
        # a row whose point call raises (one of its stays left the box) is
        # NaN throughout, not only in the rows that read that stay's exit
        out = np.isnan(e1).any(axis=1) | np.isnan(e2).any(axis=1)
        r[out] = eta1[out] = p2[out] = np.nan
    return r, eta1, p2


def _period2_tolerances(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, m: int,
                        mu0: float) -> tuple[Array, Array, Array]:
    """Scales of the unknowns (u, mu) and per-row (tol, accept) of
    ``_period2_residual``.

    Targets stay tight; the y-matching rows and the index row get
    amplification-aware acceptance floors, modelled from the itinerary.  The
    period-2 solves stop at ``tol`` or, once progress stalls, accept the
    best iterate below the floors.  The cycle solver raises each ``tol`` to
    twice its row's float floor as measured at its seed (``_hetdim_solve``),
    never above ``accept``.
    """
    D = model.dim
    fl1, fl2 = closure_floors(model, coeffs, k, m)
    fl_idx = index_relation_floor(model, coeffs, k, m)
    # axis sizes: offsets perturb quantities of order x+, y- ~ 0.1 .. 0.5
    scales = np.append(np.full(2 * D, 0.02), max(10 * abs(mu0), 1e-6))
    tol = np.append(np.full(2 * D, 1e-13), max(1e-11, fl_idx))
    accept = np.append(np.full(2 * D, 1e-12), 10.0 * fl_idx)
    # the y rows of legs 0 and 1 (see _legs)
    accept[1:2 * D:D] = max(fl2, 1e-12), max(fl1, 1e-12)
    return scales, tol, accept


def _orbit_from_unknowns(model: SaddleModel, coeffs: GlobalMapCoeffs, u: Array,
                         k: int, m: int) -> PeriodTwoOrbit:
    legs = _legs(model, coeffs, u, (k, m))
    points = {name: SplitVector.from_array(p)
              for names, leg in zip(_LEG_NAMES, legs) for name, p in zip(names, leg)}
    eta = tuple(float(exit_j[1] - coeffs.y_minus) for _, exit_j in legs)
    res = closure_residual_forward(model, coeffs, legs[0][0], k, m)
    return PeriodTwoOrbit(points=points, itinerary=(k, m), eta=eta, mu=coeffs.mu,
                          closure_residual=res)


def closure_residual_forward(model: SaddleModel, coeffs: GlobalMapCoeffs,
                             Q01: Array, k: int, m: int) -> float:
    """Independent oracle: iterate the flat (D,) point Q01 through
    T1 o T0^m o T1 o T0^k directly."""
    v = Q01
    for n in (k, m):
        v, _ = first_return_array(model, coeffs, v, n, with_jacobian=False)
    return float(np.max(np.abs(v - Q01)))


def orbit_to_unknowns(model: SaddleModel, coeffs: GlobalMapCoeffs,
                      orbit: PeriodTwoOrbit) -> Array:
    """Unknown vector of a solved orbit, in the layout of ``_legs``."""
    gam = model.multipliers.gamma
    parts = []
    for (name, _), n in zip(_LEG_NAMES, orbit.itinerary):
        p = orbit.points[name]
        parts += [[p.x - coeffs.x_plus, p.y * gam ** n], p.z - coeffs.z_plus]
    return np.concatenate(parts)


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
                  s_target: float) -> tuple[Array, float]:
    """Unknown vector and mu from the scaled solutions of the limit systems.

    The limit systems are symmetric under the mirror orbit (-eta1, -eta2),
    and SEED_BRANCH picks one of the two.  With c d x+ > 0 the large exit
    offset lambda^(m/2) sqrt(c x+ / d) sits on eta1 and eta2 follows from
    the index-relation product P = eta1 eta2; the sign of eta1 is
    SEED_BRANCH * sign(P), so eta2 carries the branch sign and the seed does
    not land on the mirror orbit.  Otherwise eta1 carries it.
    """
    lam = model.multipliers.lam
    c, d, xp, ym, b = coeffs.c, coeffs.d, coeffs.x_plus, coeffs.y_minus, coeffs.b
    half_m = lam ** (m // 2)
    if c * d * xp > 0:
        P = (s_target * lam ** (k + m)
             + _index_relation(coeffs, lam, model.multipliers.gamma, k, m))
        eta1 = SEED_BRANCH * math.copysign(half_m * math.sqrt(c * xp / d), P)
        eta2 = P / eta1
    else:
        eta1 = SEED_BRANCH * half_m * math.sqrt(abs(c * xp / d))
        eta2 = SEED_BRANCH * s_target * lam ** k * half_m * math.sqrt(abs(d / (c * xp)))
    mu = (-0.5 * c * lam ** k * xp - 0.5 * coeffs.b * c * lam ** k * eta2
          - d * eta1 * eta1 - coeffs.e3 * eta1 ** 3)
    # leg j enters at x+ + b eta_other and exits at y- + eta_j (see _legs)
    D = model.dim
    u = np.zeros(2 * D)
    u[0:2 * D:D], u[1:2 * D:D] = (b * eta2, b * eta1), (ym + eta1, ym + eta2)
    return u, mu


def solve_period2(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, m: int,
                  seed: Array | None = None) -> PeriodTwoOrbit:
    """Newton on the closure rows at the fixed mu of coeffs."""
    _check_itinerary(k, m)
    if seed is None:
        seed, _ = _period2_seed(model, coeffs, k, m, 0.0)
        # at fixed mu the exit offsets follow from the static balance
        lam, gamma = model.multipliers.lam, model.multipliers.gamma
        ym, mu = coeffs.y_minus, coeffs.mu
        stays = (k, m)
        for j, n in enumerate(stays):
            e_sq = (ym * gamma ** (-stays[1 - j]) - mu
                    - coeffs.c * lam ** n * coeffs.x_plus) / coeffs.d
            if e_sq > 0:
                seed[j * model.dim + 1] = ym + SEED_BRANCH * math.sqrt(e_sq)

    def F(u: Array) -> Array:
        return _period2_residual(model, coeffs, u, k, m, 0.0)[0][..., :-1]

    scales, tol, accept = _period2_tolerances(model, coeffs, k, m, coeffs.mu)
    # the probes of every FD Jacobian go to F as one block
    u, res, _ = newton_solve(F, seed, scales=scales[:-1], tol=tol[:-1],
                             accept_tol=accept[:-1], max_iter=60, block=True,
                             name=f"period-2 closure (k={k}, m={m})")
    return _orbit_from_unknowns(model, coeffs, u, k, m)


def solve_period2_with_s(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, m: int,
                         s_target: float) -> PeriodTwoOrbit:
    """Joint Newton on closure plus the index relation, with mu unknown."""
    _check_itinerary(k, m)
    u0, mu0 = _period2_seed(model, coeffs, k, m, s_target)

    def F(w: Array) -> Array:
        return _period2_residual(model, coeffs.with_mu(w[..., -1]), w[..., :-1], k, m,
                                 s_target)[0]

    scales, tol, accept = _period2_tolerances(model, coeffs, k, m, mu0)
    # the probes of every FD Jacobian go to F as one block, one mu per row
    w, res, _ = newton_solve(F, np.append(u0, mu0), scales=scales, tol=tol,
                             accept_tol=accept, max_iter=60, block=True,
                             name=f"period-2 with s (k={k}, m={m})")
    orbit = _orbit_from_unknowns(model, coeffs.with_mu(w[-1]), w[:-1], k, m)
    orbit.s_value = s_target
    return orbit


# ---------------------------------------------------------------------------
# index


def orbit_jacobian_chain(model: SaddleModel, coeffs: GlobalMapCoeffs,
                         orbit: PeriodTwoOrbit) -> Array:
    """The return chain of both legs (``return_chain``), each leg restarted
    from its stored entry point: (4, D, D) on the linear tier, one stay
    factor and one T1 factor per leg, and (k + m + 2, D, D) on the
    nonlinear tiers, one factor per local step.  Restarting matters:
    iterating straight through both legs amplifies the closure residual by
    gamma^m, enough to perturb the exit Jacobians and flip marginal
    indices."""
    cm = coeffs.with_mu(orbit.mu)
    return np.concatenate([return_chain(model, cm, orbit.points[name].as_array(), [n])
                           for (name, _), n in zip(_LEG_NAMES, orbit.itinerary)])


def orbit_multipliers(chain: Array) -> Array:
    """Multipliers of DT^2 by decreasing modulus from the orbit's Jacobian
    chain (``orbit_jacobian_chain``): dense solver on the chain product."""
    return sorted_eigvals(chain_product(chain))


def _count_outside(multipliers: Array, tol_unit: float = UNIT_CIRCLE_TOL) -> int:
    """How many multipliers lie outside the unit circle; none may be near it."""
    moduli = np.abs(multipliers)
    if np.any(np.abs(moduli - 1.0) < tol_unit):
        raise AmbiguousIndexError("a multiplier lies within 1e-8 of the unit circle; "
                                  "adjust parameters")
    return int(np.sum(moduli > 1.0))


def orbit_index(model: SaddleModel, coeffs: GlobalMapCoeffs,
                orbit: PeriodTwoOrbit, tol_unit: float = UNIT_CIRCLE_TOL) -> int:
    """Count of multipliers of DT^2 outside the unit circle."""
    return _count_outside(orbit_multipliers(orbit_jacobian_chain(model, coeffs, orbit)),
                          tol_unit)


def index2_criterion(model: SaddleModel, coeffs: GlobalMapCoeffs,
                     orbit: PeriodTwoOrbit) -> tuple[float, int, bool]:
    """Invert the displayed index relation for s and compare with the index.

    The dense eigensolver is ground truth; s in (-1, 1) must match index = 2
    on every solved orbit.  Returns (s, index, match).
    """
    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    k, m = orbit.itinerary
    shift = _index_relation(coeffs, lam, gamma, k, m)
    s = (orbit.eta[0] * orbit.eta[1] - shift) / lam ** (k + m)
    idx = orbit_index(model, coeffs, orbit)
    match = (abs(s) < 1.0) == (idx == 2)
    return float(s), idx, match


def index2_reductions(model: SaddleModel, coeffs: GlobalMapCoeffs,
                      orbit: PeriodTwoOrbit) -> dict:
    """Trace and determinant of the cu-restriction against the closed forms.

    Both are taken from the two leading multipliers: forming det from a
    restricted 2x2 directly cancels catastrophically when the two leading
    multipliers differ by many orders.
    """
    lam, gamma = model.multipliers.lam, model.multipliers.gamma
    k, m = orbit.itinerary
    e1, e2 = orbit_multipliers(orbit_jacobian_chain(model, coeffs, orbit))[:2]
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
            "C": det / (lam * gamma) ** (k + m)}


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
    residuals: dict = field(default_factory=dict)
    schema_version: int = SCHEMA_VERSION


def _connection_gap(model: SaddleModel, coeffs: GlobalMapCoeffs, coeffs2: GlobalMapCoeffs,
                    mu2: float | Array, Q02: Array, m: int,
                    eta1: float | Array) -> tuple[float | Array, dict]:
    """Gap along y between the strong-stable leaf of the flat point Q02 and
    the twin curve.

    The curve is a graph over t and the leaf a graph over z; the inner
    Newton matches x and z, leaving the y-mismatch as the reported gap.
    An (N, D) block Q02 with (N,) arrays mu2 and eta1 matches its rows in
    lock-step and returns (N,) gaps and arrays in the dict, each row bit
    for bit its point call, NaN where that call raises.
    """
    # the z-equations are explicit (z* = q_z(t)), so the inner match is a
    # 1d solve in t whose derivative comes from the leaf slopes and the
    # twin curve's exact slope: q(t) = R T1(0, y- - t, 0), so dq/dt = -R J e_y
    cm2 = coeffs2.with_mu(mu2)
    # every march of the t-match starts at Q02
    base_slopes = stable_slopes(model, coeffs, Q02, m)

    def x_mismatch(t, rows=...):
        # rows: a block's rows still matching (all of a point)
        w, J = axis_jet(model, cm2 if rows is ... else coeffs2.with_mu(mu2[rows]),
                        coeffs2.y_minus - t, jacobian=True)
        q, dq = reflect_array(model, w), -reflect_array(model, J[..., 1])
        xy, Phi, _ = leaf_march(model, coeffs, Q02[rows], m, q[..., 2:], base_slopes[rows])
        slope = (Phi[..., :1, :] @ dq[..., 2:, None])[..., 0, 0] - dq[..., 0]
        return xy[..., 0] - q[..., 0], slope, (q, xy)

    # seeded at t ~ (b1/b2) eta1
    t, _, _, (q, xy), _ = newton_1d(x_mismatch, eta1 * coeffs.b / coeffs2.b, tol=1e-13,
                                    accept_tol=1e-11, name="connection t-match")
    gap = xy[..., 1] - q[..., 1]
    if Q02.ndim == 2:
        return gap, {"t_param": t, "z_star": q[:, 2:],
                     "leaf_point": np.concatenate((xy, q[:, 2:]), axis=1), "curve_point": q}
    return float(gap), {"t_param": t, "z_star": list(q[2:]),
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
    """The cycle Newton of ``solve_hetdim_symmetric`` and
    ``solve_hetdim_general``: phase A solves the period-2 orbit with s at
    the seed's frozen gamma, then one Newton on (u, mu, ln|gamma|) closes
    the period-2 rows and the connection-gap row together.

    Its rows land on float floors that grow with the itinerary, so each row
    stops at ``numerics.fold_tol``: twice the row's float floor, measured at
    the seed w0 = (u0, mu0, ln|gamma|0) with one FOLD_ULPS-ulp probe per
    unknown, each one ulp of that unknown (2D + 3 residuals), never below
    the row's fixed tolerance and never above its accept floor.  Below its
    floor a row only random-walks, and every residual marches a
    strong-stable leaf.
    """
    _check_itinerary(k, m)
    if abs(coeffs.x_plus - coeffs2.x_plus) > 1e-12:
        raise ValidationError("coincidence condition violated: the two global maps "
                              "must share x+ (leaf of the strong-stable foliation)")
    lam = model.multipliers.lam

    ratio = 2.0 * coeffs.y_minus / (coeffs.c * coeffs.x_plus)
    mu2_shift_flag = general and ratio < 0.0
    # with the mu2 shift by -2 c lambda^k x+ the gamma relation flips sign
    c_star_ratio = abs(ratio)

    # seeds: orbit offsets from the scaled solutions, gamma from the
    # lambda^k gamma^m relation, t from the x-match; phase A refines the
    # orbit and mu at frozen gamma before the full polish
    g0 = (math.log(abs(c_star_ratio)) - k * math.log(abs(lam))) / m
    model_g = _rebuild_gamma(model, g0)
    orbA = solve_period2_with_s(model_g, coeffs, k, m, s_target)
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

    def F(w: Array) -> Array:
        if w.ndim == 2:
            return F_block(w)
        u, mu1, g = w[:-2], w[-2], w[-1]
        mdl = _rebuild_gamma(model, g)
        cm = coeffs.with_mu(mu1)
        rows, eta1, Q02 = _period2_residual(mdl, cm, u, k, m, s_target)
        gap, _ = _connection_gap(mdl, cm, coeffs2, mu2_of(mu1, eta1), Q02, m, eta1)
        return np.append(rows, gap / max(abs(mdl.multipliers.gamma) ** (-m), 1e-300))

    def F_block(W: Array) -> Array:
        # F at each row of a block of probes, NaN where F raises.  The rows
        # that share a gamma take their period-2 rows in one call, one mu
        # per row, and the connection gaps of the finite ones in another
        out = np.full(W.shape, np.nan)
        for g in dict.fromkeys(W[:, -1].tolist()):
            group = np.flatnonzero(W[:, -1] == g)
            if len(group) == 1:
                with contextlib.suppress(NumericalError):
                    out[group[0]] = F(W[group[0]])
                continue
            try:
                mdl = _rebuild_gamma(model, g)
            except DomainError:
                continue
            mu1 = W[group, -2]
            rows, eta1, Q02 = _period2_residual(mdl, coeffs.with_mu(mu1), W[group, :-2],
                                                k, m, s_target)
            out[group, :-1] = rows
            ok = np.isfinite(rows).all(axis=1)
            if ok.any():
                # the leaf slopes do not depend on mu, only the twin curve does
                gap, _ = _connection_gap(mdl, coeffs, coeffs2, mu2_of(mu1[ok], eta1[ok]),
                                         Q02[ok], m, eta1[ok])
                out[group[ok], -1] = gap / max(abs(mdl.multipliers.gamma) ** (-m), 1e-300)
        return out

    scales, tol, accept = _period2_tolerances(model_g, coeffs, k, m, mu0)
    w0 = np.concatenate((u0, [mu0, g0]))
    accept = np.append(accept, 1e-10)
    # the probes of every floor and FD Jacobian go to F as one block
    tol = np.minimum(accept, fold_tol(F, w0, np.diag(np.spacing(np.abs(w0))),
                                      least=np.append(tol, 1e-12), block=True))
    w, res, _ = newton_solve(F, w0, scales=np.append(scales, 0.05), tol=tol,
                             accept_tol=accept, max_iter=60, jac_reuse=4, block=True,
                             name=f"heterodimensional cycle (k={k}, m={m})")

    u, mu1, g = w[:-2], float(w[-2]), float(w[-1])
    mdl = _rebuild_gamma(model, g)
    cm = coeffs.with_mu(mu1)
    orbit = _orbit_from_unknowns(mdl, cm, u, k, m)
    orbit.s_value = s_target
    eta1 = orbit.eta[0]
    mu2 = mu2_of(mu1, eta1)
    gap, conn = _connection_gap(mdl, cm, coeffs2, mu2, orbit.points["Q02"].as_array(), m, eta1)
    if not (orbit.closure_residual < CERT_TOLERANCES["closure"]
            and abs(gap) < CERT_TOLERANCES["gap"]):
        # the Newton accepted rows whose floors lie above what the
        # certificate's replay checks: it would replay as a failure
        ratios = ", ".join(f"{r:.3g}" for r in np.abs(F(w)) / tol)
        raise ConvergenceError(
            f"heterodimensional cycle (k={k}, m={m}): closure {orbit.closure_residual:.3e} "
            f"and gap {abs(gap):.3e} against the certificate's {CERT_TOLERANCES['closure']:g} "
            f"and {CERT_TOLERANCES['gap']:g}; |F|/tol per row: {ratios}",
            residual=orbit.closure_residual, seed=w0)

    eigs = orbit_multipliers(orbit_jacobian_chain(mdl, cm, orbit))
    idx = _count_outside(eigs)
    if idx != 2:
        raise HypothesisError(f"solved orbit has index {idx}, not 2")

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
        quasi_connection={"gap": gap, **conn, "mu2": mu2},
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


TRANSVERSE_MAX_RETURNS = 50


def _poly_area(P: Array) -> float:
    """Area of the (x, y)-projection of the closed polygon P."""
    # center first: the polygons are tiny and the raw shoelace would cancel
    # catastrophically against O(0.1) coordinates
    x = P[:, 0] - np.mean(P[:, 0])
    y = P[:, 1] - np.mean(P[:, 1])
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def _return_block(model: SaddleModel, coeffs: GlobalMapCoeffs, pts: Array,
                  stay: int) -> tuple[Array, Array]:
    """One return T1 o T0^stay of each row of pts, the stay as one block.

    Returns the exit heights T0^stay(p)_y, NaN where the orbit leaves the
    box, and the images T1(T0^stay(p)), NaN where the exit misses Pi1: the
    values of ``first_return_array`` wherever it does not raise.
    """
    w = saddle.stay_exit(model, pts, stay)
    images = t1_array(coeffs, w)
    # a NaN row (a box exit) is not in Pi1
    images[~in_pi1(coeffs, w)] = np.nan
    return w[:, 1], images


def verify_transverse_connection(model: SaddleModel, coeffs: GlobalMapCoeffs,
                                 cert: CycleCertificate) -> dict:
    """Grow a disk in the center-unstable plane at Q01 until it crosses a
    piece of the stable manifold of the fixed point.

    The strip's horizontal boundaries are pieces of W^s(O) through the
    transverse homoclinic points that exist at the certificate's mu (the
    split pair requires mu * d < 0 there); crossing is detected as a sign
    change of the next-return y along the tracked polyline and located by a
    scalar Newton along the segment.  The first-return area factor of the
    z-projected polygon is compared against |b c (lambda gamma)^k|.
    """
    mdl = model_from_json(cert.model_spec)
    cm = coeffs_from_json(cert.coeffs_spec)
    if cm.mu * cm.d >= 0.0:
        raise HypothesisError("no straddling transverse pair at this mu "
                              "(mu * d >= 0); install quartet boundaries instead")
    k, m = cert.orbit.itinerary
    lam, gamma = mdl.multipliers.lam, mdl.multipliers.gamma
    # the disk radius: small enough that the first return stays inside the
    # installed sub-strip (the orbit sits margin-deep inside it), so at least
    # one clean area factor is measured before the crossing
    width = math.sqrt(-cm.mu / cm.d)  # half-width of the installed sub-strip
    margin = width - abs(cert.orbit.eta[0])
    r0 = min(1e-6, 2e-3 * abs(gamma) ** (-k))
    if margin > 0:
        r0 = min(r0, 0.25 * margin * abs(gamma) ** (-k))

    base = cert.orbit.points["Q01"].as_array()
    E = invariant_cu_subspace(return_chain(mdl, cm, base, [k, m])).subspace  # D x 2
    phis = np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False)
    circle = np.cos(phis)[:, None] * E[:, 0] + np.sin(phis)[:, None] * E[:, 1]
    predicted = abs(cm.b * cm.c) * abs(lam * gamma) ** k

    # the per-return area factor is measured on its own disk, small enough
    # that the exit spread stays below the orbit's exit offset (otherwise
    # the quadratic fold, not the linearization, dominates the area).  At
    # deep itineraries no representable disk satisfies this.
    area_factors = []
    r_area = min(1e-6, 5e-3 * abs(gamma) ** (-k),
                 0.2 * abs(cert.orbit.eta[0]) * abs(gamma) ** (-k))
    factor_measurable = r_area >= 64.0 * 2.3e-16
    if factor_measurable:
        P0 = base + r_area * circle
        _, P1 = _return_block(mdl, cm, P0, k)
        if not np.isnan(P1).any():
            area_factors.append(_poly_area(P1) / _poly_area(P0))

    def _crossing(p_lo: Array, p_hi: Array, stay: int, level: float, ret: int) -> dict:
        """Newton along the segment onto the boundary sheet {T0^stay(p)_y = level}."""
        seg = p_hi - p_lo

        def exit_height(s: float) -> tuple[float, float, Array]:
            # the exit height and its exact derivative along the segment
            p = p_lo + s * seg
            traj = saddle.orbit(mdl, p, stay)
            return (float(traj[-1, 1]) - level,
                    float(saddle.jacobian_along(mdl, traj)[1] @ seg), p)

        _, _, d_exit, crossing, _ = newton_1d(exit_height, 0.5, tol=4 * np.spacing(level),
                                              name="transverse crossing")
        slope = abs(d_exit) / float(np.linalg.norm(seg))
        return {"found": True, "iterations_used": ret + 1,
                "crossing_point": list(crossing), "crossing_slope": slope,
                "boundary_level": level, "stay": stay,
                "area_factors": area_factors,
                "factor_measurable": factor_measurable,
                "predicted_first_factor": predicted, "r0": r0}

    pts = base + r0 * circle
    area_prev = _poly_area(pts)
    for ret in range(TRANSVERSE_MAX_RETURNS):
        stay = (k, m)[ret % 2]
        exits, images = _return_block(mdl, cm, pts, stay)
        # a segment crosses a W^s(O) piece when the exit heights of its ends
        # straddle one of the installed boundary levels y- +- width (the
        # sheets through the split transverse pair)
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
        kept = ~np.isnan(images).any(axis=1)
        pts = images[kept]
        if len(pts) < 3:
            raise HypothesisError("tracked polyline degenerated before crossing")
        area = _poly_area(pts)
        if kept.all() and area_prev > 0 and area / area_prev <= 1.0:
            raise HypothesisError("area growth stalled (factor <= 1); "
                                  "expansion hypothesis violated")
        area_prev = area
    raise ConvergenceError(f"no crossing within {TRANSVERSE_MAX_RETURNS} returns",
                           residual=None)


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
        "residuals": cert.residuals,
        "tolerances": dict(CERT_TOLERANCES),
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
    check_dimensions(model, coeffs, coeffs2)
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
            lambda: closure_residual_forward(model, coeffs, pts["Q01"].as_array(), k, m))

    def legs():
        v = saddle.stay_exit(model, pts["Q01"].as_array(), k)
        leg = float(np.max(np.abs(v - pts["Q11"].as_array())))
        v = t1_array(coeffs, v)
        leg = max(leg, float(np.max(np.abs(v - pts["Q02"].as_array()))))
        v = saddle.stay_exit(model, v, m)
        return max(leg, float(np.max(np.abs(v - pts["Q12"].as_array()))))

    guarded("legs", CERT_TOLERANCES["closure"], legs)

    def index_check():
        orbit = PeriodTwoOrbit(points=pts, itinerary=(k, m),
                               eta=tuple(doc["eta"]), mu=coeffs.mu,
                               closure_residual=0.0)
        return orbit_index(model, coeffs, orbit, tol_unit=tol["unit_circle"])

    idx = guarded("index", None, index_check)
    checks["index"]["ok"] = idx == 2

    def gap_check():
        # in symmetric mode the twin map is the conjugation of the same
        # coefficient set, so its splitting parameter is coeffs.mu itself
        mu2 = coeffs.mu if doc["mode"] == "symmetric" else doc["quasi_connection"]["mu2"]
        gap, _ = _connection_gap(model, coeffs, coeffs2, mu2, pts["Q02"].as_array(), m,
                                 float(doc["eta"][0]))
        return abs(gap)

    guarded("gap", tol["gap"], gap_check)

    checks["all_ok"] = all(c["ok"] for c in checks.values() if isinstance(c, dict))
    return checks
