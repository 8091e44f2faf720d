"""Named model and coefficient configurations used across tests and demos.

Four coefficient regimes matter:

* ``forge_*``  -- tangency-forging labs, one per sign case of (c*d*x+, d).
* ``battery``  -- the index-2 battery.  Chosen with a = 0 and b*c = 2*d so the
  closed-form index window has half-width exactly 1 and negligible center
  shift over the scheduled (k, m) pairs; the eigensolver then agrees with the
  inverted criterion across the whole s-range probed.
* ``hetdim``   -- the symmetric heterodimensional-cycle lab (theta* = 5/6,
  positive c*x+*y-, ratio 2*y-/(c*x+) = 5).
* ``leaf``     -- polynomial tier for slope-decay fits; its report rates
  lambda0 and lambda_hat are calibrated to the family's sharp decay rates.
"""

from __future__ import annotations

import math

import numpy as np

from .global_map import GlobalMapCoeffs
from .saddle import Multipliers, SaddleModel, build_model


def base_multipliers() -> Multipliers:
    return Multipliers(0.55, 2.2, np.array([0.25]), 0.4, 2.4, 0.29)


def base_model(tier: str = "linear", eps: float = 0.05) -> SaddleModel:
    kind = {"linear": "linear", "polynomial": "polynomial",
            "polynomial_symmetric": "polynomial_symmetric"}[tier]
    return build_model(base_multipliers(), 3, {"kind": kind, "eps": eps})


def d4_model(tier: str = "linear", eps: float = 0.05) -> SaddleModel:
    mult = Multipliers(0.55, 2.2, np.array([0.25, 0.1]), 0.4, 2.4, 0.29)
    kind = {"linear": "linear", "polynomial": "polynomial",
            "polynomial_symmetric": "polynomial_symmetric"}[tier]
    return build_model(mult, 4, {"kind": kind, "eps": eps}, symmetry_signs=[-1, 1])


def _coeffs(**kw) -> GlobalMapCoeffs:
    base = dict(mu=0.0, x_plus=0.1, y_minus=0.5, z_plus=[0.03], a=0.3, b=1.0,
                c=1.5, d=-1.0, a_t=[0.05], b_t=[0.1], alpha1=[0.02],
                alpha2=[0.03], alpha3=[[0.4]], e3=0.0, delta=0.1)
    base.update(kw)
    return GlobalMapCoeffs(**base)


def forge_coeffs(case: str, e3: float = 0.0) -> GlobalMapCoeffs:
    """Tangency-forge coefficient sets by sign case of (c d x+, d)."""
    if case == "cdx_neg_d_neg":
        return _coeffs(c=1.5, d=-1.0, x_plus=0.1, e3=e3)
    if case == "cdx_pos_d_neg":
        return _coeffs(c=1.5, d=-1.0, x_plus=-0.1, e3=e3)
    if case == "cdx_neg_d_pos":
        return _coeffs(c=-1.5, d=1.0, x_plus=0.1, e3=e3)
    if case == "cdx_pos_d_pos":
        return _coeffs(c=1.5, d=1.0, x_plus=0.1, e3=e3)
    raise KeyError(case)


def battery_model() -> SaddleModel:
    mult = Multipliers(0.45, 3.2, np.array([0.18]), 0.25, 4.0, 0.19)
    return build_model(mult, 3, "linear")


def battery_coeffs() -> GlobalMapCoeffs:
    return _coeffs(a=0.0, b=5.0, c=4.0, d=10.0, x_plus=0.05, y_minus=0.5,
                   alpha1=[0.01], alpha2=[0.01], alpha3=[[0.4]])


def battery_pairs() -> list[tuple[int, int]]:
    """Even (k, m), k > m, restricted to pairs where gamma^m lambda^k stays
    well above 1 so the index-window center shift is negligible."""
    model = battery_model()
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    pairs = []
    for k in range(12, 26, 2):
        for m in range(12, k, 2):
            if gam ** m * lam ** k > 2.2:
                pairs.append((k, m))
    return pairs


def hetdim_model(theta_star: float = 5.0 / 6.0, gamma: float | None = None,
                 tier: str = "linear", eps: float = 0.05) -> SaddleModel:
    """Symmetric model with lambda = 0.55 and gamma chosen to realize theta.

    The cycle solvers adjust theta by rebuilding this model at a new gamma
    with lambda held fixed.
    """
    lam = 0.55
    if gamma is None:
        gamma = math.exp(-math.log(lam) / theta_star)
    kind = "linear" if tier == "linear" else "polynomial_symmetric"
    mult = Multipliers(lam, gamma, np.array([0.2]), 0.35, 3.2, 0.22)
    return build_model(mult, 3, {"kind": kind, "eps": eps})


def hetdim_coeffs(e3: float = 0.0) -> GlobalMapCoeffs:
    return _coeffs(a=0.2, b=1.0, c=2.0, d=1.0, x_plus=0.1, y_minus=0.5, e3=e3)


def hetdim_schedule() -> list[tuple[int, int]]:
    """Even pairs with m/k = 5/6 exactly; mu_j and theta_j - theta* shrink
    along it."""
    return [(12, 10), (24, 20), (36, 30)]


def leaf_model(eps: float = 0.05) -> SaddleModel:
    # lambda0 and lambda_hat sit at the sharp decay rates of this family
    # (phi1 ~ (lambda/gamma)^k / lambda^k, phi2 ~ gamma^-2k), both inside
    # their admissible windows
    mult = Multipliers(0.55, 2.2, np.array([0.22]), 0.4545, 2.4, 0.2412)
    return build_model(mult, 3, {"kind": "polynomial", "eps": eps})


def leaf_coeffs() -> GlobalMapCoeffs:
    return _coeffs(c=1.5, d=-1.0, x_plus=0.1)


def decoupled_coeffs() -> GlobalMapCoeffs:
    """No z-coupling into (x, y): with a linear model the strong-stable
    leaves are exact z-fibers."""
    return _coeffs(alpha1=[0.0], alpha2=[0.0])
