"""Global maps along the tangency orbits, the first-return map, and strips.

T1 carries a neighborhood Pi1 of the point (0, y-, 0) on the local unstable
manifold back to a neighborhood Pi0 of (x+, 0, z+) on the local stable
manifold:

    x0 = x+ + a*x1 + b*(y1 - y-) + alpha1. z1 + h1
    y0 = mu + c*x1 + d*(y1 - y-)^2 + alpha2 . z1 + h2
    z0 = z+ + at*x1 + bt*(y1 - y-) + alpha3 z1 + h3

The splitting parameter mu enters only through the constant term of y0.  By
default h1 = h3 = 0 and h2 = e3*(y1 - y-)^3 with e3 = 0; a nonzero e3
exercises the robustness of every downstream solver against admissible
higher-order terms.  The symmetric twin is never an independent coefficient
set: it is the conjugation R o T1 o R.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ItineraryError, ValidationError
from .saddle import SaddleModel, SplitVector, jacobian_along, orbit, reflect_array

Array = np.ndarray


@dataclass(frozen=True)
class GlobalMapCoeffs:
    mu: float
    x_plus: float
    y_minus: float
    z_plus: Array
    a: float
    b: float
    c: float
    d: float
    a_t: Array
    b_t: Array
    alpha1: Array       # row, couples z1 into x0
    alpha2: Array       # row, couples z1 into y0
    alpha3: Array       # (D-2, D-2) block
    e3: float = 0.0     # optional cubic term of h2
    delta: float = 0.1  # half-size of the Pi neighborhoods

    def __post_init__(self):
        for name in ("z_plus", "a_t", "b_t", "alpha1", "alpha2"):
            object.__setattr__(self, name, np.atleast_1d(np.asarray(getattr(self, name), dtype=float)))
        object.__setattr__(self, "alpha3", np.atleast_2d(np.asarray(self.alpha3, dtype=float)))
        for name, val in (("b", self.b), ("c", self.c), ("d", self.d), ("x_plus", self.x_plus)):
            if val == 0.0:
                raise ValidationError(f"non-degeneracy violated: {name} must be nonzero")

    def with_mu(self, mu: float) -> "GlobalMapCoeffs":
        # a shallow copy sharing the validated arrays: dataclasses.replace
        # would re-run __post_init__ on every closure or tangency residual
        new = copy.copy(self)
        object.__setattr__(new, "mu", float(mu))
        return new

    def spec(self) -> dict:
        return {
            "mu": self.mu,
            "x_plus": self.x_plus,
            "y_minus": self.y_minus,
            "z_plus": list(self.z_plus),
            "a": self.a, "b": self.b, "c": self.c, "d": self.d,
            "a_t": list(self.a_t), "b_t": list(self.b_t),
            "alpha": [list(self.alpha1), list(self.alpha2)] + [list(r) for r in self.alpha3],
            "h": {"e3": self.e3},
            "delta": self.delta,
        }


def coeffs_from_json(doc: dict) -> GlobalMapCoeffs:
    """Coefficient set from its JSON document form.

    "alpha" holds 2 + (D-2) rows of length D-2: the z-couplings into x and y
    followed by the z-block itself.
    """
    try:
        alpha = [np.asarray(r, dtype=float) for r in doc["alpha"]]
        return GlobalMapCoeffs(
            mu=float(doc["mu"]), x_plus=float(doc["x_plus"]), y_minus=float(doc["y_minus"]),
            z_plus=np.asarray(doc["z_plus"], dtype=float),
            a=float(doc["a"]), b=float(doc["b"]), c=float(doc["c"]), d=float(doc["d"]),
            a_t=np.asarray(doc["a_t"], dtype=float), b_t=np.asarray(doc["b_t"], dtype=float),
            alpha1=alpha[0], alpha2=alpha[1], alpha3=np.vstack(alpha[2:]),
            e3=float(doc.get("h", {}).get("e3", 0.0)),
            delta=float(doc.get("delta", 0.1)),
        )
    except KeyError as exc:
        raise ValidationError(f"coefficient spec missing key {exc.args[0]!r}") from None


# ---------------------------------------------------------------------------
# regions


def in_pi0(coeffs: GlobalMapCoeffs, v: Array) -> bool:
    """Pi0 around (x+, 0, .), enlarged in z to hold both tangency endpoints."""
    d = coeffs.delta
    return (abs(v[0] - coeffs.x_plus) < d / 2 and abs(v[1]) < d
            and np.linalg.norm(v[2:]) < d)


def in_pi1(coeffs: GlobalMapCoeffs, v: Array) -> bool:
    d = coeffs.delta
    return (abs(v[0]) < d and abs(v[1] - coeffs.y_minus) < d / 2
            and np.linalg.norm(v[2:]) < d)


def in_pi1_tilde(coeffs: GlobalMapCoeffs, v: Array) -> bool:
    d = coeffs.delta
    return (abs(v[0]) < d and abs(v[1] + coeffs.y_minus) < d / 2
            and np.linalg.norm(v[2:]) < d)


# ---------------------------------------------------------------------------
# the maps


def t1_array(coeffs: GlobalMapCoeffs, v: Array) -> Array:
    t = v[1] - coeffs.y_minus
    x1, z1 = v[0], v[2:]
    out = np.empty_like(v)
    out[0] = coeffs.x_plus + coeffs.a * x1 + coeffs.b * t + coeffs.alpha1 @ z1
    out[1] = (coeffs.mu + coeffs.c * x1 + coeffs.d * t * t + coeffs.alpha2 @ z1
              + coeffs.e3 * t ** 3)
    out[2:] = coeffs.z_plus + coeffs.a_t * x1 + coeffs.b_t * t + coeffs.alpha3 @ z1
    return out


def t1_jac_array(coeffs: GlobalMapCoeffs, v: Array) -> Array:
    t = v[1] - coeffs.y_minus
    n = v.size - 2
    J = np.zeros((v.size, v.size))
    J[0, 0] = coeffs.a
    J[0, 1] = coeffs.b
    J[0, 2:] = coeffs.alpha1
    J[1, 0] = coeffs.c
    J[1, 1] = 2.0 * coeffs.d * t + 3.0 * coeffs.e3 * t * t
    J[1, 2:] = coeffs.alpha2
    J[2:, 0] = coeffs.a_t
    J[2:, 1] = coeffs.b_t
    J[2:, 2:] = coeffs.alpha3
    return J


def apply_T1(coeffs: GlobalMapCoeffs, p: SplitVector) -> SplitVector:
    v = p.as_array()
    if not in_pi1(coeffs, v):
        raise DomainError("point outside Pi1")
    return SplitVector.from_array(t1_array(coeffs, v))


def t1_tilde_array(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array) -> Array:
    """The twin global map R o T1 o R on flat arrays (no domain check)."""
    return reflect_array(model, t1_array(coeffs, reflect_array(model, v)))


def t1_tilde_jac_array(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array) -> Array:
    R = np.eye(model.dim)
    R[1, 1] = -1.0
    R[2:, 2:] = np.diag(model.symmetry_signs)
    return R @ t1_jac_array(coeffs, reflect_array(model, v)) @ R


def apply_T1_symmetric(model: SaddleModel, coeffs: GlobalMapCoeffs, p: SplitVector) -> SplitVector:
    """Twin map near (0, -y-, 0), built by conjugation with R."""
    v = p.as_array()
    if not in_pi1_tilde(coeffs, v):
        raise DomainError("point outside the twin neighborhood Pi1~")
    return SplitVector.from_array(t1_tilde_array(model, coeffs, v))


def first_return_array(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array, k: int,
                       with_jacobian: bool = True) -> tuple[Array, Array | None]:
    """T1 o T0^k on flat arrays; ItineraryError names the first violated step."""
    traj = orbit(model, v, k)
    w = traj[k]
    if not in_pi1(coeffs, w):
        raise ItineraryError(f"itinerary violated: T0^{k}(p) not in Pi1", step=k)
    J = t1_jac_array(coeffs, w) @ jacobian_along(model, traj) if with_jacobian else None
    return t1_array(coeffs, w), J


def first_return(model: SaddleModel, coeffs: GlobalMapCoeffs, p: SplitVector,
                 k: int) -> tuple[SplitVector, Array]:
    out, J = first_return_array(model, coeffs, p.as_array(), k)
    return SplitVector.from_array(out), J


# ---------------------------------------------------------------------------
# strips


@dataclass(frozen=True)
class Strip:
    """Extent of the stay-number-k strip in Pi0 (linear-model estimate)."""

    k: int
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_box: float


def k_star(model: SaddleModel, coeffs: GlobalMapCoeffs) -> int:
    """Smallest k for which the Pi0 y-extent reaches Pi1 under k local steps."""
    gam = abs(model.multipliers.gamma)
    d = coeffs.delta
    k = 1
    while gam ** (-k) * (abs(coeffs.y_minus) + d) >= d:
        k += 1
        if k > 10_000:
            raise ValidationError("k_star did not stabilize; check gamma and delta")
    return k


def strip_for(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int) -> Strip:
    gam = model.multipliers.gamma
    d = coeffs.delta
    lo = (coeffs.y_minus - d / 2) / gam ** k
    hi = (coeffs.y_minus + d / 2) / gam ** k
    return Strip(k, (coeffs.x_plus - d / 2, coeffs.x_plus + d / 2),
                 (min(lo, hi), max(lo, hi)), d)


def locate_strip(model: SaddleModel, coeffs: GlobalMapCoeffs, p: SplitVector,
                 k_max: int = 80) -> Strip | None:
    """Smallest k >= k* with T0^k(p) in Pi1, or None within k_max."""
    v = p.as_array()
    if not in_pi0(coeffs, v):
        return None
    try:
        traj = orbit(model, v, k_max)
    except ItineraryError as exc:
        traj = orbit(model, v, exc.step - 1)
    for k in range(k_star(model, coeffs), len(traj)):
        if in_pi1(coeffs, traj[k]):
            return strip_for(model, coeffs, k)
    return None
