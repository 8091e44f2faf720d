"""Saddle normal form: the local diffeomorphism family around the fixed point.

The local map acts on split coordinates (x, y, z) as

    x' = lambda*x + f1(x,y,z)
    y' = gamma*y  + f2(x,y,z)
    z' = A z      + f3(x,y,z)

with |strong| < |lambda| < 1 < |gamma|, |lambda*gamma| > 1, A diagonal, and
the nonlinear terms f1, f2, f3 vanishing together with the structural
identities that straighten the local invariant manifolds and foliations
(f1(x,0,z) = 0, f2(x,0,z) = 0, ... see ``IDENTITY_NAMES``).  The optional
involution R(x,y,z) = (x, -y, S z) commutes with the map in symmetric mode.

Models are immutable; every operation is a pure function of (model, inputs).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ContractError, DomainError, ItineraryError, ValidationError
from .numerics import chain_product

Array = np.ndarray


@dataclass(frozen=True)
class SplitVector:
    """Phase point split along the saddle's eigen-splitting.

    x: leading stable coordinate, y: unstable coordinate, z: strong-stable
    block of length D-2 (D >= 3).
    """

    x: float
    y: float
    z: Array

    def __post_init__(self):
        z = np.atleast_1d(np.asarray(self.z, dtype=float))
        object.__setattr__(self, "z", z)
        if z.ndim != 1 or z.size < 1:
            raise ValidationError("z must be a vector of length D-2 with D >= 3")
        if not (np.isfinite(self.x) and np.isfinite(self.y) and np.all(np.isfinite(z))):
            raise ValidationError("SplitVector components must be finite")

    @property
    def dim(self) -> int:
        return 2 + self.z.size

    def as_array(self) -> Array:
        return np.concatenate(([self.x, self.y], self.z))

    @staticmethod
    def from_array(v: Array) -> "SplitVector":
        v = np.asarray(v, dtype=float)
        return SplitVector(float(v[0]), float(v[1]), v[2:].copy())


@dataclass(frozen=True)
class Multipliers:
    """Multipliers of the saddle plus the comparison rates used in reports.

    lambda_hat, gamma_hat and lambda0 never enter the arithmetic of the maps;
    they bound remainder terms (cross form) and derivative decay rates.
    """

    lam: float
    gamma: float
    strong: Array
    lambda_hat: float
    gamma_hat: float
    lambda0: float

    def __post_init__(self):
        object.__setattr__(self, "strong", np.atleast_1d(np.asarray(self.strong, dtype=float)))

    def validate(self) -> None:
        """Raise ValidationError naming the first violated inequality."""
        lam, gam, strong = self.lam, self.gamma, self.strong
        for i in range(strong.size - 1):
            if not abs(strong[i + 1]) < abs(strong[i]):
                raise ValidationError(f"|strong[{i + 1}]|>=|strong[{i}]|")
        if not abs(strong[0]) < abs(lam):
            raise ValidationError("|strong[0]|>=|lambda|")
        if not abs(lam) < 1.0:
            raise ValidationError("|lambda|>=1")
        if not abs(gam) > 1.0:
            raise ValidationError("|gamma|<=1")
        if not abs(lam * gam) > 1.0:
            raise ValidationError("|lambda*gamma|<=1")
        if not abs(self.lambda_hat) < abs(lam):
            raise ValidationError("|lambda_hat|>=|lambda|")
        if not abs(self.lambda_hat) > lam * lam:
            raise ValidationError("|lambda_hat|<=lambda^2")
        if not abs(self.gamma_hat) > abs(gam):
            raise ValidationError("|gamma_hat|<=|gamma|")
        if not abs(strong[0]) < self.lambda0:
            raise ValidationError("lambda0<=|strong[0]|")
        if not self.lambda0 < lam * lam:
            raise ValidationError("lambda0>=lambda^2")

    @property
    def theta(self) -> float:
        """Modulus of topological conjugacy, -ln|lambda|/ln|gamma|."""
        return -math.log(abs(self.lam)) / math.log(abs(self.gamma))


# ---------------------------------------------------------------------------
# nonlinear term families


class _Nonlinearity:
    kind = "linear"
    eps = 0.0

    def value(self, x, y, z):
        """f = (f1, f2, f3); broadcasts over leading axes of x, y and rows of z."""
        f1 = np.zeros_like(np.asarray(x, dtype=float))
        f2 = np.zeros_like(f1)
        f3 = np.zeros_like(np.asarray(z, dtype=float))
        return f1, f2, f3

    def jac(self, x, y, z) -> Array:
        """Jacobian contribution of (f1, f2, f3): (D, D) at a single point,
        (N, D, D) for (N,) arrays x, y and (N, D-2) rows z."""
        D = 2 + np.shape(z)[-1]
        return np.zeros(np.shape(x) + (D, D))

    def spec(self) -> dict:
        return {"kind": self.kind, "eps": self.eps}


class _Polynomial(_Nonlinearity):
    """f1 = eps*x*y*z1, f2 = eps*y^2*(x+z1), f3_i = eps*z_i*x*y.

    Satisfies every structural identity by construction; not equivariant
    under the reflection R, so it serves the non-symmetric tier only.
    """

    kind = "polynomial"

    def __init__(self, eps: float):
        self.eps = float(eps)

    def value(self, x, y, z):
        e = self.eps
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        z1 = z[..., 0]
        f1 = e * x * y * z1
        f2 = e * y * y * (x + z1)
        f3 = e * z * (x * y)[..., None] if z.ndim > 1 else e * z * x * y
        return f1, f2, f3

    def jac(self, x, y, z):
        e = self.eps
        x, y, z, J = _jac_operands(x, y, z)
        d = np.arange(2, J.shape[-1])
        z1 = z[..., 0]
        J[..., 0, 0] = e * y * z1
        J[..., 0, 1] = e * x * z1
        J[..., 0, 2] = e * x * y
        J[..., 1, 0] = e * y * y
        J[..., 1, 1] = 2.0 * e * y * (x + z1)
        J[..., 1, 2] = e * y * y
        J[..., 2:, 0] = e * z * y[..., None]
        J[..., 2:, 1] = e * z * x[..., None]
        J[..., d, d] += (e * x * y)[..., None]
        return J


class _PolynomialSymmetric(_Nonlinearity):
    """Equivariant variant: f1 = eps*x*y*z1, f2 = eps*y^2*z1, f3_i = eps*z_i*x*y^2.

    Commutes with R(x,y,z) = (x,-y,Sz) exactly when S flips z1, which the
    constructor enforces.
    """

    kind = "polynomial_symmetric"

    def __init__(self, eps: float):
        self.eps = float(eps)

    def value(self, x, y, z):
        e = self.eps
        x = np.asarray(x, dtype=float)
        y = np.asarray(y, dtype=float)
        z = np.asarray(z, dtype=float)
        z1 = z[..., 0]
        f1 = e * x * y * z1
        f2 = e * y * y * z1
        f3 = e * z * (x * y * y)[..., None] if z.ndim > 1 else e * z * x * y * y
        return f1, f2, f3

    def jac(self, x, y, z):
        e = self.eps
        x, y, z, J = _jac_operands(x, y, z)
        d = np.arange(2, J.shape[-1])
        z1 = z[..., 0]
        J[..., 0, 0] = e * y * z1
        J[..., 0, 1] = e * x * z1
        J[..., 0, 2] = e * x * y
        J[..., 1, 1] = 2.0 * e * y * z1
        J[..., 1, 2] = e * y * y
        J[..., 2:, 0] = e * z * y[..., None] * y[..., None]
        J[..., 2:, 1] = 2.0 * e * z * x[..., None] * y[..., None]
        J[..., d, d] += (e * x * y * y)[..., None]
        return J


def _jac_operands(x, y, z):
    """Float arrays x, y (shape S), z (S + (D-2,)) and a zero (S + (D, D))
    Jacobian to fill; S is () for a single point and (N,) for N rows."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    z = np.asarray(z, dtype=float)
    D = 2 + z.shape[-1]
    return x, y, z, np.zeros(x.shape + (D, D))


_FAMILIES = {
    "linear": lambda eps: _Nonlinearity(),
    "polynomial": _Polynomial,
    "polynomial_symmetric": _PolynomialSymmetric,
}


# ---------------------------------------------------------------------------
# the model


@dataclass(frozen=True)
class SaddleModel:
    multipliers: Multipliers
    dim: int
    nonlinearity: _Nonlinearity
    symmetry_signs: Array
    symmetric: bool
    box: float = 1.0

    @property
    def A(self) -> Array:
        return np.diag(self.multipliers.strong)

    @functools.cached_property
    def diagonal(self) -> Array:
        """The linear part's multipliers (lambda, gamma, strong...) as a (D,)
        vector; computed on first use and kept with the model."""
        m = self.multipliers
        d = np.concatenate(([m.lam, m.gamma], m.strong))
        d.flags.writeable = False
        return d

    def spec(self) -> dict:
        m = self.multipliers
        return {
            "dim": self.dim,
            "lambda": m.lam,
            "gamma": m.gamma,
            "strong": list(m.strong),
            "lambda_hat": m.lambda_hat,
            "gamma_hat": m.gamma_hat,
            "lambda0": m.lambda0,
            "nonlinearity": self.nonlinearity.spec(),
            "symmetry_signs": [int(s) for s in self.symmetry_signs],
        }


def build_model(mult: Multipliers, dim: int, nonlinearity: dict | str | None = None,
                symmetry_signs=None) -> SaddleModel:
    """Construct a model; rejects multipliers naming the first failed inequality.

    ``nonlinearity`` is ``{"kind": ..., "eps": ...}`` (or just the kind).  The
    ``polynomial`` family fulfils the straightening identities but not
    equivariance; ``polynomial_symmetric`` fulfils both and requires the first
    symmetry sign to be -1.
    """
    mult.validate()
    if dim < 3:
        raise ValidationError("dim must be >= 3")
    if mult.strong.size != dim - 2:
        raise ValidationError(f"strong must have length dim-2 = {dim - 2}")

    if nonlinearity is None:
        nonlinearity = {"kind": "linear"}
    if isinstance(nonlinearity, str):
        nonlinearity = {"kind": nonlinearity}
    kind = nonlinearity.get("kind", "linear")
    if kind not in _FAMILIES:
        raise ValidationError(f"unknown nonlinearity kind {kind!r}")
    nl = _FAMILIES[kind](nonlinearity.get("eps", 0.0))

    if symmetry_signs is None:
        signs = np.ones(dim - 2)
        signs[0] = -1.0
    else:
        signs = np.asarray(symmetry_signs, dtype=float)
        if signs.size != dim - 2 or not np.all(np.abs(signs) == 1.0):
            raise ValidationError("symmetry_signs must be a (dim-2)-vector of +-1")
        if np.all(signs == 1.0):
            raise ValidationError("symmetry_signs must not all be +1")
    symmetric = kind in ("linear", "polynomial_symmetric")
    if kind == "polynomial_symmetric" and signs[0] != -1.0:
        raise ValidationError("polynomial_symmetric requires symmetry_signs[0] == -1")
    return SaddleModel(mult, dim, nl, signs, symmetric)


def model_from_json(doc: dict) -> SaddleModel:
    """Build a model from its JSON document form (see README for the schema)."""
    try:
        dim = int(doc["dim"])
        lam = float(doc["lambda"])
        gam = float(doc["gamma"])
        strong = np.asarray(doc["strong"], dtype=float)
    except KeyError as exc:
        raise ValidationError(f"model spec missing key {exc.args[0]!r}") from None
    lam_hat = float(doc.get("lambda_hat", math.copysign(abs(lam) ** 1.5, lam)))
    gam_hat = float(doc.get("gamma_hat", 1.25 * gam))
    lam0 = float(doc.get("lambda0", math.sqrt(abs(strong[0]) * lam * lam)))
    mult = Multipliers(lam, gam, strong, lam_hat, gam_hat, lam0)
    return build_model(mult, dim, doc.get("nonlinearity"), doc.get("symmetry_signs"))


# ---------------------------------------------------------------------------
# operations


def _check_box(model: SaddleModel, v: Array) -> None:
    if np.max(np.abs(v)) > model.box:
        raise DomainError(f"point outside validity box (max-norm {np.max(np.abs(v)):.3f} "
                          f"> {model.box})")


def t0_array(model: SaddleModel, v: Array) -> Array:
    """One local-map step on a flat (D,) array; no box check."""
    out = model.diagonal * v
    nl = model.nonlinearity
    if nl.kind == "linear":
        # f = +0.0 here; adding it as the normal form does turns a -0.0
        # product into +0.0
        out += 0.0
        return out
    f1, f2, f3 = nl.value(v[0], v[1], v[2:])
    out[0] += f1
    out[1] += f2
    out[2:] += f3
    return out


def orbit(model: SaddleModel, v: Array, n: int) -> Array:
    """The n-step trajectory of the local map from a flat (D,) point, as an
    (n+1, D) array whose row j is T0^j(v).

    Raises ItineraryError carrying the first step that leaves the validity
    box.  The linear tier takes the first step with ``t0_array`` and the rest
    as one running product of the multipliers, which performs the same
    multiplications (and the same ``+ 0.0``) as stepping, bit for bit.
    """
    traj = np.empty((n + 1, model.dim))
    traj[0] = v
    if n:
        traj[1] = t0_array(model, traj[0])
    if model.nonlinearity.kind == "linear":
        traj[2:] = model.diagonal
        np.multiply.accumulate(traj[1:], axis=0, out=traj[1:])
        traj[2:] += 0.0
    else:
        for j in range(1, n):
            if not np.all(np.abs(traj[j]) <= model.box):
                # past the box the nonlinear terms grow without bound and
                # overflow; the check below reports row j
                traj[j + 1:] = np.nan
                break
            traj[j + 1] = t0_array(model, traj[j])
    out = ~np.all(np.abs(traj[1:]) <= model.box, axis=1)
    if out.any():
        step = int(np.argmax(out)) + 1
        raise ItineraryError(f"orbit left the validity box at step {step}", step=step)
    return traj


def t0_jac_array(model: SaddleModel, v: Array) -> Array:
    """Exact Jacobian of the local map: (D, D) at a flat (D,) point ``v``,
    or (N, D, D) at the N rows of an (N, D) block."""
    v = np.asarray(v, dtype=float)
    J = model.nonlinearity.jac(v[..., 0], v[..., 1], v[..., 2:])
    d = np.arange(model.dim)
    J[..., d, d] += model.diagonal
    return J


def jacobian_along(model: SaddleModel, traj: Array, M: Array | None = None) -> Array:
    """The derivative of T0^n along an (n+1, D) trajectory from ``orbit``,
    applied to M (the identity when None): J[n-1] @ ... @ J[0] @ M, with the
    step Jacobians from one batched call, multiplied in step order."""
    return chain_product(t0_jac_array(model, traj[:-1]), M)


def apply_T0(model: SaddleModel, p: SplitVector) -> tuple[SplitVector, Array]:
    """Image and exact Jacobian of the local map at ``p`` (inside the box)."""
    v = p.as_array()
    _check_box(model, v)
    return SplitVector.from_array(t0_array(model, v)), t0_jac_array(model, v)


def reflect_array(model: SaddleModel, v: Array) -> Array:
    out = v.copy()
    out[1] = -out[1]
    out[2:] = model.symmetry_signs * out[2:]
    return out


def apply_symmetry(model: SaddleModel, p: SplitVector) -> SplitVector:
    """The involution R(x, y, z) = (x, -y, S z); symmetric models only."""
    if not model.symmetric:
        raise ContractError("apply_symmetry called on a non-symmetric model")
    return SplitVector.from_array(reflect_array(model, p.as_array()))


IDENTITY_NAMES = (
    "f13_vanish_on_Wu",       # f1, f3 at (0, y, 0)
    "f2_vanish_on_Ws",        # f2 at (x, 0, z)
    "f1_vanish_on_Ws",        # f1 at (x, 0, z)
    "f2_vanish_on_Wu",        # f2 at (0, y, 0)
    "df13_dx_vanish_on_Wu",   # d(f1,f3)/dx at (0, y, 0)
    "df2_dy_vanish_on_Ws",    # df2/dy at (x, 0, z)
    "f3_vanish_on_WuE",       # f3 at (x, y, 0)
    "f1_vanish_on_WuE",       # f1 at (x, y, 0)
)


def identity_residuals(model: SaddleModel, xs: Array, ys: Array, zs: Array) -> dict[str, float]:
    """Max absolute residual of each structural identity over a sample set.

    ``xs``, ``ys`` are (N,) arrays and ``zs`` is (N, D-2); each identity is
    evaluated on the appropriate restriction of those samples.
    """
    nl = model.nonlinearity
    zero_z = np.zeros_like(zs)
    zero_s = np.zeros_like(xs)
    res: dict[str, float] = {}

    f1, _, f3 = nl.value(zero_s, ys, zero_z)
    res["f13_vanish_on_Wu"] = max(float(np.max(np.abs(f1))), float(np.max(np.abs(f3))))
    _, f2, _ = nl.value(xs, zero_s, zs)
    res["f2_vanish_on_Ws"] = float(np.max(np.abs(f2)))
    f1, _, _ = nl.value(xs, zero_s, zs)
    res["f1_vanish_on_Ws"] = float(np.max(np.abs(f1)))
    _, f2, _ = nl.value(zero_s, ys, zero_z)
    res["f2_vanish_on_Wu"] = float(np.max(np.abs(f2)))

    dx = nl.jac(zero_s, ys, zero_z)[..., 0]
    res["df13_dx_vanish_on_Wu"] = float(np.max(np.abs(np.delete(dx, 1, axis=-1)), initial=0.0))
    J = nl.jac(xs, zero_s, zs)
    res["df2_dy_vanish_on_Ws"] = float(np.max(np.abs(J[:, 1, 1]), initial=0.0))

    _, _, f3 = nl.value(xs, ys, zero_z)
    res["f3_vanish_on_WuE"] = float(np.max(np.abs(f3)))
    f1, _, _ = nl.value(xs, ys, zero_z)
    res["f1_vanish_on_WuE"] = float(np.max(np.abs(f1)))
    return res


def commutation_residual(model: SaddleModel, points: Array) -> float:
    """max ||R(T0(p)) - T0(R(p))||_inf over rows of ``points`` ((N, D))."""
    if not model.symmetric:
        raise ContractError("commutation check needs a symmetric model")
    worst = 0.0
    for row in points:
        a = reflect_array(model, t0_array(model, row))
        b = t0_array(model, reflect_array(model, row))
        worst = max(worst, float(np.max(np.abs(a - b))))
    return worst


@dataclass
class ConditionReport:
    """Standing-condition margins for a (model, global-map) pair.

    Positive margins mean the inequality holds; the report never raises.
    """

    c1_ok: bool
    c2_ok: bool
    c3_ok: bool
    c3prime_ok: bool | None
    c4_leaf_gap: float
    theta: float
    margins: dict = field(default_factory=dict)


def check_conditions(model: SaddleModel, coeffs, coeffs2=None, flow_exponents=None) -> ConditionReport:
    """Report conditions C1-C4 (and C3' when flow exponents are supplied).

    C2 is reported through its finite proxies d != 0, x+ != 0, bc != 0; the
    C4 leaf gap is the x-distance of the strong-stable leaves {x = c, y = 0}
    through the two tangency points (0 in symmetric mode).
    """
    m = model.multipliers
    margins: dict[str, float] = {}
    margins["chain_strong_lt_lambda"] = abs(m.lam) - abs(m.strong[0])
    margins["chain_lambda_lt_1"] = 1.0 - abs(m.lam)
    margins["chain_gamma_gt_1"] = abs(m.gamma) - 1.0
    margins["lambda_gamma_gt_1"] = abs(m.lam * m.gamma) - 1.0
    c1_ok = all(margins[k] > 0.0 for k in ("chain_strong_lt_lambda", "chain_lambda_lt_1",
                                           "chain_gamma_gt_1", "lambda_gamma_gt_1"))

    margins["c2_d_nonzero"] = abs(coeffs.d)
    margins["c2_xplus_nonzero"] = abs(coeffs.x_plus)
    margins["c2_bc_nonzero"] = abs(coeffs.b * coeffs.c)
    c2_ok = all(margins[k] > 0.0 for k in ("c2_d_nonzero", "c2_xplus_nonzero", "c2_bc_nonzero"))

    margins["c3_strong_lt_lambda_sq"] = m.lam * m.lam - abs(m.strong[0])
    margins["c3_area"] = 1.0 - abs(m.lam) * abs(m.gamma) ** (2.0 / 3.0)
    c3_ok = margins["c3_strong_lt_lambda_sq"] > 0.0 and margins["c3_area"] > 0.0

    c3prime_ok = None
    if flow_exponents is not None:
        margins["c3prime_strong"] = 2.0 * flow_exponents.alpha - max(
            a.real if isinstance(a, complex) else a for a in flow_exponents.alpha_strong)
        margins["c3prime_area"] = -(flow_exponents.alpha + 2.0 * flow_exponents.beta / 3.0)
        c3prime_ok = margins["c3prime_strong"] > 0.0 and margins["c3prime_area"] > 0.0

    if coeffs2 is not None:
        gap = abs(coeffs.x_plus - coeffs2.x_plus)
    else:
        gap = 0.0
    return ConditionReport(c1_ok, c2_ok, c3_ok, c3prime_ok, gap, m.theta, margins)
