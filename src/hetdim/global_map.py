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

from dataclasses import dataclass

import numpy as np

from .errors import ItineraryError, NumericalError, ValidationError
from .numerics import frobenius, row_norms
from .saddle import (SaddleModel, jacobian_along, orbit, reflect_array, stay_exit,
                     stay_jacobian)

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
        nz = self.z_plus.size
        for name, shape in (("a_t", (nz,)), ("b_t", (nz,)), ("alpha1", (nz,)),
                            ("alpha2", (nz,)), ("alpha3", (nz, nz))):
            if getattr(self, name).shape != shape:
                raise ValidationError(f"{name} has shape {getattr(self, name).shape}, but "
                                      f"z_plus has {nz} entries: expected {shape}")
        for name, val in (("b", self.b), ("c", self.c), ("d", self.d), ("x_plus", self.x_plus)):
            if val == 0.0:
                raise ValidationError(f"non-degeneracy violated: {name} must be nonzero")

    def with_mu(self, mu: float | Array) -> "GlobalMapCoeffs":
        """The same maps at splitting parameter mu; an (N,) array mu gives
        each row of an (N, D) block its own (``t1_array``)."""
        # a shallow copy sharing the validated arrays: dataclasses.replace
        # would re-run __post_init__ on every closure or tangency residual,
        # and copy.copy takes the slower __reduce_ex__ path
        new = object.__new__(type(self))
        new.__dict__.update(self.__dict__, mu=mu if getattr(mu, "ndim", 0) else float(mu))
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
        alpha = [np.atleast_1d(np.asarray(r, dtype=float)) for r in doc["alpha"]]
        if len(alpha) < 3 or len({r.shape for r in alpha}) > 1:
            raise ValidationError(f"alpha has rows of lengths {[r.size for r in alpha]}: "
                                  "expected 2 + (D-2) rows of length D-2")
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


def check_dimensions(model: SaddleModel, *coeff_sets: GlobalMapCoeffs) -> None:
    """Each coefficient set's z-block must have the model's dim - 2 entries."""
    for cm in coeff_sets:
        if cm.z_plus.size != model.dim - 2:
            raise ValidationError(f"coefficient z-block has {cm.z_plus.size} entries, but "
                                  f"a dim-{model.dim} model needs {model.dim - 2}")


# ---------------------------------------------------------------------------
# regions


def in_pi0(coeffs: GlobalMapCoeffs, v: Array) -> bool:
    """Pi0 around (x+, 0, .), enlarged in z to hold both tangency endpoints."""
    d = coeffs.delta
    return (abs(v[0] - coeffs.x_plus) < d / 2 and abs(v[1]) < d
            and frobenius(v[2:]) < d)


def in_pi1(coeffs: GlobalMapCoeffs, v: Array) -> bool | Array:
    """Whether the flat (D,) point v lies in Pi1, or which rows of an (N, D)
    block do (False for a NaN row), bit for bit."""
    d = coeffs.delta
    if v.ndim == 1:
        return (abs(v[0]) < d and abs(v[1] - coeffs.y_minus) < d / 2
                and frobenius(v[2:]) < d)
    return ((np.abs(v[:, 0]) < d) & (np.abs(v[:, 1] - coeffs.y_minus) < d / 2)
            & (row_norms(v[:, 2:]) < d))


# ---------------------------------------------------------------------------
# the maps


def t1_array(coeffs: GlobalMapCoeffs, v: Array) -> Array:
    """T1 of a flat (D,) point, or of each row of an (N, D) block, bit for
    bit; a block's coefficient set may carry one mu per row (``with_mu``).

    A block takes each coupling as a stack of the point's dot and
    matrix-vector products, and each cube with the scalar power: numpy's
    batched matrix-vector product and vectorised power round differently.
    """
    if v.ndim == 1:
        t = v[1] - coeffs.y_minus
        x1, z1 = v[0], v[2:]
        out = np.empty_like(v)
        out[0] = coeffs.x_plus + coeffs.a * x1 + coeffs.b * t + coeffs.alpha1 @ z1
        out[1] = (coeffs.mu + coeffs.c * x1 + coeffs.d * t * t + coeffs.alpha2 @ z1
                  + coeffs.e3 * t ** 3)
        out[2:] = coeffs.z_plus + coeffs.a_t * x1 + coeffs.b_t * t + coeffs.alpha3 @ z1
        return out
    t = v[:, 1] - coeffs.y_minus
    x1, z1 = v[:, 0], v[:, 2:, None]
    cube = np.array([s ** 3 for s in t.tolist()])
    out = np.empty_like(v)
    out[:, 0] = (coeffs.x_plus + coeffs.a * x1 + coeffs.b * t
                 + (coeffs.alpha1 @ z1)[:, 0])
    out[:, 1] = (coeffs.mu + coeffs.c * x1 + coeffs.d * t * t
                 + (coeffs.alpha2 @ z1)[:, 0] + coeffs.e3 * cube)
    out[:, 2:] = (coeffs.z_plus + coeffs.a_t * x1[:, None] + coeffs.b_t * t[:, None]
                  + (coeffs.alpha3 @ z1)[:, :, 0])
    return out


def t1_jac_array(coeffs: GlobalMapCoeffs, v: Array) -> Array:
    """The Jacobian of T1: (D, D) at a flat (D,) point, or (N, D, D) at the
    rows of an (N, D) block, bit for bit."""
    t = v[..., 1] - coeffs.y_minus
    J = np.zeros(v.shape + v.shape[-1:])
    J[..., 0, 0] = coeffs.a
    J[..., 0, 1] = coeffs.b
    J[..., 0, 2:] = coeffs.alpha1
    J[..., 1, 0] = coeffs.c
    J[..., 1, 1] = 2.0 * coeffs.d * t + 3.0 * coeffs.e3 * t * t
    J[..., 1, 2:] = coeffs.alpha2
    J[..., 2:, 0] = coeffs.a_t
    J[..., 2:, 1] = coeffs.b_t
    J[..., 2:, 2:] = coeffs.alpha3
    return J


def t1_tilde_array(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array) -> Array:
    """The twin global map R o T1 o R, near (0, -y-, 0); no domain check."""
    return reflect_array(model, t1_array(coeffs, reflect_array(model, v)))


def first_return_array(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array, k,
                       with_jacobian: bool = True) -> tuple[Array, Array | None]:
    """T1 o T0^k on flat arrays; ItineraryError names the first violated step.
    Without the Jacobian only the stay's exit is computed (``stay_exit``).

    An (N, D) block v, k an int or an (N,) array of stays, gives the (N, D)
    images and (N, D, D) Jacobians, each row its point call's bit for bit
    and NaN throughout where that call raises; the coefficient set may carry
    one mu per row (``with_mu``).  The linear tier takes the block whole:
    the stays' exits (``stay_exit``), the Pi1 test of the rows, and the
    diagonal stay Jacobians (``stay_jacobian``).  The nonlinear tiers make
    one point call per row.
    """
    if v.ndim == 2:
        return _first_return_block(model, coeffs, v, k, with_jacobian)
    if with_jacobian:
        traj = orbit(model, v, k)
        w = traj[k]
    else:
        w = stay_exit(model, v, k)
    if not in_pi1(coeffs, w):
        raise ItineraryError(f"itinerary violated: T0^{k}(p) not in Pi1", step=k)
    J = t1_jac_array(coeffs, w) @ jacobian_along(model, traj) if with_jacobian else None
    return t1_array(coeffs, w), J


def _first_return_block(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array, k,
                        with_jacobian: bool) -> tuple[Array, Array | None]:
    """``first_return_array`` on the rows of an (N, D) block."""
    N, D = v.shape
    if model.nonlinearity.kind != "linear":
        out, J = np.full(v.shape, np.nan), np.full((N, D, D), np.nan)
        for i, (mu, n) in enumerate(zip(np.broadcast_to(coeffs.mu, N).tolist(),
                                        np.broadcast_to(k, N).tolist())):
            try:
                out[i], Ji = first_return_array(model, coeffs.with_mu(mu), v[i], n, with_jacobian)
            except NumericalError:
                continue
            if with_jacobian:
                J[i] = Ji
        return out, J if with_jacobian else None
    w = stay_exit(model, v, k)
    w[~in_pi1(coeffs, w)] = np.nan
    out = t1_array(coeffs, w)
    if not with_jacobian:
        return out, None
    # each row's stay Jacobian as the diagonal matrix its point call forms
    S = np.zeros((N, D, D))
    S[:, np.arange(D), np.arange(D)] = stay_jacobian(model, np.ones((N, D, 1)), k)[..., 0]
    J = t1_jac_array(coeffs, w) @ S
    J[np.isnan(w[:, 0])] = np.nan
    return out, J


def axis_point(model: SaddleModel, y: float | Array) -> Array:
    """The unstable-axis point (0, y, 0) as a flat (D,) array, or one row
    per height of an (N,) array y."""
    if getattr(y, "ndim", 0):
        v = np.zeros((len(y), model.dim))
        v[:, 1] = y
        return v
    v = np.zeros(model.dim)
    v[1] = y
    return v


def axis_jet(model: SaddleModel, cm: GlobalMapCoeffs, y: float | Array, stays=(),
             jacobian: bool = False) -> tuple[Array, Array | None]:
    """Image of the unstable-axis point (0, y, 0) under T1 and then under
    T1 o T0^k for each k in ``stays``, with the chained Jacobian when asked
    (None otherwise).  An (N,) array y gives an (N, D) block of images and
    (N, D, D) Jacobians carried through the stays as one block
    (``first_return_array``): each row its point call's bit for bit, NaN
    throughout where that call raises.  A stay may then be an int or an (N,)
    array of one stay per row, and ``cm`` may carry one mu per row.

    This is the one evaluation of every curve the constructions intersect:
    stays () is T1(W^u_loc), (k,) the composed map T1 o T0^k o T1 and (k, j)
    its stage-two composition with a further return; the twin curve is
    R applied to the jet at y- - t.  The caller passes the axis coordinate
    itself, so a recorded preimage (0, y, 0) is exactly the point that was
    evaluated, and a curve's slope along the axis is the Jacobian's column 1.
    """
    v = axis_point(model, y)
    w = t1_array(cm, v)
    J = t1_jac_array(cm, v) if jacobian else None
    for k in stays:
        w, Jk = first_return_array(model, cm, w, k, with_jacobian=jacobian)
        J = Jk @ J if jacobian else None
    return w, J


# ---------------------------------------------------------------------------
# strips


@dataclass(frozen=True)
class Strip:
    """Extent of the stay-number-k strip in Pi0 (linear-model estimate)."""

    k: int
    x_range: tuple[float, float]
    y_range: tuple[float, float]
    z_box: float


def _check_itinerary(k: int, m: int | None = None) -> None:
    """Both stay numbers even and k > m; m is None for a single stay."""
    if k % 2 or (m is not None and m % 2):
        raise ValidationError("itinerary parity: k must be even")
    if m is not None and not k > m:
        raise ValidationError("itinerary order: k must exceed m")


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


def locate_strip(model: SaddleModel, coeffs: GlobalMapCoeffs, v: Array) -> Strip | None:
    """Smallest k >= k* with T0^k(v) in Pi1, or None within 80 steps."""
    if not in_pi0(coeffs, v):
        return None
    try:
        traj = orbit(model, v, 80)
    except ItineraryError as exc:
        if not exc.step:
            return None
        traj = orbit(model, v, exc.step - 1)
    for k in range(k_star(model, coeffs), len(traj)):
        if in_pi1(coeffs, traj[k]):
            return strip_for(model, coeffs, k)
    return None
