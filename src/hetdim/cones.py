"""Invariant subspaces along return orbits and strong-stable leaves.

Chains of Jacobian factors along a return orbit define DT^(n+1): on the
linear tier one factor per stay and one per T1, on the nonlinear tiers one
per local step.  Frame power iteration in the forward direction, carried
through the chain factor by factor, produces the two-dimensional
center-unstable subspace (seeded in the (x, y)-plane), and in the backward
direction, on the product of the factors' inverses, the (D-2)-dimensional
strong-stable one (seeded in z).
Cone invariance is certified by measuring the image opening of a sampled
cone boundary.  Leaves of the strong-stable foliation are integrated as graphs
x = x(z), y = y(z) along the slopes of the numerically computed stable
subspace, by Heun steps whose error is checked against two half steps.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass
from functools import cache, partial

import numpy as np

from .errors import ConvergenceError, HypothesisError, NumericalError
from .global_map import GlobalMapCoeffs, t1_array, t1_jac_array
from .numerics import chain_product, frobenius, orthonormal_frame, row_norms, sorted_eigvals
from .saddle import SaddleModel, jacobian_along, orbit, stay_exit, t0_jac_array

Array = np.ndarray


def return_chain(model: SaddleModel, coeffs: GlobalMapCoeffs, p: Array,
                 stays: list[int]) -> Array:
    """The Jacobian factors of T1 o T0^k_n o ... o T1 o T0^k_0 along an
    orbit, in step order.

    On the linear tier each stay is one factor, its Jacobian diag(d^k) from
    ``jacobian_along``, followed by the T1 factor at its exit: a
    (2 len(stays), D, D) array.  The nonlinear tiers keep one factor per
    local step: a (sum(k_i + 1), D, D) array.

    Each factor inverts accurately on its own (a diagonal stay factor entry
    by entry), which matters for the backward (inverse) iteration; the full
    product's condition number is astronomically large.
    """
    linear = model.nonlinearity.kind == "linear"
    parts, v = [], np.asarray(p, dtype=float)
    for k in stays:
        traj = orbit(model, v, k)
        stay = jacobian_along(model, traj)[None] if linear else t0_jac_array(model, traj[:k])
        parts += [stay, t1_jac_array(coeffs, traj[k])[None]]
        v = t1_array(coeffs, traj[k])
    return np.concatenate(parts)


def _inverse_product(chain: Array) -> Array:
    """The D x D matrix inv(chain[0]) @ ... @ inv(chain[-1]), the inverse of
    the chain's product.

    One batched inverse, then the ordered product by pairwise reduction.  The
    factors are inverted individually, each well conditioned; the product's
    large entries belong to the strong-stable directions it expands.
    """
    P = np.linalg.inv(chain)
    while len(P) > 1:
        even = len(P) // 2 * 2
        P = np.concatenate((P[0:even:2] @ P[1:even:2], P[even:]))
    return P[0]


# sweep budget of every frame power iteration
FRAME_MAX_SWEEPS = 30


def _power_frame(apply, W: Array, tol: float) -> tuple[Array, int]:
    """Iterate the orthonormal frame W <- orth(apply(W)) until its span moves
    by less than ``tol``; returns the frame and the sweeps taken.

    The move is the principal-angle residual ||Wn - W (W^T Wn)||_F, the part
    of the new frame outside the old span.  ConvergenceError carries the last
    move when FRAME_MAX_SWEEPS sweeps do not get below ``tol``.
    """
    for it in range(FRAME_MAX_SWEEPS):
        Wn = orthonormal_frame(apply(W))
        move = frobenius(Wn - W @ (W.T @ Wn))
        if move < tol:
            return Wn, it + 1
        W = Wn
    raise ConvergenceError(f"frame power iteration: span still moves by {move:.3e} "
                           f"after {FRAME_MAX_SWEEPS} sweeps (tolerance {tol:g})",
                           residual=float(move))


@cache
def _z_seed(dim: int) -> Array:
    """The z-axes as a read-only (D, D-2) frame, built once per dimension."""
    W = np.zeros((dim, dim - 2))
    W[2:, :] = np.eye(dim - 2)
    W.flags.writeable = False
    return W


@dataclass
class ConeWitness:
    """Certificate of an invariant cone and the subspace inside it."""

    kind: str                  # "cu" or "s"
    K_const: float             # certified cone opening
    subspace: Array            # orthonormal frame, D x 2 or D x (D-2)
    eigenvalues: list          # eigenvalues of the restriction
    contraction_ratio: float   # image opening / cone opening
    iterations: int = 0


def _opening(kind: str, img: Array) -> float:
    """The largest cone coordinate over the rows of img: ||dz|| / (|dx| + |dy|)
    for the cu-cone, max(|dx|, |dy|) / ||dz|| for the s-cone, inf on a row
    whose denominator is 0.  Each ||dz|| is ``np.linalg.norm``'s sqrt of the
    dot product (``row_norms``)."""
    dz = row_norms(img[:, 2:])
    x, y = np.abs(img[:, 0]), np.abs(img[:, 1])
    num, den = (dz, x + y) if kind == "cu" else (np.maximum(x, y), dz)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(den > 0, num / den, np.inf)))


@cache
def _cone_boundary(kind: str, K: float, dim: int) -> Array:
    """Sample vectors on the boundary of the cu- or s-cone of opening K, as
    a read-only (n, D) array built once: 48 directions in the (x, y)-plane,
    each with 2 (D = 3) or 12 z-directions."""
    if dim == 3:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        psis = np.linspace(0.0, 2.0 * np.pi, 12, endpoint=False)
        dirs = [np.concatenate(([np.cos(p), np.sin(p)], np.zeros(dim - 4))) for p in psis]
    out = []
    for phi in np.linspace(0.0, 2.0 * np.pi, 48, endpoint=False):
        w = np.array([np.cos(phi), np.sin(phi)])
        for e in dirs:
            if kind == "cu":
                out.append(np.concatenate((w, K * (abs(w[0]) + abs(w[1])) * e)))
            else:
                out.append(np.concatenate((K * w, e)))
    out = np.array(out)
    out.flags.writeable = False
    return out


_K_GRID = [10.0 ** e for e in range(-3, 4)]
K_MAX = 1e3


def _certify_cone(kind: str, apply, dim: int) -> tuple[float, float]:
    """The smallest grid K whose sampled cone boundary ``apply`` maps inside
    the cone, with the ratio image opening / K."""
    for K in _K_GRID:
        opening = _opening(kind, apply(_cone_boundary(kind, K, dim).T).T)
        if opening < K:
            return K, float(opening / K)
    raise HypothesisError(f"no invariant {kind}-cone with K <= {K_MAX:g}; "
                          "conditions violated at this delta")


def _carry_frame(chain: Array, W: Array) -> Array:
    """The frame W carried through the chain factor by factor,
    re-orthonormalised after each factor (the discrete QR method; Dieci,
    Russell & Van Vleck, SIAM J. Numer. Anal. 34, 1997)."""
    for J in chain:
        W = orthonormal_frame(J @ W)
    return W


def invariant_cu_subspace(chain: Array) -> ConeWitness:
    """Forward-invariant 2-plane and its eigenvalues for a return chain.

    Power-iterates 2-frames seeded in the (x, y)-plane, carrying each sweep
    through the chain factor by factor (the formed product's columns lose
    every direction but the leading one to rounding); the restriction's
    eigenvalues are the two leading multipliers of the chain product.  The
    certified cone constant is the smallest grid K whose sampled boundary
    image has smaller opening.
    """
    dim = chain[0].shape[0]
    Q = np.zeros((dim, 2))
    Q[0, 0] = 1.0
    Q[1, 1] = 1.0
    Q, iters = _power_frame(partial(_carry_frame, chain), Q, 1e-13)
    forward = partial(chain_product, chain)
    eigs = sorted_eigvals(Q.T @ forward(Q))
    K, ratio = _certify_cone("cu", forward, dim)
    return ConeWitness("cu", K, Q, list(eigs), ratio, iters)


def invariant_s_subspace(chain: Array) -> ConeWitness:
    """Backward-invariant (D-2)-plane with the small multipliers.

    The restriction eigenvalues come from the inverse restriction (forward
    application would be swamped by center-unstable contamination amplified
    by gamma^(sum k)).
    """
    dim = chain[0].shape[0]
    P = _inverse_product(chain)
    backward = partial(np.matmul, P)
    W, iters = _power_frame(backward, _z_seed(dim), 1e-13)
    eigs = [1.0 / w for w in sorted_eigvals(W.T @ backward(W))]
    eigs.sort(key=lambda w: -abs(w))
    K, ratio = _certify_cone("s", backward, dim)
    return ConeWitness("s", K, W, eigs, ratio, iters)


# ---------------------------------------------------------------------------
# strong-stable leaves


def _inverse(A: Array) -> Array:
    """``np.linalg.inv`` of a matrix, or of each matrix of an (N, D, D)
    block, bit for bit; a block's matrix that is not finite or is singular
    comes back NaN, where a point raises."""
    if A.ndim == 2:
        return np.linalg.inv(A)
    finite = np.isfinite(A).all(axis=(1, 2))
    if finite.all():
        with contextlib.suppress(np.linalg.LinAlgError):
            return np.linalg.inv(A)
    out = np.full(A.shape, np.nan)
    for i in np.flatnonzero(finite):
        with contextlib.suppress(np.linalg.LinAlgError):
            out[i] = np.linalg.inv(A[i])
    return out


def stable_frame(P: Array) -> Array:
    """Frame of the backward-invariant (D-2)-plane of the D x D inverse
    product P of a return chain (``_inverse_product``), without the cone
    certificate; this is the hot path of the leaf integration.

    The spectral gap |strong/lambda|^k of the inverse product makes two
    sweeps the rule: one to converge, one to confirm.  An (N, D, D) block
    holds N inverse products: each row sweeps until its own span stops
    moving, so it takes its point call's sweeps and bits, and a row that is
    not finite or does not settle comes back NaN.
    """
    W = _z_seed(P.shape[-1])
    if P.ndim == 2:
        return _power_frame(partial(np.matmul, P), W, 1e-14)[0]
    out = np.full(P.shape[:2] + W.shape[1:], np.nan)
    live = np.flatnonzero(np.isfinite(P).all(axis=(1, 2)))
    for _ in range(FRAME_MAX_SWEEPS):
        if not live.size:
            break
        Wn = orthonormal_frame(P[live] @ W)
        settled = row_norms(Wn - W @ (np.swapaxes(W, -2, -1) @ Wn)) < 1e-14
        out[live[settled]] = Wn[settled]
        live, W = live[~settled], Wn[~settled]
    return out


def stable_slopes(model: SaddleModel, coeffs: GlobalMapCoeffs, p: Array,
                  k: int) -> Array:
    """Graph slopes d(x, y)/dz of the stable subspace at a stay-number-k point.

    Returns a (2, D-2) matrix Phi with (dx, dy) = Phi dz on E^s(p); for an
    (N, D) block of points, (N, 2, D-2), each row bit for bit its point
    call, NaN where that call raises (a stay leaves the box, a frame does
    not settle).

    On the linear tier every local step has the Jacobian diag(multipliers),
    so the stay's k factors are the one diagonal factor diag(d^k), and the
    inverse product is inv(J1) with its rows divided by d^k: the bits of
    inverting the two-factor chain.  The nonlinear tiers keep one factor per
    step: their product would be inverted at a condition number near 1e20.
    They take a block's rows one at a time.
    """
    if model.nonlinearity.kind == "linear":
        J1 = t1_jac_array(coeffs, stay_exit(model, p, k))
        P = (1.0 / model.diagonal ** k)[:, None] * _inverse(J1)
    elif p.ndim == 1:
        P = _inverse_product(return_chain(model, coeffs, p, [k]))
    else:
        P = np.full((len(p), model.dim, model.dim), np.nan)
        for i, q in enumerate(p):
            try:
                P[i] = _inverse_product(return_chain(model, coeffs, q, [k]))
            except (NumericalError, np.linalg.LinAlgError):
                pass
    V = stable_frame(P)
    return V[..., :2, :] @ _inverse(V[..., 2:, :])


@dataclass
class LeafSample:
    """A strong-stable leaf through a base point, sampled as a graph over z."""

    base: Array                # flat (D,) point
    k: int
    z_points: Array            # (n, D-2)
    xy_points: Array           # (n, 2)
    phi1: Array                # (n, D-2) sampled dx/dz rows
    phi2: Array                # (n, D-2) sampled dy/dz rows
    fit_exponents: tuple | None = None

    @property
    def phi1_max(self) -> float:
        return float(np.max(np.abs(self.phi1)))

    @property
    def phi2_max(self) -> float:
        return float(np.max(np.abs(self.phi2)))


# a leaf piece is accepted when one Heun step and two half steps agree to
# LEAF_ULPS ulps per component, and is halved otherwise, at most LEAF_MAX_DEPTH deep
LEAF_ULPS, LEAF_MAX_DEPTH = 64, 8


def _apply(M: Array, v: Array) -> Array:
    """M @ v, or M[i] @ v[i] for each row of a block, bit for bit."""
    return M @ v if v.ndim == 1 else (M @ v[..., None])[..., 0]


def _leaf_piece(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int, xy: Array,
                Phi: Array, z0: Array, z1: Array, depth: int,
                one: Array | None = None) -> tuple[Array, Array]:
    """The (x, y) arrival at z1 and its slopes, from (xy, z0) with slopes Phi, by
    step doubling (Richardson error estimation; Hairer, Norsett & Wanner, Solving
    ODEs I, II.4); the ulps are those of the larger of start and arrival.  ``one``
    is the one-step arrival when the caller has it: a split piece's first half
    step is its first child's one step.

    A block of N rows ((N, 2) xy, (N, 2, D-2) Phi, (N, D-2) z0 and z1) takes
    its first piece as one: the rows accepted there finish together, a row
    that must split finishes on the point path, and a row that raises comes
    back NaN."""
    def slopes(xy, z):
        return stable_slopes(model, coeffs, np.concatenate((xy, z), axis=-1), k)

    def heun(xy, Phi, za, zb):
        return xy + 0.5 * _apply(Phi + slopes(xy + _apply(Phi, zb - za), zb), zb - za)

    zm = z0 + 0.5 * (z1 - z0)
    mid = heun(xy, Phi, z0, zm)
    two = heun(mid, slopes(mid, zm), zm, z1)
    err = np.abs((heun(xy, Phi, z0, z1) if one is None else one) - two)
    ok = np.all(err <= LEAF_ULPS * np.spacing(np.maximum(np.abs(xy), np.abs(two))), axis=-1)

    def split(i=...):
        # the two halves, the first taking the half step as its one step
        if depth == LEAF_MAX_DEPTH:
            raise ConvergenceError(f"leaf march unsettled after {depth} halvings",
                                   residual=float(np.max(err[i])))
        xy_m, Phi_m = _leaf_piece(model, coeffs, k, xy[i], Phi[i], z0[i], zm[i],
                                  depth + 1, one=mid[i])
        return _leaf_piece(model, coeffs, k, xy_m, Phi_m, zm[i], z1[i], depth + 1)

    if xy.ndim == 1:
        return (two, slopes(two, z1)) if ok else split()
    out_xy, out_Phi = np.full(xy.shape, np.nan), np.full(Phi.shape, np.nan)
    if ok.any():
        out_xy[ok], out_Phi[ok] = two[ok], slopes(two[ok], z1[ok])
    for i in np.flatnonzero(~ok & np.isfinite(err).all(axis=-1)):
        try:
            out_xy[i], out_Phi[i] = split(i)
        except NumericalError:
            pass
    # a row whose slopes raised has no arrival either
    out_xy[~np.isfinite(out_Phi).all(axis=(1, 2))] = np.nan
    return out_xy, out_Phi


def leaf_march(model: SaddleModel, coeffs: GlobalMapCoeffs, base: Array, k: int,
               z_target: Array, base_slopes: Array) -> tuple[Array, Array]:
    """March the leaf graph from the flat (D,) point base to z_target by Heun
    steps, each checked by two half steps (``_leaf_piece``); a leaf straight to
    rounding takes five slope evaluations.  ``base_slopes`` is
    ``stable_slopes`` at base, which a caller computes once for all its marches
    from that base.  Returns the (x, y) arrival and the slope matrix there;
    raises ConvergenceError past LEAF_MAX_DEPTH halvings.

    An (N, D) block of bases with (N, D-2) targets and (N, 2, D-2) base
    slopes marches its rows together, each bit for bit its point call; a row
    whose point call raises comes back NaN."""
    z_target = np.atleast_1d(np.asarray(z_target, dtype=float))
    xy, z0 = base[..., :2].astype(float), base[..., 2:].astype(float)
    return _leaf_piece(model, coeffs, k, xy, base_slopes, z0, z_target, 0)


def strong_stable_leaf(model: SaddleModel, coeffs: GlobalMapCoeffs, base: Array,
                       k: int, n_samples: int = 9) -> LeafSample:
    """Sample the strong-stable leaf through the flat (D,) point ``base`` over
    the z-box of half-width delta / 2.

    For D = 3 the samples march along the z-axis; in higher dimension they
    march along coordinate rays from the base.  Slopes phi1 = dx/dz and
    phi2 = dy/dz are recorded at every sampled point.
    """
    half_width = coeffs.delta / 2.0
    nz = model.dim - 2
    offsets = np.linspace(-half_width, half_width, n_samples)
    base_slopes = stable_slopes(model, coeffs, base, k)
    z_pts, xy_pts, p1, p2 = [], [], [], []
    for axis in range(nz):
        for off in offsets:
            z_t = base[2:].copy()
            z_t[axis] += off
            if np.linalg.norm(z_t) >= coeffs.delta:
                continue
            xy, Phi = leaf_march(model, coeffs, base, k, z_t, base_slopes)
            z_pts.append(z_t)
            xy_pts.append(xy)
            p1.append(Phi[0])
            p2.append(Phi[1])
    return LeafSample(base, k, np.array(z_pts), np.array(xy_pts),
                      np.array(p1), np.array(p2))


def strip_center(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int) -> Array:
    """The natural base point of the stay-number-k strip."""
    return np.concatenate(([coeffs.x_plus, coeffs.y_minus / model.multipliers.gamma ** k],
                           coeffs.z_plus))


def leaf_exponent_fit(model: SaddleModel, coeffs: GlobalMapCoeffs,
                      ks: list[int]) -> tuple[float, float, list[LeafSample]]:
    """Least-squares decay exponents of the leaf slopes across a k-sweep.

    Returns (slope of log max|phi1| vs k, same for phi2, samples); the
    targets are log(lambda0/|lambda|) and log(|lambda_hat|/|gamma|).
    """
    samples = []
    l1, l2 = [], []
    for k in ks:
        leaf = strong_stable_leaf(model, coeffs, strip_center(model, coeffs, k), k)
        samples.append(leaf)
        l1.append(np.log(max(leaf.phi1_max, 1e-300)))
        l2.append(np.log(max(leaf.phi2_max, 1e-300)))
    ks_arr = np.asarray(ks, dtype=float)
    e1 = float(np.polyfit(ks_arr, l1, 1)[0])
    e2 = float(np.polyfit(ks_arr, l2, 1)[0])
    for leaf in samples:
        leaf.fit_exponents = (e1, e2)
    return e1, e2, samples


def cone_report_csv(witnesses: list[ConeWitness], labels: list[str]) -> str:
    lines = ["label,kind,K,contraction_ratio,iterations,eig_moduli"]
    for lab, w in zip(labels, witnesses):
        moduli = ";".join(f"{abs(e):.17g}" for e in w.eigenvalues)
        lines.append(f"{lab},{w.kind},{w.K_const:.17g},{w.contraction_ratio:.17g},"
                     f"{w.iterations},{moduli}")
    return "\n".join(lines) + "\n"


def leaf_report_csv(samples: list[LeafSample]) -> str:
    lines = ["k,phi1_max,phi2_max,fit_exp1,fit_exp2"]
    for s in samples:
        f1 = "" if s.fit_exponents is None else f"{s.fit_exponents[0]:.17g}"
        f2 = "" if s.fit_exponents is None else f"{s.fit_exponents[1]:.17g}"
        lines.append(f"{s.k},{s.phi1_max:.17g},{s.phi2_max:.17g},{f1},{f2}")
    return "\n".join(lines) + "\n"
