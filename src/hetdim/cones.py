"""Invariant subspaces along return orbits and strong-stable leaves.

Chains of per-step Jacobians along a return orbit define DT^(n+1); frame
power iteration in the forward direction produces the two-dimensional
center-unstable subspace (seeded in the (x, y)-plane), and in the backward
direction the (D-2)-dimensional strong-stable one (seeded in z).  Cone
invariance is certified by measuring the image opening of a sampled cone
boundary.  Leaves of the strong-stable foliation are integrated as graphs
x = x(z), y = y(z) by a predictor-corrector march that re-projects on the
numerically computed stable subspace at every step.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import HypothesisError
from .global_map import (GlobalMapCoeffs, t1_array, t1_jac_array, t1_tilde_array,
                         t1_tilde_jac_array)
from .numerics import chain_product, orthonormal_frame, sorted_eigvals
from .saddle import SaddleModel, SplitVector, orbit, t0_jac_array

Array = np.ndarray


def return_chain(model: SaddleModel, coeffs: GlobalMapCoeffs, p: Array,
                 stays: list[int], tilde: bool = False) -> Array:
    """Per-step Jacobians of T1 o T0^k_n o ... o T1 o T0^k_0 along an orbit,
    as an (n, D, D) array with n = sum(k_i + 1).

    Per-step factors stay well conditioned individually, which matters for
    the backward (inverse) iteration; the full product's condition number is
    astronomically large.  ``tilde`` routes the global legs through the twin
    map (orbits on the mirrored side).
    """
    D = model.dim
    chain = np.empty((sum(stays) + len(stays), D, D))
    v = np.asarray(p, dtype=float)
    i = 0
    for k in stays:
        traj = orbit(model, v, k)
        chain[i:i + k] = t0_jac_array(model, traj[:k])
        v = traj[k]
        if tilde:
            chain[i + k] = t1_tilde_jac_array(model, coeffs, v)
            v = t1_tilde_array(model, coeffs, v)
        else:
            chain[i + k] = t1_jac_array(coeffs, v)
            v = t1_array(coeffs, v)
        i += k + 1
    return chain


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


def _power_frame(apply, W: Array, max_iter: int, tol: float) -> tuple[Array, int]:
    """Iterate the orthonormal frame W <- orth(apply(W)) until its span moves
    by less than ``tol``; returns the frame and the sweeps taken.

    The move is the principal-angle residual ||Wn - W (W^T Wn)||_F, the part
    of the new frame outside the old span.
    """
    for it in range(max_iter):
        Wn = orthonormal_frame(apply(W))
        if np.linalg.norm(Wn - W @ (W.T @ Wn)) < tol:
            return Wn, it + 1
        W = Wn
    return W, max_iter


def _z_seed(dim: int) -> Array:
    W = np.zeros((dim, dim - 2))
    W[2:, :] = np.eye(dim - 2)
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


def _slope_cu(v: Array) -> float:
    """Cone coordinate ||dz|| / (|dx| + |dy|) of a vector."""
    denom = abs(v[0]) + abs(v[1])
    return float(np.linalg.norm(v[2:]) / denom) if denom > 0 else np.inf


def _slope_s(v: Array) -> float:
    denom = float(np.linalg.norm(v[2:]))
    return float(max(abs(v[0]), abs(v[1])) / denom) if denom > 0 else np.inf


def _cone_boundary_cu(K: float, dim: int, n_phi: int = 48, n_psi: int = 12) -> Array:
    """Sample vectors on the boundary of the cu-cone of opening K."""
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    out = []
    if dim == 3:
        dirs = [np.array([1.0]), np.array([-1.0])]
    else:
        psis = np.linspace(0.0, 2.0 * np.pi, n_psi, endpoint=False)
        dirs = [np.concatenate(([np.cos(p), np.sin(p)], np.zeros(dim - 4))) for p in psis]
    for phi in phis:
        w = np.array([np.cos(phi), np.sin(phi)])
        r = K * (abs(w[0]) + abs(w[1]))
        for e in dirs:
            out.append(np.concatenate((w, r * e)))
    return np.array(out)


def _cone_boundary_s(K: float, dim: int, n_phi: int = 48, n_psi: int = 12) -> Array:
    out = []
    if dim == 3:
        zs = [np.array([1.0]), np.array([-1.0])]
    else:
        psis = np.linspace(0.0, 2.0 * np.pi, n_psi, endpoint=False)
        zs = [np.concatenate(([np.cos(p), np.sin(p)], np.zeros(dim - 4))) for p in psis]
    phis = np.linspace(0.0, 2.0 * np.pi, n_phi, endpoint=False)
    for phi in phis:
        w = K * np.array([np.cos(phi), np.sin(phi)])
        for z in zs:
            out.append(np.concatenate((w, z)))
    return np.array(out)


_K_GRID = [10.0 ** e for e in range(-3, 4)]
K_MAX = 1e3


def invariant_cu_subspace(chain: Array, max_iter: int = 30,
                          tol: float = 1e-13) -> ConeWitness:
    """Forward-invariant 2-plane and its eigenvalues for a return chain.

    Power-iterates 2-frames seeded in the (x, y)-plane; the restriction's
    eigenvalues are the two leading multipliers of the chain product.  The
    certified cone constant is the smallest grid K whose sampled boundary
    image has smaller opening.
    """
    dim = chain[0].shape[0]
    Q = np.zeros((dim, 2))
    Q[0, 0] = 1.0
    Q[1, 1] = 1.0
    Q, iters = _power_frame(lambda V: chain_product(chain, V), Q, max_iter, tol)
    A = Q.T @ chain_product(chain, Q)
    eigs = sorted_eigvals(A)

    witness_K = None
    ratio = np.inf
    for K in _K_GRID:
        B = _cone_boundary_cu(K, dim)
        img = chain_product(chain, B.T).T
        opening = max(_slope_cu(v) for v in img)
        if opening < K:
            witness_K = K
            ratio = opening / K
            break
    if witness_K is None:
        raise HypothesisError(f"no invariant cu-cone with K <= {K_MAX:g}; "
                              "conditions violated at this delta")
    return ConeWitness("cu", witness_K, Q, list(eigs), float(ratio), iters)


def invariant_s_subspace(chain: Array, max_iter: int = 30,
                         tol: float = 1e-13) -> ConeWitness:
    """Backward-invariant (D-2)-plane with the small multipliers.

    The restriction eigenvalues come from the inverse restriction (forward
    application would be swamped by center-unstable contamination amplified
    by gamma^(sum k)).
    """
    dim = chain[0].shape[0]
    P = _inverse_product(chain)
    W, iters = _power_frame(lambda V: P @ V, _z_seed(dim), max_iter, tol)
    A_inv = W.T @ (P @ W)
    eigs = [1.0 / w for w in sorted_eigvals(A_inv)]
    eigs.sort(key=lambda w: -abs(w))

    witness_K = None
    ratio = np.inf
    for K in _K_GRID:
        B = _cone_boundary_s(K, dim)
        img = (P @ B.T).T
        opening = max(_slope_s(v) for v in img)
        if opening < K:
            witness_K = K
            ratio = opening / K
            break
    if witness_K is None:
        raise HypothesisError(f"no invariant s-cone with K <= {K_MAX:g}; "
                              "conditions violated at this delta")
    return ConeWitness("s", witness_K, W, eigs, float(ratio), iters)


# ---------------------------------------------------------------------------
# strong-stable leaves


def stable_frame(chain: Array, max_iter: int = 30, tol: float = 1e-14) -> Array:
    """Frame of the backward-invariant (D-2)-plane, without the cone
    certificate; this is the hot path of the leaf integration.

    The spectral gap |strong/lambda|^k of the inverse product makes two
    sweeps the rule: one to converge, one to confirm.
    """
    P = _inverse_product(chain)
    W, _ = _power_frame(lambda V: P @ V, _z_seed(chain.shape[1]), max_iter, tol)
    return W


def stable_slopes(model: SaddleModel, coeffs: GlobalMapCoeffs, p: Array,
                  k: int, tilde: bool = False) -> Array:
    """Graph slopes d(x, y)/dz of the stable subspace at a stay-number-k point.

    Returns a (2, D-2) matrix Phi with (dx, dy) = Phi dz on E^s(p).

    On the linear tier every local step has the Jacobian diag(multipliers),
    so the stay's k factors are the one diagonal factor diag(d^k), inverted
    entry by entry.  The nonlinear tiers keep one factor per step: their
    product would be inverted at a condition number near 1e20.
    """
    if model.nonlinearity.kind == "linear":
        v = orbit(model, p, k)[k]
        J1 = t1_tilde_jac_array(model, coeffs, v) if tilde else t1_jac_array(coeffs, v)
        chain = np.stack((np.diag(model.diagonal ** k), J1))
    else:
        chain = return_chain(model, coeffs, p, [k], tilde=tilde)
    V = stable_frame(chain)
    top = V[:2, :]
    bottom = V[2:, :]
    return top @ np.linalg.inv(bottom)


@dataclass
class LeafSample:
    """A strong-stable leaf through a base point, sampled as a graph over z."""

    base: SplitVector
    k: int
    z_points: Array            # (n, D-2)
    xy_points: Array           # (n, 2)
    phi1: Array                # (n, D-2) sampled dx/dz rows
    phi2: Array                # (n, D-2) sampled dy/dz rows
    fit_exponents: tuple | None = None

    def point(self, i: int) -> SplitVector:
        return SplitVector(float(self.xy_points[i, 0]), float(self.xy_points[i, 1]),
                           self.z_points[i])

    @property
    def phi1_max(self) -> float:
        return float(np.max(np.abs(self.phi1)))

    @property
    def phi2_max(self) -> float:
        return float(np.max(np.abs(self.phi2)))


def leaf_march(model: SaddleModel, coeffs: GlobalMapCoeffs, base: SplitVector, k: int,
               z_target: Array, n_steps: int | None = None,
               step: float = 1e-3, tilde: bool = False) -> tuple[Array, Array, Array]:
    """March the leaf graph from base to z_target (Heun predictor-corrector).

    Returns the (x, y) arrival, the slope matrix at arrival, and the arrival
    z (= z_target).  The step count is frozen from the requested step size so
    the result is a smooth function of the endpoints.
    """
    z0 = base.z.astype(float)
    z_target = np.atleast_1d(np.asarray(z_target, dtype=float))
    dz_total = z_target - z0
    dist = float(np.linalg.norm(dz_total))
    if n_steps is None:
        n_steps = max(1, int(np.ceil(dist / step)))
    dz = dz_total / n_steps
    xy = np.array([base.x, base.y])
    z = z0.copy()
    Phi = stable_slopes(model, coeffs, np.concatenate((xy, z)), k, tilde=tilde)
    for _ in range(n_steps):
        pred = xy + Phi @ dz
        Phi_pred = stable_slopes(model, coeffs, np.concatenate((pred, z + dz)), k,
                                 tilde=tilde)
        xy = xy + 0.5 * (Phi + Phi_pred) @ dz
        z = z + dz
        Phi = stable_slopes(model, coeffs, np.concatenate((xy, z)), k, tilde=tilde)
    return xy, Phi, z


def strong_stable_leaf(model: SaddleModel, coeffs: GlobalMapCoeffs, base: SplitVector,
                       k: int, half_width: float | None = None,
                       n_samples: int = 9, step: float = 1e-3,
                       tilde: bool = False) -> LeafSample:
    """Sample the strong-stable leaf through ``base`` over the z-box.

    For D = 3 the samples march along the z-axis; in higher dimension they
    march along coordinate rays from the base.  Slopes phi1 = dx/dz and
    phi2 = dy/dz are recorded at every sampled point.
    """
    if half_width is None:
        half_width = coeffs.delta / 2.0
    nz = model.dim - 2
    offsets = np.linspace(-half_width, half_width, n_samples)
    z_pts, xy_pts, p1, p2 = [], [], [], []
    for axis in range(nz):
        for off in offsets:
            z_t = base.z.copy()
            z_t[axis] += off
            if np.linalg.norm(z_t) >= coeffs.delta:
                continue
            xy, Phi, z = leaf_march(model, coeffs, base, k, z_t, step=step, tilde=tilde)
            z_pts.append(z)
            xy_pts.append(xy)
            p1.append(Phi[0])
            p2.append(Phi[1])
    return LeafSample(base, k, np.array(z_pts), np.array(xy_pts),
                      np.array(p1), np.array(p2))


def strip_center(model: SaddleModel, coeffs: GlobalMapCoeffs, k: int) -> SplitVector:
    """The natural base point of the stay-number-k strip."""
    return SplitVector(coeffs.x_plus, coeffs.y_minus / model.multipliers.gamma ** k,
                       coeffs.z_plus.copy())


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
