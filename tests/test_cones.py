from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from hetdim import cones
from hetdim.cones import (invariant_cu_subspace, invariant_s_subspace,
                          leaf_exponent_fit, leaf_march, return_chain, stable_slopes,
                          strip_center, strong_stable_leaf)
from hetdim.errors import ConvergenceError
from hetdim.numerics import sorted_eigvals
from hetdim.presets import (base_model, d4_model, decoupled_coeffs, hetdim_coeffs,
                            hetdim_model, leaf_coeffs, leaf_model)
from hetdim.saddle import reflect_array


@pytest.fixture(scope="module")
def lin_chain():
    model = base_model("linear")
    coeffs = hetdim_coeffs()
    k = 12
    p = strip_center(model, coeffs, k)
    return model, coeffs, k, return_chain(model, coeffs, p, [k])


def test_cu_subspace_linear(lin_chain):
    model, coeffs, k, chain = lin_chain
    cu = invariant_cu_subspace(chain)
    assert cu.subspace.shape == (3, 2)
    assert cu.contraction_ratio < 1.0
    # frames orthonormal
    assert np.max(np.abs(cu.subspace.T @ cu.subspace - np.eye(2))) < 1e-12
    # eigenvalue product ~ -b c (lambda gamma)^k
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    prod = cu.eigenvalues[0] * cu.eigenvalues[1]
    target = -coeffs.b * coeffs.c * (lam * gam) ** k
    assert abs(prod / target - 1.0) < 0.05


def test_s_subspace_linear(lin_chain):
    model, coeffs, k, chain = lin_chain
    sw = invariant_s_subspace(chain)
    assert sw.contraction_ratio < 1.0
    lam1 = model.multipliers.strong[0]
    alpha3 = coeffs.alpha3[0, 0]
    # single strong direction: alpha3 * lambda_1^k up to coupling corrections
    assert abs(sw.eigenvalues[0]) == pytest.approx(abs(alpha3) * lam1 ** k, rel=1e-2)


def test_s_eigenvalue_exact_with_unit_block():
    # with alpha3 = 1 and no z-couplings the dynamics is diagonal along the
    # orbit: the stable eigenvalue is lambda_1^k exactly
    model = base_model("linear")
    coeffs = dataclasses.replace(decoupled_coeffs(), alpha3=np.array([[1.0]]))
    k = 10
    chain = return_chain(model, coeffs, strip_center(model, coeffs, k), [k])
    sw = invariant_s_subspace(chain)
    lam1 = model.multipliers.strong[0]
    assert abs(sw.eigenvalues[0]) == pytest.approx(lam1 ** k, abs=1e-20)


def test_eigensolver_cross_check(lin_chain):
    model, coeffs, k, chain = lin_chain
    cu = invariant_cu_subspace(chain)
    M = np.eye(model.dim)
    for J in chain:
        M = J @ M
    full = sorted_eigvals(M)
    for mine, dense in zip(cu.eigenvalues, full[:2]):
        assert abs(mine - dense) / abs(dense) < 1e-8


def test_complementarity(lin_chain):
    model, coeffs, k, chain = lin_chain
    cu = invariant_cu_subspace(chain)
    sw = invariant_s_subspace(chain)
    M = np.eye(model.dim)
    for J in chain:
        M = J @ M
    full = sorted_eigvals(M)
    union = sorted(list(cu.eigenvalues) + list(sw.eigenvalues), key=lambda w: -abs(w))
    rho = abs(full[0])
    assert all(abs(a - b) <= 1e-8 * rho for a, b in zip(full, union))


def test_complementarity_d4():
    model = d4_model("linear")
    coeffs = dataclasses.replace(
        hetdim_coeffs(), z_plus=np.array([0.03, 0.01]), a_t=np.array([0.05, 0.02]),
        b_t=np.array([0.1, 0.05]), alpha1=np.array([0.02, 0.01]),
        alpha2=np.array([0.03, 0.01]), alpha3=np.array([[0.4, 0.05], [0.0, 0.3]]))
    k = 10
    chain = return_chain(model, coeffs, strip_center(model, coeffs, k), [k])
    cu = invariant_cu_subspace(chain)
    sw = invariant_s_subspace(chain)
    assert cu.subspace.shape == (4, 2) and sw.subspace.shape == (4, 2)
    M = np.eye(4)
    for J in chain:
        M = J @ M
    full = sorted_eigvals(M)
    union = sorted(list(cu.eigenvalues) + list(sw.eigenvalues), key=lambda w: -abs(w))
    rho = abs(full[0])
    assert all(abs(a - b) <= 1e-8 * rho for a, b in zip(full, union))


def test_leaf_through_base(lin_chain):
    model, coeffs, k, _ = lin_chain
    base = strip_center(model, coeffs, k)
    leaf = strong_stable_leaf(model, coeffs, base, k, n_samples=5)
    i = int(np.argmin(np.abs(leaf.z_points[:, 0] - base[2])))
    x, y = leaf.xy_points[i]
    assert abs(x - base[0]) < 1e-14 and abs(y - base[1]) < 1e-14


def test_leaf_zero_slopes_when_decoupled():
    model = base_model("linear")
    coeffs = decoupled_coeffs()
    k = 10
    leaf = strong_stable_leaf(model, coeffs, strip_center(model, coeffs, k), k,
                              n_samples=5)
    assert leaf.phi1_max < 1e-14
    assert leaf.phi2_max < 1e-14


def test_leaf_slopes_satisfy_lemma_bounds(lin_chain):
    # with z-coupled global terms the slopes obey the stated decay orders
    model, coeffs, k, _ = lin_chain
    mult = model.multipliers
    leaf = strong_stable_leaf(model, coeffs, strip_center(model, coeffs, k), k,
                              n_samples=5)
    assert leaf.phi1_max <= 10.0 * (mult.lambda0 / abs(mult.lam)) ** k
    assert leaf.phi2_max <= 10.0 * (abs(mult.lambda_hat) / abs(mult.gamma)) ** k


def test_leaf_exponent_fit_matches_report_rates():
    model = leaf_model()
    coeffs = leaf_coeffs()
    e1, e2, samples = leaf_exponent_fit(model, coeffs, list(range(8, 21, 2)))
    mult = model.multipliers
    t1 = np.log(mult.lambda0 / abs(mult.lam))
    t2 = np.log(abs(mult.lambda_hat) / abs(mult.gamma))
    assert abs(e1 / t1 - 1.0) < 0.1
    assert abs(e2 / t2 - 1.0) < 0.1
    assert all(s.fit_exponents == (e1, e2) for s in samples)


def test_leaf_equivariance_in_symmetric_mode(twin):
    # leaf(R base) = R leaf(base), the mirrored leaf taken with the twin
    # coefficients of R o T1 o R: slopes transform as phi1 -> -phi1,
    # phi2 -> +phi2 under (x, y, z) -> (x, -y, -z)
    model = hetdim_model(tier="polynomial_symmetric")
    coeffs = hetdim_coeffs()
    k = 10
    base = strip_center(model, coeffs, k)
    leaf = strong_stable_leaf(model, coeffs, base, k, n_samples=5)
    base_r = reflect_array(model, base)
    leaf_r = strong_stable_leaf(model, twin(model, coeffs), base_r, k, n_samples=5)
    for i in range(len(leaf.z_points)):
        z = leaf.z_points[i, 0]
        j = int(np.argmin(np.abs(leaf_r.z_points[:, 0] + z)))
        assert abs(leaf_r.z_points[j, 0] + z) < 1e-12
        assert abs(leaf_r.xy_points[j, 0] - leaf.xy_points[i, 0]) < 1e-10
        assert abs(leaf_r.xy_points[j, 1] + leaf.xy_points[i, 1]) < 1e-10


def _heun_reference(model, coeffs, base, k, target, n_steps):
    """The leaf arrival at target by n_steps fixed Heun steps over stable_slopes."""
    xy, z = base[:2].astype(float), base[2:].astype(float)
    dz = (target - z) / n_steps
    Phi = stable_slopes(model, coeffs, base, k)
    for _ in range(n_steps):
        Phi_pred = stable_slopes(model, coeffs, np.concatenate((xy + Phi @ dz, z + dz)), k)
        xy = xy + 0.5 * (Phi + Phi_pred) @ dz
        z = z + dz
        Phi = stable_slopes(model, coeffs, np.concatenate((xy, z)), k)
    return xy


def test_leaf_march_consistency(lin_chain):
    model, coeffs, k, _ = lin_chain
    base = strip_center(model, coeffs, k)
    target = base[2:] + 0.04
    xy, _ = leaf_march(model, coeffs, base, k, target,
                       stable_slopes(model, coeffs, base, k))
    assert np.max(np.abs(xy - _heun_reference(model, coeffs, base, k, target, 80))) < 1e-12


def test_leaf_march_splits_a_curved_leaf(monkeypatch):
    # at k = 4 the leaf_model leaf is curved: one Heun step over the half box
    # misses, so the march halves its span and still lands on the fine march;
    # each split's first half step serves as its first child's one step
    model, coeffs = leaf_model(), leaf_coeffs()
    k = 4
    base = strip_center(model, coeffs, k)
    target = base[2:] + coeffs.delta / 2
    ref = _heun_reference(model, coeffs, base, k, target, 1000)
    calls = []

    def counted(*args):
        calls.append(1)
        return stable_slopes(*args)

    monkeypatch.setattr(cones, "stable_slopes", counted)
    # the count includes the base slopes the caller hands the march
    xy, _ = leaf_march(model, coeffs, base, k, target,
                       cones.stable_slopes(model, coeffs, base, k))
    assert len(calls) == 62
    assert np.max(np.abs(xy - ref)) < 1e-14


def test_leaf_samples_sit_at_the_requested_points():
    model, coeffs = leaf_model(), leaf_coeffs()
    k = 8
    base = strip_center(model, coeffs, k)
    leaf = strong_stable_leaf(model, coeffs, base, k)
    offsets = np.linspace(-coeffs.delta / 2, coeffs.delta / 2, 9)
    wanted = np.array([[base[2] + off] for off in offsets
                       if abs(base[2] + off) < coeffs.delta])
    assert np.array_equal(leaf.z_points, wanted)


def test_leaf_march_depth_cap(monkeypatch, lin_chain):
    # slopes dx/dz = dy/dz = z^2 curve far more than any leaf: over a span h
    # the one step and the two half steps differ by h^3 / 8, about 5e-13 at
    # the 8th halving of 0.04, never within 64 ulps of x+.  So the march gives
    # up with a typed error at the depth cap, after the first piece's four
    # slope calls and three per halving (each reuses its parent's half step)
    model, coeffs, k, _ = lin_chain
    calls = []

    def curved(model, coeffs, p, k):
        calls.append(1)
        return np.tile(p[2:] ** 2, (2, 1))

    monkeypatch.setattr(cones, "stable_slopes", curved)
    base = strip_center(model, coeffs, k)
    with pytest.raises(ConvergenceError, match="leaf march"):
        leaf_march(model, coeffs, base, k, base[2:] + 0.04,
                   cones.stable_slopes(model, coeffs, base, k))
    assert len(calls) == 1 + 4 + 3 * cones.LEAF_MAX_DEPTH
    assert len(calls) <= 1 + 5 * (cones.LEAF_MAX_DEPTH + 1)


def test_power_frame_raises_when_the_span_keeps_moving():
    # a quarter turn in the (x, y) plane: each sweep moves the span by 1
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    W = np.array([[1.0], [0.0], [0.0]])
    with pytest.raises(ConvergenceError,
                       match=f"after {cones.FRAME_MAX_SWEEPS} sweeps") as info:
        cones._power_frame(lambda V: R @ V, W, 1e-13)
    assert info.value.residual == pytest.approx(1.0)
