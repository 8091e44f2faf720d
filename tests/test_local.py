from __future__ import annotations

import numpy as np
import pytest

from hetdim.errors import ItineraryError
from hetdim.local import solve_cross_form, strong_derivative_bounds
from hetdim.saddle import jacobian_along, orbit, t0_jac_array


def test_linear_iterate_example(lin_model):
    traj = orbit(lin_model, np.array([0.1, 1e-6, 0.05]), 4)
    J = jacobian_along(lin_model, traj)
    assert abs(traj[4][0] - 0.55 ** 4 * 0.1) < 1e-18
    assert traj.shape == (5, 3)
    assert np.allclose(J, np.diag([0.55 ** 4, 2.2 ** 4, 0.25 ** 4]))


def test_zero_iterations_identity(poly_model):
    p = np.array([0.2, 0.1, 0.03])
    traj = orbit(poly_model, p, 0)
    assert np.array_equal(traj[0], p)
    assert np.array_equal(jacobian_along(poly_model, traj), np.eye(3))


def test_escape_carries_step(lin_model):
    with pytest.raises(ItineraryError) as exc:
        orbit(lin_model, np.array([0.0, 0.4, 0.0]), 10)
    assert exc.value.step == 2  # 0.4 * 2.2^2 = 1.936 > 1


def test_jacobian_matches_finite_differences(poly_model):
    p = np.array([0.12, 0.001, 0.04])
    k = 6
    J = jacobian_along(poly_model, orbit(poly_model, p, k))
    h = 1e-6
    for i in range(3):
        dp, dm = p.copy(), p.copy()
        dp[i] += h
        dm[i] -= h
        col = (orbit(poly_model, dp, k)[k] - orbit(poly_model, dm, k)[k]) / (2 * h)
        assert np.max(np.abs(col - J[:, i])) < 1e-6 * max(1.0, np.max(np.abs(J[:, i])))


def test_jacobian_chain_associativity(poly_model):
    traj = orbit(poly_model, np.array([0.1, 0.001, 0.05]), 8)
    J8 = jacobian_along(poly_model, traj)
    prod = np.eye(3)
    for row in traj[:-1]:
        prod = t0_jac_array(poly_model, row) @ prod
    assert np.max(np.abs(prod - J8)) < 1e-12 * max(1.0, np.max(np.abs(J8)))


def test_cross_form_linear_closed_form(lin_model):
    cf = solve_cross_form(lin_model, 0.1, 0.2, [0.05], 6)
    assert abs(cf.y_0 - 0.2 / 2.2 ** 6) < 1e-18
    assert abs(cf.x_k - 0.55 ** 6 * 0.1) < 1e-17
    assert abs(cf.z_k[0] - 0.25 ** 6 * 0.05) < 1e-18
    assert cf.iterations == 1


@pytest.mark.parametrize("k", list(range(2, 31, 4)))
def test_cross_form_round_trip(k, lin_model, poly_model):
    for model, tol in ((lin_model, 1e-14), (poly_model, 1e-11)):
        cf = solve_cross_form(model, 0.08, 0.3, [0.04], k)
        out = orbit(model, np.array([0.08, cf.y_0, 0.04]), k)[k]
        assert abs(out[1] - 0.3) < tol
        assert abs(out[0] - cf.x_k) < tol
        assert np.max(np.abs(out[2:] - cf.z_k)) < tol


def test_cross_form_remainder_bounded(poly_model):
    # |x_k - lambda^k x0| <= |lambda_hat|^k * B with a stable empirical B
    lam, lam_hat = poly_model.multipliers.lam, poly_model.multipliers.lambda_hat
    Bs = []
    for k in range(6, 22, 2):
        cf = solve_cross_form(poly_model, 0.1, 0.3, [0.05], k)
        Bs.append(abs(cf.x_k - lam ** k * 0.1) / abs(lam_hat) ** k)
    assert max(Bs) < 10.0


def test_strong_derivative_bounds_linear(lin_model):
    rx, rz = strong_derivative_bounds(lin_model, np.array([0.1, 1e-4, 0.05]), 10)
    assert rx == 0.0
    assert rz <= 1.0  # |lambda_1|^k <= lambda0^k


def test_strong_derivative_bounds_polynomial(poly_model):
    # one point per strip: the orbit must stay in the box for all k steps
    gam = poly_model.multipliers.gamma
    ks = list(range(4, 21, 2))
    ratios = [strong_derivative_bounds(poly_model, np.array([0.1, 0.5 / gam ** k, 0.05]), k)
              for k in ks]
    assert max(max(r) for r in ratios) < 10.0
    # decreasing trend beyond k = 10
    tail = [max(r) for k, r in zip(ks, ratios) if k >= 10]
    assert tail == sorted(tail, reverse=True)
