"""The flat-array kernels of the hot paths against their reference forms:
the local map against the normal-form formula, the trajectory kernel and the
Jacobian chains built on it against per-step loops, the batched Jacobian
against single-point calls, the stable frame against per-step inverse
iteration, the diagonal-factor leaf slopes against the full chain, the
one-column frame against QR, and the scalar root polish's step rules."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from hetdim.cones import return_chain, stable_frame, stable_slopes, strip_center
from hetdim.cycles import orbit_index, orbit_jacobian_chain
from hetdim.errors import ConvergenceError, DomainError, ItineraryError
from hetdim.global_map import (first_return_array, t1_array, t1_jac_array, t1_tilde_array,
                               t1_tilde_jac_array)
from hetdim.local import _forward_y
from hetdim.numerics import fd_jacobian, newton_1d, orthonormal_frame
from hetdim.presets import (base_model, battery_coeffs, battery_model, d4_model,
                            forge_coeffs, hetdim_coeffs, hetdim_model)
from hetdim.saddle import (Multipliers, apply_symmetry, build_model, orbit, t0_array,
                           t0_jac_array)

TIERS = ("linear", "polynomial", "polynomial_symmetric")


def _normal_form(model, v):
    """T0 written out as x' = lambda x + f1, y' = gamma y + f2, z' = A z + f3."""
    m = model.multipliers
    f1, f2, f3 = model.nonlinearity.value(v[0], v[1], v[2:])
    out = np.empty_like(v)
    out[0] = m.lam * v[0] + f1
    out[1] = m.gamma * v[1] + f2
    out[2:] = m.strong * v[2:] + f3
    return out


def _sample_points(dim, rng, n=40):
    pts = rng.uniform(-0.6, 0.6, size=(n, dim))
    # on the axes and signed zeros, where the sign of a zero result shows
    pts[0] = 0.0
    pts[1] = -0.0
    pts[2, 1:] = -0.0
    pts[3, 0] = pts[3, 2:] = 0.0
    return pts


@pytest.mark.parametrize("make", [base_model, d4_model], ids=["D3", "D4"])
@pytest.mark.parametrize("tier", TIERS)
def test_t0_array_matches_normal_form_bitwise(make, tier, rng):
    model = make(tier)
    for v in _sample_points(model.dim, rng):
        assert t0_array(model, v).tobytes() == _normal_form(model, v).tobytes()


def test_t0_array_bitwise_with_negative_multipliers(rng):
    mult = Multipliers(-0.55, -2.2, np.array([-0.25]), 0.4, 2.4, 0.29)
    model = build_model(mult, 3, "linear")
    for v in _sample_points(3, rng):
        assert t0_array(model, v).tobytes() == _normal_form(model, v).tobytes()


@pytest.mark.parametrize("make", [base_model, d4_model], ids=["D3", "D4"])
@pytest.mark.parametrize("tier", TIERS)
def test_batched_jacobian_equals_single_point_calls(make, tier, rng):
    model = make(tier)
    rows = _sample_points(model.dim, rng)
    batched = t0_jac_array(model, rows)
    assert batched.shape == (len(rows), model.dim, model.dim)
    stacked = np.stack([t0_jac_array(model, v) for v in rows])
    assert batched.tobytes() == stacked.tobytes()
    # and the single-point Jacobian is the derivative of the map
    h = 1e-6
    for v in rows[4:8]:
        fd = np.column_stack([(t0_array(model, v + h * e) - t0_array(model, v - h * e)) / (2 * h)
                              for e in np.eye(model.dim)])
        assert np.max(np.abs(fd - t0_jac_array(model, v))) < 1e-9


def _negative_model(tier):
    mult = Multipliers(-0.55, -2.2, np.array([-0.25]), 0.4, 2.4, 0.29)
    return build_model(mult, 3, {"kind": tier, "eps": 0.05})


MODELS = {"D3": base_model, "D4": d4_model, "negative": _negative_model}


def _step_loop(model, v, n):
    """The trajectory stepped one t0_array call at a time, and the first
    step that leaves the box (None if none does)."""
    rows = [np.array(v, dtype=float)]
    for j in range(n):
        rows.append(t0_array(model, rows[-1]))
        if np.max(np.abs(rows[-1])) > model.box:
            return np.stack(rows), j + 1
    return np.stack(rows), None


def _orbit_starts(dim):
    starts = np.array([[0.1, 1e-6, -0.0, 0.02], [-0.08, -3e-5, 0.04, -0.0],
                       [0.0, -0.0, 0.0, -0.0], [0.5, 2e-5, -0.3, 0.2]])
    return starts[:, :dim]


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tier", TIERS)
def test_orbit_matches_step_loop_bitwise(name, tier):
    model = MODELS[name](tier)
    for v in _orbit_starts(model.dim):
        for n in (0, 1, 2, 9, 12):
            ref, exit_step = _step_loop(model, v, n)
            assert exit_step is None
            assert orbit(model, v, n).tobytes() == ref.tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tier", TIERS)
def test_orbit_names_the_loops_first_exit_step(name, tier):
    model = MODELS[name](tier)
    for y0 in (0.9, 0.4, 1e-3, 2e-6):
        v = np.zeros(model.dim)
        v[:3] = (0.05, y0, -0.02)
        _, exit_step = _step_loop(model, v, 40)
        assert exit_step is not None
        with pytest.raises(ItineraryError) as exc:
            orbit(model, v, 40)
        assert exc.value.step == exit_step
        # shorter than the exit, the trajectory is returned whole
        assert orbit(model, v, exit_step - 1).shape == (exit_step, model.dim)


@pytest.mark.parametrize("tier", TIERS)
def test_first_return_jacobian_matches_step_loop(tier):
    model, coeffs = base_model(tier), forge_coeffs("cdx_neg_d_neg")
    for k in (8, 12):
        v = strip_center(model, coeffs, k).as_array()
        J, w = np.eye(model.dim), v.copy()
        for _ in range(k):
            J = t0_jac_array(model, w) @ J
            w = t0_array(model, w)
        J = t1_jac_array(coeffs, w) @ J
        out, J_kernel = first_return_array(model, coeffs, v, k)
        assert out.tobytes() == t1_array(coeffs, w).tobytes()
        assert J_kernel.tobytes() == J.tobytes()


@pytest.mark.parametrize("make", [base_model, d4_model], ids=["D3", "D4"])
@pytest.mark.parametrize("tier", TIERS)
def test_forward_y_matches_step_loop(make, tier):
    model = make(tier)
    z0 = np.full(model.dim - 2, 0.03)
    for k in (6, 12):
        y0 = 0.45 / model.multipliers.gamma ** k
        v = np.concatenate(([0.1, y0], z0))
        dy = np.zeros(model.dim)
        dy[1] = 1.0
        for _ in range(k):
            dy = t0_jac_array(model, v) @ dy
            v = t0_array(model, v)
        yk, slope, xk, zk = _forward_y(model, 0.1, y0, z0, k)
        assert (yk, slope, xk) == (float(v[1]), float(dy[1]), float(v[0]))
        assert zk.tobytes() == v[2:].tobytes()


@pytest.mark.parametrize("tilde", [False, True])
def test_return_chain_matches_step_loop(tilde):
    model, coeffs = hetdim_model(tier="polynomial_symmetric"), hetdim_coeffs()
    base = strip_center(model, coeffs, 12)
    if tilde:
        base = apply_symmetry(model, base)
    v, ref = base.as_array(), []
    for k in (12, 10):
        for _ in range(k):
            ref.append(t0_jac_array(model, v))
            v = t0_array(model, v)
        if tilde:
            ref.append(t1_tilde_jac_array(model, coeffs, v))
            v = t1_tilde_array(model, coeffs, v)
        else:
            ref.append(t1_jac_array(coeffs, v))
            v = t1_array(coeffs, v)
    chain = return_chain(model, coeffs, base.as_array(), [12, 10], tilde=tilde)
    assert chain.tobytes() == np.stack(ref).tobytes()


def subspace_distance(Q1, Q2):
    """Sine of the largest principal angle: the 2-norm of the projector
    difference."""
    return float(np.linalg.norm(Q1 @ Q1.T - Q2 @ Q2.T, 2))


def _reference_stable_frame(chain, max_iter=30, tol=1e-14):
    """Per-step inverse iteration: one solve per chain factor per sweep."""
    W = np.zeros((chain.shape[1], chain.shape[1] - 2))
    W[2:, :] = np.eye(chain.shape[1] - 2)
    for _ in range(max_iter):
        V = W
        for J in reversed(chain):
            V = np.linalg.solve(J, V)
        Wn = orthonormal_frame(V)
        if subspace_distance(W, Wn) < tol:
            return Wn
        W = Wn
    return W


def _d4_coeffs():
    return dataclasses.replace(
        hetdim_coeffs(), z_plus=np.array([0.03, 0.01]), a_t=np.array([0.05, 0.02]),
        b_t=np.array([0.1, 0.05]), alpha1=np.array([0.02, 0.01]),
        alpha2=np.array([0.03, 0.01]), alpha3=np.array([[0.4, 0.05], [0.0, 0.3]]))


@pytest.mark.parametrize("tilde", [False, True])
@pytest.mark.parametrize("k", [10, 20, 36])
@pytest.mark.parametrize("lab", ["hetdim", "d4"])
def test_stable_frame_matches_per_step_inverse_iteration(lab, k, tilde):
    if lab == "hetdim":
        model, coeffs = hetdim_model(), hetdim_coeffs()
    else:
        model, coeffs = d4_model(), _d4_coeffs()
    base = strip_center(model, coeffs, k)
    if tilde:
        base = apply_symmetry(model, base)
    chain = return_chain(model, coeffs, base.as_array(), [k], tilde=tilde)
    assert chain.shape == (k + 1, model.dim, model.dim)
    W = stable_frame(chain)
    assert W.shape == (model.dim, model.dim - 2)
    assert np.max(np.abs(W.T @ W - np.eye(model.dim - 2))) < 1e-14
    assert subspace_distance(W, _reference_stable_frame(chain)) < 1e-13


def _chain_slopes(model, coeffs, p, k, tilde):
    """Leaf slopes from the full per-step chain."""
    V = stable_frame(return_chain(model, coeffs, p, [k], tilde=tilde))
    return V[:2, :] @ np.linalg.inv(V[2:, :])


def _slope_lab(lab, tier):
    if lab == "hetdim":
        return hetdim_model(tier=tier), hetdim_coeffs()
    if lab == "base":
        return base_model(tier), hetdim_coeffs()
    return d4_model(tier), _d4_coeffs()


@pytest.mark.parametrize("tilde", [False, True])
@pytest.mark.parametrize("k", [10, 20, 36])
@pytest.mark.parametrize("lab, rel_tol", [("hetdim", 1e-14), ("base", 1e-14), ("d4", 1e-8)])
def test_linear_stable_slopes_match_full_chain(lab, rel_tol, k, tilde):
    # the d4 tolerance is the power iteration's 1e-14 stopping tolerance,
    # amplified through the two-column frame
    model, coeffs = _slope_lab(lab, "linear")
    base = strip_center(model, coeffs, k)
    if tilde:
        base = apply_symmetry(model, base)
    p = base.as_array()
    ref = _chain_slopes(model, coeffs, p, k, tilde)
    Phi = stable_slopes(model, coeffs, p, k, tilde=tilde)
    assert Phi.shape == (2, model.dim - 2)
    assert np.max(np.abs(Phi - ref)) <= rel_tol * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [10, 20])
@pytest.mark.parametrize("lab", ["base", "d4"])
def test_polynomial_stable_slopes_are_the_chain_path(lab, k):
    model, coeffs = _slope_lab(lab, "polynomial")
    p = strip_center(model, coeffs, k).as_array()
    ref = _chain_slopes(model, coeffs, p, k, False)
    assert stable_slopes(model, coeffs, p, k).tobytes() == ref.tobytes()


def _qr_frame(V):
    Q, R = np.linalg.qr(V)
    signs = np.sign(np.diag(R))
    signs[signs == 0.0] = 1.0
    return Q * signs[None, :]


@pytest.mark.parametrize("dim", [3, 4, 6])
def test_one_column_frame_is_the_qr_frame(dim):
    rng = np.random.default_rng(dim)
    for _ in range(200):
        # components spanning 40 decades, either sign
        V = (rng.choice([-1.0, 1.0], size=(dim, 1))
             * 10.0 ** rng.uniform(-20.0, 20.0, size=(dim, 1)))
        W = orthonormal_frame(V)
        assert W.shape == (dim, 1)
        assert abs(np.linalg.norm(W) - 1.0) <= 2 * np.finfo(float).eps
        assert np.max(np.abs(W - _qr_frame(V))) <= 1e-15
        assert np.all(np.sign(W) == np.sign(V))


def test_one_column_frame_of_a_zero_column_is_unchanged():
    V = np.zeros((3, 1))
    assert orthonormal_frame(V).tobytes() == _qr_frame(V).tobytes()


def test_orbit_jacobian_chain_shape_and_index(battery_orbits):
    model, coeffs = battery_model(), battery_coeffs()
    for orbit in battery_orbits:
        k, m = orbit.itinerary
        chain = orbit_jacobian_chain(model, coeffs, orbit)
        assert chain.shape == (k + m + 2, model.dim, model.dim)
        # the index of DT^2 composed leg by leg, as the first-return map does
        cm = coeffs.with_mu(orbit.mu)
        _, F1 = first_return_array(model, cm, orbit.points["Q01"].as_array(), k)
        _, F2 = first_return_array(model, cm, orbit.points["Q02"].as_array(), m)
        expected = int(np.sum(np.abs(np.linalg.eigvals(F2 @ F1)) > 1.0))
        assert orbit_index(model, coeffs, orbit) == expected
        if abs(orbit.s_value) < 1.0:
            assert expected == 2


def test_fd_jacobian_raises_when_every_probe_leaves_the_domain():
    u0 = np.array([0.3, 0.5, -0.2])

    def f(u):
        if u[1] != u0[1]:
            raise DomainError("probe left the domain")
        return np.array([u[0] ** 2, u[0] + u[1], u[2] * u[1]])

    with pytest.raises(ConvergenceError, match="variable 1"):
        fd_jacobian(f, u0)


def test_fd_jacobian_one_sided_fallback():
    # probes beyond x = 0.3 leave the domain: the backward difference serves
    def f(u):
        if u[0] > 0.3:
            raise DomainError("probe left the domain")
        return np.array([u[0] ** 2, 3.0 * u[1]])

    J = fd_jacobian(f, np.array([0.3, 1.0]))
    assert J[0, 0] == pytest.approx(0.6, rel=1e-6)
    assert J[1, 1] == pytest.approx(3.0, rel=1e-9)


def _fold_parabola(t):
    # roots 1 and 1 + 1e-6, a fold between them: |f''| is 1e6 times the
    # slope at the roots
    a, r1, r2 = 1e6, 1.0, 1.0 + 1e-6
    return a * (t - r1) * (t - r2), a * (2.0 * t - r1 - r2), None


def test_newton_1d_small_root_step_converges_where_plain_overshoots():
    t0 = 1.0 + 5e-7 + 1e-12  # just right of the vertex
    t, val, _, _, evals = newton_1d(_fold_parabola, t0, tol=1e-13, name="fold")
    assert abs(t - (1.0 + 1e-6)) < 1e-15 and abs(val) < 1e-13
    assert evals == 3
    # the plain step lands 1e5 root separations away and walks back by halves
    tp, steps = t0, 0
    while abs(_fold_parabola(tp)[0]) >= 1e-13:
        val_p, slope_p, _ = _fold_parabola(tp)
        tp, steps = tp - val_p / slope_p, steps + 1
    assert steps > 15


def test_newton_1d_backtracks_past_a_domain_bound():
    def log(t):
        if t <= 0.0:
            raise DomainError("log of a non-positive number")
        return math.log(t), 1.0 / t, None

    # the plain step from t = 3 lands at t = -0.30
    t, val, _, _, _ = newton_1d(log, 3.0, tol=1e-14, name="log")
    assert abs(t - 1.0) < 1e-14 and abs(val) < 1e-14

    def trap(t):
        if t != 3.0:
            raise DomainError("outside")
        return 1.0, 1.0, None

    with pytest.raises(ConvergenceError, match="trap: trapped at a domain edge"):
        newton_1d(trap, 3.0, tol=1e-14, name="trap")


def test_newton_1d_accept_tol_takes_a_noise_floor():
    def floor(t):
        # |f| never drops below 3e-12 near the root t = 1
        d = t - 1.0
        return (d if abs(d) > 1e-12 else 3e-12), 1.0, None

    t, val, _, _, evals = newton_1d(floor, 2.0, tol=1e-13, accept_tol=1e-11, name="floor")
    assert abs(t - 1.0) < 1e-11 and 1e-13 <= abs(val) < 1e-11
    assert evals == 61
    with pytest.raises(ConvergenceError, match="floor: no convergence after 60 steps"):
        newton_1d(floor, 2.0, tol=1e-13, name="floor")


def test_newton_1d_names_the_solve_on_a_flat_spot():
    with pytest.raises(ConvergenceError, match="t-match of leaf 7: hit a flat"):
        newton_1d(lambda t: (1.0, 0.0, None), 0.5, tol=1e-13, name="t-match of leaf 7")


def test_newton_1d_returns_the_payload_of_the_root_as_a_float():
    calls = []

    def f(t):
        calls.append(t)
        return t * t - np.float64(2.0), 2.0 * t, ("at", t)

    t, val, slope, payload, evals = newton_1d(f, np.float64(1.0), tol=1e-14, name="sqrt2")
    assert type(t) is float
    assert payload == ("at", calls[-1]) and calls[-1] == t
    assert (val, slope) == f(t)[:2]
    assert evals == len(calls) - 1
