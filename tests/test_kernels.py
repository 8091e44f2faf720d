"""The flat-array kernels of the hot paths against their reference forms:
the local map against the normal-form formula, the trajectory kernel and the
Jacobian chains built on it against per-step loops, the batched Jacobian
against single-point calls, the stable frame against per-step inverse
iteration, the diagonal-factor leaf slopes against the full chain, the
one-column frame against QR, the block stay and the vectorised cone opening
against per-point loops, and the scalar root polish's step rules."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from strategies import coordinates, linear_models, phase_points, stays, tier_models

from hetdim import cones, runner
from hetdim.cones import (_inverse_product, invariant_cu_subspace, return_chain, stable_frame,
                          stable_slopes, strip_center)
from hetdim.cycles import orbit_index, orbit_jacobian_chain, orbit_multipliers
from hetdim.errors import ConvergenceError, DomainError, ItineraryError, NumericalError
from hetdim.global_map import (axis_point, coeffs_from_json, first_return_array, t1_array,
                               t1_jac_array, t1_tilde_array)
from hetdim.local import _forward_y, solve_cross_form
from hetdim.numerics import (chain_product, fd_jacobian, fold_tol, frobenius, newton_1d,
                             newton_solve, orthonormal_frame)
from hetdim.presets import (base_model, battery_coeffs, battery_model, battery_pairs,
                            d4_model, forge_coeffs, hetdim_coeffs, hetdim_model)
from hetdim.saddle import (BOX, Multipliers, build_model, jacobian_along, model_from_json, orbit,
                           reflect_array, stay_exit, t0_array, t0_jac_array)
from hetdim.tangency import _cross_form_jet

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
    row outside the box (None if none is; row 0 is the start)."""
    rows = [np.array(v, dtype=float)]
    for j in range(n + 1):
        if np.max(np.abs(rows[j])) > BOX:
            return np.stack(rows), j
        if j < n:
            rows.append(t0_array(model, rows[j]))
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


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tier", TIERS)
def test_stay_exit_is_the_last_orbit_row_bitwise(name, tier):
    # single points and one (N, D) block, signed zeros included
    model = MODELS[name](tier)
    starts = _orbit_starts(model.dim)
    for n in (0, 1, 12):
        block = stay_exit(model, starts, n)
        assert block.shape == starts.shape
        for v, row in zip(starts, block):
            ref = orbit(model, v, n)[-1]
            assert stay_exit(model, v, n).tobytes() == ref.tobytes()
            assert row.tobytes() == ref.tobytes()


def test_stay_exit_keeps_the_normal_forms_signed_zeros():
    # under negative multipliers a -0.0 start maps to +0.0 (the normal form
    # adds f = +0.0); a stay of 0 steps returns the start itself
    model = _negative_model("linear")
    start = np.array([-0.0, -0.0, -0.0])
    assert np.signbit(stay_exit(model, start, 0)).all()
    for n in (1, 2, 7):
        assert not np.signbit(stay_exit(model, start, n)).any()
        assert not np.signbit(stay_exit(model, start[None, :], n)).any()


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("tier", TIERS)
def test_stay_exit_names_the_orbits_exit_step(name, tier):
    # exits at the start, inside the stay and at its end: a single point
    # raises orbit's ItineraryError, a block gets a NaN row for it
    model = MODELS[name](tier)
    fixed = np.zeros(model.dim)
    for y0, n in ((0.9, 40), (0.4, 40), (1e-3, 40), (2e-6, 40), (0.05, 0)):
        v = np.zeros(model.dim)
        v[:3] = (0.05 if n else 1.5, y0, -0.02)
        _, exit_step = _step_loop(model, v, n)
        with pytest.raises(ItineraryError) as exc:
            stay_exit(model, v, n)
        assert exc.value.step == exit_step
        block = stay_exit(model, np.stack((fixed, v, fixed)), n)
        assert np.isnan(block[1]).all()
        assert block[[0, 2]].tobytes() == np.stack([orbit(model, fixed, n)[-1]] * 2).tobytes()
        # one step short of the exit, the stay ends inside the box
        if exit_step:
            ref = orbit(model, v, exit_step - 1)[-1]
            assert stay_exit(model, v, exit_step - 1).tobytes() == ref.tobytes()


@pytest.mark.parametrize("tier", TIERS)
def test_first_return_jacobian_matches_step_loop(tier):
    model, coeffs = base_model(tier), forge_coeffs("cdx_neg_d_neg")
    for k in (8, 12):
        v = strip_center(model, coeffs, k)
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


def _cross_form_reference(model, x0, yk, z0, k):
    """The linear cross form by the step loop from (x0, yk / gamma^k, z0):
    the (x_k, y_0, z_k...) bytes and the residual, or the exit step."""
    y0 = yk / model.multipliers.gamma ** k
    traj, exit_step = _step_loop(model, np.concatenate(([x0, y0], z0)), k)
    if exit_step is not None:
        return None, None, exit_step
    end = traj[k]
    return np.r_[end[0], y0, end[2:]].tobytes(), abs(end[1] - yk), None


def _cross_form_bytes(cf):
    return np.r_[cf.x_k, cf.y_0, cf.z_k].tobytes()


@pytest.mark.parametrize("name", sorted(MODELS))
def test_linear_cross_form_is_the_step_loop_bitwise(name):
    model = MODELS[name]("linear")
    for v in _orbit_starts(model.dim):
        for yk in (0.45, -0.3, -0.0):
            for k in (0, 2, 6, 12, 24, 30):
                ref, residual, exit_step = _cross_form_reference(model, v[0], yk, v[2:], k)
                assert exit_step is None
                cf = solve_cross_form(model, v[0], yk, v[2:], k)
                assert _cross_form_bytes(cf) == ref, (v, yk, k)
                assert cf.iterations == 1 and cf.residual == residual < 1e-12


@pytest.mark.parametrize("name", sorted(MODELS))
def test_linear_cross_form_raises_the_orbits_exit_step(name):
    model = MODELS[name]("linear")
    z0 = np.full(model.dim - 2, 0.03)
    # a start outside the box, and a y that leaves it at the last step
    for x0, yk, step in ((1.5, 0.3, 0), (0.1, 1.5, 6)):
        assert _cross_form_reference(model, x0, yk, z0, 6)[2] == step
        with pytest.raises(ItineraryError) as exc:
            solve_cross_form(model, x0, yk, z0, 6)
        assert exc.value.step == step


def _d4_forge_coeffs(case):
    return dataclasses.replace(
        forge_coeffs(case), z_plus=np.array([0.03, 0.01]), a_t=np.array([0.05, 0.02]),
        b_t=np.array([0.1, 0.05]), alpha1=np.array([0.02, 0.01]),
        alpha2=np.array([0.03, 0.01]), alpha3=np.array([[0.4, 0.05], [0.0, 0.3]]))


@pytest.mark.parametrize("name", sorted(MODELS))
@pytest.mark.parametrize("case", ["cdx_neg_d_neg", "cdx_pos_d_pos"])
def test_linear_cross_form_jet_is_the_step_loop_chain_bitwise(name, case, rng):
    model = MODELS[name]("linear")
    coeffs = forge_coeffs(case) if model.dim == 3 else _d4_forge_coeffs(case)
    for k in range(2, 31, 4):
        X, Y, mu = rng.uniform(-0.02, 0.02, size=3)
        cm = coeffs.with_mu(mu)
        cf, J_jet = _cross_form_jet(model, cm, X, Y, k)
        t = X / cm.b
        J = t1_jac_array(cm, axis_point(model, cm.y_minus + t))
        w = np.concatenate(([cm.x_plus + X, cf.y_0], cm.z_plus + cm.b_t * t))
        for _ in range(k):
            J = t0_jac_array(model, w) @ J
            w = t0_array(model, w)
        endpoint = np.concatenate(([cf.x_k, cm.y_minus + Y], cf.z_k))
        assert J_jet.tobytes() == (t1_jac_array(cm, endpoint) @ J).tobytes(), k


@settings(derandomize=True, database=None, max_examples=100)
@given(model=linear_models(), k=stays, data=st.data())
def test_linear_orbit_is_the_step_loop_property(model, k, data):
    v = data.draw(phase_points(model.dim))
    traj, exit_step = _step_loop(model, v, k)
    if exit_step is None:
        assert orbit(model, v, k).tobytes() == traj.tobytes()
    else:
        with pytest.raises(ItineraryError) as exc:
            orbit(model, v, k)
        assert exc.value.step == exit_step


@settings(derandomize=True, database=None, max_examples=100)
@given(model=linear_models(), k=stays, data=st.data())
def test_linear_stay_exit_is_the_last_orbit_row_property(model, k, data):
    # points around the box and points deep inside it, whose stays end inside
    rows = [data.draw(phase_points(model.dim)) for _ in range(2)]
    rows.append(rows[0] * data.draw(st.sampled_from((1e-3, 1e-9))))
    block = stay_exit(model, np.stack(rows), k)
    for v, row in zip(rows, block):
        try:
            ref = orbit(model, v, k)[-1]
        except ItineraryError as exc:
            with pytest.raises(ItineraryError) as got:
                stay_exit(model, v, k)
            assert got.value.step == exc.step
            assert np.isnan(row).all()
            continue
        assert stay_exit(model, v, k).tobytes() == ref.tobytes() == row.tobytes()


@settings(derandomize=True, database=None, max_examples=100)
@given(model=linear_models(), n=st.integers(0, 40), shape=st.sampled_from(("none", "D", "DD")),
       data=st.data())
def test_linear_jacobian_along_is_the_step_chain_property(model, n, shape, data):
    # the trajectory enters only through its length and its step
    # Jacobians, which the linear tier takes at any point
    traj = np.repeat(data.draw(phase_points(model.dim))[None], n + 1, axis=0)
    entries = st.floats(-10.0, 10.0)
    M = None if shape == "none" else np.array(data.draw(st.lists(
        entries, min_size=model.dim ** len(shape), max_size=model.dim ** len(shape)))
    ).reshape((model.dim,) * len(shape))
    got = jacobian_along(model, traj, M)
    ref = chain_product(t0_jac_array(model, traj[:-1]), M)
    assert got.shape == ref.shape
    # equal values; a zero of a drawn M's product may differ in sign only
    assert np.array_equal(got, ref)
    if M is None:
        # the identity's zeros keep their sign too
        assert got.tobytes() == ref.tobytes()


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(model=tier_models(), n=st.integers(0, 12), data=st.data())
def test_jacobian_along_matches_central_differences_property(model, n, data):
    # a start whose n-step orbit stays inside half the box on the linear
    # part; each probe steps 1e-6 of its coordinate's scale
    gamma = abs(model.multipliers.gamma)
    scale = np.full(model.dim, 0.5)
    scale[1] = 0.3 / gamma ** n
    p = scale * np.array(data.draw(st.lists(st.floats(-1.0, 1.0), min_size=model.dim,
                                            max_size=model.dim)))
    try:
        J = jacobian_along(model, orbit(model, p, n))
    except ItineraryError:
        return
    for i in range(model.dim):
        h = 1e-6 * scale[i]
        up, down = p.copy(), p.copy()
        up[i] += h
        down[i] -= h
        try:
            fd = (orbit(model, up, n)[-1] - orbit(model, down, n)[-1]) / (2.0 * h)
        except ItineraryError:
            continue
        # the derivative along the scaled direction, against the box's scale
        err = np.abs(fd - J[:, i]).max() * scale[i]
        assert err <= 1e-8 * max(1.0, np.abs(J[:, i]).max() * scale[i]), (i, err)


@settings(derandomize=True, database=None, max_examples=100)
@given(model=linear_models(), k=stays, x0=coordinates, yk=coordinates, data=st.data())
def test_linear_cross_form_is_the_step_loop_property(model, k, x0, yk, data):
    z0 = data.draw(phase_points(model.dim - 2))
    ref, residual, exit_step = _cross_form_reference(model, x0, yk, z0, k)
    if exit_step is None:
        cf = solve_cross_form(model, x0, yk, z0, k)
        assert _cross_form_bytes(cf) == ref
        assert cf.iterations == 1 and cf.residual == residual < 1e-12
    else:
        with pytest.raises(ItineraryError) as exc:
            solve_cross_form(model, x0, yk, z0, k)
        assert exc.value.step == exit_step


@pytest.mark.parametrize("tilde", [False, True])
def test_return_chain_matches_step_loop(tilde, twin):
    # the twin side is the chain of the twin coefficient set, checked here
    # against the closed form R o T1 o R and its conjugated Jacobian
    model, coeffs = hetdim_model(tier="polynomial_symmetric"), hetdim_coeffs()
    base = strip_center(model, coeffs, 12)
    R = np.diag(np.concatenate(([1.0, -1.0], model.symmetry_signs)))
    if tilde:
        base = reflect_array(model, base)
    v, ref = base, []
    for k in (12, 10):
        for _ in range(k):
            ref.append(t0_jac_array(model, v))
            v = t0_array(model, v)
        if tilde:
            ref.append(R @ t1_jac_array(coeffs, reflect_array(model, v)) @ R)
            v = t1_tilde_array(model, coeffs, v)
        else:
            ref.append(t1_jac_array(coeffs, v))
            v = t1_array(coeffs, v)
    chain = return_chain(model, twin(model, coeffs) if tilde else coeffs, base, [12, 10])
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


def _per_step_chain(model, coeffs, p, stays):
    """The return chain with one factor per local step: each stay's step
    Jacobians along its trajectory, then T1's at its exit."""
    v, factors = np.asarray(p, dtype=float), []
    for k in stays:
        traj = orbit(model, v, k)
        factors.extend(t0_jac_array(model, traj[:k]))
        factors.append(t1_jac_array(coeffs, traj[k]))
        v = t1_array(coeffs, traj[k])
    return np.stack(factors)


@pytest.mark.parametrize("tilde", [False, True])
@pytest.mark.parametrize("k", [10, 20, 36])
@pytest.mark.parametrize("lab", ["hetdim", "d4"])
def test_stable_frame_matches_per_step_inverse_iteration(lab, k, tilde, twin):
    # the linear tier's chain is one stay factor and one T1 factor; the
    # reference iterates over the independently built per-step chain
    if lab == "hetdim":
        model, coeffs = hetdim_model(), hetdim_coeffs()
    else:
        model, coeffs = d4_model(), _d4_coeffs()
    base = strip_center(model, coeffs, k)
    if tilde:
        base = reflect_array(model, base)
        coeffs = twin(model, coeffs)
    chain = return_chain(model, coeffs, base, [k])
    assert chain.shape == (2, model.dim, model.dim)
    steps = _per_step_chain(model, coeffs, base, [k])
    assert steps.shape == (k + 1, model.dim, model.dim)
    # the stay factor is the product of the step factors, value for value
    assert np.array_equal(chain[0], chain_product(steps[:k]))
    W = stable_frame(_inverse_product(chain))
    assert W.shape == (model.dim, model.dim - 2)
    assert np.max(np.abs(W.T @ W - np.eye(model.dim - 2))) < 1e-14
    assert subspace_distance(W, stable_frame(_inverse_product(steps))) < 1e-13
    assert subspace_distance(W, _reference_stable_frame(steps)) < 1e-13


@pytest.mark.parametrize("tier", ["polynomial", "polynomial_symmetric"])
@pytest.mark.parametrize("make", [base_model, d4_model], ids=["D3", "D4"])
def test_nonlinear_return_chain_is_the_per_step_chain(make, tier):
    # the nonlinear tiers keep one factor per local step, bit for bit
    model = make(tier)
    coeffs = hetdim_coeffs() if model.dim == 3 else _d4_coeffs()
    base = strip_center(model, coeffs, 12)
    chain = return_chain(model, coeffs, base, [12, 10])
    assert chain.tobytes() == _per_step_chain(model, coeffs, base, [12, 10]).tobytes()


def _chain_slopes(model, coeffs, p, k):
    """Leaf slopes from the per-step chain, built in this module."""
    V = stable_frame(_inverse_product(_per_step_chain(model, coeffs, p, [k])))
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
def test_linear_stable_slopes_match_full_chain(lab, rel_tol, k, tilde, twin):
    # the d4 tolerance is the power iteration's 1e-14 stopping tolerance,
    # amplified through the two-column frame
    model, coeffs = _slope_lab(lab, "linear")
    p = strip_center(model, coeffs, k)
    if tilde:
        p = reflect_array(model, p)
        coeffs = twin(model, coeffs)
    ref = _chain_slopes(model, coeffs, p, k)
    Phi = stable_slopes(model, coeffs, p, k)
    assert Phi.shape == (2, model.dim - 2)
    assert np.max(np.abs(Phi - ref)) <= rel_tol * np.max(np.abs(ref))


@pytest.mark.parametrize("k", [10, 20])
@pytest.mark.parametrize("lab", ["base", "d4"])
def test_polynomial_stable_slopes_are_the_chain_path(lab, k):
    model, coeffs = _slope_lab(lab, "polynomial")
    p = strip_center(model, coeffs, k)
    ref = _chain_slopes(model, coeffs, p, k)
    assert stable_slopes(model, coeffs, p, k).tobytes() == ref.tobytes()


def _slope_cu(v):
    """The cu-cone coordinate ||dz|| / (|dx| + |dy|) of one vector."""
    denom = abs(v[0]) + abs(v[1])
    return float(np.linalg.norm(v[2:]) / denom) if denom > 0 else np.inf


def _slope_s(v):
    """The s-cone coordinate max(|dx|, |dy|) / ||dz|| of one vector."""
    denom = float(np.linalg.norm(v[2:]))
    return float(max(abs(v[0]), abs(v[1])) / denom) if denom > 0 else np.inf


def _opening_reference(kind, img):
    slope = _slope_cu if kind == "cu" else _slope_s
    return max(slope(v) for v in img)


@pytest.mark.parametrize("lab", ["hetdim", "d4"])
@pytest.mark.parametrize("kind", ["cu", "s"])
def test_cone_opening_is_the_per_vector_max_bitwise(lab, kind):
    # the images _certify_cone measures: the cu boundary under the chain,
    # the s boundary under its inverse product
    model, coeffs = _slope_lab(lab, "linear")
    chain = return_chain(model, coeffs, strip_center(model, coeffs, 12), [12])
    P = _inverse_product(chain)
    for K in cones._K_GRID:
        B = cones._cone_boundary(kind, K, model.dim)
        img = (chain_product(chain, B.T) if kind == "cu" else P @ B.T).T
        assert cones._opening(kind, img).hex() == _opening_reference(kind, img).hex()
        # a row whose denominator is zero opens the cone to inf
        flat = img.copy()
        flat[5, :2] = 0.0
        flat[7, 2:] = 0.0
        assert cones._opening(kind, flat) == _opening_reference(kind, flat) == np.inf


def test_cone_battery_csv_is_the_per_vector_opening(monkeypatch):
    # all 13 battery pairs; the run's complementarity check is ROADMAP item 4's
    doc = {"model": battery_model().spec(), "coeffs": battery_coeffs().spec(),
           "schedule": {"pairs": [list(p) for p in battery_pairs()]}}
    files, _ = runner._exp_cone_battery(doc)
    monkeypatch.setattr(cones, "_opening", _opening_reference)
    ref, _ = runner._exp_cone_battery(doc)
    assert files["cones.csv"] == ref["cones.csv"]


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


@pytest.mark.parametrize("shape", [(3,), (3, 1), (4, 2), (6, 4)])
def test_frobenius_is_np_linalg_norm_bitwise(shape):
    rng = np.random.default_rng(len(shape) * 10 + shape[-1])
    for _ in range(200):
        A = rng.standard_normal(shape) * 10.0 ** rng.uniform(-20.0, 20.0)
        for B in (A, A.T, A[::-1]):
            assert frobenius(B).hex() == float(np.linalg.norm(B)).hex()


def _per_step_orbit_chain(model, coeffs, orbit):
    """Both legs' per-step chains, each from its stored entry point."""
    cm = coeffs.with_mu(orbit.mu)
    return np.concatenate([_per_step_chain(model, cm, orbit.points[name].as_array(), [n])
                           for name, n in zip(("Q01", "Q02"), orbit.itinerary)])


def test_orbit_jacobian_chain_shape_and_index(battery_orbits):
    model, coeffs = battery_model(), battery_coeffs()
    for orbit in battery_orbits:
        k, m = orbit.itinerary
        chain = orbit_jacobian_chain(model, coeffs, orbit)
        # on the linear tier each leg is one stay factor and one T1 factor
        assert chain.shape == (4, model.dim, model.dim)
        cm = coeffs.with_mu(orbit.mu)
        steps = _per_step_orbit_chain(model, coeffs, orbit)
        assert steps.shape == (k + m + 2, model.dim, model.dim)
        # the two leading multipliers agree with the per-step chain's: to
        # 3e-15 relative at the runner's s-targets, to 3.3e-13 in the second
        # at s = -0.45 (14,12), where each product's dense eigensolver is off
        # by that much from an 80-digit one (ROADMAP item 4)
        lead, ref = orbit_multipliers(chain)[:2], orbit_multipliers(steps)[:2]
        rel = 1e-13 if orbit.s_value in (-0.9, 0.0, 0.9) else 1e-12
        assert np.all(np.abs(lead - ref) <= rel * np.abs(ref)), (k, m, lead, ref)
        # the index of DT^2 composed leg by leg, as the first-return map does
        _, F1 = first_return_array(model, cm, orbit.points["Q01"].as_array(), k)
        _, F2 = first_return_array(model, cm, orbit.points["Q02"].as_array(), m)
        expected = int(np.sum(np.abs(np.linalg.eigvals(F2 @ F1)) > 1.0))
        assert orbit_index(model, coeffs, orbit) == expected
        if abs(orbit.s_value) < 1.0:
            assert expected == 2


def test_cu_frame_is_the_per_step_chain_frame(hetdim_certificates):
    # the plane verify_transverse_connection grows its disk in, at the
    # three scheduled cycles: carried through one factor per stay, and
    # through one factor per local step
    for cert in hetdim_certificates:
        model, cm = model_from_json(cert.model_spec), coeffs_from_json(cert.coeffs_spec)
        q, stays = cert.orbit.points["Q01"].as_array(), list(cert.orbit.itinerary)
        chain = return_chain(model, cm, q, stays)
        assert chain.shape == (4, model.dim, model.dim)
        E = invariant_cu_subspace(chain).subspace
        ref = invariant_cu_subspace(_per_step_chain(model, cm, q, stays)).subspace
        assert subspace_distance(E, ref) < 1e-15, stays


@pytest.mark.parametrize("tier", ["polynomial", "polynomial_symmetric"])
def test_nonlinear_orbit_jacobian_chain_is_the_per_step_chain(battery_orbits, tier):
    # the nonlinear tiers chain every local step of both legs, bit for bit,
    # here along the linear battery orbits' legs
    model = build_model(battery_model().multipliers, 3, {"kind": tier, "eps": 0.05})
    coeffs = battery_coeffs()
    for orbit in battery_orbits[::5]:
        steps = _per_step_orbit_chain(model, coeffs, orbit)
        assert orbit_jacobian_chain(model, coeffs, orbit).tobytes() == steps.tobytes()


def _per_probe(g):
    """The point function ``g`` as a residual that also takes a block: each
    row of a block is its own point call, NaN throughout where that call
    raises NumericalError.  It is the per-probe reference of the block
    probes of ``fd_jacobian`` and ``fold_tol``."""

    def point(p):
        try:
            return np.asarray(g(p), dtype=float)
        except NumericalError:
            return np.nan

    def f(u):
        if np.ndim(u) < 2:
            return g(u)
        return np.array(np.broadcast_arrays(*(point(p) for p in u)))

    return f


def test_fd_jacobian_raises_when_every_probe_leaves_the_domain():
    u0 = np.array([0.3, 0.5, -0.2])

    def f(u):
        if u[1] != u0[1]:
            raise DomainError("probe left the domain")
        return np.array([u[0] ** 2, u[0] + u[1], u[2] * u[1]])

    with pytest.raises(ConvergenceError, match="variable 1"):
        fd_jacobian(_per_probe(f), u0, np.ones(3))


def test_fd_jacobian_one_sided_fallback():
    # probes beyond x = 0.3 leave the domain: the backward difference serves
    def f(u):
        if u[0] > 0.3:
            raise DomainError("probe left the domain")
        return np.array([u[0] ** 2, 3.0 * u[1]])

    J = fd_jacobian(_per_probe(f), np.array([0.3, 1.0]), np.ones(2))
    assert J[0, 0] == pytest.approx(0.6, rel=1e-6)
    assert J[1, 1] == pytest.approx(3.0, rel=1e-9)


@pytest.mark.parametrize("block", [False, True])
def test_fd_jacobian_takes_a_non_finite_probe_as_outside_the_domain(block):
    # f is NaN beyond x = 1 without raising: the forward probe of x left the
    # domain, and the backward difference exists.  f takes the probe block
    # whole, or (not ``block``) each probe row in its own point call
    def f(u):
        x, y = u[..., 0], u[..., 1]
        F = np.stack((x * x, x * y), axis=-1)
        return np.where((x > 1.0)[..., None], np.nan, F)

    J = fd_jacobian(f if block else _per_probe(f), np.array([1.0, 2.0]), np.ones(2))
    assert J[:, 0] == pytest.approx([2.0, 2.0], rel=1e-6)
    assert J[:, 1] == pytest.approx([0.0, 1.0], rel=1e-9)

    # NaN on both sides of x = 1: no difference in x exists
    def g(u):
        return np.where((u[..., :1] != 1.0), np.nan, f(u))

    with pytest.raises(ConvergenceError, match="variable 0"):
        fd_jacobian(g if block else _per_probe(g), np.array([1.0, 2.0]), np.ones(2))


# offsets and step floors of mixed scales, from 1e-9 to 1e4
_mixed = st.builds(lambda m, e: m * 10.0 ** e, st.floats(-9.99, 9.99), st.integers(-9, 3))
_floors = st.builds(lambda m, e: m * 10.0 ** e, st.floats(1.0, 9.99), st.integers(-9, 0))


@settings(derandomize=True, database=None, max_examples=100)
@given(n=st.integers(1, 8), data=st.data())
def test_block_fd_jacobian_is_the_point_fd_jacobian_property(n, data):
    # n + 1 rows from exact float operations, the same on a row as on a block
    u = np.array(data.draw(st.lists(_mixed, min_size=n, max_size=n)))
    scales = np.array(data.draw(st.lists(_floors, min_size=n, max_size=n)))

    def f(w):
        cube = w[..., :1] * w[..., :1] * w[..., :1]
        return np.concatenate((np.cumsum(w * w[..., ::-1], axis=-1) - 3.0 * w, cube), axis=-1)

    calls = []

    def counted(w):
        calls.append(np.ndim(w))
        return f(w)

    J = fd_jacobian(counted, u, scales)
    assert calls == [2] and J.shape == (n + 1, n)
    assert J.tobytes() == fd_jacobian(_per_probe(f), u, scales).tobytes()


def test_fold_tol_gives_each_row_its_own_floor():
    # rows a*u0, b*u1 and a*u0 + b*u1 move a*ulp0, b*ulp1 and both per ulp
    # (powers of two keep every product exact); the floors sum over the
    # probed inputs row by row, and a row under ``least`` gets ``least``
    u = np.array([0.3, 5.0])
    ulp0, ulp1 = np.spacing(u)
    a, b = 2.0 ** 31, 2.0 ** 20

    def f(w):
        return np.array([a * w[0], b * w[1], a * w[0] + b * w[1], 0.0])

    tol = fold_tol(_per_probe(f), u, [np.array([ulp0, 0.0]), np.array([0.0, ulp1])],
                   least=np.array([0.0, 0.0, 0.0, 1e-12]))
    assert tol.tolist() == [2.0 * a * ulp0, 2.0 * b * ulp1,
                            2.0 * (a * ulp0 + b * ulp1), 1e-12]


def _nan_past_one(w):
    """Two rows, NaN throughout on a point (a row of a block) with x > 1."""
    x, y = w[..., 0], w[..., 1]
    return np.where((x > 1.0)[..., None], np.nan, np.stack((3.0 * x, x * y), axis=-1))


def test_fold_tol_raises_where_a_point_floor_probe_leaves_the_domain():
    # at x = 1 the floor probe of x leaves the domain: its row is NaN, and
    # the one call of f on u and its probes raises
    calls = []

    def f(w):
        calls.append(np.shape(w))
        return _nan_past_one(w)

    u = np.array([1.0, 2.0])
    ulps = [np.array([np.spacing(1.0), 0.0]), np.array([0.0, np.spacing(2.0)])]
    with pytest.raises(ConvergenceError, match="^fold_tol: a floor probe left the domain$"):
        fold_tol(f, u, ulps)
    assert calls == [(3, 2)]


def test_fold_tol_rows_give_nan_only_where_a_rows_floor_probe_leaves_the_domain():
    # rows form: row 0's probe of x leaves the domain, so its tolerances
    # are NaN; row 1's are its point call's, from one call of f on all rows
    calls = []

    def f(arg):
        calls.append(arg[0].tolist())
        return _nan_past_one(arg[1])

    U = np.array([[1.0, 2.0], [0.5, 2.0]])
    ulps = [np.column_stack((np.spacing(U[:, 0]), [0.0, 0.0])),
            np.column_stack(([0.0, 0.0], np.spacing(U[:, 1])))]
    tol = fold_tol(f, U, ulps)
    assert calls == [[0, 1, 0, 1, 0, 1]]
    assert np.isnan(tol[0]).all() and tol.shape == (2, 2)
    assert tol[1].tolist() == fold_tol(_nan_past_one, U[1], [e[1] for e in ulps]).tolist()


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


def _ballooning(u):
    """atan, whose Newton step from 1.5 overshoots to -1.69, and a finite
    1e300 past |u| = 1.6: its |F| / tol at tol 1e-13 passes the float range."""
    return np.where(np.abs(u) < 1.6, np.arctan(u), np.copysign(1e300, u))


def test_newton_solve_backtracks_from_a_residual_whose_score_overflows():
    # the trial at -1.69 balloons the residual and halves, without an
    # overflow warning (an error under this suite's filterwarnings)
    calls = []

    def f(u):
        calls.extend(np.atleast_1d(u[..., 0]).tolist())
        return _ballooning(u)

    u, res, _ = newton_solve(f, np.array([1.5]), scales=np.ones(1), tol=1e-13,
                             accept_tol=1e-11)
    assert abs(u[0]) < 1e-13 and res < 1e-13
    assert min(calls) < -1.6


def test_newton_solve_floor_accept_reports_the_best_iterates_residual():
    calls = []

    def plateau(u):
        # a root at (1, 2) whose residual never drops below 3e-12
        calls.append(u.copy())
        d = u - np.array([1.0, 2.0])
        return np.where(np.abs(d) > 1e-12, d, 3e-12)

    u, res, iterations = newton_solve(plateau, np.array([1.5, 2.5]), scales=np.ones(2),
                                      tol=1e-13, accept_tol=1e-11, max_iter=40)
    assert iterations == 40 and res == 3e-12
    # the accepted iterate's residual was kept from its own evaluation: the
    # last evaluation is elsewhere
    assert any(np.array_equal(c, u) for c in calls) and not np.array_equal(calls[-1], u)
    assert float(np.max(np.abs(plateau(u)))) == res
