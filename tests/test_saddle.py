from __future__ import annotations

import math

import numpy as np
import pytest

from hetdim.errors import ContractError, ItineraryError, ValidationError
from hetdim.presets import base_model, d4_model
from hetdim.saddle import (Multipliers, build_model, check_conditions, commutation_residual,
                           identity_residuals, model_from_json, orbit, reflect_array,
                           t0_array, t0_jac_array)


def test_theta_of_default_multipliers(lin_model):
    theta = lin_model.multipliers.theta
    assert theta == -math.log(0.55) / math.log(2.2)
    assert abs(theta - 0.7584) < 1e-3
    # inequality chain behind the example
    assert abs(0.25) < 0.55 < 1 < 2.2
    assert 0.55 * 2.2 > 1
    assert 0.55 * 2.2 ** (2 / 3) < 1


def test_origin_is_fixed(lin_model, poly_model):
    for model in (lin_model, poly_model):
        img = t0_array(model, np.zeros(3))
        assert img[0] == img[1] == 0.0 and np.all(img[2:] == 0.0)


def test_linear_action_example(lin_model):
    v = np.array([0.1, 0.2, 0.05])
    img, J = t0_array(lin_model, v), t0_jac_array(lin_model, v)
    assert np.allclose(img, [0.055, 0.44, 0.0125], atol=1e-15)
    assert np.allclose(J, np.diag([0.55, 2.2, 0.25]))


def test_invariant_axes(poly_model, rng):
    # W^u_loc = {x = 0, z = 0} and W^s_loc = {y = 0} are exactly invariant
    for _ in range(30):
        y = rng.uniform(-1, 1)
        img = t0_array(poly_model, np.array([0.0, y, 0.0]))
        assert img[0] == 0.0 and np.all(img[2:] == 0.0)
        x, z = rng.uniform(-1, 1), rng.uniform(-1, 1)
        img = t0_array(poly_model, np.array([x, 0.0, z]))
        assert img[1] == 0.0


def test_polynomial_identity_example(poly_model):
    nl = poly_model.nonlinearity
    _, f2, _ = nl.value(0.3, 0.0, np.array([0.1]))
    assert f2 == 0.0
    J = nl.jac(0.3, 0.0, np.array([0.1]))
    assert J[1, 1] == 0.0  # df2/dy at (0.3, 0, 0.1)


@pytest.mark.parametrize("tier", ["linear", "polynomial", "polynomial_symmetric"])
def test_identity_residuals_on_grid(tier, rng):
    model = base_model(tier)
    xs, ys = rng.uniform(-1, 1, 200), rng.uniform(-1, 1, 200)
    zs = rng.uniform(-1, 1, (200, 1))
    res = identity_residuals(model, xs, ys, zs)
    assert len(res) == 8
    assert max(res.values()) < 1e-12


def test_symmetry_involution_and_commutation(sym_model, rng):
    pts = [np.concatenate((rng.uniform(-1, 1, 2), rng.uniform(-1, 1, 1))) for _ in range(100)]
    for p in pts:
        q = reflect_array(sym_model, p)
        assert (q[0], q[1], q[2]) == (p[0], -p[1], -p[2])
        back = reflect_array(sym_model, q)
        assert np.array_equal(back, p)
    assert commutation_residual(sym_model, np.array(pts)) < 1e-12


def test_symmetry_rejected_on_nonsymmetric(poly_model):
    with pytest.raises(ContractError):
        commutation_residual(poly_model, np.array([[0.1, 0.2, 0.3]]))


def test_box_domain_error():
    # a start outside the validity box is step 0 of its itinerary on every
    # tier, for every length; a start far outside must not overflow first
    for tier in ("linear", "polynomial", "polynomial_symmetric"):
        model = base_model(tier)
        for v in (np.array([1.5, 0.0, 0.0]), np.array([0.1, -0.2, -1.0 - 1e-12]),
                  np.full(3, 1e200)):
            for n in (0, 1, 6):
                with np.errstate(all="raise"), pytest.raises(ItineraryError) as exc:
                    orbit(model, v, n)
                assert exc.value.step == 0, (tier, v, n)
        # the box is closed: a start on its boundary is inside
        assert orbit(model, np.array([1.0, 0.0, -1.0]), 1).shape == (2, 3)


@pytest.mark.parametrize("mult,msg", [
    (Multipliers(0.55, 1.5, [0.25], 0.4, 1.8, 0.29), "|lambda*gamma|<=1"),
    (Multipliers(0.55, 2.2, [0.6], 0.4, 2.4, 0.29), "|strong[0]|>=|lambda|"),
    (Multipliers(1.1, 2.2, [0.25], 0.4, 2.4, 0.29), "|lambda|>=1"),
    (Multipliers(0.55, 0.9, [0.25], 0.4, 1.2, 0.29), "|gamma|<=1"),
    (Multipliers(0.55, 2.2, [0.25], 0.6, 2.4, 0.29), "|lambda_hat|>=|lambda|"),
    (Multipliers(0.55, 2.2, [0.25], 0.2, 2.4, 0.29), "|lambda_hat|<=lambda^2"),
    (Multipliers(0.55, 2.2, [0.25], 0.4, 2.0, 0.29), "|gamma_hat|<=|gamma|"),
    (Multipliers(0.55, 2.2, [0.25], 0.4, 2.4, 0.2), "lambda0<=|strong[0]|"),
    (Multipliers(0.55, 2.2, [0.25], 0.4, 2.4, 0.35), "lambda0>=lambda^2"),
])
def test_multiplier_rejections_name_the_inequality(mult, msg):
    with pytest.raises(ValidationError, match=__import__("re").escape(msg)):
        build_model(mult, 3, "linear")


def test_model_from_json_roundtrip(lin_model):
    doc = lin_model.spec()
    again = model_from_json(doc)
    assert again.spec() == doc
    assert again.symmetric


def test_json_defaults_for_report_rates():
    doc = {"dim": 3, "lambda": 0.55, "gamma": 2.2, "strong": [0.25],
           "nonlinearity": {"kind": "linear"}}
    model = model_from_json(doc)
    model.multipliers.validate()


def test_symmetric_polynomial_needs_flipped_first_sign():
    mult = Multipliers(0.55, 2.2, [0.25], 0.4, 2.4, 0.29)
    with pytest.raises(ValidationError, match="symmetry_signs"):
        build_model(mult, 3, {"kind": "polynomial_symmetric", "eps": 0.05},
                    symmetry_signs=[1.0])


def test_check_conditions_reports(lin_model, coeffs_a):
    rep = check_conditions(lin_model, coeffs_a)
    assert rep.c1_ok and rep.c2_ok and rep.c3_ok
    assert rep.c3prime_ok is None
    assert rep.c4_leaf_gap == 0.0
    assert rep.theta == lin_model.multipliers.theta
    # C3 margins of the example: 0.25 < 0.3025 and 0.55 * 2.2^(2/3) < 1
    assert abs(rep.margins["c3_strong_lt_lambda_sq"] - (0.3025 - 0.25)) < 1e-12
    assert abs(rep.margins["c3_area"] - (1 - 0.55 * 2.2 ** (2 / 3))) < 1e-12


def test_check_conditions_c3_fails_for_big_lambda(coeffs_a):
    mult = Multipliers(0.7, 2.2, [0.3], 0.55, 2.4, 0.4)
    model = build_model(mult, 3, "linear")
    rep = check_conditions(model, coeffs_a)
    assert not rep.c3_ok
    assert rep.margins["c3_area"] < 0  # 0.7 * 2.2^(2/3) > 1


def test_c4_gap_with_second_coefficient_set(lin_model, coeffs_a):
    import dataclasses
    other = dataclasses.replace(coeffs_a, x_plus=0.13)
    rep = check_conditions(lin_model, coeffs_a, other)
    assert abs(rep.c4_leaf_gap - 0.03) < 1e-15


def test_d4_model_dimension_generic(rng):
    model = d4_model("polynomial")
    assert model.dim == 4
    xs, ys = rng.uniform(-1, 1, 100), rng.uniform(-1, 1, 100)
    zs = rng.uniform(-1, 1, (100, 2))
    assert max(identity_residuals(model, xs, ys, zs).values()) < 1e-12
    sym = d4_model("polynomial_symmetric")
    pts = rng.uniform(-1, 1, (50, 4))
    assert commutation_residual(sym, pts) < 1e-12


def test_check_conditions_with_flow_exponents(lin_model, coeffs_a):
    from hetdim.flows import equilibrium_exponents
    ms = equilibrium_exponents("morioka_shimizu", 0.5, 1.0)
    rep = check_conditions(lin_model, coeffs_a, flow_exponents=ms)
    assert rep.c3prime_ok is True
    lorenz = equilibrium_exponents("lorenz", 10.0, 28.0, 8.0 / 3.0)
    rep = check_conditions(lin_model, coeffs_a, flow_exponents=lorenz)
    assert rep.c3prime_ok is False
    assert abs(rep.margins["c3prime_area"] + 5.219) < 1e-3
