from __future__ import annotations

import dataclasses
import json
import math

import numpy as np
import pytest

from hetdim.cycles import (certificate_to_dict, certificate_to_json, closure_oracle_floor,
                           closure_residual_forward, index2_criterion, index2_reductions,
                           orbit_index, orbit_to_unknowns, replay_certificate_dict,
                           solve_hetdim_general, solve_hetdim_symmetric, solve_period2,
                           solve_period2_with_s, verify_transverse_connection,
                           _connection_gap, _period2_seed)
from hetdim.errors import ContractError, ValidationError
from hetdim.global_map import coeffs_from_json, t1_tilde_array
from hetdim.presets import (battery_coeffs, battery_model, battery_pairs, hetdim_coeffs,
                            hetdim_model, hetdim_schedule)
from hetdim.saddle import apply_symmetry, model_from_json, t0_array


@pytest.fixture(scope="module")
def bat():
    return battery_model(), battery_coeffs()


def test_forward_iteration_oracle(bat):
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, 14, 12, 0.0)
    res = closure_residual_forward(model, coeffs.with_mu(orbit.mu),
                                   orbit.points["Q01"], 14, 12)
    assert res < 1e-10
    assert res == orbit.closure_residual


def test_forward_oracle_within_floor_at_deep_itinerary(bat):
    # the gamma^m amplification bounds what the forward oracle can resolve
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, 24, 22, 0.0)
    assert orbit.closure_residual < closure_oracle_floor(model, coeffs, 24, 22)


def test_leg_consistency(bat):
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, 14, 12, 0.45)
    cm = coeffs.with_mu(orbit.mu)
    v = orbit.points["Q01"].as_array()
    for _ in range(14):
        v = t0_array(model, v)
    assert np.max(np.abs(v - orbit.points["Q11"].as_array())) < 1e-11
    from hetdim.global_map import t1_array
    v = t1_array(cm, v)
    assert np.max(np.abs(v - orbit.points["Q02"].as_array())) < 1e-11
    for _ in range(12):
        v = t0_array(model, v)
    assert np.max(np.abs(v - orbit.points["Q12"].as_array())) < 1e-11


def _seed_cases():
    for k, m in battery_pairs():
        for s in (-0.9, 0.0, 0.9):
            yield pytest.param("battery", k, m, s, id=f"battery-k{k}-m{m}-s{s:+.1f}")
    for k, m in hetdim_schedule():
        yield pytest.param("hetdim", k, m, 0.0, id=f"hetdim-k{k}-m{m}")


@pytest.mark.parametrize("lab,k,m,s", _seed_cases())
def test_period2_seed_lands_on_the_solved_branch(lab, k, m, s):
    # c d x+ > 0 on both labs: the large exit offset belongs on eta1
    if lab == "battery":
        model, coeffs = battery_model(), battery_coeffs()
    else:
        # the cycle solver's phase A solves at the gamma of the
        # lambda^k gamma^m = 2 y- / (c x+) relation
        coeffs = hetdim_coeffs()
        ratio = 2.0 * coeffs.y_minus / (coeffs.c * coeffs.x_plus)
        lam = hetdim_model().multipliers.lam
        model = hetdim_model(gamma=math.exp((math.log(ratio) - k * math.log(lam)) / m))
    u, mu = _period2_seed(model, coeffs, k, m, s)
    eta = (u[1] - coeffs.y_minus, u[model.dim + 1] - coeffs.y_minus)
    orbit = solve_period2_with_s(model, coeffs, k, m, s)
    # the default branch -1 is the orbit with eta2 < 0, not its mirror
    # (-eta1, -eta2), which satisfies the same index relation
    assert orbit.eta[1] < 0.0
    assert np.array_equal(np.sign(eta), np.sign(orbit.eta))
    assert abs(eta[0] / orbit.eta[0] - 1.0) < 0.5
    assert abs(mu / orbit.mu - 1.0) < 0.5


def test_eta_magnitudes_cycle_regime(hetdim_certificates):
    # in the cycle regime one exit offset follows lambda^(m/2) sqrt(c x+ / d)
    # and the other is suppressed; the solver may land on the k <-> m
    # mirrored branch, so the magnitudes are checked as a set
    for cert in hetdim_certificates[:2]:
        model = model_from_json(cert.model_spec)
        cm = coeffs_from_json(cert.coeffs_spec)
        k, m = cert.orbit.itinerary
        lam = model.multipliers.lam
        scale = abs(lam) ** (m / 2) * np.sqrt(cm.c * cm.x_plus / cm.d)
        big = max(abs(e) for e in cert.orbit.eta)
        small = min(abs(e) for e in cert.orbit.eta)
        assert abs(big / scale - 1.0) < 0.3
        assert small < 0.05 * big


def test_eta_magnitudes_cdx_neg_regime():
    # cdx+ < 0 variant: the large offset follows lambda^(m/2) sqrt|c x+ / d|
    # with o(1) corrections shrinking along the schedule
    from hetdim.presets import hetdim_model as hm, hetdim_coeffs as hc
    model = hm()
    coeffs = dataclasses.replace(hc(), c=-2.0)
    lam = model.multipliers.lam
    devs = []
    for (k, m) in ((14, 12), (18, 16), (22, 20)):
        orbit = solve_period2_with_s(model, coeffs, k, m, 0.45, branch=-1)
        scale = abs(lam) ** (m / 2) * np.sqrt(abs(coeffs.c * coeffs.x_plus / coeffs.d))
        big = max(abs(e) for e in orbit.eta)
        small = min(abs(e) for e in orbit.eta)
        assert small < 0.01 * big
        devs.append(abs(big / scale - 1.0))
    assert all(b < a for a, b in zip(devs, devs[1:]))
    assert devs[-1] < 0.3


def test_parity_and_order_validation(bat):
    model, coeffs = bat
    with pytest.raises(ValidationError, match="itinerary parity: k must be even"):
        solve_period2(model, coeffs, 13, 10)
    with pytest.raises(ValidationError, match="itinerary order"):
        solve_period2(model, coeffs, 12, 14)


def test_fixed_point_index_is_one(bat):
    model, _ = bat
    mult = model.multipliers
    J = np.diag([mult.lam, mult.gamma, *mult.strong])
    moduli = np.abs(np.linalg.eigvals(J))
    assert int(np.sum(moduli > 1.0)) == 1


def test_index_two_at_interior_s(bat):
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, 16, 14, 0.0)
    assert orbit_index(model, coeffs, orbit) == 2


@pytest.mark.parametrize("s", [2.0, -2.0])
def test_index_not_two_outside_window(s, bat):
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, 16, 14, s)
    s_rec, match = index2_criterion(model, coeffs, orbit)
    assert abs(s_rec - s) < 1e-6
    assert match
    assert orbit_index(model, coeffs, orbit) != 2


def test_reductions_match_closed_forms(bat):
    model, coeffs = bat
    bc = coeffs.b * coeffs.c
    for (k, m) in ((18, 16), (20, 18)):
        orbit = solve_period2_with_s(model, coeffs, k, m, 0.45)
        red = index2_reductions(model, coeffs, orbit)
        assert abs(red["trace"] / red["trace_predicted"] - 1.0) < 0.1
        assert abs(red["C"] / (bc * bc) - 1.0) < 0.1


@pytest.fixture(scope="module")
def het():
    return hetdim_model(), hetdim_coeffs()


def test_symmetric_solver_requires_positive_product(het):
    model, coeffs = het
    bad = dataclasses.replace(coeffs, x_plus=-0.1)
    with pytest.raises(ContractError, match="c \\* x\\+ \\* y-"):
        solve_hetdim_symmetric(model, bad, 12, 10)


def test_symmetric_certificates_along_schedule(hetdim_certificates):
    certs = hetdim_certificates
    mus = [c.parameters["mu"] for c in certs]
    thetas = [c.parameters["theta"] for c in certs]
    theta_star = 5.0 / 6.0
    for cert in certs:
        assert cert.residuals["closure"] < 1e-10
        assert cert.residuals["gap"] < 1e-8
        assert sum(1 for e in cert.index_evidence if abs(e) > 1) == 2
        td = cert.theta_decomposition
        k, m = cert.orbit.itinerary
        gamma = cert.parameters["gamma"]
        lhs = cert.parameters["theta"]
        rhs = m / k - td["C_star"] / (k * np.log(abs(gamma)))
        assert abs(lhs - rhs) < 1e-10
    # accumulation: |mu_j| strictly decreasing, theta_j approaching theta*
    assert all(abs(b) < abs(a) for a, b in zip(mus, mus[1:]))
    gaps_to_star = [abs(t - theta_star) for t in thetas]
    assert all(b < a for a, b in zip(gaps_to_star, gaps_to_star[1:]))
    # lambda^k gamma^m -> 2 y- / (c x+) = 5
    assert abs(certs[-1].theta_decomposition["lambda_k_gamma_m"] / 5.0 - 1.0) < 0.05


def test_quasi_connection_opens_under_mu(hetdim_certificates):
    cert = hetdim_certificates[0]
    model = model_from_json(cert.model_spec)
    cm = coeffs_from_json(cert.coeffs_spec)
    k, m = cert.orbit.itinerary
    prev = cert.orbit
    gaps = []
    # the cycle sits at the orbit's fold in mu; the orbit persists for
    # decreasing mu and the gap opens monotonically over the 1e-4 excursion
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        mu_p = cm.mu - frac * 1e-4
        co_p = cm.with_mu(mu_p)
        orb = solve_period2(model, co_p, k, m, seed=orbit_to_unknowns(model, cm, prev))
        prev = orb
        gap, _ = _connection_gap(model, co_p, co_p, mu_p,
                                 orbit_to_unknowns(model, cm, orb), k, m, orb.eta[0])
        gaps.append(abs(gap))
    assert gaps[0] < 1e-8
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_symmetric_twin_cycle(hetdim_certificates):
    cert = hetdim_certificates[0]
    model = model_from_json(cert.model_spec)
    cm = coeffs_from_json(cert.coeffs_spec)
    k, m = cert.orbit.itinerary
    v = apply_symmetry(model, cert.orbit.points["Q01"]).as_array()
    w = v.copy()
    for _ in range(k):
        w = t0_array(model, w)
    w = t1_tilde_array(model, cm, w)
    for _ in range(m):
        w = t0_array(model, w)
    w = t1_tilde_array(model, cm, w)
    assert np.max(np.abs(w - v)) < 1e-10


def test_transverse_connection(hetdim_certificates, het):
    model, coeffs = het
    for cert in hetdim_certificates[:2]:
        tw = verify_transverse_connection(model, coeffs, cert)
        assert tw["found"]
        assert tw["iterations_used"] <= 50
        assert tw["crossing_slope"] > 1e-6
        assert tw["factor_measurable"]
        assert abs(tw["area_factors"][0] / tw["predicted_first_factor"] - 1.0) < 0.15


def test_transverse_connection_iteration_bound(hetdim_certificates, het):
    # crossing within ceil(log(delta / r0) / log(factor^(1/2))) + 5 returns
    model, coeffs = het
    cert = hetdim_certificates[0]
    tw = verify_transverse_connection(model, coeffs, cert)
    factor = tw["predicted_first_factor"]
    bound = int(np.ceil(np.log(0.1 / tw["r0"]) / np.log(np.sqrt(factor)))) + 5
    assert tw["iterations_used"] <= bound


def test_general_reproduces_symmetric(hetdim_certificates, het):
    model, coeffs = het
    cert_s = hetdim_certificates[0]
    cert_g = solve_hetdim_general(model, coeffs, coeffs, 12, 10, s_target=0.0)
    assert abs(cert_g.parameters["mu1"] - cert_g.parameters["mu2"]) < 1e-9
    assert abs(cert_g.parameters["mu1"] - cert_s.parameters["mu"]) < 1e-9
    assert abs(cert_g.parameters["theta"] - cert_s.parameters["theta"]) < 1e-9


def test_general_mu2_difference(het):
    model, coeffs = het
    coeffs2 = dataclasses.replace(coeffs, d=1.3)
    cert = solve_hetdim_general(model, coeffs, coeffs2, 12, 10, s_target=0.0)
    eta1 = cert.orbit.eta[0]
    pred = (coeffs.d - coeffs2.d * (coeffs.b / coeffs2.b) ** 2) * eta1 ** 2
    assert abs((cert.parameters["mu2"] - cert.parameters["mu1"]) - pred) < 1e-12
    assert cert.residuals["gap"] < 1e-8


def test_general_negative_ratio_fallback(het):
    model, coeffs = het
    c1 = dataclasses.replace(coeffs, x_plus=-0.1)
    c2 = dataclasses.replace(coeffs, x_plus=-0.1, d=1.3)
    cert = solve_hetdim_general(model, c1, c2, 12, 10, s_target=0.0)
    assert cert.residuals["gap"] < 1e-8
    assert sum(1 for e in cert.index_evidence if abs(e) > 1) == 2


def test_general_requires_shared_x_plus(het):
    model, coeffs = het
    other = dataclasses.replace(coeffs, x_plus=0.11)
    with pytest.raises(ValidationError, match="coincidence"):
        solve_hetdim_general(model, coeffs, other, 12, 10)


def test_certificate_replay_roundtrip(hetdim_certificates):
    cert = hetdim_certificates[0]
    doc = json.loads(certificate_to_json(cert))
    checks = replay_certificate_dict(doc)
    assert checks["all_ok"]


def test_certificate_replay_detects_perturbation(hetdim_certificates):
    cert = hetdim_certificates[0]
    doc = json.loads(certificate_to_json(cert))
    doc["coeffs"]["mu"] += 1e-3
    checks = replay_certificate_dict(doc)
    assert not checks["all_ok"]
    assert not checks["gap"]["ok"]


def test_certificate_replay_schema_guard(hetdim_certificates):
    doc = certificate_to_dict(hetdim_certificates[0])
    doc["schema_version"] = 999
    with pytest.raises(ValidationError, match="schema"):
        replay_certificate_dict(doc)


def test_certificate_replay_deterministic(hetdim_certificates):
    doc = certificate_to_dict(hetdim_certificates[0])
    a = replay_certificate_dict(json.loads(json.dumps(doc)))
    b = replay_certificate_dict(json.loads(json.dumps(doc)))
    assert a == b
