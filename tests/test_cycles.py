from __future__ import annotations

import dataclasses
import hashlib
import json
import math
import time

import numpy as np
import pytest

from hetdim import cycles, saddle
from hetdim.cones import FRAME_MAX_SWEEPS, invariant_cu_subspace, return_chain
from hetdim.cycles import (PeriodTwoOrbit, certificate_to_dict, certificate_to_json,
                           closure_oracle_floor, closure_residual_forward, index2_criterion,
                           index2_reductions, orbit_index, orbit_jacobian_chain,
                           orbit_multipliers, orbit_to_unknowns, replay_certificate_dict,
                           solve_hetdim_general, solve_hetdim_symmetric, solve_period2,
                           solve_period2_with_s, verify_transverse_connection,
                           _connection_gap, _orbit_from_unknowns, _period2_residual,
                           _period2_seed, _return_block)
from hetdim.errors import ContractError, ConvergenceError, NumericalError, ValidationError
from hetdim.global_map import coeffs_from_json, first_return_array, t1_array, t1_tilde_array
from hetdim.numerics import newton_1d
from hetdim.presets import (battery_coeffs, battery_model, battery_pairs, hetdim_coeffs,
                            hetdim_model, hetdim_schedule)
from hetdim.saddle import SplitVector, model_from_json, reflect_array, t0_array


@pytest.fixture(scope="module")
def bat():
    return battery_model(), battery_coeffs()


def test_forward_iteration_oracle(bat):
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, 14, 12, 0.0)
    res = closure_residual_forward(model, coeffs.with_mu(orbit.mu),
                                   orbit.points["Q01"].as_array(), 14, 12)
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
        orbit = solve_period2_with_s(model, coeffs, k, m, 0.45)
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


@pytest.mark.parametrize("k,m", [(14, 12), (18, 14), (22, 18), (24, 22)])
@pytest.mark.parametrize("s", [0.0, 0.9])
def test_solve_period2_from_its_static_balance_seed(k, m, s, bat):
    # unseeded, solve_period2 starts from the static balance of the closure
    # at its fixed mu and finds the orbit solve_period2_with_s found there
    # (at s = -0.9 it lands on the other branch, eta1 of opposite sign)
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, k, m, s)
    fixed = solve_period2(model, coeffs.with_mu(orbit.mu), k, m)
    for name, p in orbit.points.items():
        assert np.max(np.abs(fixed.points[name].as_array() - p.as_array())) < 1e-9, name


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
    s_rec, _, match = index2_criterion(model, coeffs, orbit)
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
        gap, _ = _connection_gap(model, co_p, co_p, mu_p, orb.points["Q02"].as_array(), m,
                                 orb.eta[0])
        gaps.append(abs(gap))
    assert gaps[0] < 1e-8
    assert all(a < b for a, b in zip(gaps, gaps[1:]))


def test_symmetric_twin_cycle(hetdim_certificates):
    cert = hetdim_certificates[0]
    model = model_from_json(cert.model_spec)
    cm = coeffs_from_json(cert.coeffs_spec)
    k, m = cert.orbit.itinerary
    v = reflect_array(model, cert.orbit.points["Q01"].as_array())
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


def test_nonlinear_cycle_certifies_replays_and_crosses():
    # the polynomial_symmetric tier: the leaf slopes come from full return
    # chains rather than the linear tier's two-factor chain
    model, coeffs = hetdim_model(tier="polynomial_symmetric"), hetdim_coeffs()
    cert = solve_hetdim_symmetric(model, coeffs, 12, 10, s_target=0.0)
    doc = json.loads(certificate_to_json(cert))
    assert replay_certificate_dict(doc)["all_ok"]
    tw = verify_transverse_connection(model, coeffs, cert)
    assert tw["found"] and tw["iterations_used"] <= 50
    # certificates written before the checked leaf march carry
    # "leaf_steps": null in their quasi_connection; replay still accepts them
    doc["quasi_connection"]["leaf_steps"] = None
    assert replay_certificate_dict(doc)["all_ok"]


# sha256 of the (12,10) certificate's JSON as written under fixed row
# tolerances (numpy 2.4 on x86-64): there every measured float floor lies
# under its fixed tolerance, so the floor rule leaves it bit for bit
CYCLE_12_10_SHA256 = "015a83463de164302031ed6dc04e273a56e615f96669038d91143fc9602e3d80"


def test_cycle_newton_stops_at_its_rows_float_floors(monkeypatch):
    # each row stops at twice its float floor measured at the seed, capped by
    # its accept floor: the cycle Newton converges before its iteration cap
    # along the schedule, where it would otherwise random-walk to the cap
    solve, iterations = cycles.newton_solve, {}

    def recorded(f, u0, **kwargs):
        out = solve(f, u0, **kwargs)
        iterations[kwargs["name"]] = (out[2], kwargs["max_iter"])
        return out

    monkeypatch.setattr(cycles, "newton_solve", recorded)
    model, coeffs = hetdim_model(), hetdim_coeffs()
    certs = {}
    for k, m in hetdim_schedule():
        certs[k, m] = solve_hetdim_symmetric(model, coeffs, k, m, s_target=0.0)
        used, cap = iterations[f"heterodimensional cycle (k={k}, m={m})"]
        assert used < cap, (k, m)
    digest = hashlib.sha256(certificate_to_json(certs[12, 10]).encode()).hexdigest()
    assert digest == CYCLE_12_10_SHA256
    deep = certs[36, 30]
    assert deep.residuals["closure"] < 1e-10
    assert replay_certificate_dict(json.loads(certificate_to_json(deep)))["all_ok"]


# sha256 of the certificates' JSON along the schedule (numpy 2.4 on
# x86-64): the check of a solution against the certificate's tolerances
# leaves every certificate it passes bit for bit
SCHEDULE_SHA256 = {
    (12, 10): CYCLE_12_10_SHA256,
    (24, 20): "5e6dab01893171602bc4be53ab0a0036c0236eab584e2727d640c7b884f76108",
    (36, 30): "3e0b4dd43b0cad445bfed3484056865158f7b99c7ff9e2b16249c91c2af9f077",
}


def test_cycle_solver_raises_where_its_certificate_would_not_replay(hetdim_certificates):
    # on the linear tier at (48, 40) the Newton accepts rows on floors that
    # leave the closure at 1.1e-8, above the certificate's 1e-10: the solver
    # raises, naming every row's |F|/tol, instead of returning a certificate
    # whose replay fails
    start = time.perf_counter()
    with pytest.raises(ConvergenceError, match=r"k=48, m=40\).*closure.*\|F\|/tol per row"):
        solve_hetdim_symmetric(hetdim_model(), hetdim_coeffs(), 48, 40, s_target=0.0)
    assert time.perf_counter() - start < 0.5
    digests = {tuple(c.orbit.itinerary): hashlib.sha256(certificate_to_json(c).encode())
               .hexdigest() for c in hetdim_certificates}
    assert digests == SCHEDULE_SHA256


def test_transverse_connection_iteration_bound(hetdim_certificates, het):
    # crossing within ceil(log(delta / r0) / log(factor^(1/2))) + 5 returns
    model, coeffs = het
    cert = hetdim_certificates[0]
    tw = verify_transverse_connection(model, coeffs, cert)
    factor = tw["predicted_first_factor"]
    bound = int(np.ceil(np.log(0.1 / tw["r0"]) / np.log(np.sqrt(factor)))) + 5
    assert tw["iterations_used"] <= bound


def _assert_return_block_is_per_row(cert, tier):
    # a disk around Q01 of the (12,10) certificate, plus a start outside the
    # box, a row that leaves it on the way and one whose exit misses Pi1
    spec = {**cert.model_spec, "nonlinearity": {"kind": tier, "eps": 0.05}}
    model, cm = model_from_json(spec), coeffs_from_json(cert.coeffs_spec)
    k, m = cert.orbit.itinerary
    q = cert.orbit.points["Q01"].as_array()
    E = invariant_cu_subspace(return_chain(model, cm, q, [k, m])).subspace
    phis = np.linspace(0.0, 2.0 * np.pi, 8, endpoint=False)
    disk = q + 1e-9 * (np.cos(phis)[:, None] * E[:, 0] + np.sin(phis)[:, None] * E[:, 1])
    extra = np.array([[1.5, q[1], q[2]], q * [1.0, 3.0, 1.0], q * [1.0, 0.8, 1.0]])
    pts = np.concatenate((disk, extra))
    blocks = {stay: _return_block(model, cm, pts, stay) for stay in (k, m)}
    for stay, (exits, images) in blocks.items():
        for p, e, img in zip(pts, exits, images):
            try:
                ref_exit = saddle.orbit(model, p, stay)[-1, 1]
            except NumericalError:
                assert np.isnan(e) and np.isnan(img).all()
                continue
            assert e.tobytes() == ref_exit.tobytes()
            try:
                ref_img, _ = first_return_array(model, cm, p, stay, with_jacobian=False)
            except NumericalError:
                assert np.isnan(img).all()
                continue
            assert img.tobytes() == ref_img.tobytes()
    # every kind of row occurs: at stay k the disk returns, the first two
    # extra rows leave the box and the last one misses Pi1; at stay m the
    # disk misses Pi1
    exits, images = blocks[k]
    assert np.isfinite(images[:-3]).all()
    assert np.isnan(exits[-3:-1]).all() and np.isfinite(exits[-1])
    assert np.isnan(images[-1]).all()
    exits, images = blocks[m]
    assert np.isfinite(exits[:-3]).all() and np.isnan(images[:-3]).all()


def test_return_block_matches_single_point_returns(hetdim_certificates):
    # the linear tier takes the stay as one block
    _assert_return_block_is_per_row(hetdim_certificates[0], "linear")


def test_nonlinear_return_block_matches_single_point_returns(hetdim_certificates):
    # the nonlinear tiers step the block row by row
    _assert_return_block_is_per_row(hetdim_certificates[0], "polynomial_symmetric")


def _leading_plane(chain: np.ndarray, mp) -> np.ndarray:
    """Orthonormal basis of the span of the two leading eigenvectors of the
    chain's product, formed and solved at 120 digits."""
    with mp.workdps(120):
        M = mp.eye(chain.shape[1])
        for J in chain:
            M = mp.matrix(J.tolist()) * M
        vals, vecs = mp.eig(M)
        lead = sorted(range(len(vals)), key=lambda i: -abs(vals[i]))[:2]
        if mp.im(vals[lead[0]]) != 0:
            cols = [vecs[:, lead[0]].apply(mp.re), vecs[:, lead[0]].apply(mp.im)]
        else:
            cols = [vecs[:, i].apply(mp.re) for i in lead]
        q1 = cols[0] / mp.norm(cols[0])
        q2 = cols[1] - (q1.T * cols[1])[0] * q1
        q2 = q2 / mp.norm(q2)
        return np.array([[float(q1[i]), float(q2[i])] for i in range(chain.shape[1])])


@pytest.mark.parametrize("index,bound", [(0, 1e-12), (1, 1e-7), (2, 1e-5)])
def test_cu_frame_matches_high_precision_eigenvectors(hetdim_certificates, index, bound):
    # the plane verify_transverse_connection grows its disk in, against the
    # 120-digit leading eigenvectors of the same float chain: sin of the
    # largest principal angle; the frame converges within a few sweeps
    mp = pytest.importorskip("mpmath")
    cert = hetdim_certificates[index]
    model, cm = model_from_json(cert.model_spec), coeffs_from_json(cert.coeffs_spec)
    chain = return_chain(model, cm, cert.orbit.points["Q01"].as_array(),
                         list(cert.orbit.itinerary))
    cu = invariant_cu_subspace(chain)
    E, Q = _leading_plane(chain, mp), cu.subspace
    assert np.linalg.norm(Q - E @ (E.T @ Q), 2) < bound
    assert cu.iterations < FRAME_MAX_SWEEPS


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


def test_certificate_with_the_retired_null_connection_key_replays(hetdim_certificates):
    # certificates written before the always-null "transverse_connection"
    # field was dropped still carry it; replay ignores the key
    doc = json.loads(certificate_to_json(hetdim_certificates[0]))
    assert "transverse_connection" not in doc
    doc["transverse_connection"] = None
    assert replay_certificate_dict(doc)["all_ok"]


def test_replay_reproduces_recorded_residuals(hetdim_certificates):
    # replay evaluates the certified point itself, so every recorded residual
    # comes back bit for bit, and so do the multipliers
    for cert in hetdim_certificates[:2]:
        doc = json.loads(certificate_to_json(cert))
        checks = replay_certificate_dict(doc)
        assert checks["closure"]["value"] == cert.residuals["closure"]
        assert checks["gap"]["value"] == cert.residuals["gap"]
        pts = {name: SplitVector(v[0], v[1], np.array(v[2:]))
               for name, v in doc["points"].items()}
        orbit = PeriodTwoOrbit(points=pts, itinerary=tuple(doc["itinerary"]),
                               eta=tuple(doc["eta"]), mu=doc["coeffs"]["mu"],
                               closure_residual=0.0)
        mults = orbit_multipliers(orbit_jacobian_chain(model_from_json(doc["model"]),
                                                       coeffs_from_json(doc["coeffs"]), orbit))
        assert [complex(e) for e in mults] == cert.index_evidence


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


# ---------------------------------------------------------------------------
# the per-leg layout against the two legs written out row by row


def _d4_lab():
    from test_kernels import _d4_coeffs
    from hetdim.presets import d4_model
    return d4_model(), _d4_coeffs()


def _reference_residual(model, cm, u, k, m, s):
    """The closure and index rows with both legs spelled out."""
    nz = model.dim - 2
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    p1 = np.concatenate(([cm.x_plus + u[0], u[1] / gam ** k], cm.z_plus + u[2:2 + nz]))
    p2 = np.concatenate(([cm.x_plus + u[2 + nz], u[3 + nz] / gam ** m],
                         cm.z_plus + u[4 + nz:4 + 2 * nz]))
    e1, e2 = saddle.orbit(model, p1, k)[-1], saddle.orbit(model, p2, m)[-1]
    A, B = t1_array(cm, e1), t1_array(cm, e2)
    r = np.empty(2 * model.dim + 1)
    r[0] = A[0] - p2[0]
    r[1] = A[1] * gam ** m - u[3 + nz]
    r[2:2 + nz] = A[2:] - p2[2:]
    r[2 + nz] = B[0] - p1[0]
    r[3 + nz] = B[1] * gam ** k - u[1]
    r[4 + nz:-1] = B[2:] - p1[2:]
    eta1, eta2 = float(e1[1] - cm.y_minus), float(e2[1] - cm.y_minus)
    scale = lam ** (k + m)
    shift = cm.b * cm.c / (4.0 * cm.d ** 2) * (lam ** k * gam ** (-k) + lam ** m * gam ** (-m))
    r[-1] = (eta1 * eta2 - s * scale - shift) / scale
    return r, eta1, (p1, e1, p2, e2)


@pytest.fixture(scope="module")
def layout_cases():
    """(model, coeffs at the orbit's mu, k, m, s, solved orbit): the battery
    at (20,16) and the D=4 linear lab at (14,12)."""
    cases = []
    for (model, coeffs), (k, m), s in (((battery_model(), battery_coeffs()), (20, 16), 0.45),
                                       (_d4_lab(), (14, 12), 0.0)):
        orbit = solve_period2_with_s(model, coeffs, k, m, s)
        cases.append((model, coeffs.with_mu(orbit.mu), k, m, s, orbit))
    return cases


def test_period2_residual_is_bit_identical_to_the_written_out_legs(layout_cases):
    # at the seed, its z offsets moved off zero, and at the solved orbit
    rng = np.random.default_rng(7)
    for model, cm, k, m, s, orbit in layout_cases:
        seed, _ = _period2_seed(model, cm, k, m, s)
        D = model.dim
        for j in (0, 1):
            seed[j * D + 2:(j + 1) * D] = 1e-3 * rng.standard_normal(D - 2)
        for u in (seed, orbit_to_unknowns(model, cm, orbit)):
            ref, eta1_ref, (_, _, p2, _) = _reference_residual(model, cm, u, k, m, s)
            r, eta1, Q02 = _period2_residual(model, cm, u, k, m, s)
            assert r.tobytes() == ref.tobytes()
            assert eta1 == eta1_ref and Q02.tobytes() == p2.tobytes()


def test_orbit_from_unknowns_is_bit_identical_to_the_written_out_legs(layout_cases):
    for model, cm, k, m, s, orbit in layout_cases:
        u = orbit_to_unknowns(model, cm, orbit)
        _, eta1_ref, (p1, e1, p2, e2) = _reference_residual(model, cm, u, k, m, s)
        solved = _orbit_from_unknowns(model, cm, u, k, m)
        for name, p in zip(("Q01", "Q11", "Q02", "Q12"), (p1, e1, p2, e2)):
            assert solved.points[name].as_array().tobytes() == p.tobytes(), name
        assert solved.eta == (eta1_ref, float(e2[1] - cm.y_minus))
        v, _ = first_return_array(model, cm, p1, k, with_jacobian=False)
        v, _ = first_return_array(model, cm, v, m, with_jacobian=False)
        assert solved.closure_residual == float(np.max(np.abs(v - p1)))


def test_orbit_to_unknowns_is_bit_identical_to_the_written_out_legs(layout_cases):
    for model, cm, k, m, _, orbit in layout_cases:
        gam = model.multipliers.gamma
        Q01, Q02 = orbit.points["Q01"], orbit.points["Q02"]
        ref = np.concatenate(([Q01.x - cm.x_plus, Q01.y * gam ** k], Q01.z - cm.z_plus,
                              [Q02.x - cm.x_plus, Q02.y * gam ** m], Q02.z - cm.z_plus))
        assert orbit_to_unknowns(model, cm, orbit).tobytes() == ref.tobytes()


def test_index2_criterion_leaves_the_recorded_target(bat):
    model, coeffs = bat
    orbit = solve_period2_with_s(model, coeffs, 16, 14, 0.45)
    s, _, _ = index2_criterion(model, coeffs, orbit)
    assert s != 0.45 and orbit.s_value == 0.45


# ---------------------------------------------------------------------------
# the transverse crossing


def _crossing_witness(monkeypatch, model, coeffs, cert):
    """The witness, and the segment the crossing Newton searched along."""
    calls = []

    def recorded(f, t0, **kw):
        calls.append(f)
        return newton_1d(f, t0, **kw)

    monkeypatch.setattr(cycles, "newton_1d", recorded)
    tw = verify_transverse_connection(model, coeffs, cert)
    monkeypatch.undo()
    f = calls[-1]
    return tw, f(0.0)[2], f(1.0)[2]


def test_transverse_crossing_lands_on_the_boundary_sheet(hetdim_certificates, het,
                                                         monkeypatch):
    model, coeffs = het
    for cert in hetdim_certificates:
        tw, p_lo, p_hi = _crossing_witness(monkeypatch, model, coeffs, cert)
        assert tw["found"]
        mdl = model_from_json(cert.model_spec)
        level, stay = tw["boundary_level"], tw["stay"]
        p = np.array(tw["crossing_point"])
        traj = saddle.orbit(mdl, p, stay)
        # the exit height is the boundary level up to a few ulp
        assert abs(traj[-1, 1] - level) <= 4 * np.spacing(level)
        # and the recorded slope is the exact derivative along the segment there
        seg = p_hi - p_lo
        fresh = abs(float(saddle.jacobian_along(mdl, traj)[1] @ seg)) / np.linalg.norm(seg)
        assert abs(tw["crossing_slope"] / fresh - 1.0) < 1e-12


@pytest.mark.parametrize("index", [0, 1, 2])
def test_transverse_verdict_holds_under_ulp_moves_of_Q01(hetdim_certificates, het, index):
    # the crossing is found after the same number of returns when any
    # coordinate of Q01 moves by one ulp either way; at (36,30) the disk
    # radius is below the float spacing of Q01
    model, coeffs = het
    cert = hetdim_certificates[index]
    ref = verify_transverse_connection(model, coeffs, cert)
    q = cert.orbit.points["Q01"].as_array()
    for i in range(len(q)):
        for direction in (-np.inf, np.inf):
            moved = q.copy()
            moved[i] = np.nextafter(q[i], direction)
            points = {**cert.orbit.points, "Q01": SplitVector.from_array(moved)}
            shifted = dataclasses.replace(cert, orbit=dataclasses.replace(cert.orbit,
                                                                          points=points))
            tw = verify_transverse_connection(model, coeffs, shifted)
            assert tw["found"] and tw["iterations_used"] == ref["iterations_used"], (i, direction)
