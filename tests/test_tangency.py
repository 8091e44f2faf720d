from __future__ import annotations

import warnings

import numpy as np
import pytest

from hetdim.global_map import first_return_array, t1_array, t1_jac_array
from hetdim.presets import forge_coeffs
from hetdim.tangency import (axis_jet, find_transverse_homoclinics, forge_admissible_tangency,
                             predicted_c_signs, secondary_c_coefficient,
                             solve_secondary_tangency, verify_tangency_branch,
                             branches_to_csv, double_return_y)

CASES = ["cdx_neg_d_neg", "cdx_pos_d_neg", "cdx_neg_d_pos", "cdx_pos_d_pos"]


@pytest.fixture(scope="module")
def stage_two_cert(lin_model):
    # the two-stage case forged at k = 12 alone: its branch is the tertiary
    # tangency of T1 o T0^j o T1 o T0^12 o T1
    cert = forge_admissible_tangency(lin_model, forge_coeffs("cdx_pos_d_pos"), [12])
    assert cert.stages == 2
    return cert


def test_axis_jet_without_stays_is_the_global_map(lin_model, coeffs_a):
    for mu in (0.0, 3.8e-5):
        cm = coeffs_a.with_mu(mu)
        for t in (-0.02, -1e-7, 0.0, 3e-4, 0.03):
            y = coeffs_a.y_minus + t
            v = np.array([0.0, y, 0.0])
            w, J = axis_jet(lin_model, cm, y, jacobian=True)
            assert np.array_equal(w, t1_array(cm, v))
            assert np.array_equal(J, t1_jac_array(cm, v))
            w, J = axis_jet(lin_model, cm, y)
            assert np.array_equal(w, t1_array(cm, v)) and J is None


def test_axis_jet_jacobian_matches_central_differences(lin_model, stage_two_cert):
    br = stage_two_cert.branch
    cm = forge_coeffs("cdx_pos_d_pos").with_mu(br.mu_k)
    y, h = br.preimage.y, 1e-9
    for stays in ((), (12,), (12, br.k)):
        _, J = axis_jet(lin_model, cm, y, stays, jacobian=True)
        fd = (axis_jet(lin_model, cm, y + h, stays)[0]
              - axis_jet(lin_model, cm, y - h, stays)[0]) / (2.0 * h)
        scale = np.max(np.abs(J[:, 1]))
        assert np.max(np.abs(fd - J[:, 1])) < 1e-6 * scale, stays


def _fd_c_coefficient(model, coeffs, br):
    """Reference d(G_y)/dx by central differences: an x-probe of
    T1 o T0^k o T1 at the preimage, its step kept inside the stay-k strip."""
    cm = coeffs.with_mu(br.mu_k)
    gam = abs(model.multipliers.gamma)
    h = min(1e-7, 1e-3 * coeffs.delta * gam ** (-br.k) / max(abs(coeffs.c), 1.0))

    def g_y(dx):
        v = br.preimage.as_array()
        v[0] += dx
        out, _ = first_return_array(model, cm, t1_array(cm, v), br.k, with_jacobian=False)
        return out[1]

    return (g_y(h) - g_y(-h)) / (2.0 * h)


@pytest.mark.parametrize("case", CASES)
def test_c_coefficient_agrees_with_finite_differences(case, lin_model):
    # the FD probe loses digits to cancellation as k grows (3.5e-5 relative
    # at k = 18 in the c*d*x+ > 0 cases); the sign never differs
    coeffs = forge_coeffs(case)
    for k in range(12, 19, 2):
        for br in solve_secondary_tangency(lin_model, coeffs, k):
            c = secondary_c_coefficient(lin_model, coeffs, br)
            ref = _fd_c_coefficient(lin_model, coeffs, br)
            assert np.sign(c) == np.sign(ref)
            assert abs(c / ref - 1.0) < 1e-4, (k, br.branch)


def test_stage_two_certificate_fields_are_floats(stage_two_cert):
    cert = stage_two_cert
    values = [cert.c_product, cert.branch.mu_k, cert.branch.preimage.y,
              cert.witnesses["below"].preimage.y, cert.witnesses["above"].preimage.y]
    assert all(type(v) is float for v in values)


def test_scaled_limit_systems():
    # the two limit systems have the stated exact solutions
    for U, V in ((1.0, 1.0), (-1.0, -1.0)):
        assert U * V == 1.0 and V * V == 1.0  # 1 = UV, 1 = V^2
        assert U * V == 1.0 and U * U == 1.0  # 1 = UV, 1 = U^2


@pytest.mark.parametrize("case", CASES)
def test_branches_solve_and_verify(case, lin_model):
    coeffs = forge_coeffs(case)
    for k in (12, 16):
        branches = solve_secondary_tangency(lin_model, coeffs, k)
        assert len(branches) == 2
        for br in branches:
            assert br.residual < 1e-11
            value, slope, second, voff = verify_tangency_branch(lin_model, coeffs, br)
            assert value < 1e-9 and slope < 1e-9
            assert voff < 1e-6          # direct-path vertex sits at t*
            assert abs(second) > 1.0    # quadratic contact, not higher order


def test_parity_required(lin_model, coeffs_a):
    with pytest.raises(ValueError, match="itinerary parity: k must be even"):
        solve_secondary_tangency(lin_model, coeffs_a, 13)


@pytest.mark.parametrize("case,asym", [
    ("cdx_neg_d_neg", "gamma"),   # mu_k = y- gamma^-k (1 + o(1))
    ("cdx_pos_d_neg", "lambda"),  # mu_k = -c x+ lambda^k (1 + o(1))
])
def test_mu_asymptotics(case, asym, lin_model):
    coeffs = forge_coeffs(case)
    lam, gam = lin_model.multipliers.lam, lin_model.multipliers.gamma
    devs = []
    for k in range(12, 25, 2):
        br = solve_secondary_tangency(lin_model, coeffs, k)[0]
        target = (coeffs.y_minus * gam ** (-k) if asym == "gamma"
                  else -coeffs.c * coeffs.x_plus * lam ** k)
        devs.append(abs(br.mu_k / target - 1.0))
    assert devs[0] < 0.2
    assert all(b < a for a, b in zip(devs, devs[1:]))


def test_solution_magnitudes_cdx_neg(lin_model):
    # Y^i = +-lambda^(k/2) sqrt|c x+ / d| (1 + o(1))
    coeffs = forge_coeffs("cdx_neg_d_neg")
    lam = lin_model.multipliers.lam
    for k in (16, 20):
        b1, b2 = solve_secondary_tangency(lin_model, coeffs, k)
        scale = lam ** (k // 2) * np.sqrt(abs(coeffs.c * coeffs.x_plus / coeffs.d))
        assert abs(b1.Y / scale - 1.0) < 0.2
        assert abs(b2.Y / scale + 1.0) < 0.2


@pytest.mark.parametrize("case", CASES)
def test_branch_sign_law(case, lin_model):
    coeffs = forge_coeffs(case)
    for k in (12, 16, 20):
        b1, b2 = solve_secondary_tangency(lin_model, coeffs, k)
        s1 = int(np.sign(secondary_c_coefficient(lin_model, coeffs, b1)))
        s2 = int(np.sign(secondary_c_coefficient(lin_model, coeffs, b2)))
        assert s1 == -s2
        assert (s1, s2) == predicted_c_signs(lin_model, coeffs, k)


def test_split_pair_positions(lin_model):
    # mu d < 0: two transverse points at x = x+ +- b sqrt(-mu/d) + o(1)
    coeffs = forge_coeffs("cdx_neg_d_neg")
    mu = 3.8e-5  # anywhere in the split regime (d < 0 here)
    pts = find_transverse_homoclinics(lin_model, coeffs, mu)
    assert len(pts) == 2
    off = coeffs.b * np.sqrt(-mu / coeffs.d)
    xs = sorted(p.point.x for p in pts)
    assert abs(xs[0] - (coeffs.x_plus - off)) < 1e-12
    assert abs(xs[1] - (coeffs.x_plus + off)) < 1e-12
    for p in pts:
        assert abs(p.point.y) < 1e-15          # on the local stable manifold
        assert abs(p.slope) > 1e-6             # transversality


def test_quartet_positions(lin_model):
    # mu = 0, even k: four points with y = gamma^-k (y- +- lambda^(k/2)
    # sqrt|c x+ / d|) + o(gamma^-k)
    coeffs = forge_coeffs("cdx_neg_d_pos")
    lam, gam = lin_model.multipliers.lam, lin_model.multipliers.gamma
    k = 14
    pts = find_transverse_homoclinics(lin_model, coeffs, 0.0, k_range=[k])
    assert len(pts) == 4
    dy = lam ** (k / 2) * np.sqrt(abs(coeffs.c * coeffs.x_plus / coeffs.d))
    ys = sorted(p.point.y for p in pts)
    lower = gam ** (-k) * (coeffs.y_minus - dy)
    upper = gam ** (-k) * (coeffs.y_minus + dy)
    assert abs(ys[0] / lower - 1.0) < 0.05 and abs(ys[1] / lower - 1.0) < 0.05
    assert abs(ys[2] / upper - 1.0) < 0.05 and abs(ys[3] / upper - 1.0) < 0.05
    for p in pts:
        assert abs(p.slope) > 1e-6


def test_double_return_has_quadratic_minimum(lin_model, coeffs_a):
    # at the solved mu the composed return touches {y = 0} quadratically
    br = solve_secondary_tangency(lin_model, coeffs_a, 12)[0]
    cm = coeffs_a.with_mu(br.mu_k)
    ts = br.t_param + np.linspace(-5e-4, 5e-4, 21)
    vals = [abs(double_return_y(lin_model, cm, float(t), 12)) for t in ts]
    assert min(vals) < 1e-10
    _, _, second, _ = verify_tangency_branch(lin_model, coeffs_a, br)
    assert abs(second) > 1.0


@pytest.mark.parametrize("case,stages", [
    ("cdx_neg_d_neg", 1),
    ("cdx_pos_d_neg", 1),
    ("cdx_neg_d_pos", 1),
    ("cdx_pos_d_pos", 2),
])
def test_forge_pipeline(case, stages, lin_model):
    coeffs = forge_coeffs(case)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        cert = forge_admissible_tangency(lin_model, coeffs, [12, 14, 16])
    # quartet seeds that fail to polish are recorded, not warned about: four
    # at each of k = 14, 16 in the two-stage case
    dropped = [msg for msg in cert.diagnostics if "failed to converge" in msg]
    assert len(dropped) == (8 if case == "cdx_pos_d_pos" else 0)
    assert all(msg.startswith(("quartet(k=14) seed", "quartet(k=16) seed")) for msg in dropped)
    assert cert.straddle_ok and cert.csign_ok
    assert cert.c_product > 0.0
    assert cert.stages == stages
    below = cert.witnesses["below"].preimage.y
    above = cert.witnesses["above"].preimage.y
    assert below < cert.branch.preimage.y < above
    assert len(cert.branch.transverse_points) == 2


def test_forge_with_cubic_h_term(lin_model):
    # the optional cubic term of h2 must not break the solvers
    coeffs = forge_coeffs("cdx_neg_d_neg", e3=0.3)
    cert = forge_admissible_tangency(lin_model, coeffs, [12, 14])
    assert cert.straddle_ok and cert.c_product > 0.0
    b1, b2 = solve_secondary_tangency(lin_model, coeffs, 14)
    assert b1.residual < 1e-11 and b2.residual < 1e-11
    s1 = np.sign(secondary_c_coefficient(lin_model, coeffs, b1))
    s2 = np.sign(secondary_c_coefficient(lin_model, coeffs, b2))
    assert s1 == -s2


def test_forge_on_polynomial_tier(poly_model):
    coeffs = forge_coeffs("cdx_neg_d_neg")
    cert = forge_admissible_tangency(poly_model, coeffs, [12, 14])
    assert cert.straddle_ok and cert.c_product > 0.0


def test_csv_emission(lin_model, coeffs_a):
    branches = solve_secondary_tangency(lin_model, coeffs_a, 12)
    csv = branches_to_csv(branches)
    lines = csv.strip().split("\n")
    assert lines[0] == "k,branch,mu_k,X,Y,c_sign,straddle_ok,residual"
    assert len(lines) == 3
