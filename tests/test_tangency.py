from __future__ import annotations

import dataclasses
import hashlib
import json
import warnings
from itertools import islice

import numpy as np
import pytest
from test_kernels import _d4_forge_coeffs

from hetdim import runner, tangency
from hetdim.errors import ConvergenceError, ValidationError
from hetdim.global_map import axis_jet, first_return_array, t1_array, t1_jac_array
from hetdim.numerics import fd_jacobian, fold_tol
from hetdim.presets import base_model, d4_model, forge_coeffs
from hetdim.tangency import (ROOT_TOL, SLOPE_MIN, curve_points,
                             find_transverse_homoclinics, forge_admissible_tangency,
                             predicted_c_signs, quartet_stays, solve_secondary_tangency,
                             stage_one_curve, stage_two_curve, verify_tangency_branch, vertex_at,
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
    y, h = br.preimage[1], 1e-9
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
        v = br.preimage.copy()
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
            c = br.c_value
            ref = _fd_c_coefficient(lin_model, coeffs, br)
            assert np.sign(c) == np.sign(ref) == br.c_sign
            assert abs(c / ref - 1.0) < 1e-4, (k, br.branch)


def test_stage_two_certificate_fields_are_floats(stage_two_cert):
    cert = stage_two_cert
    values = [cert.c_product, cert.branch.mu_k, cert.branch.t_param,
              cert.witnesses["gap_below"], cert.witnesses["gap_above"]]
    assert all(type(v) is float for v in values)
    # the preimages are flat (D,) float arrays
    points = [cert.branch.preimage, cert.witnesses["below"].preimage,
              cert.witnesses["above"].preimage]
    assert all(p.shape == (3,) and p.dtype == np.float64 for p in points)


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


@pytest.mark.parametrize("case", CASES)
def test_every_forge_branch_verifies_through_k24(case, lin_model):
    # the second-difference probe scales with the stay, so it stays inside
    # the stay-k strip; past k = 16 the vertex slope is bounded by its
    # change per ulp of the axis point y- + t*, |second| * spacing(y- + t*)
    coeffs = forge_coeffs(case)
    for k in range(12, 25, 2):
        for br in solve_secondary_tangency(lin_model, coeffs, k):
            value, slope, second, voff = verify_tangency_branch(lin_model, coeffs, br)
            assert value < 1e-9 and voff < 1e-6 and abs(second) > 1.0, (k, br.branch)
            ulp_slope = abs(second) * np.spacing(coeffs.y_minus + br.t_param)
            assert slope <= 2.0 * ulp_slope, (k, br.branch, slope / ulp_slope)


@pytest.mark.parametrize("case", CASES)
def test_secondary_solve_stops_at_the_slope_floor(case, lin_model, monkeypatch):
    # the slope row J[1, 1] of the fold cannot fall below its float floor,
    # which grows like gamma^k: each branch solve stops there within a few
    # dozen residual evaluations instead of grinding to its iteration cap.
    # Both branches of a k step as the two rows of one lock-step solve,
    # each of whose residual calls carries the rows still iterating
    jet, solve = tangency._cross_form_jet, tangency.newton_solve
    jets, solves = [], []

    def counted_jet(*args):
        jets.append(1)
        return jet(*args)

    def counted_solve(f, u0, **kwargs):
        start = len(jets)
        out = solve(f, u0, **kwargs)
        solves.append((len(u0), len(jets) - start))
        return out

    monkeypatch.setattr(tangency, "_cross_form_jet", counted_jet)
    monkeypatch.setattr(tangency, "newton_solve", counted_solve)
    coeffs = forge_coeffs(case)
    for k in range(12, 25, 2):
        solves.clear()
        for br in solve_secondary_tangency(lin_model, coeffs, k):
            _, J = jet(lin_model, coeffs.with_mu(br.mu_k), br.X, br.Y, k)
            assert abs(J[1, 1]) <= br.slope_tol <= 1e-10, (k, br.branch)
        assert len(solves) == 1 and solves[0][0] == 2 and solves[0][1] <= 40, (k, solves)


# every stage-one branch's slope_tol over ks 12..24, in (k, branch) order,
# as recorded under numpy 2.4 on x86-64: the fold rule's vector form must
# leave each one bit for bit as it was
SLOPE_TOLS = {
    "cdx_neg_d_neg": [
        "0x1.c25c268497682p-44", "0x1.3ee5d45ddb9b8p-43",
        "0x1.9715b36db597ap-43", "0x1.97109925955b8p-42",
        "0x1.06b761b72d6c1p-41", "0x1.06b6a88bfe3fep-40",
        "0x1.5608119d40a17p-40", "0x1.5607dd8e50318p-39",
        "0x1.c02a31896a4bdp-39", "0x1.c02a22fe8b251p-38",
        "0x1.26fe36a98f1ccp-37", "0x1.26fe34a4033c0p-36",
        "0x1.85a4cf5d73f74p-36", "0x1.85a4cece0951bp-35",
    ],
    "cdx_pos_d_neg": [
        "0x1.c25c268497682p-44", "0x1.c25c268497682p-44",
        "0x1.41b6be3710934p-43", "0x1.41b0495e94900p-42",
        "0x1.c01a20554a0cdp-42", "0x1.c0186e1b33e05p-41",
        "0x1.32f0a1296e51bp-40", "0x1.32f06727355d6p-39",
        "0x1.a049c768e18b3p-39", "0x1.a049b7c0fd337p-38",
        "0x1.1882471159316p-37", "0x1.188244f1130f8p-36",
        "0x1.787a8742ec0fap-36", "0x1.787a86ae7ccaep-35",
    ],
    "cdx_neg_d_pos": [
        "0x1.c25c268497682p-44", "0x1.c25c268497682p-44",
        "0x1.41b27062f4ea8p-42", "0x1.41b2704dc7932p-43",
        "0x1.c018fedbd7f9fp-41", "0x1.c018fee1f04d7p-42",
        "0x1.32f07a7d3b43ap-39", "0x1.32f07a7d1fbf9p-40",
        "0x1.a049bcf9099d2p-38", "0x1.a049bcf9099d2p-39",
        "0x1.188245a67efb3p-36", "0x1.188245a67f402p-37",
        "0x1.787a86dff7c09p-35", "0x1.787a86dff7493p-36",
    ],
    "cdx_pos_d_pos": [
        "0x1.c25c268497682p-44", "0x1.3ee5d43c335c8p-43",
        "0x1.9715b317194d8p-43", "0x1.9710991d6471ep-42",
        "0x1.06b761b6ca586p-41", "0x1.06b6a88c78205p-40",
        "0x1.5608119d24a8fp-40", "0x1.5607dd8e5494fp-39",
        "0x1.c02a3189579ccp-39", "0x1.c02a22fe824acp-38",
        "0x1.26fe36a98ed94p-37", "0x1.26fe34a402922p-36",
        "0x1.85a4cf5d745f7p-36", "0x1.85a4cece093bcp-35",
    ],
}


@pytest.mark.parametrize("case", CASES)
def test_secondary_slope_tols_are_bit_identical(case, lin_model):
    tols = [float(br.slope_tol).hex() for k in range(12, 25, 2)
            for br in solve_secondary_tangency(lin_model, forge_coeffs(case), k)]
    assert tols == SLOPE_TOLS[case]


# ---------------------------------------------------------------------------
# the linear tier's exact Jacobian and the value rows' floors


@pytest.fixture(scope="module", params=[(lab, e3, case) for lab in ("D3", "D4")
                                        for e3 in (0.0, 0.3) for case in CASES]
                + [("D3-b", 0.3, case) for case in CASES],
                ids=lambda p: "-".join(map(str, p)))
def forge_solves(request):
    """Every secondary-tangency Newton over ks 12..24 on one linear lab, with
    the residual, exact Jacobian, tolerances, seed and solution it was handed
    or returned; plus the lab's model and coefficients.  The forge presets
    have b = 1; lab D3-b moves it to 0.7."""
    lab, e3, case = request.param
    if lab == "D4":
        model, coeffs = d4_model("linear"), dataclasses.replace(_d4_forge_coeffs(case), e3=e3)
    else:
        model, coeffs = base_model("linear"), forge_coeffs(case, e3=e3)
        if lab == "D3-b":
            coeffs = dataclasses.replace(coeffs, b=0.7)
    solve, solves = tangency.newton_solve, []

    def recorded(f, u0, **kw):
        # one lock-step solve per k: a record per (k, branch) row
        u, res, it = solve(f, u0, **kw)
        solves.extend(dict(k=k, F=_row(f, r), jac=_row(kw["jac"], r), scales=kw["scales"][r],
                           tol=kw["tol"][r], seed=u0[r], u=u[r]) for r in range(len(u0)))
        return u, res, it

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(tangency, "newton_solve", recorded)
        for k in range(12, 25, 2):
            assert len(solve_secondary_tangency(model, coeffs, k)) == 2
    assert len(solves) == 14
    return model, coeffs, solves


def _row(g, r):
    """Row r of a rows-form residual or Jacobian (a function of the pair
    (rows, block) of ``newton_solve``'s rows) as a function of one point, or
    of a block of that row's points."""

    def call(w):
        if np.ndim(w) == 2:
            return g((np.full(len(w), r), w))
        return g((np.array([r]), w[None]))[0]

    return call


def _mp_forge_jacobian(mp, model, coeffs, k, u):
    """The three closed-form rows of the linear forge residual at u = (X, Y,
    mu), differentiated in 50-digit arithmetic."""
    b, c, d, e3, xp, ym = (mp.mpf(float(v)) for v in (coeffs.b, coeffs.c, coeffs.d, coeffs.e3,
                                                       coeffs.x_plus, coeffs.y_minus))
    s = [mp.mpf(float(v)) ** k for v in model.diagonal]
    zp, bt, a2 = ([mp.mpf(float(v)) for v in w]
                  for w in (coeffs.z_plus, coeffs.b_t, coeffs.alpha2))
    gamma = mp.mpf(float(model.multipliers.gamma))

    def rows(X, Y, mu):
        t = X / b
        z = sum(a * si * (zi + bi * t) for a, si, zi, bi in zip(a2, s[2:], zp, bt))
        z_slope = sum(a * si * bi for a, si, bi in zip(a2, s[2:], bt))
        return (mu + d * t ** 2 + e3 * t ** 3 - (ym + Y) / gamma ** k,
                mu + c * s[0] * (xp + X) + d * Y ** 2 + z + e3 * Y ** 3,
                c * s[0] * b + z_slope + (2 * d * Y + 3 * e3 * Y ** 2) * s[1]
                * (2 * d * t + 3 * e3 * t ** 2))

    u = [mp.mpf(float(v)) for v in u]
    J = np.empty((3, 3))
    for j in range(3):
        for i in range(3):
            def along(x, i=i, j=j):
                w = list(u)
                w[j] = x
                return rows(*w)[i]
            J[i, j] = float(mp.diff(along, u[j]))
    return J


def test_exact_forge_jacobian_is_the_mpmath_derivative(forge_solves):
    mp = pytest.importorskip("mpmath")
    model, coeffs, solves = forge_solves
    with mp.workdps(50):
        for rec in solves:
            for u in (rec["seed"], rec["u"]):
                J, ref = rec["jac"](u), _mp_forge_jacobian(mp, model, coeffs, rec["k"], u)
                zero = ref == 0.0
                assert np.all(np.abs(J[zero]) <= 1e-12), (rec["k"], u)
                assert np.all(np.abs(J[~zero] / ref[~zero] - 1.0) <= 1e-12), (rec["k"], u)


def test_exact_forge_jacobian_matches_fd_on_x_and_mu(forge_solves):
    # the residual the Newton evaluates has the closed-form Jacobian: on the X
    # and mu columns FD agrees to 1e-6 of each row's largest entry, the scale
    # the Newton equilibrates it by.  Entry by entry FD noise reaches 1.6e-5
    # of the small dr1/dX and dr3/dX at k = 24, and the Y column is not
    # resolved by FD at deep k where c*d*x+ > 0
    _, _, solves = forge_solves
    for rec in solves:
        for u in (rec["seed"], rec["u"]):
            J = rec["jac"](u)
            fd = fd_jacobian(rec["F"], u, rec["scales"])
            scale = np.max(np.abs(J), axis=1)[:, None]
            err = np.abs(fd - J)[:, [0, 2]] / scale
            assert np.all(err <= 1e-6), (rec["k"], u, err)


def test_value_rows_stop_at_their_measured_floors(forge_solves):
    # each value row adds mu, so its tolerance never goes below mu's spacing
    _, _, solves = forge_solves
    for rec in solves:
        tol, mu0 = rec["tol"], rec["seed"][2]
        assert np.all((np.spacing(abs(mu0)) <= tol[:2]) & (tol[:2] <= 1e-14)), (rec["k"], tol)
        r = rec["F"](rec["u"])
        assert np.all(np.abs(r[:2]) < tol[:2]), (rec["k"], r, tol)


def test_parity_required(lin_model, coeffs_a):
    with pytest.raises(ValidationError, match="itinerary parity: k must be even"):
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
        s1, s2 = b1.c_sign, b2.c_sign
        assert s1 == -s2
        assert (s1, s2) == predicted_c_signs(lin_model, coeffs, k)


def test_split_pair_positions(lin_model):
    # mu d < 0: two transverse points at x = x+ +- b sqrt(-mu/d) + o(1)
    coeffs = forge_coeffs("cdx_neg_d_neg")
    mu = 3.8e-5  # anywhere in the split regime (d < 0 here)
    pts = find_transverse_homoclinics(lin_model, coeffs, mu)
    assert len(pts) == 2
    off = coeffs.b * np.sqrt(-mu / coeffs.d)
    xs = sorted(p.point[0] for p in pts)
    assert abs(xs[0] - (coeffs.x_plus - off)) < 1e-12
    assert abs(xs[1] - (coeffs.x_plus + off)) < 1e-12
    for p in pts:
        assert abs(p.point[1]) < 1e-15          # on the local stable manifold
        assert abs(p.slope) > 1e-6             # transversality


def test_quartet_positions(lin_model):
    # mu = 0, even k: four points with y = gamma^-k (y- +- lambda^(k/2)
    # sqrt|c x+ / d|) + o(gamma^-k)
    coeffs = forge_coeffs("cdx_neg_d_pos")
    lam, gam = lin_model.multipliers.lam, lin_model.multipliers.gamma
    k = 14
    cm = coeffs.with_mu(0.0)
    pts = curve_points(lin_model, cm, stage_one_curve(cm), [(k,)], [])
    assert len(pts) == 4
    dy = lam ** (k / 2) * np.sqrt(abs(coeffs.c * coeffs.x_plus / coeffs.d))
    ys = sorted(p.point[1] for p in pts)
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
    # root seeds that fail to polish would be recorded, not warned about;
    # the vertex-model seeds all converge
    assert not [msg for msg in cert.diagnostics if "failed to converge" in msg]
    assert cert.branch.straddle_ok
    assert cert.c_product > 0.0
    assert cert.stages == stages
    below = cert.witnesses["below"].preimage
    above = cert.witnesses["above"].preimage
    assert below[1] < cert.branch.preimage[1] < above[1]
    assert below.shape == above.shape == (lin_model.dim,)


@pytest.mark.parametrize("case", CASES + ["stage_two"])
def test_forge_witnesses_are_homoclinic_points(case, lin_model, stage_two_cert):
    # each witness point lies on its stage's curve at the certificate's mu: a
    # split-pair point on {y = 0}, a quartet point one return T1 o T0^k away
    if case == "stage_two":
        coeffs, cert = forge_coeffs("cdx_pos_d_pos"), stage_two_cert
    else:
        coeffs = forge_coeffs(case)
        cert = forge_admissible_tangency(lin_model, coeffs, list(range(12, 25, 2)))
    cm = coeffs.with_mu(cert.branch.mu_k)
    for side in ("below", "above"):
        w = cert.witnesses[side]
        if w.route.startswith("split_pair"):
            y = w.point[1]
        else:
            y = first_return_array(lin_model, cm, w.point, w.k)[0][1]
        assert abs(y) <= ROOT_TOL, (side, w.route)


@pytest.mark.parametrize("index", [0, 1])
def test_stage_two_split_pair_near_a_stage_one_tangency(index, lin_model):
    # just below mu_k the composed curve T1 o T0^12 o T1 dips through
    # {y = 0} around its vertex, which has drifted ~4e-7 from the stage-one
    # preimage; just above mu_k it clears {y = 0}
    coeffs = forge_coeffs("cdx_pos_d_pos")
    base = solve_secondary_tangency(lin_model, coeffs, 12)[index]
    curve = stage_two_curve(lin_model, coeffs, base)
    mu = base.mu_k - 1e-8
    vertex = vertex_at(lin_model, coeffs, curve, mu, 0.0)
    pts = curve_points(lin_model, coeffs.with_mu(mu), vertex, [()], [])
    assert len(pts) == 2
    lo, hi = sorted(p.t for p in pts)
    assert lo < vertex.tc < hi
    assert not lo < 0.0 < hi     # a pair centred on the preimage misses them
    for p in pts:
        assert p.route == "split_pair_stage2" and p.k == 12
        assert abs(p.point[1]) <= ROOT_TOL and abs(p.slope) > SLOPE_MIN
    mu = base.mu_k + 1e-8
    vertex = vertex_at(lin_model, coeffs, curve, mu, 0.0)
    assert curve_points(lin_model, coeffs.with_mu(mu), vertex, [()], []) == []


@pytest.mark.parametrize("index", [0, 1])
def test_stage_two_vertex_is_a_zero_of_the_exact_slope(index, lin_model):
    # the stage-two curve's b is the jet's exact x-slope at the preimage, and
    # its vertex at each mu a zero of the jet's exact y-slope: the stop at
    # twice the slope's measured float floor holds it well inside
    # |slope| < 2 |D| 1e-13, a Newton step below 1e-13
    coeffs = forge_coeffs("cdx_pos_d_pos")
    base = solve_secondary_tangency(lin_model, coeffs, 12)[index]
    curve = stage_two_curve(lin_model, coeffs, base)
    cm, h = coeffs.with_mu(base.mu_k), 1e-7
    fd_b = (axis_jet(lin_model, cm, curve.ybase + h, curve.stays)[0][0]
            - axis_jet(lin_model, cm, curve.ybase - h, curve.stays)[0][0]) / (2.0 * h)
    assert abs(fd_b / curve.b - 1.0) < 1e-6
    for mu in (base.mu_k - 1e-8, base.mu_k, base.mu_k + 1e-8):
        vertex = vertex_at(lin_model, coeffs, curve, mu, 0.0)
        w, J = axis_jet(lin_model, coeffs.with_mu(mu), curve.ybase + vertex.tc, curve.stays,
                        jacobian=True)
        assert abs(J[1, 1]) < 2.0 * abs(curve.D) * 1e-13
        assert vertex.level == w[1]


@pytest.mark.parametrize("tier", ["lin_model", "poly_model", "sym_model"])
def test_stage_two_certificate_holds_its_slope_tol(tier, request):
    # the tertiary solve stops its slope row at the fold tolerance measured
    # at its seed (about 6e-8, far above stage one's): the certified point's
    # slope along the axis lies within the tolerance the branch records
    model, coeffs = request.getfixturevalue(tier), forge_coeffs("cdx_pos_d_pos")
    br = forge_admissible_tangency(model, coeffs, [12]).branch
    _, J = axis_jet(model, coeffs.with_mu(br.mu_k), br.preimage[1], (12, br.k), jacobian=True)
    assert abs(J[1, 1]) <= br.slope_tol


def test_fold_tol_is_twice_the_float_floor():
    # a row with slope a along one input moves a * ulp per ulp of it (a power
    # of two keeps every product exact); a flat row gets the 1e-13 bound
    u, ulp, a = 0.3, np.spacing(0.3), 2.0 ** 31
    assert fold_tol(lambda t: a * t, u, [ulp]) == 2.0 * a * ulp
    assert fold_tol(lambda t: 0.0 * t, u, [ulp]) == 1e-13


def test_straddle_fallback_polishes_the_split_pair_once(lin_model, monkeypatch):
    # at k = 14 in cdx_neg_d_pos the split pair does not straddle and the
    # quartets decide: the fallback adds the quartets to the split pair it
    # already has, so each stage-one split-pair search is logged once
    polish = tangency.curve_points

    def marked(model, cm, curve, rets, diagnostics):
        if () in rets and not curve.stays:
            diagnostics.append(f"stage-one split pair at mu={float(cm.mu)!r}")
        return polish(model, cm, curve, rets, diagnostics)

    monkeypatch.setattr(tangency, "curve_points", marked)
    cert = forge_admissible_tangency(lin_model, forge_coeffs("cdx_neg_d_pos"), [14])
    assert cert.stages == 1 and cert.witnesses["below"].route == "quartet"
    assert cert.diagnostics == [f"stage-one split pair at mu={cert.branch.mu_k!r}"]


def test_quartet_block_is_its_per_stay_polishes(lin_model):
    # at k = 18 in cdx_neg_d_pos the straddle fallback polishes the quartets
    # of stays 12, 14 and 16 as one block: the points, bit for bit, and the
    # diagnostics of one polish per stay
    coeffs = forge_coeffs("cdx_neg_d_pos")
    cm = coeffs.with_mu(solve_secondary_tangency(lin_model, coeffs, 18)[0].mu_k)
    curve = stage_one_curve(cm)
    rets = [(n,) for n in islice(quartet_stays(lin_model, cm, curve, skip=18), 3)]
    assert rets == [(12,), (14,), (16,)]
    diagnostics, ref_diagnostics = [], []
    block = curve_points(lin_model, cm, curve, rets, diagnostics)
    ref = [p for ret in rets for p in curve_points(lin_model, cm, curve, [ret], ref_diagnostics)]
    assert len(block) == 12 and diagnostics == ref_diagnostics
    for a, b in zip(block, ref):
        assert (a.route, a.k) == (b.route, b.k)
        for name in ("point", "preimage", "t", "slope"):
            assert np.asarray(getattr(a, name)).tobytes() == np.asarray(getattr(b, name)).tobytes()


@pytest.mark.parametrize("reach, kept", [(5e-7, 2), (5e-9, 2), (5e-10, 0)])
def test_curve_points_retries_second_differences_at_tenfold_smaller_steps(
        lin_model, monkeypatch, reach, kept):
    # second-difference probes farther than ``reach`` from their root leave
    # the domain: the root retries at h = 1e-6, 1e-7, 1e-8 and 1e-9, and is
    # dropped without a message when no step passes
    coeffs = forge_coeffs("cdx_neg_d_neg")
    cm = coeffs.with_mu(solve_secondary_tangency(lin_model, coeffs, 12)[0].mu_k)
    ref = curve_points(lin_model, cm, stage_one_curve(cm), [()], [])
    roots = np.array([p.preimage[1] for p in ref])
    jet = tangency.axis_jet

    def short_reach(model, cm, y, stays=(), jacobian=False):
        w, J = jet(model, cm, y, stays, jacobian=jacobian)
        if not jacobian:
            w[np.abs(y[:, None] - roots).min(axis=1) > reach] = np.nan
        return w, J

    monkeypatch.setattr(tangency, "axis_jet", short_reach)
    diagnostics = []
    got = curve_points(lin_model, cm, stage_one_curve(cm), [()], diagnostics)
    assert len(ref) == 2 and diagnostics == []
    assert [(p.t, p.slope) for p in got] == [(p.t, p.slope) for p in ref][:kept]


# sha256 of forge.csv and forge_certificate.json per tier and sign case,
# recorded (numpy 2.4, x86-64) while each transverse point was polished by
# its own point Newton: the lock-step polish keeps every witness bit
WITNESS_DIGESTS = {
    ("linear", "cdx_neg_d_neg"): ("351e8d6eb107f6b8", "13af266f59a82cf4"),
    ("linear", "cdx_pos_d_neg"): ("4e3a3116389ba3f3", "989e7eb2280c8a7f"),
    ("linear", "cdx_neg_d_pos"): ("3c546dff87fd0f9a", "95d92b74cce64ae5"),
    ("linear", "cdx_pos_d_pos"): ("7f8ad8e22ce7f1d3", "1c7a1d0c9895168f"),
    ("polynomial", "cdx_pos_d_pos"): ("2d2bd0385ca9a6a1", "9b4cec55a351a37e"),
}


@pytest.mark.parametrize("tier, case", list(WITNESS_DIGESTS))
def test_forge_artifacts_keep_their_polished_witnesses(tier, case, tmp_path):
    # the benchmark's four linear forges (ks 12..24) and CI's polynomial
    # two-stage forge (ks 12, 14)
    ks = list(range(12, 25, 2)) if tier == "linear" else [12, 14]
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"experiment": "forge_tangency", "model": base_model(tier).spec(),
                               "coeffs": forge_coeffs(case).spec(), "schedule": {"ks": ks},
                               "out": str(tmp_path / "out")}))
    assert runner.run_experiment(str(cfg)) == 0
    digests = tuple(hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()[:16]
                    for name in ("forge.csv", "forge_certificate.json"))
    assert digests == WITNESS_DIGESTS[tier, case]


def _same_branch(a, b):
    """Every field of two branches bit for bit, the forge's straddle verdict
    aside."""
    for f in dataclasses.fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if f.name == "straddle_ok":
            continue
        if isinstance(x, np.ndarray):
            assert x.tobytes() == y.tobytes(), f.name
        elif isinstance(x, float):
            assert np.float64(x).tobytes() == np.float64(y).tobytes(), f.name
        else:
            assert x == y, f.name


@pytest.mark.parametrize("case", CASES)
def test_forge_holds_every_scheduled_k_bitwise(case, lin_model):
    # one lock-step Newton solves the whole schedule: every k is in the
    # certificate, each pair its own solve's, bit for bit
    coeffs, ks = forge_coeffs(case), list(range(12, 25, 2))
    cert = forge_admissible_tangency(lin_model, coeffs, ks)
    assert list(cert.branches) == ks
    for k in ks:
        own = solve_secondary_tangency(lin_model, coeffs, k)
        assert len(cert.branches[k]) == len(own) == 2
        for got, ref in zip(cert.branches[k], own):
            _same_branch(got, ref)


def _failing_seed(monkeypatch, bad_k):
    """Make every solve at stay bad_k diverge: its seed's mu is NaN."""
    seed = tangency._seed

    def patched(coeffs, lam, gamma, k, sign):
        X, Y, mu = seed(coeffs, lam, gamma, k, sign)
        return X, Y, float("nan") if k == bad_k else mu

    monkeypatch.setattr(tangency, "_seed", patched)


def test_forge_walks_past_a_k_whose_solve_fails(lin_model, monkeypatch):
    # the k whose solve raises is a diagnostics line, as with one solve per
    # k, and the forge certifies at the next k
    coeffs = forge_coeffs("cdx_neg_d_neg")
    _failing_seed(monkeypatch, 12)
    cert = forge_admissible_tangency(lin_model, coeffs, [12, 14, 16])
    with pytest.raises(ConvergenceError) as exc:
        solve_secondary_tangency(lin_model, coeffs, 12)
    assert cert.diagnostics[0] == f"k=12: secondary solve failed: {exc.value}"
    assert cert.diagnostics[0].startswith(
        "k=12: secondary solve failed: secondary tangency diverged (k=12, branch 1, ")
    assert cert.branch.k == 14 and cert.stages == 1 and cert.branch.straddle_ok
    # the walk solved only the ks it reached
    assert list(cert.branches) == [14]
    for got, ref in zip(cert.branches[14], solve_secondary_tangency(lin_model, coeffs, 14)):
        _same_branch(got, ref)


def test_forge_with_cubic_h_term(lin_model):
    # the optional cubic term of h2 must not break the solvers
    coeffs = forge_coeffs("cdx_neg_d_neg", e3=0.3)
    cert = forge_admissible_tangency(lin_model, coeffs, [12, 14])
    assert cert.branch.straddle_ok and cert.c_product > 0.0
    b1, b2 = solve_secondary_tangency(lin_model, coeffs, 14)
    assert b1.residual < 1e-11 and b2.residual < 1e-11
    assert b1.c_sign == -b2.c_sign


def test_forge_on_polynomial_tier(poly_model, sym_model):
    # both nonlinear tiers certify every sign case at the linear tier's k and
    # stage count (a two-stage certificate's k is its tertiary stay j)
    expected = {"cdx_neg_d_neg": (12, 1), "cdx_pos_d_neg": (12, 1),
                "cdx_neg_d_pos": (14, 1), "cdx_pos_d_pos": (14, 2)}
    for model in (poly_model, sym_model):
        for case, (k, stages) in expected.items():
            cert = forge_admissible_tangency(model, forge_coeffs(case), [12, 14])
            assert cert.branch.straddle_ok and cert.c_product > 0.0
            assert (cert.branch.k, cert.stages) == (k, stages), (model.nonlinearity.kind, case)


def test_csv_emission(lin_model, coeffs_a):
    branches = solve_secondary_tangency(lin_model, coeffs_a, 12)
    csv = branches_to_csv(branches)
    lines = csv.strip().split("\n")
    assert lines[0] == "k,branch,mu_k,X,Y,c_sign,straddle_ok,residual"
    assert len(lines) == 3
