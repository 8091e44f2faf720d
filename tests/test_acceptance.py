"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines as they complete.  Tolerances are pinned here, not configurable.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from hetdim.cones import (invariant_cu_subspace, invariant_s_subspace,
                          leaf_exponent_fit)
from hetdim.cycles import (index2_criterion, index2_reductions,
                           orbit_jacobian_chain, solve_hetdim_general,
                           solve_hetdim_symmetric, verify_transverse_connection)
from hetdim.flows import (AbsConfig, abs_expansion_bound, check_c3prime,
                          equilibrium_exponents, simulate_poincare)
from hetdim.local import solve_cross_form
from hetdim.numerics import sorted_eigvals
from hetdim.presets import (base_model, battery_coeffs, battery_model,
                            d4_model, forge_coeffs, hetdim_coeffs, hetdim_model,
                            leaf_coeffs, leaf_model)
from hetdim.saddle import commutation_residual, identity_residuals, orbit
from hetdim.tangency import predicted_c_signs, solve_secondary_tangency


def _report(num: int, label: str, ok: bool, detail: str = ""):
    state = "PASS" if ok else "FAIL"
    print(f"[{state}] criterion {num}: {label}" + (f" ({detail})" if detail else ""))
    assert ok, f"criterion {num}: {label} {detail}"


def _grid(n=10):
    axis = np.linspace(-1.0, 1.0, n)
    X, Y, Z = np.meshgrid(axis, axis, axis, indexing="ij")
    return X.ravel(), Y.ravel(), Z.ravel()


def test_criterion_1_normal_form_identities():
    xs, ys, zs = _grid(10)
    zcol = zs.reshape(-1, 1)
    worst = 0.0
    for tier in ("linear", "polynomial", "polynomial_symmetric"):
        model = base_model(tier)
        worst = max(worst, max(identity_residuals(model, xs, ys, zcol).values()))
    pts = np.column_stack([xs, ys, zs])
    comm = max(commutation_residual(base_model("linear"), pts),
               commutation_residual(base_model("polynomial_symmetric"), pts))
    # D = 4 configuration, dimension-generic
    xs4, ys4, zs4 = _grid(6)
    z4 = np.column_stack([zs4, 0.5 * xs4])
    worst4 = max(identity_residuals(d4_model("polynomial"), xs4, ys4, z4).values())
    comm4 = commutation_residual(d4_model("polynomial_symmetric"),
                                 np.column_stack([xs4, ys4, z4]))
    ok = worst < 1e-12 and comm < 1e-12 and worst4 < 1e-12 and comm4 < 1e-12
    _report(1, "normal-form identities and symmetry commutation", ok,
            f"identities {max(worst, worst4):.2e}, commutation {max(comm, comm4):.2e}")


def test_criterion_2_cross_form_fidelity():
    worst = {"linear": 0.0, "polynomial": 0.0}
    for tier in worst:
        model = base_model(tier)
        for k in range(2, 31, 2):
            cf = solve_cross_form(model, 0.08, 0.3, [0.04], k)
            out = orbit(model, np.array([0.08, cf.y_0, 0.04]), k)[k]
            err = max(abs(out[1] - 0.3), abs(out[0] - cf.x_k),
                      float(np.max(np.abs(out[2:] - cf.z_k))))
            worst[tier] = max(worst[tier], err)
    ok = worst["linear"] < 1e-14 and worst["polynomial"] < 1e-11
    _report(2, "cross-form round trips (k <= 30)", ok,
            f"linear {worst['linear']:.2e}, polynomial {worst['polynomial']:.2e}")


def test_criterion_3_secondary_tangency_asymptotics():
    model = base_model("linear")
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    ok = True
    details = []
    for case, asym in (("cdx_neg_d_neg", "gamma"), ("cdx_pos_d_neg", "lambda")):
        coeffs = forge_coeffs(case)
        devs = []
        for k in range(12, 25, 2):
            br = solve_secondary_tangency(model, coeffs, k)[0]
            target = (coeffs.y_minus * gam ** (-k) if asym == "gamma"
                      else -coeffs.c * coeffs.x_plus * lam ** k)
            devs.append(abs(br.mu_k / target - 1.0))
        ok &= devs[0] < 0.2
        ok &= all(b < a for a, b in zip(devs, devs[1:]))
        details.append(f"{case}: {devs[0]:.3f} -> {devs[-1]:.4f}")
    _report(3, "secondary-tangency mu asymptotics", ok, "; ".join(details))


def test_criterion_4_branch_sign_law():
    model = base_model("linear")
    ok = True
    for case in ("cdx_neg_d_neg", "cdx_pos_d_neg"):
        coeffs = forge_coeffs(case)
        for k in range(12, 25, 2):
            b1, b2 = solve_secondary_tangency(model, coeffs, k)
            s1, s2 = b1.c_sign, b2.c_sign
            ok &= s1 == -s2
            ok &= (s1, s2) == predicted_c_signs(model, coeffs, k)
    _report(4, "branch-sign law of the induced c", ok)


def test_criterion_5_index2_criterion_equivalence(battery_orbits):
    model = battery_model()
    coeffs = battery_coeffs()
    matches = []
    for orbit in battery_orbits:
        _, _, match = index2_criterion(model, coeffs, orbit)
        matches.append(match)
    tr_ok = det_ok = True
    bc = coeffs.b * coeffs.c
    for orbit in battery_orbits:
        k, m = orbit.itinerary
        if k < 16 or m < 16:
            continue
        red = index2_reductions(model, coeffs, orbit)
        tr_ok &= abs(red["trace"] / red["trace_predicted"] - 1.0) < 0.1
        det_ok &= abs(red["C"] / (bc * bc) - 1.0) < 0.1
    ok = all(matches) and len(matches) >= 50 and tr_ok and det_ok
    _report(5, "index-2 criterion vs eigensolver", ok,
            f"{len(matches)} orbits, 100% match = {all(matches)}, "
            f"trace/det 10% = {tr_ok and det_ok}")


def test_criterion_6_cone_battery(battery_orbits):
    model = battery_model()
    coeffs = battery_coeffs()
    lam_hat = abs(model.multipliers.lambda_hat)
    contraction_ok = comp_ok = True
    B_worst = 0.0
    for orbit in battery_orbits[::5]:
        k, m = orbit.itinerary
        chain = orbit_jacobian_chain(model, coeffs, orbit)
        cu = invariant_cu_subspace(chain)
        sw = invariant_s_subspace(chain)
        contraction_ok &= cu.contraction_ratio < 1.0 and sw.contraction_ratio < 1.0
        M = np.eye(model.dim)
        for J in chain:
            M = J @ M
        full = sorted_eigvals(M)
        union = sorted(list(cu.eigenvalues) + list(sw.eigenvalues), key=lambda w: -abs(w))
        rho = abs(full[0])
        comp_ok &= all(abs(a - b) <= 1e-8 * rho for a, b in zip(full, union))
        B_worst = max(B_worst, max(abs(w) for w in sw.eigenvalues) / lam_hat ** (k + m))
    ok = contraction_ok and comp_ok and B_worst <= 10.0
    _report(6, "cone contraction and spectral complementarity", ok,
            f"B = {B_worst:.3e}")


def test_criterion_7_leaf_exponents():
    model = leaf_model()
    coeffs = leaf_coeffs()
    e1, e2, _ = leaf_exponent_fit(model, coeffs, list(range(8, 21, 2)))
    mult = model.multipliers
    t1 = np.log(mult.lambda0 / abs(mult.lam))
    t2 = np.log(abs(mult.lambda_hat) / abs(mult.gamma))
    ok = abs(e1 / t1 - 1.0) < 0.1 and abs(e2 / t2 - 1.0) < 0.1
    _report(7, "strong-stable leaf slope exponents", ok,
            f"phi1 {e1:.4f} vs {t1:.4f}, phi2 {e2:.4f} vs {t2:.4f}")


def test_criterion_8_heterodimensional_certificates(hetdim_certificates):
    model = hetdim_model()
    coeffs = hetdim_coeffs()
    certs = hetdim_certificates
    ok = True
    for cert in certs:
        ok &= cert.residuals["closure"] < 1e-10
        ok &= cert.residuals["gap"] < 1e-8
        ok &= sum(1 for e in cert.index_evidence if abs(e) > 1) == 2
    mus = [cert.parameters["mu"] for cert in certs]
    ok &= all(abs(b) < abs(a) for a, b in zip(mus, mus[1:]))
    target = 2 * coeffs.y_minus / (coeffs.c * coeffs.x_plus)
    ok &= abs(certs[-1].theta_decomposition["lambda_k_gamma_m"] / target - 1.0) < 0.05
    factor_ok = found_ok = True
    for cert in certs:
        tw = verify_transverse_connection(model, coeffs, cert)
        found_ok &= tw["found"] and tw["iterations_used"] <= 50
        if tw["factor_measurable"]:
            factor_ok &= abs(tw["area_factors"][0] / tw["predicted_first_factor"]
                             - 1.0) < 0.15
    ok &= found_ok and factor_ok
    _report(8, "heterodimensional-cycle certificates", ok,
            f"mu: {mus[0]:.2e} -> {mus[-1]:.2e}, "
            f"lam^k gam^m = {certs[-1].theta_decomposition['lambda_k_gamma_m']:.4f}")


def test_criterion_9_general_cross_check(hetdim_certificates):
    model = hetdim_model()
    coeffs = hetdim_coeffs()
    ok = True
    details = []
    for cert_s in hetdim_certificates[:2]:
        k, m = cert_s.orbit.itinerary
        cert_g = solve_hetdim_general(model, coeffs, coeffs, k, m, s_target=0.0)
        d_mu = abs(cert_g.parameters["mu1"] - cert_g.parameters["mu2"])
        ok &= d_mu < 1e-9
        ok &= abs(cert_g.parameters["mu1"] - cert_s.parameters["mu"]) < 1e-9
        ok &= abs(cert_g.parameters["theta"] - cert_s.parameters["theta"]) < 1e-9
        details.append(f"(k={k}, m={m}): |mu1-mu2| = {d_mu:.1e}")
    _report(9, "general solver reproduces the symmetric certificate", ok,
            "; ".join(details))


def test_criterion_10_flow_side_checks():
    lorenz = equilibrium_exponents("lorenz", 10.0, 28.0, 8.0 / 3.0)
    lo_ok, (_, lo_area) = check_c3prime(lorenz)
    ms = equilibrium_exponents("morioka_shimizu", 0.5, 1.0)
    ms_ok, _ = check_c3prime(ms)
    cfg = AbsConfig()
    bound = abs_expansion_bound(cfg)
    rng = np.random.default_rng(11)
    worst = 0.0
    for _ in range(10_000):
        u0, v0 = rng.uniform(-1, 1, 2)
        orb = simulate_poincare(cfg, float(u0), float(v0), 50)
        worst = max(worst, float(np.max(np.abs(orb.steps))))
    ok = ((not lo_ok) and abs(lo_area - 5.219) < 1e-3 and ms_ok
          and bound > 1.0 and worst < cfg.half_width)
    _report(10, "flow-side exponent and trapping checks", ok,
            f"Lorenz margin {lo_area:+.4f}, expansion {bound:.3f}, "
            f"trapping max {worst:.4f}")


def test_criterion_11_determinism(tmp_path):
    from hetdim.cli import main
    base = {
        "seed": 5,
        "model": hetdim_model().spec(),
        "coeffs": hetdim_coeffs().spec(),
    }
    runs = [
        ("hetdim_symmetric", {"schedule": {"pairs": [[12, 10]]}, "s_target": 0.0},
         ["cycle_k12_m10.json", "sweep.csv", "summary.json"]),
        ("forge_tangency", {"model": base_model("linear").spec(),
                            "coeffs": forge_coeffs("cdx_neg_d_neg").spec(),
                            "schedule": {"ks": [12, 14]}},
         ["forge.csv", "forge_certificate.json", "summary.json"]),
        ("c3prime_scan", {"scan": {"alpha": [0.2, 1.2, 4], "lam": [0.6, 1.4, 3]}},
         ["c3prime.csv", "summary.json"]),
        ("abs_orbits", {"orbits": {"n": 1000, "steps": 40}},
         ["abs_orbit.csv", "abs_report.json", "summary.json"]),
    ]
    ok = True
    for experiment, extra, outputs in runs:
        docs = {**base, **extra, "experiment": experiment}
        for tag in ("a", "b"):
            cfg = tmp_path / f"{experiment}-{tag}.json"
            cfg.write_text(json.dumps({**docs, "out": str(tmp_path / f"{experiment}-{tag}")}))
            assert main(["run", "--config", str(cfg)]) == 0
        for name in outputs:
            a = (tmp_path / f"{experiment}-a" / name).read_bytes()
            b = (tmp_path / f"{experiment}-b" / name).read_bytes()
            ok &= a == b
    _report(11, "byte-identical artifacts across repeated runs", ok)
