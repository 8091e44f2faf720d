"""Batch orchestration: config ingestion, experiment execution, artifact
emission.

A run consumes one JSON config, executes the named experiment, and writes a
manifest, per-experiment CSV/JSON artifacts, and a summary with one pass/fail
entry per acceptance check.  Exit code 0 means all checks passed, 1 a numeric
failure, 2 an input error.  With a fixed config the CSV/JSON artifacts are
byte-identical across runs on one machine; only manifest.json carries wall
time and is excluded from that guarantee.
"""

from __future__ import annotations

import json
import logging
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from .cones import (cone_report_csv, invariant_cu_subspace, invariant_s_subspace,
                    leaf_exponent_fit, leaf_report_csv)
from .cycles import (certificate_to_json, closure_oracle_floor, index2_criterion,
                     orbit_jacobian_chain, replay_certificate_dict,
                     solve_hetdim_general, solve_hetdim_symmetric,
                     solve_period2_with_s, verify_transverse_connection)
from .errors import NumericalError, ValidationError
from .flows import (AbsConfig, abs_expansion_bound, check_c3prime,
                    equilibrium_exponents, orbit_csv, simulate_poincare)
from .global_map import coeffs_from_json
from .numerics import chain_product, sorted_eigvals
from .saddle import model_from_json
from .tangency import branches_to_csv, forge_admissible_tangency, solve_secondary_tangency

log = logging.getLogger("hetdim")

EXPERIMENTS = ("forge_tangency", "period2_sweep", "hetdim_symmetric",
               "hetdim_general", "cone_battery", "leaf_fit", "c3prime_scan",
               "abs_orbits")


def _setup_logging():
    level = os.environ.get("HETDIM_LOG", "error").lower()
    levels = {"error": logging.ERROR, "info": logging.INFO, "debug": logging.DEBUG}
    if level not in levels:
        raise ValidationError(f"HETDIM_LOG must be one of {sorted(levels)}")
    logging.basicConfig(level=levels[level], format="%(levelname)s %(name)s: %(message)s")


def validate_config(doc: dict) -> dict:
    """Validate the run config; messages name the violated rule."""
    if not isinstance(doc, dict):
        raise ValidationError("config must be a JSON object")
    exp = doc.get("experiment")
    if exp not in EXPERIMENTS:
        raise ValidationError(f"unknown experiment {exp!r}; expected one of {EXPERIMENTS}")
    sched = doc.get("schedule", {})
    for pair in sched.get("pairs", []):
        k, m = pair
        if k % 2 or m % 2:
            raise ValidationError("itinerary parity: k must be even")
        if not k > m:
            raise ValidationError("itinerary order: k must exceed m")
    for k in sched.get("ks", []):
        if k % 2:
            raise ValidationError("itinerary parity: k must be even")
    if exp in ("forge_tangency", "period2_sweep", "hetdim_symmetric",
               "hetdim_general", "cone_battery", "leaf_fit"):
        if "model" not in doc or "coeffs" not in doc:
            raise ValidationError(f"experiment {exp!r} requires 'model' and 'coeffs'")
    if exp == "hetdim_general" and "coeffs2" not in doc:
        raise ValidationError("experiment 'hetdim_general' requires 'coeffs2'")
    return doc


def _fmt(x) -> str:
    return f"{x:.17g}"


# ---------------------------------------------------------------------------
# experiments; each returns (files, checks)


def _exp_forge_tangency(doc, rng):
    model = model_from_json(doc["model"])
    coeffs = coeffs_from_json(doc["coeffs"])
    ks = doc.get("schedule", {}).get("ks", [12, 14, 16, 18, 20, 22, 24])
    branches = []
    for k in ks:
        branches.extend(solve_secondary_tangency(model, coeffs, k))
    from .tangency import secondary_c_coefficient
    for br in branches:
        br.c_value = secondary_c_coefficient(model, coeffs, br)
        br.c_sign = int(np.sign(br.c_value))
    cert = forge_admissible_tangency(model, coeffs, ks)
    lam, gam = model.multipliers.lam, model.multipliers.gamma
    cdx = coeffs.c * coeffs.d * coeffs.x_plus
    devs = []
    for k in ks:
        brs = [b for b in branches if b.k == k and b.branch == 1]
        asym = (coeffs.y_minus * gam ** (-k) if cdx < 0
                else -coeffs.c * coeffs.x_plus * lam ** k)
        devs.append(abs(brs[0].mu_k / asym - 1.0))
    checks = {
        "residuals": max(b.residual for b in branches) < 1e-11,
        "opposite_signs": all(
            b1.c_sign == -b2.c_sign
            for b1 in branches for b2 in branches
            if b1.k == b2.k and b1.branch == 1 and b2.branch == 2),
        "asymptote_start": devs[0] < 0.2,
        "asymptote_decreasing": all(devs[i + 1] < devs[i] for i in range(len(devs) - 1)),
        "straddle": cert.straddle_ok,
        "c_product_positive": cert.c_product > 0.0,
    }
    cert_doc = {
        "k": cert.branch.k, "branch": cert.branch.branch, "mu": cert.branch.mu_k,
        "stages": cert.stages, "c_product": cert.c_product,
        "witness_below": cert.witnesses["below"].preimage.y,
        "tangency_y": cert.branch.preimage.y,
        "witness_above": cert.witnesses["above"].preimage.y,
    }
    files = {"forge.csv": branches_to_csv(branches),
             "forge_certificate.json": json.dumps(cert_doc, indent=2, sort_keys=True)}
    return files, checks


def _exp_period2_sweep(doc, rng):
    model = model_from_json(doc["model"])
    coeffs = coeffs_from_json(doc["coeffs"])
    pairs = [tuple(p) for p in doc.get("schedule", {}).get("pairs", [])]
    targets = doc.get("s_targets", [-0.9, 0.0, 0.9])

    def solve(k, m, s):
        orbit = solve_period2_with_s(model, coeffs, k, m, s)
        s_rec, match = index2_criterion(model, coeffs, orbit)
        from .cycles import orbit_index
        idx = orbit_index(model, coeffs, orbit)
        return (k, m, s, orbit.mu, orbit.eta[0], orbit.eta[1],
                orbit.closure_residual, s_rec, idx, match)

    rows = [solve(k, m, s) for (k, m) in pairs for s in targets]
    lines = ["k,m,s_target,mu,eta1,eta2,closure,s_recovered,index,match"]
    for r in rows:
        lines.append(",".join([str(r[0]), str(r[1]), _fmt(r[2]), _fmt(r[3]),
                               _fmt(r[4]), _fmt(r[5]), _fmt(r[6]), _fmt(r[7]),
                               str(r[8]), str(r[9])]))
    floors = {(k, m): closure_oracle_floor(model, coeffs, k, m) for (k, m) in pairs}
    checks = {
        "all_match": all(r[9] for r in rows),
        "closure_within_floor": all(r[6] < floors[(r[0], r[1])] for r in rows),
        "count": len(rows),
    }
    return {"orbits.csv": "\n".join(lines) + "\n"}, checks


def _exp_hetdim(doc, rng, general: bool):
    model = model_from_json(doc["model"])
    coeffs = coeffs_from_json(doc["coeffs"])
    coeffs2 = coeffs_from_json(doc["coeffs2"]) if general else None
    pairs = [tuple(p) for p in doc.get("schedule", {}).get("pairs", [])]
    s_target = doc.get("s_target", 0.0)
    files = {}
    rows = ["k,m,mu,theta,gamma,closure,gap,index_outside"]
    mus, thetas = [], []
    checks = {}
    for (k, m) in pairs:
        if general:
            cert = solve_hetdim_general(model, coeffs, coeffs2, k, m, s_target)
            mu = cert.parameters["mu1"]
        else:
            cert = solve_hetdim_symmetric(model, coeffs, k, m, s_target)
            mu = cert.parameters["mu"]
        n_out = sum(1 for e in cert.index_evidence if abs(e) > 1.0)
        files[f"cycle_k{k}_m{m}.json"] = certificate_to_json(cert)
        rows.append(",".join([str(k), str(m), _fmt(mu), _fmt(cert.parameters["theta"]),
                              _fmt(cert.parameters["gamma"]),
                              _fmt(cert.residuals["closure"]),
                              _fmt(cert.residuals["gap"]), str(n_out)]))
        mus.append(mu)
        thetas.append(cert.parameters["theta"])
        checks[f"closure_k{k}_m{m}"] = cert.residuals["closure"] < 1e-10
        checks[f"gap_k{k}_m{m}"] = cert.residuals["gap"] < 1e-8
        checks[f"index_k{k}_m{m}"] = n_out == 2
    if len(mus) > 1:
        checks["mu_decreasing"] = all(abs(mus[i + 1]) < abs(mus[i])
                                      for i in range(len(mus) - 1))
    files["sweep.csv"] = "\n".join(rows) + "\n"
    return files, checks


def _exp_cone_battery(doc, rng):
    model = model_from_json(doc["model"])
    coeffs = coeffs_from_json(doc["coeffs"])
    pairs = [tuple(p) for p in doc.get("schedule", {}).get("pairs", [])]
    s_target = doc.get("s_target", 0.0)
    witnesses, labels = [], []
    ok_ratio = ok_comp = ok_bound = True
    lam_hat = abs(model.multipliers.lambda_hat)
    B_worst = 0.0
    for (k, m) in pairs:
        orbit = solve_period2_with_s(model, coeffs, k, m, s_target)
        chain = orbit_jacobian_chain(model, coeffs, orbit)
        cu = invariant_cu_subspace(chain)
        sw = invariant_s_subspace(chain)
        witnesses += [cu, sw]
        labels += [f"k{k}m{m}", f"k{k}m{m}"]
        ok_ratio &= cu.contraction_ratio < 1.0 and sw.contraction_ratio < 1.0
        full = sorted_eigvals(chain_product(chain))
        union = sorted(list(cu.eigenvalues) + list(sw.eigenvalues), key=lambda w: -abs(w))
        rho = max(abs(w) for w in full)
        ok_comp &= all(abs(a - b) <= 1e-8 * rho for a, b in zip(full, union))
        B = max(abs(w) for w in sw.eigenvalues) / lam_hat ** (k + m)
        B_worst = max(B_worst, B)
    checks = {"contraction": ok_ratio, "complementarity": ok_comp,
              "s_bound_B": B_worst, "s_bound_ok": B_worst <= 10.0}
    return {"cones.csv": cone_report_csv(witnesses, labels)}, checks


def _exp_leaf_fit(doc, rng):
    model = model_from_json(doc["model"])
    coeffs = coeffs_from_json(doc["coeffs"])
    ks = doc.get("schedule", {}).get("ks", list(range(8, 21, 2)))
    e1, e2, samples = leaf_exponent_fit(model, coeffs, ks)
    mult = model.multipliers
    t1 = np.log(mult.lambda0 / abs(mult.lam))
    t2 = np.log(abs(mult.lambda_hat) / abs(mult.gamma))
    checks = {"phi1_exponent": e1, "phi1_target": t1,
              "phi1_ok": abs(e1 / t1 - 1.0) < 0.1,
              "phi2_exponent": e2, "phi2_target": t2,
              "phi2_ok": abs(e2 / t2 - 1.0) < 0.1}
    return {"leaves.csv": leaf_report_csv(samples)}, checks


def _exp_c3prime_scan(doc, rng):
    from .flows import exponents_report
    scan = doc.get("scan", {"alpha": [0.1, 1.5, 8], "lam": [0.5, 1.5, 6]})
    a_lo, a_hi, a_n = scan["alpha"]
    l_lo, l_hi, l_n = scan["lam"]
    lines = ["alpha,lam,beta,alpha_weak,alpha_strong,strong_margin,area_value,ok"]
    n_ok = 0
    for a in np.linspace(a_lo, a_hi, int(a_n)):
        for l in np.linspace(l_lo, l_hi, int(l_n)):
            exp = equilibrium_exponents("morioka_shimizu", float(a), float(l))
            ok, (sm, av) = check_c3prime(exp)
            n_ok += ok
            lines.append(",".join([_fmt(a), _fmt(l), _fmt(exp.beta), _fmt(exp.alpha),
                                   _fmt(exp.alpha_strong[0].real), _fmt(sm),
                                   _fmt(av), str(ok)]))
    checks = {"grid_points": (int(a_n)) * int(l_n), "holds_somewhere": n_ok > 0}
    reference = {
        "lorenz_10_28_8over3": exponents_report(
            equilibrium_exponents("lorenz", 10.0, 28.0, 8.0 / 3.0)),
        "morioka_shimizu_0.5_1.0": exponents_report(
            equilibrium_exponents("morioka_shimizu", 0.5, 1.0)),
    }
    return {"c3prime.csv": "\n".join(lines) + "\n",
            "exponents.json": json.dumps(reference, indent=2, sort_keys=True)}, checks


def _exp_abs_orbits(doc, rng):
    cfg = AbsConfig(**doc.get("abs", {}))
    n_orbits = doc.get("orbits", {}).get("n", 10_000)
    n_steps = doc.get("orbits", {}).get("steps", 50)
    bound = abs_expansion_bound(cfg)
    worst = 0.0
    for _ in range(n_orbits):
        u0, v0 = rng.uniform(-cfg.half_width, cfg.half_width, 2)
        orb = simulate_poincare(cfg, float(u0), float(v0), n_steps)
        worst = max(worst, float(np.max(np.abs(orb.steps))))
    sample = simulate_poincare(cfg, 0.37, -0.11, 200)
    checks = {"expansion_bound": bound, "expanding": bound > 1.0,
              "trapping_max": worst, "trapped": worst < cfg.half_width}
    return {"abs_orbit.csv": orbit_csv(sample),
            "abs_report.json": json.dumps(checks, indent=2, sort_keys=True)}, checks


_RUNNERS = {
    "forge_tangency": _exp_forge_tangency,
    "period2_sweep": _exp_period2_sweep,
    "hetdim_symmetric": lambda doc, rng: _exp_hetdim(doc, rng, general=False),
    "hetdim_general": lambda doc, rng: _exp_hetdim(doc, rng, general=True),
    "cone_battery": _exp_cone_battery,
    "leaf_fit": _exp_leaf_fit,
    "c3prime_scan": _exp_c3prime_scan,
    "abs_orbits": _exp_abs_orbits,
}


def run_experiment(config_path: str, out_dir: str | None = None) -> int:
    """Execute the configured experiment; returns the process exit code."""
    _setup_logging()
    t0 = time.time()
    try:
        doc = json.loads(Path(config_path).read_text())
        doc = validate_config(doc)
    except (OSError, json.JSONDecodeError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    out = Path(out_dir or doc.get("out", "hetdim-out"))
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(doc.get("seed", 0))
    log.info("running %s -> %s", doc["experiment"], out)
    try:
        files, checks = _RUNNERS[doc["experiment"]](doc, rng)
    except ValidationError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"solver failure in {doc['experiment']}: {exc}", file=sys.stderr)
        return 1
    for name, content in files.items():
        (out / name).write_text(content)
    flat_ok = all(v for v in checks.values() if isinstance(v, bool))
    summary = {"experiment": doc["experiment"], "checks": checks, "all_ok": flat_ok}
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True,
                                                 default=str))
    manifest = {
        "config": doc,
        "versions": {"hetdim": __version__, "numpy": np.__version__,
                     "python": sys.version.split()[0]},
        "wall_time_s": time.time() - t0,
        "outputs": sorted(files) + ["summary.json"],
    }
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2, sort_keys=True,
                                                  default=str))
    for name, value in checks.items():
        if isinstance(value, bool):
            print(f"[{'PASS' if value else 'FAIL'}] {doc['experiment']}: {name}")
    return 0 if flat_ok else 1


def replay_certificate(path: str) -> int:
    """Re-verify a serialized cycle certificate; deterministic."""
    _setup_logging()
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 2
    try:
        checks = replay_certificate_dict(doc)
    except ValidationError as exc:
        print(f"certificate error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"replay failure: {exc}", file=sys.stderr)
        return 1
    for name, val in checks.items():
        if isinstance(val, dict):
            print(f"[{'PASS' if val['ok'] else 'FAIL'}] {name}: value={val.get('value')}")
    print(f"[{'PASS' if checks['all_ok'] else 'FAIL'}] certificate replay")
    return 0 if checks["all_ok"] else 1


def check_model(config_path: str) -> int:
    """Build the configured model and print its condition report."""
    _setup_logging()
    try:
        doc = json.loads(Path(config_path).read_text())
        model = model_from_json(doc["model"])
        coeffs = coeffs_from_json(doc["coeffs"]) if "coeffs" in doc else None
        coeffs2 = coeffs_from_json(doc["coeffs2"]) if "coeffs2" in doc else None
    except (OSError, json.JSONDecodeError, KeyError, ValidationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    from .saddle import check_conditions
    if coeffs is None:
        print(json.dumps({"theta": model.multipliers.theta, "symmetric": model.symmetric},
                         indent=2, sort_keys=True))
        return 0
    report = check_conditions(model, coeffs, coeffs2)
    out = {"c1_ok": report.c1_ok, "c2_ok": report.c2_ok, "c3_ok": report.c3_ok,
           "c4_leaf_gap": report.c4_leaf_gap, "theta": report.theta,
           "margins": report.margins}
    print(json.dumps(out, indent=2, sort_keys=True))
    return 0
