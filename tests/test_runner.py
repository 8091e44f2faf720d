from __future__ import annotations

import csv
import hashlib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from test_tangency import _failing_seed

from hetdim import runner, tangency
from hetdim.cli import main
from hetdim.cycles import SCHEMA_VERSION
from hetdim.presets import (base_model, battery_coeffs, battery_model, d4_model,
                            forge_coeffs, hetdim_coeffs, hetdim_model, leaf_coeffs,
                            leaf_model)


def _write(tmp_path: Path, name: str, doc: dict) -> str:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


@pytest.fixture()
def hetdim_cfg(tmp_path):
    return _write(tmp_path, "cfg.json", {
        "seed": 1,
        "experiment": "hetdim_symmetric",
        "model": hetdim_model().spec(),
        "coeffs": hetdim_coeffs().spec(),
        "schedule": {"pairs": [[12, 10]]},
        "s_target": 0.0,
        "out": str(tmp_path / "out"),
    })


def test_run_emits_certificates_and_summary(hetdim_cfg, tmp_path, capsys):
    assert main(["run", "--config", hetdim_cfg]) == 0
    out = tmp_path / "out"
    assert (out / "cycle_k12_m10.json").exists()
    assert (out / "sweep.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["all_ok"]
    manifest = json.loads((out / "manifest.json").read_text())
    assert "wall_time_s" in manifest and "versions" in manifest
    lines = capsys.readouterr().out.strip().split("\n")
    assert any(line.startswith("[PASS]") for line in lines)


def test_replay_of_fresh_certificate(hetdim_cfg, tmp_path):
    assert main(["run", "--config", hetdim_cfg]) == 0
    cert = str(tmp_path / "out" / "cycle_k12_m10.json")
    assert main(["replay", cert]) == 0


def test_replay_perturbed_certificate_fails(hetdim_cfg, tmp_path):
    assert main(["run", "--config", hetdim_cfg]) == 0
    path = tmp_path / "out" / "cycle_k12_m10.json"
    doc = json.loads(path.read_text())
    doc["coeffs"]["mu"] += 1e-3
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    assert main(["replay", str(bad)]) == 1


def test_replay_schema_mismatch_is_input_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema_version": 42}))
    assert main(["replay", str(bad)]) == 2


def test_malformed_schedule_exits_two(tmp_path, capsys):
    cfg = _write(tmp_path, "bad.json", {
        "experiment": "hetdim_symmetric",
        "model": hetdim_model().spec(),
        "coeffs": hetdim_coeffs().spec(),
        "schedule": {"pairs": [[13, 10]]},
    })
    assert main(["run", "--config", cfg]) == 2
    assert "itinerary parity: k must be even" in capsys.readouterr().err


def _specs(experiment):
    """The model and coefficients an experiment needs, or none."""
    if experiment in ("abs_orbits", "c3prime_scan"):
        return {}
    if experiment == "forge_tangency":
        return {"model": base_model("linear").spec(),
                "coeffs": forge_coeffs("cdx_neg_d_neg").spec()}
    return {"model": battery_model().spec(), "coeffs": battery_coeffs().spec()}


# an entry of the config of the experiment that reads it, malformed, and
# the rule it breaks
MALFORMED_ENTRIES = [
    ("hetdim_symmetric", {"schedule": "x"}, "schedule must be a JSON object"),
    ("hetdim_symmetric", {"schedule": {"pairs": [[14]]}}, "schedule.pairs must be [k, m] pairs"),
    ("forge_tangency", {"schedule": {"ks": ["12"]}}, "schedule.ks must be a list of"),
    ("period2_sweep", {"schedule": {"pairs": [[14, 12]]}, "s_targets": 0.5},
     "s_targets must be a list of numbers"),
    ("hetdim_symmetric", {"schedule": {"pairs": [[14, 12]]}, "s_target": "x"},
     "s_target must be a number"),
    ("abs_orbits", {"abs": {"rhoo": 0.7}}, "abs must map some of ['A', 'rho'"),
    ("c3prime_scan", {"scan": {"alpha": [0.1, 1.5], "lam": [0.5, 1.5, 6]}},
     "scan must give alpha and lam as [lo, hi, n]"),
    ("abs_orbits", {"orbits": [1]}, "orbits must be a JSON object"),
    ("abs_orbits", {"seed": "x"}, "seed must be a non-negative integer"),
    ("abs_orbits", {"seed": -1}, "seed must be a non-negative integer"),
]


@pytest.mark.parametrize("experiment, entry, rule", MALFORMED_ENTRIES)
def test_malformed_config_entry_exits_two(tmp_path, capsys, experiment, entry, rule):
    # the run names the broken rule and leaves no output directory, where it
    # would crash with a traceback inside the experiment
    out = tmp_path / "out"
    cfg = _write(tmp_path, "bad.json", {"experiment": experiment, **_specs(experiment),
                                        **entry, "out": str(out)})
    assert main(["run", "--config", cfg]) == 2
    assert capsys.readouterr().err.startswith(f"config error: {rule}")
    assert not out.exists()


def test_unknown_experiment_exits_two(tmp_path):
    cfg = _write(tmp_path, "bad.json", {"experiment": "nope"})
    assert main(["run", "--config", cfg]) == 2


def test_check_model(tmp_path, capsys):
    cfg = _write(tmp_path, "m.json", {
        "model": hetdim_model().spec(),
        "coeffs": hetdim_coeffs().spec(),
    })
    assert main(["check-model", "--config", cfg]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["c1_ok"] and out["c2_ok"] and out["c3_ok"]
    assert out["c4_leaf_gap"] == 0.0


def test_c3prime_scan_runs(tmp_path):
    cfg = _write(tmp_path, "scan.json", {
        "experiment": "c3prime_scan",
        "scan": {"alpha": [0.2, 1.0, 3], "lam": [0.8, 1.2, 3]},
        "out": str(tmp_path / "scan"),
    })
    assert main(["run", "--config", cfg]) == 0
    csv = (tmp_path / "scan" / "c3prime.csv").read_text()
    assert csv.startswith("alpha,lam,beta")
    assert len(csv.strip().split("\n")) == 10


def test_runs_are_byte_identical(tmp_path):
    base = {
        "seed": 7,
        "experiment": "abs_orbits",
        "orbits": {"n": 500, "steps": 40},
    }
    cfg_a = _write(tmp_path, "a.json", {**base, "out": str(tmp_path / "a")})
    cfg_b = _write(tmp_path, "b.json", {**base, "out": str(tmp_path / "b")})
    assert main(["run", "--config", cfg_a]) == 0
    assert main(["run", "--config", cfg_b]) == 0
    for name in ("abs_orbit.csv", "abs_report.json", "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_abs_orbits_draws_are_pinned(tmp_path):
    # the seed feeds abs_orbits' own generator; these digests were taken when
    # run_experiment built one generator for every experiment, so moving it
    # changed no draw (glibc x86-64; abs_report.json's trapping maximum is
    # the largest step of the seed-7 orbits)
    cfg = _write(tmp_path, "a.json", {"seed": 7, "experiment": "abs_orbits",
                                      "orbits": {"n": 500, "steps": 40},
                                      "out": str(tmp_path / "a")})
    assert main(["run", "--config", cfg]) == 0
    digests = {name: hashlib.sha256((tmp_path / "a" / name).read_bytes()).hexdigest()
               for name in ("abs_orbit.csv", "abs_report.json")}
    assert digests == {
        "abs_orbit.csv": "22bab97d2880b08a4b26a4c5f42bbc53ede142bf9e398f519a7e2cad6d2ac5b1",
        "abs_report.json": "b826d50d8d83aa9cb23ef5d747c803c6a2b752435998d284c9c601d02bc6a8f7",
    }


@pytest.mark.parametrize("experiment, loaded", [("period2_sweep", False),
                                                ("abs_orbits", True)])
def test_only_abs_orbits_loads_numpy_random(tmp_path, experiment, loaded):
    # numpy.random costs a fresh process about 6 MB of resident memory; only
    # the experiment that draws random numbers may import it
    doc = {"experiment": experiment, "out": str(tmp_path / experiment)}
    if experiment == "period2_sweep":
        doc.update(model=battery_model().spec(), coeffs=battery_coeffs().spec(),
                   schedule={"pairs": [[14, 12]]}, s_targets=[0.0])
    else:
        doc.update(orbits={"n": 5, "steps": 10})
    cfg = _write(tmp_path, "cfg.json", doc)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys; sys.path.insert(0, sys.argv[1]); from hetdim import runner; "
            "rc = runner.run_experiment(sys.argv[2]); "
            "print(rc, 'numpy.random' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, str(src), cfg],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split()[-2:] == ["0", str(loaded)]


def test_remaining_experiments_run(tmp_path):
    from hetdim.presets import battery_coeffs, battery_model
    runs = [
        ("period2_sweep", {"model": battery_model().spec(),
                           "coeffs": battery_coeffs().spec(),
                           "schedule": {"pairs": [[14, 12], [16, 14]]},
                           "s_targets": [0.0, 0.9]}, "orbits.csv"),
        ("cone_battery", {"model": battery_model().spec(),
                          "coeffs": battery_coeffs().spec(),
                          "schedule": {"pairs": [[14, 12]]}}, "cones.csv"),
        ("leaf_fit", {"model": leaf_model().spec(),
                      "coeffs": leaf_coeffs().spec(),
                      "schedule": {"ks": [8, 10, 12, 14, 16, 18, 20]}}, "leaves.csv"),
        ("hetdim_general", {"model": hetdim_model().spec(),
                            "coeffs": hetdim_coeffs().spec(),
                            "coeffs2": hetdim_coeffs().spec(),
                            "schedule": {"pairs": [[12, 10]]}}, "sweep.csv"),
    ]
    for experiment, extra, artifact in runs:
        out = tmp_path / experiment
        cfg = _write(tmp_path, f"{experiment}.json",
                     {"experiment": experiment, "out": str(out), **extra})
        assert main(["run", "--config", cfg]) == 0, experiment
        assert (out / artifact).exists()
        assert json.loads((out / "summary.json").read_text())["all_ok"]


def test_numpy_bool_checks_are_reported(tmp_path, capsys):
    # leaf_fit's phi1_ok/phi2_ok compare numpy scalars, so they are np.bool_
    out = tmp_path / "leaf"
    cfg = _write(tmp_path, "leaf.json", {"experiment": "leaf_fit", "out": str(out),
                                         "model": leaf_model().spec(),
                                         "coeffs": leaf_coeffs().spec()})
    assert main(["run", "--config", cfg]) == 0
    printed = capsys.readouterr().out.split("\n")
    assert "[PASS] leaf_fit: phi1_ok" in printed
    assert "[PASS] leaf_fit: phi2_ok" in printed
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"]["phi1_ok"] is True
    assert summary["checks"]["phi2_ok"] is True


def test_numpy_false_check_fails_the_run(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(runner._RUNNERS, "leaf_fit",
                        lambda doc: ({}, {"fit_ok": np.False_, "count": 3}))
    out = tmp_path / "leaf"
    cfg = _write(tmp_path, "leaf.json", {"experiment": "leaf_fit", "out": str(out),
                                         "model": leaf_model().spec(),
                                         "coeffs": leaf_coeffs().spec()})
    assert main(["run", "--config", cfg]) == 1
    assert "[FAIL] leaf_fit: fit_ok" in capsys.readouterr().out
    summary = json.loads((out / "summary.json").read_text())
    assert summary["checks"] == {"fit_ok": False, "count": 3}
    assert summary["all_ok"] is False


def test_stale_jobs_key_is_ignored(tmp_path):
    # configs written for the removed thread pool may still carry "jobs"
    from hetdim.presets import battery_coeffs, battery_model
    base = {"experiment": "period2_sweep",
            "model": battery_model().spec(), "coeffs": battery_coeffs().spec(),
            "schedule": {"pairs": [[14, 12], [16, 14], [16, 12]]},
            "s_targets": [0.0, 0.9]}
    for tag, extra in (("plain", {}), ("jobs", {"jobs": 3})):
        cfg = _write(tmp_path, f"{tag}.json",
                     {**base, **extra, "out": str(tmp_path / tag)})
        assert main(["run", "--config", cfg]) == 0
    assert ((tmp_path / "plain" / "orbits.csv").read_bytes()
            == (tmp_path / "jobs" / "orbits.csv").read_bytes())


def test_forge_solves_each_scheduled_k_once(tmp_path, monkeypatch):
    # forge.csv reuses the branch pairs the forge solved, with its straddle
    # verdict: the forge solves the whole schedule in one call, and the
    # runner solves nothing again
    solved, calls = [], []
    solve = tangency.solve_secondary_tangency

    def counting(model, coeffs, k):
        calls.append(k)
        solved.extend([k] if np.ndim(k) == 0 else k)
        return solve(model, coeffs, k)

    monkeypatch.setattr(tangency, "solve_secondary_tangency", counting)
    monkeypatch.setattr(runner, "solve_secondary_tangency", counting)
    out = tmp_path / "forge"
    cfg = _write(tmp_path, "forge.json", {"experiment": "forge_tangency", "out": str(out),
                                          "model": base_model("linear").spec(),
                                          "coeffs": forge_coeffs("cdx_neg_d_neg").spec(),
                                          "schedule": {"ks": [12, 14]}})
    assert main(["run", "--config", cfg]) == 0
    assert sorted(solved) == [12, 14] and len(calls) == 1
    with (out / "forge.csv").open(newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["k"], r["branch"]) for r in rows] == [("12", "1"), ("12", "2"),
                                                     ("14", "1"), ("14", "2")]
    assert all(r["c_sign"] in ("1", "-1") for r in rows)
    cert = json.loads((out / "forge_certificate.json").read_text())
    certified = [r["straddle_ok"] for r in rows
                 if (int(r["k"]), int(r["branch"])) == (cert["k"], cert["branch"])]
    assert certified == ["True"]


def test_forge_fails_on_a_k_past_the_certified_one(tmp_path, monkeypatch, capsys):
    # the forge certifies at k = 12; a k past it whose solve diverges still
    # fails the run
    _failing_seed(monkeypatch, 16)
    doc = {"experiment": "forge_tangency", "model": base_model("linear").spec(),
           "coeffs": forge_coeffs("cdx_neg_d_neg").spec(), "schedule": {"ks": [12, 14, 16]}}
    cert = tangency.forge_admissible_tangency(base_model("linear"),
                                              forge_coeffs("cdx_neg_d_neg"), [12, 14, 16])
    assert cert.branch.k == 12 and list(cert.branches) == [12]
    cfg = _write(tmp_path, "forge.json", {**doc, "out": str(tmp_path / "forge")})
    assert main(["run", "--config", cfg]) == 1
    assert "secondary tangency diverged (k=16, branch 1, " in capsys.readouterr().err


def test_forge_straddle_check_reads_the_witnesses(tmp_path, monkeypatch):
    # the straddle check verifies the certificate's recorded witnesses:
    # swapped, they no longer straddle the tangency preimage and the run fails
    forge = runner.forge_admissible_tangency

    def swapped(model, coeffs, ks):
        cert = forge(model, coeffs, ks)
        w = cert.witnesses
        w["below"], w["above"] = w["above"], w["below"]
        return cert

    out = tmp_path / "forge"
    cfg = _write(tmp_path, "forge.json", {"experiment": "forge_tangency", "out": str(out),
                                          "model": base_model("linear").spec(),
                                          "coeffs": forge_coeffs("cdx_neg_d_neg").spec(),
                                          "schedule": {"ks": [12]}})
    assert main(["run", "--config", cfg]) == 0
    assert json.loads((out / "summary.json").read_text())["checks"]["straddle"] is True
    monkeypatch.setattr(runner, "forge_admissible_tangency", swapped)
    assert main(["run", "--config", cfg]) == 1
    assert json.loads((out / "summary.json").read_text())["checks"]["straddle"] is False


# input errors next to a D=4 model, each with the message that names it: a
# coefficient set with one z entry, then its alpha with one row, with two
# rows, and with a ragged z-block
MIXED_INPUTS = [
    (None, "coefficient z-block has 1 entries, but a dim-4 model needs 2"),
    ([[0.1]], "alpha has rows of lengths [1]: expected 2 + (D-2) rows of length D-2"),
    ([[0.1, 0.0], [0.2, 0.0]], "alpha has rows of lengths [2, 2]"),
    ([[0.1, 0.0], [0.2, 0.0], [0.3, 0.0], [0.4]], "alpha has rows of lengths [2, 2, 2, 1]"),
]


def _mixed_coeffs(alpha):
    spec = battery_coeffs().spec()
    return spec if alpha is None else {**spec, "alpha": alpha}


def _mixed_dimensions(tmp_path, experiment, alpha=None):
    """A D=4 model next to a coefficient set with one z entry, or with the
    given alpha rows."""
    return _write(tmp_path, "mixed.json", {
        "experiment": experiment, "model": d4_model().spec(),
        "coeffs": _mixed_coeffs(alpha),
        "schedule": {"pairs": [[14, 12]], "ks": [12]}, "out": str(tmp_path / "out")})


@pytest.mark.parametrize("experiment", ["period2_sweep", "forge_tangency", "hetdim_symmetric"])
def test_run_with_mixed_dimensions_is_a_config_error(tmp_path, capsys, experiment):
    for alpha, message in MIXED_INPUTS:
        assert main(["run", "--config", _mixed_dimensions(tmp_path, experiment, alpha)]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}"), alpha
        # the config failed before any artifact: no output directory is left
        assert not (tmp_path / "out").exists(), alpha


def test_check_model_with_mixed_dimensions_is_a_config_error(tmp_path, capsys):
    for alpha, message in MIXED_INPUTS:
        cfg = _mixed_dimensions(tmp_path, "period2_sweep", alpha)
        assert main(["check-model", "--config", cfg]) == 2
        assert capsys.readouterr().err.startswith(f"config error: {message}"), alpha


def test_replay_with_mixed_dimensions_is_a_certificate_error(tmp_path, capsys):
    for alpha, message in MIXED_INPUTS:
        cert = _write(tmp_path, "cert.json", {"schema_version": SCHEMA_VERSION,
                                              "model": d4_model().spec(),
                                              "coeffs": _mixed_coeffs(alpha)})
        assert main(["replay", cert]) == 2
        assert capsys.readouterr().err.startswith(f"certificate error: {message}"), alpha
