from __future__ import annotations

import json
from pathlib import Path

import pytest

from hetdim.cli import main
from hetdim.presets import hetdim_coeffs, hetdim_model, leaf_coeffs, leaf_model


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
