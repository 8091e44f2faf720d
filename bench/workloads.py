"""The benchmark's workloads: configs built from ``hetdim.presets`` specs,
and the correctness gate each item must pass.

An item is one ``runner.run_experiment`` call on one generated config.  Its
headline numbers are compared with ``reference.json`` (regenerate it with
``python3 bench/make_reference.py``) within absolute tolerances:

- ``mu`` and ``theta`` of a cycle or orbit: 1e-9, the agreement tolerance
  of acceptance criterion 9;
- ``eta1``, ``eta2`` of a period-2 orbit: 1e-12, the accept tolerance of the
  closure residuals (``cycles._closure_tols``), which are in the same
  coordinate units as these exit offsets;
- ``mu_k`` of a forged branch, and the forge certificate's ``mu``: 1e-12,
  the accept tolerance of the tangency residuals r1, r2, in which mu enters
  with coefficient 1 (``tangency.solve_secondary_tangency``).

Solves that end on the noise floor move by far less under a harmless change
of arithmetic: doubling the FD step, reordering the central difference or
refreshing the cycle solver's Jacobian every 2 steps in place of 4 moved no
number by more than 6e-11 (``theta``), 4e-18 (cycle ``mu``), 4.5e-16
(``eta``) or 6e-19 (``mu_k``).
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
from pathlib import Path

import numpy as np

from hetdim import runner
from hetdim.cycles import CycleCertificate, PeriodTwoOrbit, verify_transverse_connection
from hetdim.global_map import coeffs_from_json
from hetdim.presets import (base_model, battery_coeffs, battery_model, battery_pairs,
                            forge_coeffs, hetdim_coeffs, hetdim_model, hetdim_schedule)
from hetdim.saddle import SplitVector, model_from_json
from hetdim.tangency import TangencyBranch, verify_tangency_branch

REFERENCE = Path(__file__).with_name("reference.json")
MU_THETA_TOL = 1e-9
ETA_TOL = 1e-12
MU_K_TOL = 1e-12
DEFAULT_SEED = 0


def load_reference() -> dict:
    return json.loads(REFERENCE.read_text())


def quiet(fn, *args):
    """Call fn with stdout/stderr captured; returns (result, captured text)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        result = fn(*args)
    return result, buf.getvalue()


def _read_csv(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


class Workload:
    """A fixed list of items for a seed, each with a headline and a verifier."""

    name = ""
    # layers the traced run must see called, and layers it must never see
    nonzero: tuple[str, ...] = ()
    zero: tuple[str, ...] = ()

    def items(self, seed: int) -> dict[str, dict]:
        """Item key -> run config (without "out"), in run order."""
        raise NotImplementedError

    def headline(self, key: str, out: Path) -> dict[str, float]:
        """The item's headline numbers, read from its artifacts."""
        raise NotImplementedError

    def tolerance(self, name: str) -> float:
        """Absolute tolerance of a headline number against the reference."""
        raise NotImplementedError

    def verify(self, key: str, out: Path) -> list[str]:
        """Independent checks beyond summary.json; returns failure messages."""
        return []


class CycleSchedule(Workload):
    """hetdim_symmetric, one config per pair, each certificate replayed."""

    name = "cycle_schedule"
    # the pairs that fit one 30 s run; (36,30) alone takes 28 s on 2 cores
    pairs = hetdim_schedule()[:2]
    nonzero = ("saddle.t0_array", "saddle.t0_jac_array", "global_map.t1_array",
               "global_map.first_return_array", "numerics.newton_solve",
               "numerics.fd_jacobian", "numerics.orthonormal_frame",
               "cones.return_chain", "cones.stable_frame", "cones.stable_slopes",
               "cones.leaf_march", "cones.invariant_cu_subspace",
               "cycles.solve_period2_with_s", "cycles.orbit_index",
               "cycles.solve_hetdim_symmetric", "cycles.replay_certificate_dict",
               "runner.run_experiment")
    zero = ("local.solve_cross_form", "tangency.solve_secondary_tangency",
            "tangency.find_transverse_homoclinics", "tangency.forge_admissible_tangency")

    def items(self, seed):
        base = {"experiment": "hetdim_symmetric", "model": hetdim_model().spec(),
                "coeffs": hetdim_coeffs().spec(), "s_target": 0.0}
        return {f"k{k}_m{m}": {**base, "schedule": {"pairs": [[k, m]]}}
                for k, m in self.pairs}

    def headline(self, key, out):
        doc = json.loads((out / f"cycle_{key}.json").read_text())
        return {"mu": doc["parameters"]["mu"], "theta": doc["parameters"]["theta"]}

    def tolerance(self, name):
        return MU_THETA_TOL

    def verify(self, key, out):
        path = out / f"cycle_{key}.json"
        rc, text = quiet(runner.replay_certificate, str(path))
        fails = [] if rc == 0 else [f"hetdim replay exited {rc}: {text.strip()}"]
        doc = json.loads(path.read_text())
        tw = verify_transverse_connection(model_from_json(doc["model"]),
                                          coeffs_from_json(doc["coeffs"]),
                                          _certificate(doc))
        # the acceptance suite's criterion-8 bounds
        if not (tw["found"] and tw["iterations_used"] <= 50):
            fails.append("transverse connection not found within 50 returns")
        if tw["factor_measurable"]:
            ratio = tw["area_factors"][0] / tw["predicted_first_factor"]
            if abs(ratio - 1.0) >= 0.15:
                fails.append(f"area factor off by {ratio - 1.0:+.3f} (limit 0.15)")
        return fails


def _certificate(doc: dict) -> CycleCertificate:
    pts = {name: SplitVector(v[0], v[1], np.array(v[2:])) for name, v in doc["points"].items()}
    orbit = PeriodTwoOrbit(points=pts, itinerary=tuple(doc["itinerary"]),
                           eta=tuple(doc["eta"]), mu=doc["parameters"]["mu"],
                           closure_residual=doc["residuals"]["closure"])
    return CycleCertificate(mode=doc["mode"], parameters=doc["parameters"], orbit=orbit,
                            index_evidence=[complex(*e) for e in doc["index_evidence"]],
                            quasi_connection=doc["quasi_connection"],
                            theta_decomposition=doc["theta_decomposition"],
                            model_spec=doc["model"], coeffs_spec=doc["coeffs"],
                            coeffs2_spec=doc["coeffs2"])


class Period2Battery(Workload):
    """period2_sweep over battery_pairs() x seed-drawn s-targets, one orbit
    per config."""

    name = "period2_battery"
    # the battery's closed-form index window is exact on [-0.9, 0.9]; the
    # seed draws from this grid, which the committed reference covers
    s_grid = tuple(i * 15 / 100 for i in range(-6, 7))
    preset_targets = (-0.9, 0.0, 0.9)
    nonzero = ("saddle.t0_array", "saddle.t0_jac_array", "global_map.t1_array",
               "numerics.newton_solve", "numerics.fd_jacobian", "cones.return_chain",
               "cycles.solve_period2_with_s", "cycles.orbit_index", "runner.run_experiment")
    zero = ("cones.stable_frame", "cones.stable_slopes", "cones.leaf_march",
            "local.solve_cross_form", "tangency.solve_secondary_tangency",
            "tangency.find_transverse_homoclinics", "tangency.forge_admissible_tangency")

    def s_targets(self, seed: int) -> list[float]:
        if seed == DEFAULT_SEED:
            return list(self.preset_targets)
        rng = np.random.default_rng(seed)
        return sorted(float(s) for s in rng.choice(self.s_grid, size=3, replace=False))

    def items(self, seed, targets=None):
        base = {"experiment": "period2_sweep", "model": battery_model().spec(),
                "coeffs": battery_coeffs().spec()}
        return {f"k{k}_m{m}_s{s:+.2f}": {**base, "schedule": {"pairs": [[k, m]]},
                                          "s_targets": [s]}
                for k, m in battery_pairs()
                for s in (self.s_targets(seed) if targets is None else targets)}

    def headline(self, key, out):
        (row,) = _read_csv(out / "orbits.csv")
        return {"mu": float(row["mu"]), "eta1": float(row["eta1"]),
                "eta2": float(row["eta2"])}

    def tolerance(self, name):
        return MU_THETA_TOL if name == "mu" else ETA_TOL

    def verify(self, key, out):
        (row,) = _read_csv(out / "orbits.csv")
        return [] if row["index"] == "2" else [f"index {row['index']} inside the window"]


class TangencyForge(Workload):
    """forge_tangency on the linear base model, one config per sign case."""

    name = "tangency_forge"
    cases = ("cdx_neg_d_neg", "cdx_pos_d_neg", "cdx_neg_d_pos", "cdx_pos_d_pos")
    ks = list(range(12, 25, 2))
    nonzero = ("saddle.t0_array", "saddle.t0_jac_array", "global_map.t1_array",
               "local.solve_cross_form", "numerics.newton_solve", "numerics.fd_jacobian",
               "tangency.solve_secondary_tangency", "tangency.find_transverse_homoclinics",
               "tangency.forge_admissible_tangency", "runner.run_experiment")
    zero = ("cones.return_chain", "cones.stable_frame", "cones.stable_slopes",
            "cones.leaf_march", "cones.invariant_cu_subspace",
            "cycles.solve_period2_with_s", "cycles.solve_hetdim_symmetric")

    def items(self, seed):
        model = base_model("linear").spec()
        return {case: {"experiment": "forge_tangency", "model": model,
                       "coeffs": forge_coeffs(case).spec(), "schedule": {"ks": self.ks}}
                for case in self.cases}

    def verify(self, key, out):
        # the double-root check of test_tangency, at the stay numbers it
        # covers; at deeper k its 1e-6 probe steps leave the strip
        model, coeffs = base_model("linear"), forge_coeffs(key)
        fails = []
        for r in _read_csv(out / "forge.csv"):
            if int(r["k"]) not in (12, 16):
                continue
            br = TangencyBranch(k=int(r["k"]), branch=int(r["branch"]), mu_k=float(r["mu_k"]),
                                X=float(r["X"]), Y=float(r["Y"]), residual=float(r["residual"]),
                                case=key, tangency_point=None, preimage=None,
                                t_param=float(r["X"]) / coeffs.b)
            value, slope, second, offset = verify_tangency_branch(model, coeffs, br)
            if not (value < 1e-9 and slope < 1e-9 and offset < 1e-6 and abs(second) > 1.0):
                fails.append(f"k{br.k}_b{br.branch}: double-root check failed "
                             f"(value {value:.1e}, slope {slope:.1e}, vertex offset "
                             f"{offset:.1e}, second derivative {second:.3g})")
        return fails

    def headline(self, key, out):
        nums = {f"k{r['k']}_b{r['branch']}": float(r["mu_k"])
                for r in _read_csv(out / "forge.csv")}
        cert = json.loads((out / "forge_certificate.json").read_text())
        nums["certificate"] = cert["mu"]
        return nums

    def tolerance(self, name):
        return MU_K_TOL


WORKLOADS = {w.name: w for w in (CycleSchedule(), Period2Battery(), TangencyForge())}


def compare(wl: Workload, got: dict[str, float], ref: dict[str, float]) -> list[str]:
    """Headline numbers against the reference; returns failure messages."""
    fails = [f"{name}: missing" for name in ref if name not in got]
    fails += [f"{name}: not in the reference" for name in got if name not in ref]
    for name in ref:
        if name in got and not abs(got[name] - ref[name]) <= wl.tolerance(name):
            fails.append(f"{name}: {got[name]!r} vs reference {ref[name]!r} "
                         f"(tolerance {wl.tolerance(name):g})")
    return fails


def prepare(name: str, seed: int) -> tuple[Workload, dict[str, str], dict]:
    """Set-up of one run: the workload, its configs as JSON, its reference."""
    wl = WORKLOADS[name]
    configs = {key: json.dumps(cfg, sort_keys=True) for key, cfg in wl.items(seed).items()}
    return wl, configs, load_reference()[name]
