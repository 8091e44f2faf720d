"""hetdim benchmark: certified-solve time per workload, and per-layer traces.

    python3 bench/run.py --workload cycle_schedule --seed 0 --seconds 30 --trace 0

Each workload runs in this one process, serially, as a closed loop with one
caller: an item (one ``runner.run_experiment`` call on a generated config)
starts only after the previous one and its checks have finished.  The batch
of all the workload's items repeats while the next one fits in
``--seconds``.  The process is pinned to one CPU, BLAS to one thread, and no
config carries ``jobs``.  Times are calibrated against the host's speed
(``speed.py``); the raw times are kept in the result file.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs a traced
batch, an untraced batch and a second traced batch, and prints the per-layer
metrics and the tracing overhead.  Every item passes the correctness gate of
``workloads.py``; a miss is printed by item and counted in ``failed``, and
the run exits 1.  A run whose times cannot be calibrated exits 3 with no
result.  The last stdout line is the JSON result.  Artifacts, the result
with its provenance, the speed probes and the recorded spans go to
``bench/out/``.
"""

from __future__ import annotations

import os

# before numpy loads: one BLAS thread, so the closed loop has one busy core
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse
import hashlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SETUP_REPEATS = 7
# each item's checks run this many times back to back; its verify_s is
# their calibrated time over the count
VERIFY_REPEATS = 3
# a set-up probe: interpreter start, import hetdim, configs and reference
SETUP_PROBE = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
               "workloads.prepare(sys.argv[3], int(sys.argv[4]))")
END_TO_END_UNITS = {"wall_s": "s", "item_s.p50": "s", "item_s.tail": "s",
                    "verify_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

sys.path.insert(0, str(SRC))


def measure_setup(workload: str, seed: int, probe) -> list[tuple[float, float]]:
    """(start, end) of fresh set-up processes; they share this process's CPU
    and so its speed probes."""
    spans = []
    for _ in range(SETUP_REPEATS):
        probe.fixed_point()
        t = perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_PROBE, str(BENCH), str(SRC),
                        workload, str(seed)], check=True, cwd=ROOT)
        spans.append((t, perf_counter()))
    probe.fixed_point()
    return spans


def check_item(wl, key: str, out: Path, rc, text: str, ref: dict) -> list[str]:
    """The correctness gate of one item; returns failure messages."""
    import workloads
    if rc != 0:
        return [f"run_experiment exited {rc}: {text.strip()[-400:]}"]
    summary = json.loads((out / "summary.json").read_text())
    if summary.get("all_ok") is not True:
        bad = sorted(k for k, v in summary["checks"].items() if v is False)
        fails = [f"summary.json all_ok is false ({', '.join(bad)})"]
    else:
        fails = []
    try:
        fails += wl.verify(key, out)
        fails += workloads.compare(wl, wl.headline(key, out), ref)
    except Exception:  # a broken artifact is a failed item, not a crashed run
        fails.append("check raised " + traceback.format_exc(limit=3).strip())
    return fails


def run_batch(wl, configs: dict[str, Path], reference: dict, out_dir: Path, probe,
              tracer=None, first_item: int = 0, repeats: int = VERIFY_REPEATS) -> dict:
    """Run every item once and its checks ``repeats`` times; times are raw
    until ``calibrate`` fills them.  Speed probes run at fixed points between
    items."""
    from hetdim import runner
    import workloads
    items = []
    t_batch = perf_counter()
    for n, (key, cfg) in enumerate(configs.items()):
        out = out_dir / key
        if tracer is not None:
            tracer.item = first_item + n
        probe.fixed_point()
        t0 = perf_counter()
        try:
            rc, text = workloads.quiet(runner.run_experiment, str(cfg), str(out))
        except Exception:  # counted as a failed item; the loop goes on
            rc, text = None, traceback.format_exc()
        t1 = perf_counter()
        fails = []
        for _ in range(repeats):
            fails += [f for f in check_item(wl, key, out, rc, text, reference[key])
                      if f not in fails]
        t2 = perf_counter()
        items.append({"key": key, "t": (t0, t1), "checks": (t1, t2), "repeats": repeats,
                      "raw_item_s": t1 - t0, "raw_verify_s": (t2 - t1) / repeats,
                      "failures": fails})
    probe.fixed_point()
    t_end = perf_counter()
    return {"dir": out_dir.name, "t": (t_batch, t_end), "raw_wall_s": t_end - t_batch,
            "items": items}


def calibrate(batches: list[dict], probe):
    """Fill in the calibrated times of finished batches, with the probe
    counts of each calibration window.  A batch's wall time counts each
    item's checks once."""
    for b in batches:
        b["wall_s"], b["probes"] = probe.calibrate(*b["t"])
        for it in b["items"]:
            it["item_s"], item_probes = probe.calibrate(*it["t"])
            checks_s, verify_probes = probe.calibrate(*it["checks"])
            it["verify_s"] = checks_s / it["repeats"]
            it["probes"] = {"item": item_probes, "verify": verify_probes}
            b["wall_s"] -= checks_s - it["verify_s"]
        b["verify_s"] = sum(it["verify_s"] for it in b["items"])


def tail_stat(times: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest rank with 10 items beyond it; the
    slowest item when that rank would not lie above the median."""
    xs = sorted(times)
    j = len(xs) - 11
    if j < len(xs) // 2:
        j = len(xs) - 1
    return xs[j], 100.0 * (j + 1) / len(xs)


def timed_run(wl, configs, reference, run_dir: Path, seconds: float, probe) -> list[dict]:
    batches = []
    start = perf_counter()
    while True:
        batches.append(run_batch(wl, configs, reference, run_dir / f"batch{len(batches)}",
                                 probe))
        raw_walls = [b["raw_wall_s"] for b in batches]
        if perf_counter() - start + statistics.median(raw_walls) > seconds:
            return batches


def end_to_end(wl, configs, batches: list[dict]) -> dict:
    """Medians over batches.  The item statistics are taken within each
    batch, so their percentile does not depend on how many batches fit."""
    p50s, tails = [], []
    for b in batches:
        times = [it["item_s"] for it in b["items"]]
        p50s.append(statistics.median(times))
        tail, pct = tail_stat(times)
        tails.append(tail)
    metrics = {"wall_s": statistics.median(b["wall_s"] for b in batches),
               "item_s.p50": statistics.median(p50s),
               "item_s.tail": statistics.median(tails),
               "verify_s": statistics.median(b["verify_s"] for b in batches)}
    print(f"{wl.name}: {len(batches)} batches of {len(configs)} items; "
          f"item_s.tail is p{pct:.1f} of a batch")
    return metrics


def _artifacts(batch_dir: Path) -> dict[str, bytes]:
    # manifest.json carries wall time and is outside the byte-identity promise
    return {str(p.relative_to(batch_dir)): p.read_bytes()
            for p in sorted(batch_dir.rglob("*")) if p.is_file() and p.name != "manifest.json"}


def traced_run(wl, configs, reference, run_dir: Path, probe) -> tuple[list, list, list[str]]:
    """Traced, untraced and traced batch; returns the batches, the per-layer
    totals of the traced ones, and the tracer self-check failures."""
    from tracer import Tracer
    tracer = Tracer()
    batches, totals = [], []

    def batch(tag: str, traced: bool):
        first = sum(len(b["items"]) for b in batches)
        if traced:
            tracer.reset_totals()
            # spans of the first traced batch only, to bound memory; the
            # second one gives totals for the repeat check
            tracer.recording = not totals
            tracer.install()
        try:
            # checks once per item, so that the layer counts are those of
            # one certified batch
            batches.append(run_batch(wl, configs, reference, run_dir / tag, probe,
                                     tracer if traced else None, first, repeats=1))
        finally:
            tracer.uninstall()
        if traced:
            totals.append(tracer.totals())

    # untraced batch in the middle, so warm-up favours neither side
    batch("traced0", True)
    batch("untraced", False)
    batch("traced1", True)
    tracer.save(run_dir / "spans.npz")

    fails = []
    plain = _artifacts(run_dir / "untraced")
    for tag in ("traced0", "traced1"):
        if _artifacts(run_dir / tag) != plain:
            fails.append(f"{tag}: artifacts differ from the untraced batch")
    first, second = totals
    fails += [f"{name}: {first[name]} then {second[name]} across traced batches"
              for name in first if not name.endswith("_s") and first[name] != second[name]]
    fails += [f"{n}.calls is 0; expected calls" for n in wl.nonzero if first[f"{n}.calls"] == 0]
    fails += [f"{n}.calls is {first[f'{n}.calls']}; predicted 0" for n in wl.zero
              if first[f"{n}.calls"] != 0]
    (run_dir / "layers.json").write_text(json.dumps(totals, indent=1))
    return batches, totals, fails


def per_layer(batches: list[dict], totals: list[dict]) -> dict:
    from tracer import layer_metric_units
    metrics = {}
    for name in layer_metric_units():
        if name == "trace.overhead_s":
            traced_wall = statistics.fmean(b["wall_s"] for b in (batches[0], batches[2]))
            metrics[name] = traced_wall - batches[1]["wall_s"]
        elif name.endswith("_s"):
            # each traced batch's self times, at its calibrated speed
            metrics[name] = statistics.fmean(
                t[name] * b["wall_s"] / b["raw_wall_s"]
                for t, b in zip(totals, (batches[0], batches[2])))
        else:
            metrics[name] = totals[0][name]
    return metrics


def provenance(seed: int) -> dict:
    import numpy as np
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], check=True,
                                capture_output=True, text=True).stdout.strip()
    sources = sorted((SRC / "hetdim").glob("*.py"))
    digest = hashlib.sha256()
    for path in sources:
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"commit": commit, "src_sha256": digest.hexdigest(), "seed": seed,
            "nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": np.__version__, "blas": blas.get("name"), "blas_threads": BLAS_THREADS,
            "src_lines": sum(len(p.read_text().splitlines()) for p in sources)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import workloads
    except ImportError as exc:
        print(f"cannot import the hetdim package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2
    import speed

    # one CPU for this process and its set-up children, so that the speed
    # probe measures the CPU the timed work runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl, configs, reference = workloads.prepare(args.workload, args.seed)
    run_dir = OUT / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(run_dir, ignore_errors=True)
    (run_dir / "configs").mkdir(parents=True)
    cfg_paths = {}
    for key, text in configs.items():
        cfg_paths[key] = run_dir / "configs" / f"{key}.json"
        cfg_paths[key].write_text(text)

    fails = []
    with speed.SpeedProbe() as probe:
        setup_spans = measure_setup(args.workload, args.seed, probe)
        if args.trace:
            batches, totals, fails = traced_run(wl, cfg_paths, reference, run_dir, probe)
        else:
            batches = timed_run(wl, cfg_paths, reference, run_dir, args.seconds, probe)
        # probes after the last interval, for its calibration window
        end = perf_counter() + speed.MIN_WINDOW_S / 2
        while perf_counter() < end:
            pass
    try:
        calibrate(batches, probe)
        setup_times = [probe.calibrate(*span)[0] for span in setup_spans]
    except speed.CalibrationError as exc:
        print(f"cannot calibrate the run's times: {exc}", file=sys.stderr)
        return 3
    probe.save(run_dir / "probes.npz")
    if args.trace:
        from tracer import layer_metric_units
        metrics, units = per_layer(batches, totals), layer_metric_units()
    else:
        metrics, units = end_to_end(wl, cfg_paths, batches), END_TO_END_UNITS
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted = sum(len(b["items"]) for b in batches)
    failed = 0
    for b in batches:
        for it in b["items"]:
            if it["failures"]:
                failed += 1
                for msg in it["failures"]:
                    print(f"FAIL {wl.name} {b['dir']} {it['key']}: {msg}")
    for msg in fails:
        print(f"FAIL {wl.name} trace self-check: {msg}")
    prov = provenance(args.seed)
    probes = probe.summary()
    print("provenance " + json.dumps(prov, sort_keys=True))
    print("speed probes " + json.dumps(probes, sort_keys=True))
    print(f"{wl.name} failed_frac = {failed / attempted:.6g} ({failed} of {attempted} items)")
    for name, value in metrics.items():
        print(f"{wl.name} {name} = {value:.6g} {units[name]}")
    result = {"correct": failed == 0 and not fails, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": units[name]}
                          for name, value in metrics.items()}}
    (run_dir / "result.json").write_text(json.dumps(
        {**result, "workload": wl.name, "provenance": prov, "self_check_failures": fails,
         "setup_s": setup_times, "speed_probes": probes,
         "batches": batches}, indent=1))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
