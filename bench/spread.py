"""Run-to-run spread of the end-to-end metrics:

    python3 bench/spread.py --seeds 0-9 [--workloads cycle_schedule,...] [--out FILE]

Runs ``run.py --trace 0`` once per seed and workload, one run at a time,
and prints for every end-to-end metric the median, the quartiles
(``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median
beside the metric's bound in ``BENCHMARK.json``.  A run that fails or is
incorrect stops the script.  ``--out`` (default ``bench/out/spread.json``)
keeps every run's result, its speed-probe summary and raw batch times, and
the summary that ``baseline.json`` records.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys

from run import BENCH, OUT, ROOT


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list[float], bound: float) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median,
            "bound": bound}


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--out", default=str(OUT / "spread.json"))
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    report = {"run_seconds": bench["run_seconds"], "runs": {}, "summary": {}}
    for wl in args.workloads.split(","):
        runs = report["runs"][wl] = []
        for seed in seed_list(args.seeds):
            proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", wl,
                                   "--seed", str(seed), "--seconds", str(bench["run_seconds"]),
                                   "--trace", "0"], capture_output=True, text=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(proc.stdout[-3000:], proc.stderr[-3000:], file=sys.stderr)
                return 1
            full = json.loads((OUT / f"{wl}-trace0" / "result.json").read_text())
            runs.append({"seed": seed, "result": result, "speed_probes": full["speed_probes"],
                         "raw_wall_s": [b["raw_wall_s"] for b in full["batches"]],
                         "provenance": full["provenance"]})
            print(wl, seed, {k: round(v["value"], 4) for k, v in result["metrics"].items()},
                  "dropped ticks", round(full["speed_probes"]["dropped_tick_share"], 4),
                  flush=True)
            OUT.mkdir(exist_ok=True)
            with open(args.out, "w") as fh:
                json.dump(report, fh, indent=1)
        summary = report["summary"][wl] = {
            name: summarise([r["result"]["metrics"][name]["value"] for r in runs], bound)
            for name, bound in bounds.items()}
        summary["attempted"] = sum(r["result"]["attempted"] for r in runs)
        summary["failed"] = sum(r["result"]["failed"] for r in runs)
        for name in bounds:
            s = summary[name]
            print(f"  {wl} {name}: median {s['median']:.5g}, spread {s['spread']:.4f} "
                  f"(bound {s['bound']}, a third is {s['bound'] / 3:.4f})", flush=True)
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
