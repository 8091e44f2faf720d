"""Regenerate bench/reference.json, the headline numbers every benchmark item
is compared with:

    python3 bench/make_reference.py

It runs each workload's items through the benchmark's own gate (the
period-2 battery over its whole s-target grid, so every seed's draw is
covered) and refuses to write a reference from an item that fails.  Run it
only when a change moves the numbers on purpose, and say so in CHANGES.md.
"""

from __future__ import annotations

import json
import shutil
import sys

import run  # pins BLAS threads and puts src/ on sys.path
import workloads
from hetdim import runner


def main() -> int:
    out_dir = run.OUT / "reference"
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir(parents=True)
    reference = {}
    for wl in workloads.WORKLOADS.values():
        items = (wl.items(workloads.DEFAULT_SEED, targets=wl.s_grid)
                 if isinstance(wl, workloads.Period2Battery)
                 else wl.items(workloads.DEFAULT_SEED))
        reference[wl.name] = {}
        for key, cfg in items.items():
            out = out_dir / wl.name / key
            out.mkdir(parents=True)
            (out / "config.json").write_text(json.dumps(cfg, sort_keys=True))
            rc, text = workloads.quiet(runner.run_experiment, str(out / "config.json"), str(out))
            headline = wl.headline(key, out) if rc == 0 else {}
            fails = run.check_item(wl, key, out, rc, text, headline)
            if fails:
                print(f"{wl.name} {key}: {fails}", file=sys.stderr)
                return 1
            reference[wl.name][key] = headline
            print(f"{wl.name} {key}: {headline}")
    workloads.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
