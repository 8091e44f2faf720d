"""Per-call layer times, traced and untraced:

    python3 bench/run.py --workload cycle_schedule --seed 0 --seconds 30 --trace 1
    python3 bench/per_call.py cycle_schedule
    python3 bench/per_call.py cycle_schedule --untraced

From the spans of a traced run it prints, for every layer, the call count
and the mean inclusive and self time per call, each span calibrated like the
item it belongs to (``speed.py``).  The cones layers are also split
by the stay number k of the chain (the number of ``t0_array`` spans inside
``return_chain``), since their cost grows linearly in k, with the spans
nested inside each call and the inclusive time less the tracer's cost for
them.  The per-span cost is the measured tracing overhead over the number
of spans.

``--untraced`` times the same layers with no tracer, in plain loops at k=20
on the ``Q02`` point of the run's (24,20) certificate, calibrated the same
way: each layer on one fixed chain, and ``stable_frame`` once more on a
fresh chain per call, built by ``return_chain`` just before it as inside
``stable_slopes``.
"""

from __future__ import annotations

import json
import statistics
import sys
from time import perf_counter

from run import OUT  # pins BLAS threads and puts src/ on sys.path

import numpy as np

UNTRACED_REPEATS = 15


def traced(workload: str) -> int:
    run_dir = OUT / f"{workload}-trace1"
    result = json.loads((run_dir / "result.json").read_text())
    spans = np.load(run_dir / "spans.npz")
    names = [str(n) for n in spans["names"]]
    name, parent = spans["name"], spans["parent"]
    # the spans are those of the first traced batch, whose items are 0, 1, ...
    factor = np.array([it["item_s"] / it["raw_item_s"] for it in result["batches"][0]["items"]])
    dur = (spans["end"] - spans["start"]) * factor[spans["item"]]
    child = np.zeros_like(dur)
    inner = parent >= 0
    np.add.at(child, parent[inner], dur[inner])
    self_time = dur - child
    # spans nested at any depth; a child always opens after its parent
    nested = np.zeros(name.size, dtype=np.int64)
    for i in np.flatnonzero(inner)[::-1]:
        nested[parent[i]] += nested[i] + 1
    overhead = result["metrics"]["trace.overhead_s"]["value"]
    per_span = overhead / len(name)

    print(f"{'layer':40s} {'calls':>9s} {'incl_us':>10s} {'self_us':>10s}")
    for nid, label in enumerate(names):
        sel = name == nid
        if sel.any():
            print(f"{label:40s} {sel.sum():9d} {1e6 * dur[sel].mean():10.1f} "
                  f"{1e6 * self_time[sel].mean():10.1f}")

    # stay number of each return_chain span, handed to its stable_slopes
    # parent and to the stable_frame sibling that consumes the chain
    chain_id, slopes_id, frame_id = (names.index(n) for n in (
        "cones.return_chain", "cones.stable_slopes", "cones.stable_frame"))
    k = np.full(name.size, -1)
    chains = np.flatnonzero(name == chain_id)
    t0_inside = np.bincount(parent[(name == names.index("saddle.t0_array")) & inner],
                            minlength=name.size)
    k[chains] = t0_inside[chains]
    chains = chains[parent[chains] >= 0]
    from_slopes = chains[name[parent[chains]] == slopes_id]
    k[parent[from_slopes]] = k[from_slopes]
    frames = np.flatnonzero(name == frame_id)
    k[frames] = k[parent[frames]]
    for layer in (chain_id, frame_id, slopes_id):
        for stay in np.unique(k[(name == layer) & (k >= 0)]):
            sel = (name == layer) & (k == stay)
            incl, inside = dur[sel].mean(), nested[sel].mean()
            print(f"{names[layer]} at k={stay}: {sel.sum()} calls, "
                  f"{1e6 * incl:.1f} us inclusive, {inside:.1f} nested spans, "
                  f"{1e6 * (incl - inside * per_span):.1f} us less their tracer cost")

    print(f"tracing overhead: {overhead:.3f} s over {len(name)} spans = "
          f"{1e6 * per_span:.2f} us per span")
    return 0


def untraced(workload: str) -> int:
    import speed
    from hetdim.cones import return_chain, stable_frame, stable_slopes
    from hetdim.global_map import coeffs_from_json
    from hetdim.saddle import model_from_json, t0_array

    path = OUT / f"{workload}-trace1" / "untraced" / "k24_m20" / "cycle_k24_m20.json"
    doc = json.loads(path.read_text())
    model, coeffs = model_from_json(doc["model"]), coeffs_from_json(doc["coeffs"])
    p = np.array(doc["points"]["Q02"])
    chain = return_chain(model, coeffs, p, [20])

    def fresh_frames(n):
        # only the stable_frame calls are timed; returns their total
        total = 0.0
        for _ in range(n):
            c = return_chain(model, coeffs, p, [20])
            t = perf_counter()
            stable_frame(c)
            total += perf_counter() - t
        return total

    cases = {"t0_array": (lambda n: [t0_array(model, p) for _ in range(n)], 20000),
             "return_chain": (lambda n: [return_chain(model, coeffs, p, [20])
                                         for _ in range(n)], 400),
             "stable_frame": (lambda n: [stable_frame(chain) for _ in range(n)], 400),
             "stable_slopes": (lambda n: [stable_slopes(model, coeffs, p, 20)
                                          for _ in range(n)], 400),
             "stable_frame, fresh chain": (fresh_frames, 400)}
    runs = {name: [] for name in cases}
    with speed.SpeedProbe() as probe:
        for _ in range(UNTRACED_REPEATS):
            for name, (loop, n) in cases.items():
                probe.fixed_point()
                t = perf_counter()
                timed = loop(n)
                runs[name].append((t, perf_counter(), n, timed))
        probe.fixed_point()
        end = perf_counter() + speed.MIN_WINDOW_S / 2
        while perf_counter() < end:
            pass

    print(f"untraced, k=20, at the (24,20) certificate's Q02 point; "
          f"mean probe {1e3 * statistics.fmean(probe.times):.3f} ms")
    print(f"{'layer':28s} {'calibrated_us':>14s} {'raw_us':>10s}")
    for name, spans in runs.items():
        cal, raw = [], []
        for t0, t1, n, timed in spans:
            work = timed if isinstance(timed, float) else t1 - t0
            calibrated, _ = probe.calibrate(t0, t1)
            cal.append(work * calibrated / (t1 - t0) / n)
            raw.append(work / n)
        print(f"{name:28s} {1e6 * statistics.median(cal):14.1f} "
              f"{1e6 * statistics.median(raw):10.1f}")
    return 0


if __name__ == "__main__":
    if "--untraced" in sys.argv[2:]:
        sys.exit(untraced(sys.argv[1]))
    sys.exit(traced(sys.argv[1]))
