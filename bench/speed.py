"""Calibration of run time against the speed of a shared host.

On the reference machine (a 2-vCPU VM) other tenants slow the whole VM by
up to 2x for seconds at a time, and the guest cannot see it: there is no
steal time, and process CPU time grows with wall time.  One forge item run
40 times back to back there had raw times with an interquartile spread of
30% of their median.

So while a batch runs, a fixed probe kernel of small numpy solves and
products, the same kind of work as the hetdim hot paths, is timed from two
sources:

- timer probes: a timer interrupts the benchmark every ``PERIOD_S``.
  Python runs the handler only between bytecodes, so a program that stays
  long inside single C calls gets fewer of them; ``ticks`` counts the ones
  that came due and the ones taken, and the result file records both.
- fixed probes: one probe at every call of ``fixed_point``, which the
  benchmark makes between items and between set-up processes.
  Where they run does not depend on the program's call structure.

A calibrated time is the raw time of an interval, less the probes inside
it, scaled by ``REFERENCE_PROBE_S`` over the mean probe time around it: the
seconds the work would take at the probe speed of an uncontended reference
core.  On the forge test above the calibrated times had a spread of 3%.
An interval with fewer than ``MIN_PROBES`` probes around it cannot be
calibrated and raises ``CalibrationError``.  Raw times are kept in the
result file.
"""

from __future__ import annotations

import bisect
import signal
import statistics
from time import perf_counter

import numpy as np

PERIOD_S = 0.02
LATE_S = 1e-3
MIN_WINDOW_S = 2.0
# a window reaches this far past its interval, so that it holds the fixed
# probe taken next to the interval
EDGE_S = 0.05
MIN_PROBES = 20
# mean probe time on an uncontended vCPU of the reference machine
REFERENCE_PROBE_S = 0.6e-3

_A = np.array([[1.2, 0.1, 0.0], [0.0, 0.9, 0.2], [0.1, 0.0, 1.1]])


class CalibrationError(RuntimeError):
    """Too few speed probes around an interval to calibrate it."""


def probe_kernel() -> float:
    """Time one fixed probe (about 0.6 ms, 3% of each timer period)."""
    t = perf_counter()
    v = np.ones(3)
    for _ in range(60):
        v = np.linalg.solve(_A, v) + 0.5
        v = _A @ v * 0.5
    return perf_counter() - t


class SpeedProbe:
    """Runs the probe on SIGALRM while entered, and at ``fixed_point``;
    calibrates intervals."""

    def __init__(self):
        self.starts: list[float] = []
        self.times: list[float] = []
        self.fixed: list[bool] = []
        self.ticks_taken = 0
        self.ticks_due = 0
        # set while a probe runs, so that a tick never nests a probe in one
        self._busy = False

    def _take(self, fixed: bool):
        self._busy = True
        self.starts.append(perf_counter())
        self.times.append(probe_kernel())
        self.fixed.append(fixed)
        self._busy = False

    def _tick(self, signum, frame):
        # a tick delivered late was due while the VM was descheduled (or
        # while the program sat in one long C call); a probe run then would
        # start a fresh CPU share and read fast
        if self._busy or (perf_counter() - self._armed) % PERIOD_S > LATE_S:
            return
        self.ticks_taken += 1
        self._take(False)

    def fixed_point(self):
        self._take(True)

    def __enter__(self):
        probe_kernel()  # warm-up: the first probe of a process reads slow
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._armed = perf_counter()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.ticks_due = int((perf_counter() - self._armed) / PERIOD_S)

    def summary(self) -> dict:
        timer = [t for t, f in zip(self.times, self.fixed) if not f]
        fixed = [t for t, f in zip(self.times, self.fixed) if f]
        return {"ticks_due": self.ticks_due, "ticks_taken": self.ticks_taken,
                "dropped_tick_share": 1.0 - self.ticks_taken / max(self.ticks_due, 1),
                "timer_probes": len(timer), "fixed_probes": len(fixed),
                "timer_probe_mean_s": statistics.fmean(timer) if timer else None,
                "fixed_probe_mean_s": statistics.fmean(fixed) if fixed else None}

    def save(self, path):
        np.savez_compressed(path, start=np.array(self.starts), time=np.array(self.times),
                            fixed=np.array(self.fixed, dtype=bool))

    def calibrate(self, t0: float, t1: float) -> tuple[float, dict]:
        """Calibrated seconds of the work done between t0 and t1, and the
        probe counts of its window.  The speed comes from the probes of a
        window widened to at least ``MIN_WINDOW_S``, so call this once the
        probes after t1 exist."""
        pad = max(0.0, MIN_WINDOW_S - (t1 - t0)) / 2 + EDGE_S
        lo, hi = (bisect.bisect_left(self.starts, t) for t in (t0 - pad, t1 + pad))
        inside = self.times[bisect.bisect_left(self.starts, t0):
                            bisect.bisect_left(self.starts, t1)]
        n_fixed = sum(self.fixed[lo:hi])
        counts = {"timer": hi - lo - n_fixed, "fixed": n_fixed}
        if hi - lo < MIN_PROBES:
            raise CalibrationError(
                f"{hi - lo} speed probes ({counts['timer']} timer, {n_fixed} fixed) "
                f"around a {t1 - t0:.3f} s interval; at least {MIN_PROBES} are needed")
        speed = REFERENCE_PROBE_S / statistics.fmean(self.times[lo:hi])
        return ((t1 - t0) - sum(inside)) * speed, counts
