"""Outside-in span tracer for the hetdim layer functions.

The package imports its layers by name (``from .saddle import t0_array``),
so wrapping only the defining module would miss most call sites.  The tracer
therefore rebinds every ``hetdim.*`` module attribute that holds the same
function object, and restores all of them on ``uninstall``.  Nothing under
``src/`` is modified.

Spans (name, start, end, parent span, item id) are kept in compact arrays in
memory and written out by ``save``.  Self time is a span's duration minus the
time of the spans opened directly inside it; it is accumulated when a span
closes, so the per-layer totals need no pass over the span arrays.
"""

from __future__ import annotations

import functools
import inspect
import sys
from array import array
from pathlib import Path
from time import perf_counter

import numpy as np

# <module>.<function> under hetdim; the order fixes the span name ids
LAYERS = (
    "saddle.t0_array", "saddle.t0_jac_array",
    "global_map.t1_array", "global_map.first_return_array",
    "local.solve_cross_form",
    "numerics.newton_solve", "numerics.fd_jacobian", "numerics.orthonormal_frame",
    "cones.return_chain", "cones.stable_frame", "cones.stable_slopes",
    "cones.leaf_march", "cones.invariant_cu_subspace",
    "cycles.solve_period2_with_s", "cycles.orbit_index",
    "cycles.solve_hetdim_symmetric", "cycles.replay_certificate_dict",
    "tangency.solve_secondary_tangency", "tangency.find_transverse_homoclinics",
    "tangency.forge_admissible_tangency",
    "runner.run_experiment",
)
# the residual callable handed to newton_solve, wrapped on the way in
RESIDUAL = "numerics.residual"
NAMES = LAYERS + (RESIDUAL,)


def layer_metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for name in LAYERS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    units.update({
        "numerics.newton_solve.iterations": "count",
        "numerics.newton_solve.f_evals": "count",
        "numerics.newton_solve.floor_accepts": "count",
        f"{RESIDUAL}.self_s": "s",
        "numerics.fd_jacobian.probe_share": "ratio",
        "cones.stable_frame.sweeps_per_call": "ratio",
        "trace.overhead_s": "s",
    })
    return units


class Tracer:
    """Records spans around the layer functions while installed."""

    def __init__(self):
        self._id = {name: i for i, name in enumerate(NAMES)}
        self._residual_id = self._id[RESIDUAL]
        self._fd_id = self._id["numerics.fd_jacobian"]
        self._ortho_id = self._id["numerics.orthonormal_frame"]
        self._frame_id = self._id["cones.stable_frame"]
        self._undo: list[tuple[object, str, object]] = []
        self.item = -1
        # span store, filled while ``recording``: one entry per span, in
        # opening order
        self.recording = True
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("B")
        self.item_of = array("i")
        self._stack: list[tuple] = []
        self._child: list[float] = []
        self.reset_totals()

    def reset_totals(self):
        n = len(NAMES)
        self.calls = [0] * n
        self.self_s = [0.0] * n
        self.iterations = 0
        self.floor_accepts = 0
        self.probes = 0
        self.sweeps = 0

    # -- spans ---------------------------------------------------------------

    def _open(self, nid: int) -> tuple:
        stack = self._stack
        parent, pname = stack[-1][:2] if stack else (-1, -1)
        if nid == self._residual_id and pname == self._fd_id:
            self.probes += 1
        elif nid == self._ortho_id and pname == self._frame_id:
            self.sweeps += 1
        idx = -1
        if self.recording:
            idx = len(self.end)
            self.parent.append(parent)
            self.name.append(nid)
            self.item_of.append(self.item)
            self.end.append(0.0)
        self._child.append(0.0)
        t = perf_counter()
        span = (idx, nid, t)
        stack.append(span)
        if idx >= 0:
            self.start.append(t)
        return span

    def _close(self, span: tuple):
        t = perf_counter()
        idx, nid, start = span
        if idx >= 0:
            self.end[idx] = t
        dur = t - start
        self._stack.pop()
        child = self._child.pop()
        self.calls[nid] += 1
        self.self_s[nid] += dur - child
        if self._child:
            self._child[-1] += dur

    def _wrap(self, qualname: str, fn):
        nid = self._id[qualname]
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer._open(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(span)

        return traced

    def _wrap_newton(self, fn):
        nid = self._id["numerics.newton_solve"]
        rid = self._residual_id
        max_iter = inspect.signature(fn).parameters["max_iter"].default
        tracer = self

        @functools.wraps(fn)
        def traced(f, *args, **kwargs):
            def residual(u):
                span = tracer._open(rid)
                try:
                    return f(u)
                finally:
                    tracer._close(span)

            span = tracer._open(nid)
            try:
                out = fn(residual, *args, **kwargs)
            finally:
                tracer._close(span)
            tracer.iterations += out[2]
            # newton_solve reports max_iter when it accepted on the noise floor
            if out[2] == kwargs.get("max_iter", max_iter):
                tracer.floor_accepts += 1
            return out

        return traced

    # -- installation --------------------------------------------------------

    def install(self):
        """Rebind every hetdim module attribute holding a layer function."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "hetdim" or name.startswith("hetdim."))]
        for qualname in LAYERS:
            modname, fname = qualname.rsplit(".", 1)
            home = sys.modules.get(f"hetdim.{modname}")
            original = getattr(home, fname, None) if home is not None else None
            if original is None:
                self.uninstall()
                raise LookupError(f"layer function hetdim.{qualname} not found")
            wrapper = (self._wrap_newton(original) if qualname == "numerics.newton_solve"
                       else self._wrap(qualname, original))
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)
                        self._undo.append((mod, attr, original))

    def uninstall(self):
        for mod, attr, original in reversed(self._undo):
            setattr(mod, attr, original)
        self._undo.clear()

    # -- results -------------------------------------------------------------

    def totals(self) -> dict[str, float]:
        """Per-layer metrics accumulated since the last ``reset_totals``."""
        out = {}
        for name in LAYERS:
            nid = self._id[name]
            out[f"{name}.calls"] = self.calls[nid]
            out[f"{name}.self_s"] = self.self_s[nid]
        rid = self._residual_id
        f_evals = self.calls[rid]
        frames = self.calls[self._frame_id]
        out.update({
            "numerics.newton_solve.iterations": self.iterations,
            "numerics.newton_solve.f_evals": f_evals,
            "numerics.newton_solve.floor_accepts": self.floor_accepts,
            f"{RESIDUAL}.self_s": self.self_s[rid],
            "numerics.fd_jacobian.probe_share": self.probes / f_evals if f_evals else 0.0,
            "cones.stable_frame.sweeps_per_call": self.sweeps / frames if frames else 0.0,
        })
        return out

    def save(self, path: Path):
        """Write every recorded span (times relative to the first span)."""
        start = np.frombuffer(self.start, dtype=float)
        t0 = start[0] if start.size else 0.0
        np.savez(path, names=np.array(NAMES), name=np.frombuffer(self.name, dtype=np.uint8),
                 start=start - t0, end=np.frombuffer(self.end, dtype=float) - t0,
                 parent=np.frombuffer(self.parent, dtype=np.int32),
                 item=np.frombuffer(self.item_of, dtype=np.int32))
