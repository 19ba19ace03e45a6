"""Span recorder that wraps cknlab's module-level functions from outside.

Each target is a module-level name the package calls through.  Installing the
tracer rebinds every cknlab module attribute that holds the original function
(``from .x import f`` copies included), so calls made inside the package are
recorded too.  Spans (name, start, end, parent) are kept in compact arrays in
memory and written out once, when the run ends.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from pathlib import Path

# (module, attribute, span name); a name given as None is chosen per call
TARGETS = [
    ("cknlab.cli", "main", "cli.main"),
    ("cknlab.flow", "step", "flow.step"),
    ("cknlab.flow", "stable_dt", "flow.stable_dt"),
    ("cknlab.flow", "free_energy", "flow.free_energy"),
    ("cknlab.flow", "fisher_information", "flow.fisher_information"),
    ("cknlab.flow", "stationary_profile", "flow.stationary_profile"),
    # the mass-matched stationary solve run_decay makes; the same layer
    ("cknlab.flow", "_stationary_for_state", "flow.stationary_profile"),
    ("cknlab.spectral", "assemble", "spectral.assemble"),
    ("cknlab.spectral", "lowest_eigenvalue", None),
    ("cknlab.spectral", "hardy_poincare_gap", "spectral.hardy_poincare_gap"),
    ("cknlab.shooting", "integrate_ode", "shooting.integrate_ode"),
    ("cknlab.shooting", "find_ground_state", "shooting.find_ground_state"),
    ("cknlab.minimizer", "minimize_radial", "minimizer.minimize_radial"),
    # scipy's L-BFGS-B entry as bound in the minimizer module
    ("cknlab.minimizer", "minimize", "minimizer.lbfgs"),
    ("cknlab.quadrature", "integrate", "quadrature.integrate"),
    ("cknlab.profiles", "weighted_norm", "profiles.norms"),
    ("cknlab.profiles", "gradient_norm", "profiles.norms"),
    ("cknlab.profiles", "quotient", "profiles.norms"),
    ("cknlab.selection", "ell", "selection.ell"),
    ("cknlab.selection", "G_prime", "selection.G_prime"),
]

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "flow.steps": ("count", "lower"),
    "flow.stable_dt.calls": ("count", "lower"),
    "flow.stable_dt.s": ("s", "lower"),
    "flow.step.self_s": ("s", "lower"),
    "flow.free_energy.s": ("s", "lower"),
    "flow.fisher_information.s": ("s", "lower"),
    "flow.stationary_profile.s": ("s", "lower"),
    "flow.dt_min": ("model_time", "higher"),
    "flow.dt_max": ("model_time", "higher"),
    "spectral.assemble.calls": ("count", "lower"),
    "spectral.assemble.s": ("s", "lower"),
    "spectral.operator_bytes": ("bytes", "lower"),
    "spectral.eig_constrained.calls": ("count", "lower"),
    "spectral.eig_constrained.s": ("s", "lower"),
    "spectral.eig_unconstrained.calls": ("count", "lower"),
    "spectral.eig_unconstrained.s": ("s", "lower"),
    "spectral.hardy_poincare_gap.s": ("s", "lower"),
    "shooting.shots": ("count", "lower"),
    "shooting.integrate_ode.s": ("s", "lower"),
    "shooting.reruns": ("count", "lower"),
    "shooting.find_ground_state.s": ("s", "lower"),
    "minimizer.minimize_radial.s": ("s", "lower"),
    "minimizer.lbfgs.solves": ("count", "lower"),
    "minimizer.lbfgs.nit": ("count", "lower"),
    "minimizer.lbfgs.nfev": ("count", "lower"),
    "minimizer.lbfgs.s": ("s", "lower"),
    "quadrature.integrate.calls": ("count", "lower"),
    "quadrature.integrate.s": ("s", "lower"),
    "profiles.norms.calls": ("count", "lower"),
    "profiles.norms.s": ("s", "lower"),
    "selection.ell.calls": ("count", "lower"),
    "selection.ell.s": ("s", "lower"),
    "selection.G_prime.calls": ("count", "lower"),
    "selection.G_prime.s": ("s", "lower"),
    "cli.main.calls": ("count", "lower"),
    "cli.main.s": ("s", "lower"),
    "cli.output_bytes": ("bytes", "lower"),
}

def operator_bytes(op) -> int:
    """Bytes of the arrays an assembled operator holds (computed, not measured)."""
    total = 0
    for value in vars(op).values():
        items = value if isinstance(value, (list, tuple)) else [value]
        for item in items:
            if hasattr(item, "nbytes"):
                total += int(item.nbytes)
            else:  # scipy sparse storage
                total += sum(int(getattr(item, a).nbytes)
                             for a in ("data", "indices", "indptr", "offsets")
                             if hasattr(getattr(item, a, None), "nbytes"))
    return total


class Tracer:
    """Records spans of wrapped cknlab calls and derives per-layer metrics."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters = {"minimizer.lbfgs.nit": 0, "minimizer.lbfgs.nfev": 0,
                         "spectral.operator_bytes": 0, "cli.output_bytes": 0}
        self.dt_range = [float("inf"), 0.0]
        self.missing: list[str] = []

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def _wrap(self, fn, name):
        tracer = self
        fixed = None if name is None else self._id(name)
        constrained = self._id("spectral.eig_constrained")
        unconstrained = self._id("spectral.eig_unconstrained")

        def wrapper(*args, **kwargs):
            if fixed is None:  # lowest_eigenvalue: classify by the operator
                op = args[0] if args else kwargs["op"]
                nid = constrained if op.constraints else unconstrained
            else:
                nid = fixed
            idx = len(tracer.start)
            stack = tracer._stack
            tracer.name_id.append(nid)
            tracer.parent.append(stack[-1] if stack else -1)
            tracer.end.append(0.0)
            stack.append(idx)
            tracer.start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end[idx] = time.perf_counter()
                stack.pop()
            if name == "minimizer.lbfgs":
                tracer.counters["minimizer.lbfgs.nit"] += int(result.nit)
                tracer.counters["minimizer.lbfgs.nfev"] += int(result.nfev)
            elif name == "spectral.assemble":
                tracer.counters["spectral.operator_bytes"] = max(
                    tracer.counters["spectral.operator_bytes"],
                    operator_bytes(result))
            return result

        return wrapper

    def install(self) -> None:
        """Rebind every cknlab module attribute that holds a target."""
        modules = [m for k, m in list(sys.modules.items())
                   if k == "cknlab" or k.startswith("cknlab.")]
        for mod_name, attr, name in TARGETS:
            original = getattr(sys.modules.get(mod_name), attr, None)
            if original is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)

    def note_output(self, nbytes: int) -> None:
        self.counters["cli.output_bytes"] += nbytes

    def note_dt(self, dt_lo: float, dt_hi: float) -> None:
        self.dt_range[0] = min(self.dt_range[0], dt_lo)
        self.dt_range[1] = max(self.dt_range[1], dt_hi)

    def metrics(self, rounds: int) -> dict[str, float]:
        """Per-layer metrics per round of jobs.

        A layer's time counts each span not nested in a span of the same
        layer; step's self time subtracts the time its wrapped children cover.
        """
        n = len(self.start)
        ids = self._ids
        dur = [self.end[i] - self.start[i] for i in range(n)]
        calls = {name: 0 for name in self.names}
        total = {name: 0.0 for name in self.names}
        child_time = [0.0] * n
        reruns = 0
        ode = ids.get("shooting.integrate_ode", -2)
        for i in range(n):
            nid = self.name_id[i]
            name = self.names[nid]
            calls[name] += 1
            par = self.parent[i]
            if par >= 0:
                child_time[par] += dur[i]
                if nid == ode and self.name_id[par] == ode:
                    reruns += 1
            anc = par
            while anc >= 0 and self.name_id[anc] != nid:
                anc = self.parent[anc]
            if anc < 0:
                total[name] += dur[i]
        step_self = 0.0
        step = ids.get("flow.step", -2)
        for i in range(n):
            if self.name_id[i] == step:
                step_self += dur[i] - child_time[i]

        out = {
            "flow.steps": calls.get("flow.step", 0),
            "flow.step.self_s": step_self,
            "flow.dt_min": self.dt_range[0] if self.dt_range[1] > 0 else 0.0,
            "flow.dt_max": self.dt_range[1],
            "shooting.shots": calls.get("shooting.integrate_ode", 0),
            "shooting.reruns": reruns,
            "minimizer.lbfgs.solves": calls.get("minimizer.lbfgs", 0),
        }
        out.update(self.counters)
        per_round = {}
        for key in PER_LAYER:
            span, _, kind = key.rpartition(".")
            if kind == "s":
                value = total.get(span, 0.0)
            elif kind == "calls":
                value = calls.get(span, 0)
            else:
                value = out[key]
            per_round[key] = value if key.startswith("flow.dt_") \
                or key == "spectral.operator_bytes" else value / rounds
        return per_round

    def write(self, path: Path, extra: dict) -> None:
        """Write every span and the derived metrics as one JSON file."""
        payload = dict(extra)
        payload["missing_targets"] = self.missing
        payload["span_names"] = self.names
        payload["spans"] = {"name": self.name_id.tolist(),
                            "parent": self.parent.tolist(),
                            "start": self.start.tolist(),
                            "end": self.end.tolist()}
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(payload))
