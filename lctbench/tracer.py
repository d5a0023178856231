"""Spans and counters around lctpulse's public functions, for the traced run.

The package is not edited: `Tracer.install` wraps each function in
TRACED at run time, in every lctpulse module that binds its name (the
modules import by name, so `lctpulse.optimize.run_lct` and
`lctpulse.cli.run_lct` both need the wrap).  It also counts the matrices
passed to numpy.linalg.eigh and eigvalsh, each against the layer of the
innermost open span.  Spans stay in memory until `write_spans`.
"""

from __future__ import annotations

import json
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer, module, functions wrapped in that module's layer.
TRACED = (
    ("cli", "lctpulse.cli", ("cmd_spectrum", "cmd_lct", "cmd_filter", "cmd_optimize",
                             "cmd_truncate", "cmd_analytic", "cmd_pipeline")),
    ("lct", "lctpulse.lct", ("run_lct",)),
    ("dynamics", "lctpulse.dynamics", ("propagate_waveform",)),
    ("optimize", "lctpulse.optimize", ("optimize_reversible", "optimize_truncation",
                                       "fit_analytic_pulse")),
    ("model", "lctpulse.model", ("eigendecompose", "build_drift_hamiltonian",
                                 "nonadiabatic_coupling", "sweep_eigenvalues",
                                 "sweep_nonadiabatic_couplings",
                                 "single_excitation_gap_minima")),
    ("pulses", "lctpulse.pulses", ("lowpass_filter", "fourier_spectrum")),
    ("io", "lctpulse.io", ("write_waveform_csv", "write_flux_csv", "write_spectrum_csv",
                           "write_trajectory_csv", "write_eigenvalue_sweep_csv",
                           "write_coupling_sweep_csv", "write_json")),
)

# Every per-layer metric, in report order, with its unit.
METRICS = {
    "cli.optimize_s": "s", "cli.truncate_s": "s", "cli.analytic_s": "s",
    "cli.lct_s": "s", "cli.spectrum_s": "s", "cli.self_s": "s",
    "lct.run_lct_s": "s", "lct.run_lct_calls": "count", "lct.steps": "count",
    "lct.eigh_matrices": "count", "lct.us_per_step": "us", "lct.cache_hit_ratio": "ratio",
    "dynamics.propagate_waveform_s": "s", "dynamics.propagate_waveform_calls": "count",
    "dynamics.steps": "count", "dynamics.eigh_matrices": "count",
    "dynamics.us_per_step": "us",
    "optimize.reversible_s": "s", "optimize.reversible_evals": "count",
    "optimize.reversible_useful_ratio": "ratio", "optimize.truncation_s": "s",
    "optimize.truncation_evals": "count", "optimize.analytic_fit_s": "s",
    "optimize.analytic_fit_evals": "count", "optimize.self_s": "s",
    "model.eigendecompose_calls": "count", "model.drift_builds": "count",
    "model.eigh_matrices": "count", "model.sweep_eigenvalues_s": "s",
    "model.sweep_couplings_s": "s", "model.gap_minima_s": "s", "model.self_s": "s",
    "pulses.lowpass_filter_s": "s", "pulses.fourier_spectrum_s": "s",
    "io.write_flux_csv_s": "s", "io.write_csv_s": "s", "io.bytes_written": "bytes",
    "trace.overhead_s": "s",
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Tracer:
    def __init__(self):
        self.spans = []          # [layer, name, start, end, parent index]
        self._open = []          # indices of open spans, innermost last
        self.counts = defaultdict(float)
        self._restore = []       # (namespace, key, original) to undo install

    def wrap(self, layer: str, name: str, fn):
        spans, stack, on_return = self.spans, self._open, self._on_return

        def traced(*args, **kwargs):
            span = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[2] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = time.perf_counter()
                stack.pop()
            on_return(name, args, kwargs, result)
            return result

        return traced

    def _on_return(self, name, args, kwargs, result):
        c = self.counts
        if name == "run_lct":
            c["lct.steps"] += result.waveform.n
        elif name == "propagate_waveform":
            c["dynamics.steps"] += (args[2] if len(args) > 2 else kwargs["wf"]).n
        elif name == "optimize_reversible":
            report = result[1]
            accepted = report.best_params["cutoff_ghz"]
            c["optimize.reversible_evals"] += report.evaluations
            c["optimize.reversible_useful"] += sum(
                1 for p, _ in report.history if p["cutoff_ghz"] == accepted)
        elif name == "optimize_truncation":
            c["optimize.truncation_evals"] += result[1].evaluations
        elif name == "fit_analytic_pulse":
            c["optimize.analytic_fit_evals"] += result[1].evaluations
        elif name.startswith("write_"):
            path = args[0] if args else kwargs["path"]
            if os.path.basename(path) != "manifest.json":   # records wall time
                c["io.bytes_written"] += os.path.getsize(path)

    def _count_matrices(self, fn):
        spans, stack, counts = self.spans, self._open, self.counts

        def counted(a, *args, **kwargs):
            matrices = 1
            for d in np.shape(a)[:-2]:
                matrices *= d
            layer = spans[stack[-1]][0] if stack else "untraced"
            counts[layer + ".eigh_matrices"] += matrices
            return fn(a, *args, **kwargs)

        return counted

    def _replace(self, namespace: dict, key: str, new) -> None:
        self._restore.append((namespace, key, namespace[key]))
        namespace[key] = new

    def install(self) -> None:
        import lctpulse.cli  # noqa: F401  (loads every lctpulse module)

        modules = [m for n, m in sys.modules.items()
                   if n == "lctpulse" or n.startswith("lctpulse.")]
        for layer, home, names in TRACED:
            for name in names:
                original = getattr(sys.modules[home], name)
                wrapped = self.wrap(layer, name, original)
                for module in modules:
                    if getattr(module, name, None) is original:
                        self._replace(vars(module), name, wrapped)
                # The CLI dispatches through a table as well as by name.
                table = sys.modules["lctpulse.cli"]._COMMANDS
                for key, fn in list(table.items()):
                    if fn is original:
                        self._replace(table, key, wrapped)
        for name in ("eigh", "eigvalsh"):
            self._replace(vars(np.linalg), name, self._count_matrices(getattr(np.linalg, name)))

    def uninstall(self) -> None:
        while self._restore:
            namespace, key, original = self._restore.pop()
            namespace[key] = original

    def write_spans(self, path: str) -> None:
        """One JSON object per span: layer, name, start, end (s), parent index."""
        with open(path, "w") as fh:
            for layer, name, start, end, parent in self.spans:
                fh.write(json.dumps({"layer": layer, "name": name, "start": start,
                                     "end": end, "parent": parent}) + "\n")

    def layer_metrics(self) -> dict:
        """Per-layer metrics of everything traced so far, except
        trace.overhead_s, which needs an untraced run."""
        total = defaultdict(float)
        calls = defaultdict(int)
        self_time = defaultdict(float)
        child_time = defaultdict(float)
        for layer, name, start, end, parent in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        for i, (layer, name, start, end, parent) in enumerate(self.spans):
            total[name] += end - start
            calls[name] += 1
            self_time[layer] += end - start - child_time[i]
        c = self.counts
        lct_steps, dyn_steps = c["lct.steps"], c["dynamics.steps"]
        csv_s = sum(total[n] for n in ("write_waveform_csv", "write_spectrum_csv",
                                       "write_trajectory_csv", "write_eigenvalue_sweep_csv",
                                       "write_coupling_sweep_csv"))
        return {
            "cli.optimize_s": total["cmd_optimize"],
            "cli.truncate_s": total["cmd_truncate"],
            "cli.analytic_s": total["cmd_analytic"],
            "cli.lct_s": total["cmd_lct"],
            "cli.spectrum_s": total["cmd_spectrum"],
            "cli.self_s": self_time["cli"],
            "lct.run_lct_s": total["run_lct"],
            "lct.run_lct_calls": calls["run_lct"],
            "lct.steps": lct_steps,
            "lct.eigh_matrices": c["lct.eigh_matrices"],
            "lct.us_per_step": 1e6 * _ratio(total["run_lct"], lct_steps),
            "lct.cache_hit_ratio": 1.0 - _ratio(c["lct.eigh_matrices"], lct_steps) if lct_steps else 0.0,
            "dynamics.propagate_waveform_s": total["propagate_waveform"],
            "dynamics.propagate_waveform_calls": calls["propagate_waveform"],
            "dynamics.steps": dyn_steps,
            "dynamics.eigh_matrices": c["dynamics.eigh_matrices"],
            "dynamics.us_per_step": 1e6 * _ratio(total["propagate_waveform"], dyn_steps),
            "optimize.reversible_s": total["optimize_reversible"],
            "optimize.reversible_evals": c["optimize.reversible_evals"],
            "optimize.reversible_useful_ratio": _ratio(c["optimize.reversible_useful"],
                                                       c["optimize.reversible_evals"]),
            "optimize.truncation_s": total["optimize_truncation"],
            "optimize.truncation_evals": c["optimize.truncation_evals"],
            "optimize.analytic_fit_s": total["fit_analytic_pulse"],
            "optimize.analytic_fit_evals": c["optimize.analytic_fit_evals"],
            "optimize.self_s": self_time["optimize"],
            "model.eigendecompose_calls": calls["eigendecompose"],
            "model.drift_builds": calls["build_drift_hamiltonian"],
            "model.eigh_matrices": c["model.eigh_matrices"],
            "model.sweep_eigenvalues_s": total["sweep_eigenvalues"],
            "model.sweep_couplings_s": total["sweep_nonadiabatic_couplings"],
            "model.gap_minima_s": total["single_excitation_gap_minima"],
            "model.self_s": self_time["model"],
            "pulses.lowpass_filter_s": total["lowpass_filter"],
            "pulses.fourier_spectrum_s": total["fourier_spectrum"],
            "io.write_flux_csv_s": total["write_flux_csv"],
            "io.write_csv_s": csv_s,
            "io.bytes_written": c["io.bytes_written"],
        }
