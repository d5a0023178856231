"""Command-line front end: it orchestrates the stages.

One config document drives every subcommand; sections it does not need
are ignored, and optional pipeline stages switch off when their section
is absent.  io reads and checks every outside value (the config and the
pulse files it or --pulse names); this module checks only its own argv
and the pulses it writes.  The config's bytes and argv set every value a
run uses: each setting has one source.  All files land in --out-dir;
a run that leaves any, whatever its exit code, adds a manifest naming
them and the code.  A usage error, as argparse finds it, is a config
error (exit 1).

The closed-form fit runs in a forked child (_forked): a pipeline starts
it before the bare run and collects it after truncation, so it runs
beside the feedback stages on a second core; analytic starts it and
waits at once.  The parent writes every file.  A pipeline's
stages.analytic is the wait plus the writes; the manifest's fit_time is
the child's own wall seconds.  A child that dies before it sends its
outcome, or while it sends it, fails the run (exit 3).  Without os.fork
(Windows) the fit runs inline.  From Python 3.12 a fork beside
OpenBLAS's worker threads emits a DeprecationWarning, left as Python
emits it; OpenBLAS stops its workers in a fork handler of its own (not
yet observed on 3.12).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import io
from .errors import ConfigError, ConvergenceError, DegenerateLevelsError, UnknownLabelError
from .lct import run_lct
from .model import (product_labels, single_excitation_gap_minima, sweep_eigenvalues,
                    sweep_nonadiabatic_couplings)
from .optimize import (fit_analytic_pulse, optimize_reversible, optimize_truncation,
                       transfer_errors)
from .pulses import analytic_pulse, fourier_spectrum, in_window, lowpass_filter
from .units import TWO_PI

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONVERGENCE = 2
EXIT_NUMERICAL = 3


def _out(ctx: dict, name: str) -> str:
    path = os.path.join(ctx["out_dir"], name)
    ctx["outputs"].append(name)
    return path


def _run_inputs(ctx: dict):
    """The device and the `lct` section's LctConfig, read once per invocation."""
    if "run_inputs" not in ctx:
        params = io.device_from_config(ctx["doc"])
        ctx["run_inputs"] = params, io.lct_config_from(ctx["doc"], params.omega_tc_max)
    return ctx["run_inputs"]


def _outcome(fn, args) -> tuple:
    """(True, fn(*args)) or (False, the exception it raised), then the
    call's wall seconds."""
    started = time.perf_counter()
    try:
        result = True, fn(*args)
    except Exception as exc:
        result = False, exc
    return (*result, time.perf_counter() - started)


def _settle(outcome: tuple) -> tuple:
    """(value, seconds) of an outcome that returned; re-raises its exception."""
    ok, value, seconds = outcome
    if not ok:
        raise value
    return value, seconds


def _forked(fn, *args) -> tuple:
    """Start fn(*args) in a forked child and return (wait, cancel).

    wait() returns (fn's value, the child's own wall seconds) or re-raises
    fn's exception, and reaps the child either way; a child that ends with
    no outcome, or with one cut short, raises ChildProcessError naming how.
    cancel() kills and reaps a child that wait has not reaped.  A fork, not
    a spawn: the child inherits the parent's bindings, a patched or traced
    fn among them.  It writes only its pickled outcome to a pipe and leaves
    through os._exit, running no exit handler; stdout and stderr are
    flushed before the fork, so no buffered line is written twice.
    """
    # Imported here: a command that forks no child loads nothing for it.
    import pickle
    import signal

    if not hasattr(os, "fork"):  # Windows has no fork: the call runs inline.
        return functools.partial(_settle, _outcome(fn, args)), lambda: None
    sys.stdout.flush()
    sys.stderr.flush()
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read)
            with os.fdopen(write, "wb") as pipe:
                pipe.write(pickle.dumps(_outcome(fn, args)))
        finally:
            os._exit(0)
    os.close(write)
    pipe = os.fdopen(read, "rb")
    running = [pid]

    def cancel() -> None:
        if running:
            os.kill(running[0], signal.SIGKILL)
            os.waitpid(running.pop(), 0)
        pipe.close()

    def wait() -> tuple:
        try:
            data = pipe.read()
        except BaseException:
            cancel()
            raise
        pipe.close()
        # At the pipe's end the child has closed its end: it is exiting.
        code = os.waitstatus_to_exitcode(os.waitpid(running.pop(), 0)[1])
        try:
            outcome = pickle.loads(data)
        except (EOFError, pickle.UnpicklingError):  # none sent, or cut short
            how = f"killed by {signal.Signals(-code).name}" if code < 0 else f"exit status {code}"
            raise ChildProcessError(f"the forked child ended without an outcome ({how})") from None
        return _settle(outcome)

    return wait, cancel


def _start_fit(ctx: dict, form) -> tuple:
    """fit_analytic_pulse from form on the run's device and labels, started
    in a forked child: (wait, cancel) of _forked."""
    params, base = _run_inputs(ctx)
    return _forked(fit_analytic_pulse, params, form, base.initial_label, base.target_label)


# ----------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------

def _stage(cmd):
    """Record a refinement stage's wall time in the manifest by name, even if it raises.

    Only the stages a pipeline chains (optimize, truncate, analytic) are
    recorded; a one-stage command's time is the manifest's wall_time.
    """
    name = cmd.__name__.removeprefix("cmd_")

    @functools.wraps(cmd)
    def timed(ctx: dict, *args):
        started = time.perf_counter()
        try:
            return cmd(ctx, *args)
        finally:
            ctx["stages"][name] = time.perf_counter() - started

    return timed


def cmd_spectrum(ctx: dict) -> None:
    doc, args = ctx["doc"], ctx["args"]
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    params = io.device_from_config(doc)
    lo, hi = (TWO_PI * v for v in args.sweep_range)
    if not in_window(np.array([lo, hi]), params.omega_tc_max).all():
        raise ConfigError(f"--range ends must lie in the coupler's window "
                          f"[{-params.omega_tc_max / TWO_PI:g}, 0] GHz, got {args.sweep_range}")
    sweep = sweep_eigenvalues(params, np.linspace(lo, hi, args.steps))
    # Adjacent pairs of the ascending spectrum; identity can hop at level
    # crossings between excitation sectors, which is fine for plotting.
    pairs = [(j, j + 1) for j in range(params.dim - 1)]
    couplings = sweep_nonadiabatic_couplings(sweep, pairs)
    minima = single_excitation_gap_minima(sweep)
    io.write_eigenvalue_sweep_csv(_out(ctx, "eigenvalues.csv"), sweep.deltas, sweep.levels)
    io.write_coupling_sweep_csv(
        _out(ctx, "couplings.csv"), sweep.deltas, couplings,
        [(j + 1, k + 1) for j, k in pairs],
    )
    io.write_json(_out(ctx, "spectrum_summary.json"), {
        "gap_minima": [
            {"delta_omega_ghz": m.delta_omega_tc / TWO_PI,
             "gap_ghz": m.gap / TWO_PI,
             "branch_pair": list(m.branch_pair)}
            for m in minima
        ],
    })
    for m in minima:
        print(f"gap minimum at delta_omega = {m.delta_omega_tc / TWO_PI:+.4f} GHz "
              f"(gap {m.gap / TWO_PI:.4f} GHz)")


def _write_pulse_set(ctx: dict, stem: str, params, wf) -> None:
    # Refused whole: the flux export would raise only after the first file.
    wf.validate_range(params.omega_tc_max)
    io.write_waveform_csv(_out(ctx, f"{stem}.csv"), wf)
    io.write_flux_csv(_out(ctx, f"{stem}_flux.csv"), params, wf)
    io.write_spectrum_csv(_out(ctx, f"{stem}_spectrum.csv"), fourier_spectrum(wf))


def cmd_lct(ctx: dict) -> None:
    """One feedback run, its trajectory streamed to disk as it runs.  The
    summary holds what it reached, each label's final population (0 outside
    the block), and two health numbers: the fraction of steps at the clamp
    floor, and the monotonicity margin, the smallest step-to-step change of
    the target population (negative: its worst dip)."""
    params, config = _run_inputs(ctx)
    result = io.write_trajectory_csv(_out(ctx, "trajectory.csv"), config.dt,
                                     functools.partial(run_lct, params, config))
    _write_pulse_set(ctx, "waveform", params, result.waveform)
    t = result.crossings
    io.write_json(_out(ctx, "summary.json"), {
        "final_error": result.final_error,
        "final_populations": {**dict.fromkeys(product_labels(params.n_qubits), 0.0),
                              **result.final_populations},
        "t_on_ns": t[0.10],
        "transfer_time_99_ns": t[0.99],
        "duration_10_90_ns": None if None in (t[0.10], t[0.90]) else t[0.90] - t[0.10],
        "clamp_saturated": result.clamp_saturation > 0.5,
        "clamp_saturation": result.clamp_saturation,
        "monotonicity_margin": result.monotonicity_margin,
    })
    print(f"final error {result.final_error:.3e}")


def cmd_filter(ctx: dict) -> None:
    """--pulse's pulse as the reference optimize_reversible builds from it."""
    params = io.device_from_config(ctx["doc"])
    cutoff_ghz = io.filter_section(ctx["doc"])
    wf = io.read_waveform_csv(ctx["args"].pulse, params.omega_tc_max)
    wf = lowpass_filter(wf, cutoff_ghz, params.omega_tc_max)
    _write_pulse_set(ctx, "filtered", params, wf)
    print(f"filtered at {cutoff_ghz:g} GHz")


@_stage
def cmd_optimize(ctx: dict):
    """Bare LCT run, then the reversibility search.  Returns the optimized
    pulse, which cmd_pipeline hands on without re-reading its file."""
    params, base = _run_inputs(ctx)
    settings = io.reversibility_section(ctx["doc"])

    bare = run_lct(params, base)
    _write_pulse_set(ctx, "bare", params, bare.waveform)

    wf, report = optimize_reversible(params, bare.waveform, base, **settings)
    _write_pulse_set(ctx, "optimized", params, wf)
    io.write_json(_out(ctx, "optimize_report.json"), io.report_to_dict(report))
    print(f"reverse error {report.reverse_error:.3e} at "
          f"cutoff {report.best_params['cutoff_ghz']:g} GHz, "
          f"lambda2 {report.best_params['lambda2']:.4g}")
    if not report.converged:
        raise ConvergenceError(
            f"reversibility search stalled at {report.best_value:.3e}")
    return wf


@_stage
def cmd_truncate(ctx: dict, pulse=None, settings=None):
    """Shorten the pulse handed on, else --pulse's, by the settings handed
    on, else the section's."""
    settings = io.truncation_section(ctx["doc"]) if settings is None else settings
    params, base = _run_inputs(ctx)
    if pulse is None:
        pulse = io.read_waveform_csv(ctx["args"].pulse, params.omega_tc_max)

    wf, report = optimize_truncation(params, pulse, base.initial_label, base.target_label,
                                     **settings)
    _write_pulse_set(ctx, "truncated", params, wf)
    io.write_json(_out(ctx, "truncate_report.json"), io.report_to_dict(report))
    print(f"truncated to {wf.duration:.2f} ns "
          f"(fwd {report.forward_error:.3e}, rev {report.reverse_error:.3e})")
    if not report.converged:
        raise ConvergenceError(f"truncation search stalled at {report.best_value:.3e}")
    return wf


@_stage
def cmd_analytic(ctx: dict, section=None, wait=None) -> None:
    """The closed form of the section handed on, else the config's, fitted
    unless fit is false, and sampled by analytic_pulse.  The fit runs in a
    forked child: wait, handed on, collects one already started, else the
    fit starts here and is waited for at once.  A fit that misses its goal
    raises ConvergenceError once every file is written."""
    params, base = _run_inputs(ctx)
    form, fit = section or io.analytic_section(ctx["doc"], params.omega_tc_max)
    if fit:
        (form, report), ctx["fit_time"] = (wait or _start_fit(ctx, form)[0])()
        io.write_json(_out(ctx, "analytic_report.json"), io.report_to_dict(report))
    io.write_json(_out(ctx, "analytic_params.json"), io.analytic_params_to_dict(form))
    wf = analytic_pulse(form, params.omega_tc_max)
    _write_pulse_set(ctx, "analytic", params, wf)

    err = transfer_errors(params, wf, base.initial_label, base.target_label)[0]
    io.write_json(_out(ctx, "analytic_summary.json"), {
        "final_error": err, "duration_ns": wf.duration,
    })
    print(f"analytic pulse: {wf.duration:.2f} ns, error {err:.3e}")
    if fit and not report.converged:
        raise ConvergenceError(f"analytic fit stalled at {report.best_value:.3e}")


def cmd_pipeline(ctx: dict) -> None:
    """Bare run and reversibility search, then, each when its section is
    present, truncation of the optimized pulse and the closed form.  The
    fit needs only the device and its seed shape, so it runs in a forked
    child beside the feedback stages, and its files are written after
    truncation's; a run that fails before then kills the child and writes
    no analytic file."""
    doc = ctx["doc"]
    # Each later section is read once, before the search spends its time,
    # and its settings are handed on.
    truncation = io.truncation_section(doc) if "truncation" in doc else None
    params, _ = _run_inputs(ctx)
    analytic = io.analytic_section(doc, params.omega_tc_max) if "analytic" in doc else None
    wait, cancel = (_start_fit(ctx, analytic[0]) if analytic is not None and analytic[1]
                    else (None, lambda: None))
    try:
        pulse = cmd_optimize(ctx)
        if truncation is not None:
            cmd_truncate(ctx, pulse, truncation)
        if analytic is not None:
            cmd_analytic(ctx, analytic, wait)
    except ConvergenceError as exc:
        # The stage that failed is the last one timed.
        raise ConvergenceError(f"pipeline stage {list(ctx['stages'])[-1]!r}: {exc}") from exc
    finally:
        cancel()


# ----------------------------------------------------------------
# entry point
# ----------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """argparse's usage errors as config errors: its own exit code, 2, is
    the convergence code."""

    def error(self, message):
        raise ConfigError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="lctpulse",
        description="Pulse synthesis for tunable-coupler population transfer.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {}
    for name, text in (("spectrum", "sweep the drift spectrum over the shift"),
                       ("lct", "run the feedback loop once"),
                       ("filter", "low-pass an existing pulse"),
                       ("optimize", "bare run plus reversibility search"),
                       ("truncate", "shorten a pulse with a Gaussian tail"),
                       ("analytic", "closed-form pulse, optionally fitted"),
                       ("pipeline", "run every configured stage in order")):
        p = commands[name] = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out-dir", default=".", help="output directory")
    commands["spectrum"].add_argument("--range", dest="sweep_range", nargs=2, type=float,
                                      default=(-3.0, 0.0), metavar=("LO", "HI"),
                                      help="shift range in GHz")
    commands["spectrum"].add_argument("--steps", type=int, default=601)
    for name in ("filter", "truncate"):
        commands[name].add_argument("--pulse", required=True, help="waveform CSV")
    return parser


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "lct": cmd_lct,
    "filter": cmd_filter,
    "optimize": cmd_optimize,
    "truncate": cmd_truncate,
    "analytic": cmd_analytic,
    "pipeline": cmd_pipeline,
}


def main(argv: list | None = None) -> int:
    ctx = {"outputs": [], "stages": {}}
    try:
        args = _build_parser().parse_args(argv)
        started = time.monotonic()
        doc = io.load_config(args.config)
        try:
            os.makedirs(args.out_dir, exist_ok=True)
        except OSError as exc:
            raise ConfigError(f"--out-dir {args.out_dir}: {exc}") from exc
        ctx.update(doc=doc, args=args, out_dir=args.out_dir)
        _COMMANDS[args.command](ctx)
        code = EXIT_OK
    except (ConfigError, UnknownLabelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        code = EXIT_CONVERGENCE
    except (ValueError, FloatingPointError, np.linalg.LinAlgError,
            DegenerateLevelsError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL
    except ChildProcessError as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        code = EXIT_NUMERICAL

    outputs = [name for name in ctx["outputs"]
               if os.path.exists(os.path.join(ctx["out_dir"], name))]
    if outputs:
        manifest = {"config_hash": doc.sha256,
                    "command": " ".join([args.command] + list(argv or sys.argv[1:])[1:]),
                    "outputs": outputs, "exit_code": code,
                    "wall_time": time.monotonic() - started}
        if ctx["stages"]:
            manifest["stages"] = ctx["stages"]
        if "fit_time" in ctx:
            manifest["fit_time"] = ctx["fit_time"]
        io.write_json(os.path.join(args.out_dir, "manifest.json"), manifest)
    return code


if __name__ == "__main__":
    sys.exit(main())
