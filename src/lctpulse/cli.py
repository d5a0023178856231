"""Command-line front end.

One config document drives every subcommand; sections it does not need
are ignored, a section it reads rejects keys it does not know, and
optional pipeline stages switch off when their section is absent.  All
files land in --out-dir together with a manifest naming them.
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
from .model import single_excitation_gap_minima, sweep_eigenvalues, sweep_nonadiabatic_couplings
from .optimize import fit_analytic_pulse, optimize_reversible, optimize_truncation, reverse_error
from .pulses import analytic_pulse, fourier_spectrum, lowpass_filter
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
    """The device and the seed-section LctConfig, read once per invocation."""
    if "run_inputs" not in ctx:
        ctx["run_inputs"] = (io.device_from_config(ctx["doc"]), io.lct_config_from(
            ctx["doc"], ctx["args"].seed_section, io.dt_override()))
    return ctx["run_inputs"]


def _load_pulse(params, flag_value: str | None, pulse_path: str | None):
    """The pulse --pulse or else pulse_path names, inside the coupler's window."""
    path = flag_value or pulse_path
    if path is None:
        raise ConfigError("no input pulse: give --pulse or a pulse_path key")
    wf = io.read_waveform_csv(path)
    try:
        wf.validate_range(params.omega_tc_max)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return wf


def _summary_of_run(result, target_label: str) -> dict:
    """What a feedback run reached, and two health numbers: the fraction of
    steps at the clamp floor, and the monotonicity margin, the smallest
    step-to-step change of the target population (negative: its worst dip)."""
    traj = result.trajectory
    return {
        "final_error": result.final_error,
        "final_populations": {lab: float(p[-1]) for lab, p in traj.populations.items()},
        "t_on_ns": traj.time_to_population(target_label, 0.10),
        "transfer_time_99_ns": traj.time_to_population(target_label, 0.99),
        "duration_10_90_ns": traj.transfer_duration(target_label, 0.10, 0.90),
        "clamp_saturated": result.clamp_saturated,
        "clamp_saturation": result.clamp_saturation,
        "monotonicity_margin": float(np.diff(traj.populations[target_label]).min()),
    }


# ----------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------

def _stage(cmd):
    """Record a refinement stage's wall time in the manifest, by name.

    Only the stages a pipeline chains (optimize, truncate, analytic) are
    recorded; a one-stage command's time is the manifest's wall_time.
    """
    name = cmd.__name__.removeprefix("cmd_")

    @functools.wraps(cmd)
    def timed(ctx: dict, *args):
        started = time.perf_counter()
        out = cmd(ctx, *args)
        ctx["stages"][name] = time.perf_counter() - started
        return out

    return timed


def cmd_spectrum(ctx: dict) -> None:
    doc, args = ctx["doc"], ctx["args"]
    if args.steps < 1:
        raise ConfigError(f"--steps must be at least 1, got {args.steps}")
    params = io.device_from_config(doc)
    lo, hi = (TWO_PI * v for v in args.sweep_range)
    # The window of Waveform.validate_range; NaN fails both comparisons.
    if not all(-params.omega_tc_max <= v <= 0.0 for v in (lo, hi)):
        raise ConfigError(f"--range ends must lie in the coupler's window "
                          f"[{-params.omega_tc_max / TWO_PI:g}, 0] GHz, got {args.sweep_range}")
    deltas = np.linspace(lo, hi, args.steps)
    energies = sweep_eigenvalues(params, deltas)
    # Adjacent pairs of the ascending spectrum; identity can hop at level
    # crossings between excitation sectors, which is fine for plotting.
    pairs = [(j, j + 1) for j in range(params.dim - 1)]
    couplings = sweep_nonadiabatic_couplings(params, deltas, pairs)
    # Both sweeps run before the first file is written: writing between
    # them measured a higher peak memory.
    io.write_eigenvalue_sweep_csv(_out(ctx, "eigenvalues.csv"), deltas, energies)
    io.write_coupling_sweep_csv(
        _out(ctx, "couplings.csv"), deltas, couplings,
        [(j + 1, k + 1) for j, k in pairs],
    )

    minima = single_excitation_gap_minima(params, deltas)
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
    io.write_waveform_csv(_out(ctx, f"{stem}.csv"), wf)
    io.write_flux_csv(_out(ctx, f"{stem}_flux.csv"), params, wf)
    io.write_spectrum_csv(_out(ctx, f"{stem}_spectrum.csv"), fourier_spectrum(wf))


def cmd_lct(ctx: dict) -> None:
    params, config = _run_inputs(ctx)
    result = run_lct(params, config)
    _write_pulse_set(ctx, "waveform", params, result.waveform)
    io.write_trajectory_csv(_out(ctx, "trajectory.csv"), result.trajectory)
    io.write_json(_out(ctx, "summary.json"),
                  _summary_of_run(result, config.target_label))
    print(f"final error {result.final_error:.3e}")


def cmd_filter(ctx: dict) -> None:
    doc, args = ctx["doc"], ctx["args"]
    params = io.device_from_config(doc)
    cfg = io.filter_section(doc)
    if args.cutoff is not None and not args.cutoff > 0.0:
        raise ConfigError(f"--cutoff must be positive, got {args.cutoff:g}")
    wf = _load_pulse(params, args.pulse, cfg.pulse_path)
    cutoff = args.cutoff if args.cutoff is not None else cfg.cutoff_ghz
    filtered = lowpass_filter(
        wf, cutoff, omega_tc_max=params.omega_tc_max if cfg.clamp else None)
    _write_pulse_set(ctx, "filtered", params, filtered)
    print(f"filtered at {cutoff:g} GHz")


@_stage
def cmd_optimize(ctx: dict):
    """Bare LCT run, then the reversibility search.  Returns the optimized
    pulse, which cmd_pipeline hands on without re-reading its file."""
    params, base = _run_inputs(ctx)
    rev_cfg = io.reversibility_config_from(ctx["doc"])

    bare = run_lct(params, base)
    _write_pulse_set(ctx, "bare", params, bare.waveform)

    wf, report = optimize_reversible(params, bare.waveform, base, rev_cfg)
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
def cmd_truncate(ctx: dict, pulse=None, cfg=None):
    """Shorten the pulse handed on, else --pulse's or pulse_path's, by the
    config handed on, else the section's."""
    if cfg is None:
        cfg = io.truncation_section(ctx["doc"])
    params, base = _run_inputs(ctx)
    if pulse is None:
        pulse = _load_pulse(params, ctx["args"].pulse, cfg.pulse_path)

    wf, report = optimize_truncation(params, pulse, base.initial_label, base.target_label, cfg)
    _write_pulse_set(ctx, "truncated", params, wf)
    io.write_json(_out(ctx, "truncate_report.json"), io.report_to_dict(report))
    print(f"truncated to {wf.duration:.2f} ns "
          f"(fwd {report.forward_error:.3e}, rev {report.reverse_error:.3e})")
    if not report.converged:
        raise ConvergenceError(f"truncation search stalled at {report.best_value:.3e}")
    return wf


def _analytic_config(ctx: dict):
    """The `analytic` section, checked before anything is written: it gives
    a closed form, which must be valid as it stands unless it is fitted."""
    cfg = io.analytic_section(ctx["doc"], io.dt_override())
    params, _ = _run_inputs(ctx)
    if cfg.form is None:
        raise ConfigError("section 'analytic': no closed form; give its eight shape keys")
    if not cfg.fit:
        try:
            cfg.form.validate(params.omega_tc_max)
        except ValueError as exc:
            raise ConfigError(f"section 'analytic': {exc}") from exc
    return cfg


@_stage
def cmd_analytic(ctx: dict, cfg=None) -> None:
    """The closed form of the config handed on, else the section's, fitted
    unless fit is false."""
    if cfg is None:
        cfg = _analytic_config(ctx)
    params, base = _run_inputs(ctx)
    if cfg.fit:
        fitted, report = fit_analytic_pulse(
            params, cfg.form, base.initial_label, base.target_label, cfg)
        io.write_json(_out(ctx, "analytic_report.json"), io.report_to_dict(report))
    else:
        fitted = cfg.form
    io.write_json(_out(ctx, "analytic_params.json"),
                  io.analytic_params_to_dict(fitted))
    wf = analytic_pulse(fitted, cfg.dt_ns, omega_tc_max=params.omega_tc_max)
    _write_pulse_set(ctx, "analytic", params, wf)

    err = reverse_error(params, wf, base.initial_label, base.target_label)
    io.write_json(_out(ctx, "analytic_summary.json"), {
        "final_error": err, "duration_ns": wf.duration,
    })
    print(f"analytic pulse: {wf.duration:.2f} ns, error {err:.3e}")


def cmd_pipeline(ctx: dict) -> None:
    """Bare run and reversibility search, then, each when its section is
    present, truncation of the optimized pulse and the closed-form fit."""
    doc = ctx["doc"]
    # Each later section is read once, before the search spends its time,
    # and its config is handed on.
    truncation = io.truncation_section(doc) if doc.get("truncation") is not None else None
    analytic = _analytic_config(ctx) if doc.get("analytic") is not None else None
    stage = "optimize"
    try:
        pulse = cmd_optimize(ctx)
        if truncation is not None:
            stage = "truncate"
            cmd_truncate(ctx, pulse, truncation)
        if analytic is not None:
            stage = "analytic"
            cmd_analytic(ctx, analytic)
    except ConvergenceError as exc:
        raise ConvergenceError(f"pipeline stage {stage!r}: {exc}") from exc


# ----------------------------------------------------------------
# entry point
# ----------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
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
        p.add_argument("--seed-section", default="lct",
                       help="config section holding the feedback-run settings")
    commands["spectrum"].add_argument("--range", dest="sweep_range", nargs=2, type=float,
                                      default=(-3.0, 0.0), metavar=("LO", "HI"),
                                      help="shift range in GHz")
    commands["spectrum"].add_argument("--steps", type=int, default=601)
    for name in ("filter", "truncate"):
        commands[name].add_argument("--pulse", help="waveform CSV (overrides pulse_path)")
    commands["filter"].add_argument("--cutoff", type=float, help="cutoff in GHz")
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
    args = _build_parser().parse_args(argv)
    started = time.monotonic()
    try:
        doc = io.load_config(args.config)
        os.makedirs(args.out_dir, exist_ok=True)
        ctx = {"doc": doc, "args": args, "out_dir": args.out_dir, "outputs": [],
               "stages": {}}
        _COMMANDS[args.command](ctx)
    except (ConfigError, UnknownLabelError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except ConvergenceError as exc:
        print(f"convergence failure: {exc}", file=sys.stderr)
        return EXIT_CONVERGENCE
    except (ValueError, FloatingPointError, np.linalg.LinAlgError,
            DegenerateLevelsError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    manifest = io.RunManifest(
        config_hash=io.config_hash(args.config),
        command=" ".join([args.command] + list(argv or sys.argv[1:])[1:]),
        outputs=ctx["outputs"],
        wall_time=time.monotonic() - started,
        stages=ctx["stages"] or None,
    )
    io.write_manifest(os.path.join(args.out_dir, "manifest.json"), manifest)
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
