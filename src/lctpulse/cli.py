"""Command-line front end.

One config document drives every subcommand; sections it does not need
are ignored, and optional pipeline stages switch off when their section
is absent.  All files land in --out-dir together with a manifest naming
them.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
import time

import numpy as np

from . import io
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateLevelsError,
    UnknownLabelError,
)
from .lct import run_lct
from .model import (
    single_excitation_gap_minima,
    sweep_eigenvalues,
    sweep_nonadiabatic_couplings,
)
from .optimize import (
    fit_analytic_pulse,
    optimize_reversible,
    optimize_truncation,
    reverse_error,
)
from .pulses import analytic_pulse, fourier_spectrum, lowpass_filter
from .units import TWO_PI

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_CONVERGENCE = 2
EXIT_NUMERICAL = 3


def _dt_override() -> float | None:
    raw = os.environ.get("PULSE_DT_NS")
    if raw is None:
        return None
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"PULSE_DT_NS={raw!r} is not a number") from None
    if value <= 0:
        raise ConfigError("PULSE_DT_NS must be positive")
    return value


def _out(ctx: dict, name: str) -> str:
    path = os.path.join(ctx["out_dir"], name)
    ctx["outputs"].append(name)
    return path


def _load_pulse(ctx: dict, section: dict, flag_value: str | None):
    path = flag_value or section.get("pulse_path")
    if path is None:
        raise ConfigError("no input pulse: give --pulse or a pulse_path key")
    return io.read_waveform_csv(path)


def _summary_of_run(result, target_label: str) -> dict:
    traj = result.trajectory
    return {
        "final_error": result.final_error,
        "final_populations": {lab: float(p[-1]) for lab, p in traj.populations.items()},
        "t_on_ns": traj.time_to_population(target_label, 0.10),
        "transfer_time_99_ns": traj.time_to_population(target_label, 0.99),
        "duration_10_90_ns": traj.transfer_duration(target_label, 0.10, 0.90),
        "clamp_saturated": result.clamp_saturated,
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
    params = io.device_from_config(doc)
    lo, hi = (TWO_PI * v for v in args.sweep_range)
    deltas = np.linspace(lo, hi, args.steps)
    energies = sweep_eigenvalues(params, deltas)
    io.write_eigenvalue_sweep_csv(_out(ctx, "eigenvalues.csv"), deltas, energies)

    # Adjacent pairs of the ascending spectrum; identity can hop at level
    # crossings between excitation sectors, which is fine for plotting.
    pairs = [(j, j + 1) for j in range(params.dim - 1)]
    couplings = sweep_nonadiabatic_couplings(params, deltas, pairs)
    io.write_coupling_sweep_csv(
        _out(ctx, "couplings.csv"), deltas, couplings,
        [(j + 1, k + 1) for j, k in pairs],
    )

    minima = []
    if args.steps > 1:
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
    doc = ctx["doc"]
    params = io.device_from_config(doc)
    config = io.lct_config_from(doc, ctx["args"].seed_section, _dt_override())
    result = run_lct(params, config)
    _write_pulse_set(ctx, "waveform", params, result.waveform)
    io.write_trajectory_csv(_out(ctx, "trajectory.csv"), result.trajectory)
    io.write_json(_out(ctx, "summary.json"),
                  _summary_of_run(result, config.target_label))
    print(f"final error {result.final_error:.3e}")


def cmd_filter(ctx: dict) -> None:
    doc, args = ctx["doc"], ctx["args"]
    params = io.device_from_config(doc)
    sec = doc.get("filter") or {}
    wf = _load_pulse(ctx, sec, args.pulse)
    cutoff = float(args.cutoff if args.cutoff is not None
                   else sec.get("cutoff_ghz", 0.45))
    filtered = lowpass_filter(wf, cutoff, omega_tc_max=params.omega_tc_max,
                              clamp=bool(sec.get("clamp", True)))
    _write_pulse_set(ctx, "filtered", params, filtered)
    print(f"filtered at {cutoff:g} GHz")


@_stage
def cmd_optimize(ctx: dict) -> dict:
    """Bare LCT run, then the reversibility search.  Returns stage products
    so cmd_pipeline can chain without re-reading files."""
    doc = ctx["doc"]
    params = io.device_from_config(doc)
    base = io.lct_config_from(doc, ctx["args"].seed_section, _dt_override())
    rev_cfg = io.reversibility_config_from(doc)

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
    return {"params": params, "base": base, "pulse": wf}


@_stage
def cmd_truncate(ctx: dict, chained: dict | None = None) -> dict:
    doc, args = ctx["doc"], ctx["args"]
    sec = doc.get("truncation") or {}
    if chained is None:
        params = io.device_from_config(doc)
        base = io.lct_config_from(doc, args.seed_section, _dt_override())
        pulse = _load_pulse(ctx, sec, args.pulse)
    else:
        params, base, pulse = chained["params"], chained["base"], chained["pulse"]

    wf, report = optimize_truncation(
        params, pulse,
        sigma=float(sec.get("sigma_ns", 1.0)),
        source_label=base.initial_label,
        destination_label=base.target_label,
        fidelity_goal=float(sec.get("fidelity_goal", 1e-6)),
        max_evals=int(sec.get("max_evals", 60)),
    )
    _write_pulse_set(ctx, "truncated", params, wf)
    io.write_json(_out(ctx, "truncate_report.json"), io.report_to_dict(report))
    print(f"truncated to {wf.duration:.2f} ns "
          f"(fwd {report.forward_error:.3e}, rev {report.reverse_error:.3e})")
    if not report.converged:
        raise ConvergenceError(f"truncation search stalled at {report.best_value:.3e}")
    return {"params": params, "base": base, "pulse": wf}


@_stage
def cmd_analytic(ctx: dict, chained: dict | None = None) -> None:
    doc, args = ctx["doc"], ctx["args"]
    sec = doc.get("analytic")
    if sec is None:
        raise ConfigError("missing config section 'analytic'")
    if chained is None:
        params = io.device_from_config(doc)
        base = io.lct_config_from(doc, args.seed_section, _dt_override())
    else:
        params, base = chained["params"], chained["base"]

    init = io.analytic_params_from_dict(sec, "analytic")
    dt = _dt_override() or float(sec.get("dt_ns", 0.01))
    if sec.get("fit", True):
        fitted, report = fit_analytic_pulse(
            params, init, base.initial_label, base.target_label, dt=dt,
            fidelity_goal=float(sec.get("fidelity_goal", 1e-6)),
        )
        io.write_json(_out(ctx, "analytic_report.json"), io.report_to_dict(report))
    else:
        fitted = init
    io.write_json(_out(ctx, "analytic_params.json"),
                  io.analytic_params_to_dict(fitted))
    wf = analytic_pulse(fitted, dt, omega_tc_max=params.omega_tc_max)
    _write_pulse_set(ctx, "analytic", params, wf)

    err = reverse_error(params, wf, base.initial_label, base.target_label)
    io.write_json(_out(ctx, "analytic_summary.json"), {
        "final_error": err, "duration_ns": wf.duration,
    })
    print(f"analytic pulse: {wf.duration:.2f} ns, error {err:.3e}")


def cmd_pipeline(ctx: dict) -> None:
    """Bare run, filter preview, reversibility, then the optional stages."""
    doc = ctx["doc"]
    stage = "optimize"
    try:
        chain = cmd_optimize(ctx)
        if doc.get("truncation") is not None:
            stage = "truncate"
            chain = cmd_truncate(ctx, chain)
        if doc.get("analytic") is not None:
            stage = "analytic"
            cmd_analytic(ctx, chain)
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

    def common(p):
        p.add_argument("--config", required=True, help="JSON config document")
        p.add_argument("--out-dir", default=".", help="output directory")
        p.add_argument("--seed-section", default="lct",
                       help="config section holding the feedback-run settings")

    p = sub.add_parser("spectrum", help="sweep the drift spectrum over the shift")
    common(p)
    p.add_argument("--range", dest="sweep_range", nargs=2, type=float,
                   default=(-3.0, 0.0), metavar=("LO", "HI"),
                   help="shift range in GHz")
    p.add_argument("--steps", type=int, default=601)

    p = sub.add_parser("lct", help="run the feedback loop once")
    common(p)

    p = sub.add_parser("filter", help="low-pass an existing pulse")
    common(p)
    p.add_argument("--pulse", help="waveform CSV (overrides pulse_path)")
    p.add_argument("--cutoff", type=float, help="cutoff in GHz")

    p = sub.add_parser("optimize", help="bare run plus reversibility search")
    common(p)

    p = sub.add_parser("truncate", help="shorten a pulse with a Gaussian tail")
    common(p)
    p.add_argument("--pulse", help="waveform CSV (overrides pulse_path)")

    p = sub.add_parser("analytic", help="closed-form pulse, optionally fitted")
    common(p)

    p = sub.add_parser("pipeline", help="run every configured stage in order")
    common(p)

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
