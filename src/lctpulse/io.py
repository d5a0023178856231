"""Config ingestion and file export.

Everything that touches disk lives here.  The unit convention at the
boundary is plain frequencies in GHz and times in ns; conversion to the
angular internal units happens on load and on write, nowhere else.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .lct import LctConfig
from .model import SystemParams, frequency_to_flux
from .optimize import OptimizationReport, ReversibilityConfig
from .pulses import AnalyticPulseParams, PulseSpectrum, Waveform
from .units import TWO_PI

GHZ_FMT = "%.12f"


# ----------------------------------------------------------------
# config document
# ----------------------------------------------------------------

def load_config(path: str) -> dict:
    """Parse a JSON config document; errors carry line/column context."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return doc


def _section(doc: dict, name: str, known) -> dict:
    """A required config section; keys outside `known` are a ConfigError."""
    if doc.get(name) is None:
        raise ConfigError(f"missing config section {name!r}")
    return _stage_section(doc, name, known)


def _stage_section(doc: dict, section: str, known) -> dict:
    """An optional config section ({} when absent); keys outside `known`
    (a misspelling, or a setting the program does not read) are a
    ConfigError."""
    sec = doc.get(section)
    if sec is None:
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {section!r} must be an object")
    unknown = sorted(set(sec) - set(known))
    if unknown:
        raise ConfigError(f"section {section!r}: unknown keys {unknown}")
    return sec


def _require(sec: dict, section: str, key: str):
    if key not in sec:
        raise ConfigError(f"section {section!r}: missing key {key!r}")
    return sec[key]


def device_from_config(doc: dict) -> SystemParams:
    """Build SystemParams from the `device` section."""
    sec = _section(doc, "device", ("qubit_freqs_ghz", "couplings_ghz", "tc_max_freq_ghz"))
    freqs = _require(sec, "device", "qubit_freqs_ghz")
    coups = _require(sec, "device", "couplings_ghz")
    tc = _require(sec, "device", "tc_max_freq_ghz")
    try:
        return SystemParams.from_ghz(freqs, coups, tc)
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"section 'device': {exc}") from exc


_LCT_KEYS = ("lambda", "eta", "dt_ns", "t_max_ns", "initial", "target",
             "n_prime", "reference_pulse_path", "lambda2")


def lct_config_from(
    doc: dict,
    section: str = "lct",
    dt_override: float | None = None,
) -> LctConfig:
    """Build an LctConfig from a named config section.

    `reference_pulse_path` is resolved and loaded here so the returned
    config is self-contained.  dt_override (the PULSE_DT_NS hook) replaces
    the section's dt_ns.
    """
    sec = _section(doc, section, _LCT_KEYS)
    reference = None
    ref_path = sec.get("reference_pulse_path")
    if ref_path is not None:
        reference = read_waveform_csv(ref_path)
    try:
        return LctConfig(
            lambda_=float(_require(sec, section, "lambda")),
            eta=float(_require(sec, section, "eta")),
            dt=float(dt_override if dt_override is not None
                     else _require(sec, section, "dt_ns")),
            t_max=float(_require(sec, section, "t_max_ns")),
            initial_label=str(_require(sec, section, "initial")),
            target_label=str(_require(sec, section, "target")),
            n_prime=(None if sec.get("n_prime") is None else int(sec["n_prime"])),
            reference=reference,
            lambda2=(None if sec.get("lambda2") is None else float(sec["lambda2"])),
        )
    except ConfigError:
        raise
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"section {section!r}: {exc}") from exc


_REVERSIBILITY_KEYS = {
    "lambda2_init": float,
    "cutoff_candidates_ghz": lambda v: tuple(float(x) for x in v),
    "fidelity_goal": float,
}


def reversibility_config_from(doc: dict, section: str = "reversibility") -> ReversibilityConfig:
    """ReversibilityConfig from a config section; absent keys keep defaults,
    unknown keys (such as a setting no longer read) are a ConfigError."""
    sec = _stage_section(doc, section, _REVERSIBILITY_KEYS)
    kwargs = {}
    for key, cast in _REVERSIBILITY_KEYS.items():
        if sec.get(key) is not None:
            try:
                kwargs[key] = cast(sec[key])
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"section {section!r}, key {key!r}: {exc}") from exc
    return ReversibilityConfig(**kwargs)


def filter_section(doc: dict) -> dict:
    """The `filter` section, {} when absent; unknown keys are a ConfigError."""
    return _stage_section(doc, "filter", ("pulse_path", "cutoff_ghz", "clamp"))


def truncation_section(doc: dict) -> dict:
    """The `truncation` section, {} when absent; unknown keys are a ConfigError."""
    return _stage_section(doc, "truncation",
                          ("sigma_ns", "fidelity_goal", "max_evals", "pulse_path"))


_ANALYTIC_FIELDS = (
    "alpha1_ghz", "alpha3_ghz", "tau1_ns", "tau2_ns", "tau3_ns",
    "sigma1_ns", "sigma2_ns", "sigma3_ns",
)


def analytic_section(doc: dict) -> dict:
    """The `analytic` section, which the analytic stage requires; unknown
    keys are a ConfigError."""
    return _section(doc, "analytic", (*_ANALYTIC_FIELDS, "fit", "dt_ns", "fidelity_goal"))


def analytic_params_from_dict(obj: dict, context: str = "analytic") -> AnalyticPulseParams:
    """Eight named fields, amplitudes in GHz, times/widths in ns."""
    vals = [float(_require(obj, context, f)) for f in _ANALYTIC_FIELDS]
    return AnalyticPulseParams(
        alpha1=TWO_PI * vals[0],
        alpha3=TWO_PI * vals[1],
        tau1=vals[2], tau2=vals[3], tau3=vals[4],
        sigma1=vals[5], sigma2=vals[6], sigma3=vals[7],
    )


def analytic_params_to_dict(p: AnalyticPulseParams) -> dict:
    return {
        "alpha1_ghz": p.alpha1 / TWO_PI,
        "alpha3_ghz": p.alpha3 / TWO_PI,
        "tau1_ns": p.tau1, "tau2_ns": p.tau2, "tau3_ns": p.tau3,
        "sigma1_ns": p.sigma1, "sigma2_ns": p.sigma2, "sigma3_ns": p.sigma3,
    }


def config_hash(path: str) -> str:
    """sha256 over the raw config bytes, so the digest moves iff they do."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ----------------------------------------------------------------
# CSV writers / readers
# ----------------------------------------------------------------

def write_waveform_csv(path: str, wf: Waveform):
    data = np.column_stack([wf.times(), wf.samples / TWO_PI])
    np.savetxt(path, data, fmt=["%.9f", GHZ_FMT], delimiter=",",
               header="t_ns,delta_omega_ghz", comments="")


def read_waveform_csv(path: str) -> Waveform:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read waveform {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not a waveform CSV: {exc}") from exc
    if data.shape[1] != 2 or data.shape[0] < 2:
        raise ConfigError(f"{path}: expected two columns and at least two rows")
    t = data[:, 0]
    dt = (t[-1] - t[0]) / (t.size - 1)
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=0, atol=1e-6):
        raise ConfigError(f"{path}: time grid is not uniform")
    return Waveform(dt=float(dt), samples=TWO_PI * data[:, 1])


def write_flux_csv(path: str, params: SystemParams, wf: Waveform):
    """Export the pulse as the flux drive realizing it.

    The column is frequency_to_flux applied to every sample at once; a
    sample outside the tunable window raises its ValueError.
    """
    omega_tc = params.omega_tc_max + wf.samples
    outside = ~((omega_tc >= 0.0) & (omega_tc <= params.omega_tc_max))
    if outside.any():
        frequency_to_flux(params, omega_tc[outside][0])  # raises
    phis = np.arccos((omega_tc / params.omega_tc_max) ** 2) / np.pi
    data = np.column_stack([wf.times(), phis])
    np.savetxt(path, data, fmt=["%.9f", "%.12f"], delimiter=",",
               header="t_ns,phi_over_phi0", comments="")


def write_spectrum_csv(path: str, spectrum: PulseSpectrum):
    data = np.column_stack([spectrum.freqs_ghz, spectrum.power])
    np.savetxt(path, data, fmt=["%.9f", "%.12e"], delimiter=",",
               header="f_ghz,power", comments="")


def write_trajectory_csv(path: str, traj) -> None:
    """Rows on the state grid; the control column repeats its last hold
    value on the final row (n+1 states, n holds)."""
    control_ghz = np.append(traj.control, traj.control[-1]) / TWO_PI
    labels = sorted(traj.populations)
    cols = [traj.times, control_ghz] + [traj.populations[lab] for lab in labels]
    header = "t_ns,delta_omega_ghz," + ",".join(f"pop_{lab}" for lab in labels)
    np.savetxt(path, np.column_stack(cols),
               fmt=["%.9f", GHZ_FMT] + ["%.12e"] * len(labels),
               delimiter=",", header=header, comments="")


def write_eigenvalue_sweep_csv(path: str, deltas_rad: np.ndarray, energies_rad: np.ndarray):
    dim = energies_rad.shape[1]
    header = "delta_omega_ghz," + ",".join(f"E_{k+1}_ghz" for k in range(dim))
    data = np.column_stack([deltas_rad / TWO_PI, energies_rad / TWO_PI])
    np.savetxt(path, data, fmt=GHZ_FMT, delimiter=",", header=header, comments="")


def write_coupling_sweep_csv(path: str, deltas_rad: np.ndarray,
                             couplings: np.ndarray, pairs: list):
    header = "delta_omega_ghz," + ",".join(f"d_{j}{k}" for j, k in pairs)
    data = np.column_stack([deltas_rad / TWO_PI, couplings])
    np.savetxt(path, data, fmt=["%.12f"] + ["%.12e"] * len(pairs),
               delimiter=",", header=header, comments="")


# ----------------------------------------------------------------
# JSON reports and the run manifest
# ----------------------------------------------------------------

def write_json(path: str, obj):
    """Deterministic JSON: sorted keys, trailing newline."""
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _jsonable(value):
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (np.floating, np.integer)):
        return value.item()
    raise TypeError(f"not JSON serializable: {type(value).__name__}")


def report_to_dict(report: OptimizationReport) -> dict:
    """Flatten an OptimizationReport; history params become plain dicts."""
    out = asdict(report)
    out["history"] = [
        {"params": (p if isinstance(p, dict)
                    else {f"x{i}": float(v) for i, v in enumerate(np.atleast_1d(p))}),
         "value": float(val)}
        for p, val in report.history
    ]
    return out


@dataclass
class RunManifest:
    """What one CLI invocation read and wrote.

    stages maps each refinement stage the command ran (optimize,
    truncate, analytic) to its wall time in seconds; left None, as for
    the one-stage spectrum, lct and filter commands, it is not written.
    """

    config_hash: str
    command: str
    outputs: list
    wall_time: float
    stages: dict | None = None


def write_manifest(path: str, manifest: RunManifest):
    write_json(path, {k: v for k, v in asdict(manifest).items() if v is not None})
