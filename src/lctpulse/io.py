"""Config ingestion and file export.

Everything that touches disk lives here.  The unit convention at the
boundary is plain frequencies in GHz and times in ns; conversion to the
angular internal units happens on load and on write, nowhere else.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError
from .lct import LctConfig
from .model import SystemParams
from .optimize import (DEFAULT_ANALYTIC_BOUNDS, AnalyticConfig, OptimizationReport,
                       ReversibilityConfig, TruncationConfig)
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


def _section(doc: dict, name: str, known: dict, required: tuple | None = None) -> dict:
    """A config section, {} when absent unless `required` is given.

    `known` maps each key the section may hold to the cast its value goes
    through.  A key outside it (a misspelling, or a setting the program
    does not read), a value its cast refuses and an absent key of `required`
    are ConfigErrors; a null value is dropped, so the key keeps its default.
    """
    sec = doc.get(name)
    if sec is None:
        if required is not None:
            raise ConfigError(f"missing config section {name!r}")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(sec) - set(known))
    if unknown:
        raise ConfigError(f"section {name!r}: unknown keys {unknown}")
    out = {}
    for key, value in sec.items():
        if value is None:
            continue
        try:
            out[key] = known[key](value)
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"section {name!r}, key {key!r}: {exc}") from exc
    for key in required or ():
        if key not in out:
            raise ConfigError(f"section {name!r}: missing key {key!r}")
    return out


def _boolean(value) -> bool:
    """A JSON true or false; bool() would read the string "false" as True."""
    if not isinstance(value, bool):
        raise TypeError(f"expected true or false, got {value!r}")
    return value


def _integer(value) -> int:
    """A whole number, 60 or 60.0; int() would read 2.7 as 2 and true as 1."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise TypeError(f"expected a whole number, got {value!r}")
    return int(value)


def _number_in(test, expected: str):
    """A cast to a number that passes test; a value outside the range is
    refused, and so is a boolean, which float() would read as 0.0 or 1.0."""
    def cast(value) -> float:
        if isinstance(value, bool) or not test(float(value)):
            raise ValueError(f"expected {expected}, got {value!r}")
        return float(value)
    return cast


# A goal of 1 passes any pulse, and 0 none; a cutoff, width or step of 0
# has no pulse to give; a feedback gain must not be negative, and a seed
# weight of 1 leaves nothing of the initial state.
_goal = _number_in(lambda x: 0.0 < x < 1.0, "a number in (0, 1)")
_positive = _number_in(lambda x: 0.0 < x < np.inf, "a positive number")
_non_negative = _number_in(lambda x: 0.0 <= x < np.inf, "a number of 0 or more")
_weight = _number_in(lambda x: 0.0 <= x < 1.0, "a number in [0, 1)")
_finite = _number_in(lambda x: -np.inf < x < np.inf, "a finite number")


def _positives(value) -> tuple:
    """A non-empty list of positive numbers; iterating any value would read
    the string "045" as (0.0, 4.0, 5.0), and an object by its keys."""
    if not (isinstance(value, list) and value and all(
            type(x) in (int, float) and 0.0 < x < np.inf for x in value)):
        raise TypeError(f"expected a non-empty list of positive numbers, got {value!r}")
    return tuple(map(float, value))


def dt_override() -> float | None:
    """PULSE_DT_NS, which replaces every section's dt_ns; None when unset."""
    raw = os.environ.get("PULSE_DT_NS")
    try:
        return None if raw is None else _positive(raw)
    except ValueError as exc:
        raise ConfigError(f"PULSE_DT_NS: {exc}") from None


def device_from_config(doc: dict) -> SystemParams:
    """Build SystemParams from the `device` section."""
    known = {"qubit_freqs_ghz": _positives, "couplings_ghz": _positives,
             "tc_max_freq_ghz": _positive}
    sec = _section(doc, "device", known, required=tuple(known))
    try:
        return SystemParams.from_ghz(**sec)
    except ValueError as exc:
        raise ConfigError(f"section 'device': {exc}") from exc


_LCT_KEYS = {"lambda": _non_negative, "eta": _weight, "dt_ns": _positive,
             "t_max_ns": _positive, "initial": str, "target": str, "n_prime": _integer,
             "reference_pulse_path": str, "lambda2": _non_negative}
_LCT_REQUIRED = ("lambda", "eta", "dt_ns", "t_max_ns", "initial", "target")


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
    required = tuple(k for k in _LCT_REQUIRED if k != "dt_ns" or dt_override is None)
    sec = _section(doc, section, _LCT_KEYS, required)
    ref_path = sec.get("reference_pulse_path")
    reference = None if ref_path is None else read_waveform_csv(ref_path)
    return LctConfig(
        lambda_=sec["lambda"], eta=sec["eta"],
        dt=dt_override if dt_override is not None else sec["dt_ns"], t_max=sec["t_max_ns"],
        initial_label=sec["initial"], target_label=sec["target"],
        n_prime=sec.get("n_prime"), reference=reference, lambda2=sec.get("lambda2"),
    )


_REVERSIBILITY_KEYS = {
    "lambda2_init": _non_negative,
    "cutoff_candidates_ghz": _positives,
    "fidelity_goal": _goal,
}


def reversibility_config_from(doc: dict) -> ReversibilityConfig:
    """ReversibilityConfig from the `reversibility` section; absent keys keep
    defaults, unknown keys (such as a setting no longer read) are a ConfigError."""
    return ReversibilityConfig(**_section(doc, "reversibility", _REVERSIBILITY_KEYS))


@dataclass(frozen=True)
class FilterConfig:
    """Settings for the filter command; --cutoff overrides cutoff_ghz and
    --pulse pulse_path."""

    cutoff_ghz: float = 0.45
    clamp: bool = True
    pulse_path: str | None = None


def filter_section(doc: dict) -> FilterConfig:
    """The `filter` section as a FilterConfig; absent keys keep defaults."""
    return FilterConfig(**_section(
        doc, "filter", {"pulse_path": str, "cutoff_ghz": _positive, "clamp": _boolean}))


def truncation_section(doc: dict) -> TruncationConfig:
    """The `truncation` section as a TruncationConfig; absent keys keep defaults."""
    return TruncationConfig(**_section(
        doc, "truncation", {"sigma_ns": _positive, "fidelity_goal": _goal,
                            "max_evals": _integer, "pulse_path": str}))


# Closed-form config key -> (AnalyticPulseParams field, factor from the
# config's GHz or ns to the field's unit).
_ANALYTIC_FIELDS = {
    "alpha1_ghz": ("alpha1", TWO_PI), "alpha3_ghz": ("alpha3", TWO_PI),
    "tau1_ns": ("tau1", 1.0), "tau2_ns": ("tau2", 1.0), "tau3_ns": ("tau3", 1.0),
    "sigma1_ns": ("sigma1", 1.0), "sigma2_ns": ("sigma2", 1.0), "sigma3_ns": ("sigma3", 1.0),
}
_ANALYTIC_KEYS = {**dict.fromkeys(_ANALYTIC_FIELDS, _finite),
                  "fit": _boolean, "dt_ns": _positive, "fidelity_goal": _goal}


def analytic_section(doc: dict, dt_override: float | None = None) -> AnalyticConfig:
    """The `analytic` section, which the analytic stage requires, as an
    AnalyticConfig; dt_override (PULSE_DT_NS) replaces its dt_ns.  The
    eight shape keys give the closed form, all or none (form None); with
    fit true each must lie inside the fit's bounds."""
    sec = _section(doc, "analytic", _ANALYTIC_KEYS, required=())
    shape = {key: sec.pop(key) for key in _ANALYTIC_FIELDS if key in sec}
    if dt_override is not None:
        sec["dt_ns"] = dt_override
    cfg = AnalyticConfig(form=analytic_params_from_dict(shape) if shape else None, **sec)
    if cfg.fit and shape:
        for key, (name, factor) in _ANALYTIC_FIELDS.items():
            lo, hi = DEFAULT_ANALYTIC_BOUNDS[name]
            if not lo <= getattr(cfg.form, name) <= hi:
                raise ConfigError(
                    f"section 'analytic', key {key!r}: {shape[key]:g} lies outside "
                    f"the fit's bounds [{lo / factor:.4g}, {hi / factor:.4g}]")
    return cfg


def analytic_params_from_dict(obj: dict) -> AnalyticPulseParams:
    """Eight named fields, amplitudes in GHz, times/widths in ns."""
    sec = _section({"analytic": obj}, "analytic", _ANALYTIC_KEYS, tuple(_ANALYTIC_FIELDS))
    return AnalyticPulseParams(**{field: factor * sec[key]
                                  for key, (field, factor) in _ANALYTIC_FIELDS.items()})


def analytic_params_to_dict(p: AnalyticPulseParams) -> dict:
    return {key: getattr(p, field) / factor
            for key, (field, factor) in _ANALYTIC_FIELDS.items()}


def config_hash(path: str) -> str:
    """sha256 over the raw config bytes, so the digest moves iff they do."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


# ----------------------------------------------------------------
# CSV writers / readers
# ----------------------------------------------------------------

# Rows formatted per write call.  Small, so that a chunk's strings stay a
# sliver of the columns they come from.
CHUNK = 256


def _write_csv(path: str, header: str, columns, fmts) -> None:
    """Write equal-length float columns as the bytes of np.savetxt(path,
    np.column_stack(columns), fmt=fmts, delimiter=",", header=header,
    comments="") without building the stacked copy.

    A column whose values are bitwise identical is formatted once into the
    row template.  The test reads a same-width unsigned-integer view without
    a copy, its two ends first, then its min against its max; it keeps +0.0
    and -0.0 apart, as their text does.  The other columns are formatted
    CHUNK rows per write.
    """
    n = len(columns[0])
    parts, varying = [], []
    for col, fmt in zip(columns, fmts):
        bits = col.view(f"u{col.itemsize}")
        if n and bits[0] == bits[-1] and bits.min() == bits.max():
            parts.append((fmt % col[0]).replace("%", "%%"))
        else:
            parts.append(fmt)
            varying.append(col)
    row = ",".join(parts) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n")
        if not varying:
            fh.write((row % ()) * n)
            return
        for i in range(0, n, CHUNK):
            chunk = zip(*(col[i:i + CHUNK].tolist() for col in varying))
            fh.write("".join(row % values for values in chunk))


def write_waveform_csv(path: str, wf: Waveform):
    _write_csv(path, "t_ns,delta_omega_ghz", [wf.times(), wf.samples / TWO_PI],
               ["%.9f", GHZ_FMT])


def read_waveform_csv(path: str) -> Waveform:
    try:
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    except OSError as exc:
        raise ConfigError(f"cannot read waveform {path}: {exc}") from exc
    except ValueError as exc:
        raise ConfigError(f"{path}: not a waveform CSV: {exc}") from exc
    if data.shape[1] != 2 or data.shape[0] < 2:
        raise ConfigError(f"{path}: expected two columns and at least two rows")
    if not np.isfinite(data).all():
        raise ConfigError(f"{path}: times and samples must be finite")
    t = data[:, 0]
    dt = (t[-1] - t[0]) / (t.size - 1)
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=0, atol=1e-6):
        raise ConfigError(f"{path}: time grid is not uniform")
    return Waveform(dt=float(dt), samples=TWO_PI * data[:, 1])


def write_flux_csv(path: str, params: SystemParams, wf: Waveform):
    """Export the pulse as the flux drive realizing it.

    The coupler tunes as omega_tc = omega_tc_max sqrt(|cos(pi Phi/Phi_0)|);
    the column is its inverse on the principal branch Phi/Phi_0 in [0, 1/2],
    taken for every sample at once.  A sample outside the tunable window
    raises Waveform.validate_range's ValueError.
    """
    wf.validate_range(params.omega_tc_max)
    phis = params.omega_tc_max + wf.samples
    phis /= params.omega_tc_max
    np.arccos(np.square(phis, out=phis), out=phis)
    phis /= np.pi
    _write_csv(path, "t_ns,phi_over_phi0", [wf.times(), phis], ["%.9f", "%.12f"])


def write_spectrum_csv(path: str, spectrum: PulseSpectrum):
    _write_csv(path, "f_ghz,power", [spectrum.freqs_ghz, spectrum.power],
               ["%.9f", "%.12e"])


def write_trajectory_csv(path: str, traj) -> None:
    """Rows on the state grid; the control column repeats its last hold
    value on the final row (n+1 states, n holds)."""
    control_ghz = np.append(traj.control, traj.control[-1]) / TWO_PI
    labels = sorted(traj.populations)
    cols = [traj.times, control_ghz] + [traj.populations[lab] for lab in labels]
    header = "t_ns,delta_omega_ghz," + ",".join(f"pop_{lab}" for lab in labels)
    _write_csv(path, header, cols, ["%.9f", GHZ_FMT] + ["%.12e"] * len(labels))


def write_eigenvalue_sweep_csv(path: str, deltas_rad: np.ndarray, energies_rad: np.ndarray):
    dim = energies_rad.shape[1]
    header = "delta_omega_ghz," + ",".join(f"E_{k+1}_ghz" for k in range(dim))
    _write_csv(path, header, [deltas_rad / TWO_PI, *(energies_rad / TWO_PI).T],
               [GHZ_FMT] * (dim + 1))


def write_coupling_sweep_csv(path: str, deltas_rad: np.ndarray,
                             couplings: np.ndarray, pairs: list):
    header = "delta_omega_ghz," + ",".join(f"d_{j}{k}" for j, k in pairs)
    _write_csv(path, header, [deltas_rad / TWO_PI, *couplings.T],
               ["%.12f"] + ["%.12e"] * len(pairs))


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
