"""Config ingestion and file export.

Everything that touches disk lives here, and every outside value is
checked whole where it is read: a reader returns a finished input (a
pulse file on a grid from 0 inside the coupler's window, a closed form
the stage can use) or raises ConfigError.  The unit convention at the
boundary is plain frequencies in GHz and times in ns; conversion to the
angular internal units happens on load and on write, nowhere else.
"""

from __future__ import annotations

import json
import os
import sys
import warnings
from dataclasses import asdict

import numpy as np

from .errors import ConfigError
from .lct import LctConfig
from .model import SystemParams, product_labels
from .optimize import OptimizationReport
from .pulses import AnalyticPulseParams, PulseSpectrum, Waveform, analytic_bounds
from .units import TWO_PI

GHZ_FMT = "%.12f"


# ----------------------------------------------------------------
# config document
# ----------------------------------------------------------------

def _builtin_sha256():
    """CPython's built-in sha256 (_sha2 from 3.12, _sha256 before); hashlib's,
    the fallback, would load OpenSSL's libcrypto, about 3.5 MB resident."""
    try:
        return __import__("_sha2" if sys.version_info >= (3, 12) else "_sha256").sha256
    except ImportError:
        return __import__("hashlib").sha256


_SHA256 = _builtin_sha256()


class ConfigDocument(dict):
    """A parsed config document; sha256 is the digest of its bytes as read."""


def load_config(path: str) -> ConfigDocument:
    """Read the UTF-8 JSON object at path once and parse it; errors carry
    line/column context.  The bytes are decoded as UTF-8 first: json.loads
    would take UTF-16 and UTF-32 bytes too, and a leading BOM."""
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        doc = json.loads(data.decode("utf-8"))
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"{path}: invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    config = ConfigDocument(doc)
    config.sha256 = _SHA256(data).hexdigest()
    return config


def _section(doc: dict, name: str, known: dict, required: tuple | None = None) -> dict:
    """A config section, {} when absent unless `required` is given.

    `known` maps each key the section may hold to the cast its value goes
    through.  A section that is not an object, a key outside `known` (a
    misspelling, or a setting the program does not read), a value its cast
    refuses and an absent key of `required` are ConfigErrors; a null is
    neither an object nor a value any cast takes.
    """
    if name not in doc:
        if required is not None:
            raise ConfigError(f"missing config section {name!r}")
        return {}
    sec = doc[name]
    if not isinstance(sec, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    unknown = sorted(set(sec) - set(known))
    if unknown:
        raise ConfigError(f"section {name!r}: unknown keys {unknown}")
    out = {}
    for key, value in sec.items():
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


def _string(value) -> str:
    """A JSON string; str() would read 100 as "100" and null as "None"."""
    if not isinstance(value, str):
        raise TypeError(f"expected a string, got {value!r}")
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
             "t_max_ns": _positive, "initial": _string, "target": _string,
             "n_prime": _integer, "reference_pulse_path": _string}
_LCT_REQUIRED = ("lambda", "eta", "dt_ns", "t_max_ns", "initial", "target")


def lct_config_from(doc: dict, omega_tc_max: float) -> LctConfig:
    """Build an LctConfig from the `lct` section.

    `reference_pulse_path` is resolved and loaded here, inside the
    window of the coupler at omega_tc_max, so the returned config is
    self-contained; with it, `lambda` is the gain of the correction term.
    """
    sec = _section(doc, "lct", _LCT_KEYS, _LCT_REQUIRED)
    ref_path = sec.get("reference_pulse_path")
    reference = None if ref_path is None else read_waveform_csv(ref_path, omega_tc_max)
    return LctConfig(
        lambda_=sec["lambda"], eta=sec["eta"], dt=sec["dt_ns"], t_max=sec["t_max_ns"],
        initial_label=sec["initial"], target_label=sec["target"],
        n_prime=sec.get("n_prime"), reference=reference,
    )


def reversibility_section(doc: dict) -> dict:
    """The keys the `reversibility` section sets, as optimize_reversible's
    keyword settings; a key left out keeps the driver's default."""
    return _section(doc, "reversibility", {"lambda2_init": _non_negative,
                                           "cutoff_candidates_ghz": _positives,
                                           "fidelity_goal": _goal})


def truncation_section(doc: dict) -> dict:
    """The keys the `truncation` section sets, as optimize_truncation's
    keyword settings; a key left out keeps the driver's default."""
    return _section(doc, "truncation", {"sigma_ns": _positive})


def filter_section(doc: dict) -> float:
    """The `filter` section's cutoff_ghz, 0.45 GHz unless set: the filter
    command low-passes the pulse --pulse names at it."""
    return _section(doc, "filter", {"cutoff_ghz": _positive}).get("cutoff_ghz", 0.45)


# Closed-form config key -> (AnalyticPulseParams field, factor from the
# config's GHz or ns to the field's unit).
_ANALYTIC_FIELDS = {
    "alpha1_ghz": ("alpha1", TWO_PI), "alpha3_ghz": ("alpha3", TWO_PI),
    "tau1_ns": ("tau1", 1.0), "tau2_ns": ("tau2", 1.0), "tau3_ns": ("tau3", 1.0),
    "sigma1_ns": ("sigma1", 1.0), "sigma2_ns": ("sigma2", 1.0), "sigma3_ns": ("sigma3", 1.0),
}
_ANALYTIC_KEYS = {**dict.fromkeys(_ANALYTIC_FIELDS, _finite), "fit": _boolean}


def analytic_section(doc: dict, omega_tc_max: float) -> tuple:
    """(form, fit) from the `analytic` section, which the analytic stage
    requires with its eight shape keys.  fit, true unless set, says
    whether the CLI fits the form: a fitted start must lie inside the
    fit's bounds, analytic_bounds(omega_tc_max), which a coupler below
    about 0.1593 GHz leaves empty, and an unfitted form must be a pulse the
    coupler at omega_tc_max can play."""
    sec = _section(doc, "analytic", _ANALYTIC_KEYS, tuple(_ANALYTIC_FIELDS))
    form = AnalyticPulseParams(**{field: factor * sec[key]
                                  for key, (field, factor) in _ANALYTIC_FIELDS.items()})
    fit = sec.get("fit", True)
    if fit:
        bounds = analytic_bounds(omega_tc_max)
        lo, hi = bounds["alpha1"]
        if lo > hi:
            raise ConfigError(
                f"section 'analytic': the coupler's window [{-omega_tc_max / TWO_PI:g}, 0] GHz "
                f"is too narrow for the closed form, whose fitted amplitudes lie at or "
                f"below {hi / TWO_PI:.4g} GHz")
        for key, (name, factor) in _ANALYTIC_FIELDS.items():
            lo, hi = bounds[name]
            if not lo <= getattr(form, name) <= hi:
                raise ConfigError(
                    f"section 'analytic', key {key!r}: {sec[key]:g} lies outside "
                    f"the fit's bounds [{lo / factor:.4g}, {hi / factor:.4g}]")
    else:
        try:
            form.validate(omega_tc_max)
        except ValueError as exc:
            raise ConfigError(f"section 'analytic': {exc}") from exc
    return form, fit


def analytic_params_to_dict(p: AnalyticPulseParams) -> dict:
    return {key: getattr(p, field) / factor
            for key, (field, factor) in _ANALYTIC_FIELDS.items()}



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
            fh.write(_rows(row, [col[i:i + CHUNK] for col in varying]))


def _rows(row: str, columns) -> str:
    """Equal-length columns formatted through the row template."""
    return "".join(row % values for values in zip(*(col.tolist() for col in columns)))


def write_waveform_csv(path: str, wf: Waveform):
    _write_csv(path, "t_ns,delta_omega_ghz", [wf.times(), wf.samples / TWO_PI],
               ["%.9f", GHZ_FMT])


def read_waveform_csv(path: str, omega_tc_max: float) -> Waveform:
    """The pulse a waveform CSV holds: a uniform time grid from 0 and
    every sample inside the window of the coupler at omega_tc_max."""
    try:
        with warnings.catch_warnings():
            # A header without rows is refused below, by its shape.
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
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
    if abs(t[0]) > 1e-6:
        raise ConfigError(f"{path}: time grid starts at {t[0]:.9g} ns, not at 0")
    dt = (t[-1] - t[0]) / (t.size - 1)
    if dt <= 0 or not np.allclose(np.diff(t), dt, rtol=0, atol=1e-6):
        raise ConfigError(f"{path}: time grid is not uniform")
    wf = Waveform(dt=float(dt), samples=TWO_PI * data[:, 1])
    try:
        wf.validate_range(omega_tc_max)
    except ValueError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
    return wf


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


def write_trajectory_csv(path: str, dt: float, run):
    """Return run(sink), a feedback run that streams its trajectory to path.

    The sink takes run_lct's chunks, the block as it ran, and the file
    lays them out.  The bytes are _write_csv's for the whole table: times
    k dt, the control in GHz and the population of every bare label of
    the device, in product order, a constant 0 outside the run's block;
    the final state's row repeats the last hold.  The file opens at the
    first chunk, and a run that fails later removes it.
    """
    fh = row = rows = None

    def sink(k0: int, labels: list, samples: np.ndarray, pops: np.ndarray) -> None:
        nonlocal fh, row, rows
        if fh is None:
            names = product_labels(len(labels[0]) - 1)
            where = {lab: b for b, lab in enumerate(labels)}
            rows = [where[lab] for lab in names if lab in where]
            row = ",".join(["%.9f", GHZ_FMT] + ["%.12e" if lab in where else "0.000000000000e+00"
                                                 for lab in names]) + "\n"
            fh = open(path, "w")
            fh.write(",".join(["t_ns,delta_omega_ghz", *(f"pop_{lab}" for lab in names)]) + "\n")
        if pops.shape[1] > len(samples):
            samples = np.append(samples, samples[-1])
        for i in range(0, len(samples), CHUNK):
            held = samples[i:i + CHUNK]
            fh.write(_rows(row, [np.arange(k0 + i, k0 + i + len(held)) * dt,
                                 held / TWO_PI, *(pops[b, i:i + CHUNK] for b in rows)]))

    try:
        return run(sink)
    except BaseException:
        if fh is not None:
            fh.close()
            os.remove(path)
        raise
    finally:
        if fh is not None:
            fh.close()


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
# JSON reports
# ----------------------------------------------------------------

def write_json(path: str, obj):
    """Deterministic JSON: sorted keys, trailing newline.  A value json
    does not encode (a numpy array or integer; np.float64 is a float)
    raises TypeError before the file opens."""
    text = json.dumps(obj, indent=2, sort_keys=True)
    with open(path, "w") as fh:
        fh.write(text + "\n")


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
