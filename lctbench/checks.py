"""Checks of one run's outputs against computations made apart from lctpulse.

Each check_<workload> function takes the run's output directory and the
workload, and returns a list of failure messages; an empty list means the
outputs passed.  `check_outputs` runs a workload's checks and turns an
exception (a missing file, a missing report key) into a failure.  No
check compares against a stored copy of earlier output; `compare_digests`
compares the artifacts of repeated runs of the same program.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

import oracle

GOAL = 1e-6

# CSV precision the program writes: pulse samples in GHz with 12 decimals.
_SAMPLE_ROUNDING_GHZ = 5e-13

# Slack for the eigensolver and expm arithmetic in a replayed error.
_ARITHMETIC_SLACK = 1e-10


def read_csv(path: str) -> tuple:
    """(column names, float array with one row per line)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    return header, np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def read_json(path: str):
    with open(path) as fh:
        return json.load(fh)


def rounding_bound(n_samples: int, dt: float) -> float:
    """Largest change in a transfer error that rounding every sample to the
    CSV precision can cause.

    Each hold's generator moves by at most 2 pi * rounding in operator
    norm, so the final state moves by at most n * dt times that, and
    1 - |<d|psi>|^2 by at most twice the state's move.
    """
    return 2.0 * n_samples * dt * oracle.TWO_PI * _SAMPLE_ROUNDING_GHZ + _ARITHMETIC_SLACK


# ----------------------------------------------------------------
# pulse files: window, flux map, Parseval
# ----------------------------------------------------------------

def check_window(name: str, samples_ghz: np.ndarray, tc_max_ghz: float) -> list:
    """Every sample lies in the physical window (-tc_max, 0]."""
    fails = []
    if samples_ghz.max() > 0.0:
        fails.append(f"{name}: sample {samples_ghz.max():.3e} GHz above 0")
    if samples_ghz.min() <= -tc_max_ghz:
        fails.append(f"{name}: sample {samples_ghz.min():.6f} GHz at or below -{tc_max_ghz}")
    return fails


def check_flux(name: str, times: np.ndarray, samples_ghz: np.ndarray,
               flux_path: str, tc_max_ghz: float) -> list:
    """The flux column maps back to the pulse through w_max sqrt|cos(pi phi)|."""
    _, flux = read_csv(flux_path)
    if flux.shape != (samples_ghz.size, 2):
        return [f"{name}: flux table has shape {flux.shape}, pulse has {samples_ghz.size} samples"]
    fails = []
    if np.max(np.abs(flux[:, 0] - times)) > 1e-9:
        fails.append(f"{name}: flux time column differs from the pulse's")
    back = tc_max_ghz * np.sqrt(np.abs(np.cos(np.pi * flux[:, 1]))) - tc_max_ghz
    worst = float(np.max(np.abs(back - samples_ghz)))
    if worst > 1e-7:
        fails.append(f"{name}: flux maps back {worst:.3e} GHz off the pulse")
    return fails


def check_parseval(name: str, samples_ghz: np.ndarray, dt: float,
                   spectrum_path: str) -> list:
    """One-sided power on the rfft grid sums to n * sum(samples^2) (rad/ns)."""
    _, spec = read_csv(spectrum_path)
    n = samples_ghz.size
    freqs = np.arange(n // 2 + 1) / (n * dt)
    if spec.shape != (freqs.size, 2):
        return [f"{name}: spectrum has shape {spec.shape}, expected ({freqs.size}, 2)"]
    fails = []
    if np.max(np.abs(spec[:, 0] - freqs)) > 1e-8:
        fails.append(f"{name}: spectrum frequency grid is not the rfft grid")
    energy = n * float(np.sum((oracle.TWO_PI * samples_ghz) ** 2))
    power = float(np.sum(spec[:, 1]))
    if abs(power - energy) > 1e-9 * energy:
        fails.append(f"{name}: spectrum power {power:.12e} against "
                     f"time-domain energy {energy:.12e}")
    return fails


def check_pulse_set(out_dir: str, stem: str, device: dict, dt: float) -> tuple:
    """Window, grid, flux and Parseval checks on <stem>.csv and its siblings.

    Returns (failures, samples in GHz).
    """
    _, wf = read_csv(os.path.join(out_dir, f"{stem}.csv"))
    times, samples = wf[:, 0], wf[:, 1]
    tc_max = float(device["tc_max_freq_ghz"])
    fails = []
    if np.max(np.abs(times - dt * np.arange(times.size))) > 1e-9:
        fails.append(f"{stem}: time column is not the {dt} ns grid")
    fails += check_window(stem, samples, tc_max)
    fails += check_flux(stem, times, samples,
                        os.path.join(out_dir, f"{stem}_flux.csv"), tc_max)
    fails += check_parseval(stem, samples, dt,
                            os.path.join(out_dir, f"{stem}_spectrum.csv"))
    return fails, samples


def check_agreement(name: str, oracle_err: float, reported: float, bound: float) -> list:
    if abs(oracle_err - reported) > bound:
        return [f"{name}: oracle error {oracle_err:.6e} against reported "
                f"{reported:.6e} (allowed {bound:.1e})"]
    return []


def check_below_goal(name: str, err: float) -> list:
    return [] if err < GOAL else [f"{name}: transfer error {err:.3e} misses {GOAL:g}"]


# ----------------------------------------------------------------
# workloads
# ----------------------------------------------------------------

def check_pipeline(out_dir: str, work) -> list:
    """bare, optimized, truncated and analytic pulses replayed by the oracle."""
    device, lct = work.config["device"], work.config["lct"]
    dt, src, dst = float(lct["dt_ns"]), lct["initial"], lct["target"]
    fwd_pair, rev_pair = (src, dst), (dst, src)
    fails = []
    samples = {}
    # The analytic stage samples on its own default grid, also 0.01 ns.
    for stem in ("bare", "optimized", "truncated", "analytic"):
        f, samples[stem] = check_pulse_set(out_dir, stem, device, dt)
        fails += f

    opt = read_json(os.path.join(out_dir, "optimize_report.json"))
    trunc = read_json(os.path.join(out_dir, "truncate_report.json"))
    analytic = read_json(os.path.join(out_dir, "analytic_summary.json"))

    (bare_fwd,) = oracle.transfer_errors(device, samples["bare"], dt, [fwd_pair])
    fails += check_below_goal("bare forward", bare_fwd)

    for stem, report in (("optimized", opt), ("truncated", trunc)):
        fwd, rev = oracle.transfer_errors(device, samples[stem], dt, [fwd_pair, rev_pair])
        bound = rounding_bound(samples[stem].size, dt)
        fails += check_below_goal(f"{stem} forward", fwd)
        fails += check_below_goal(f"{stem} reverse", rev)
        fails += check_agreement(f"{stem} forward", fwd, report["forward_error"], bound)
        fails += check_agreement(f"{stem} reverse", rev, report["reverse_error"], bound)

    (an_err,) = oracle.transfer_errors(device, samples["analytic"], dt, [fwd_pair])
    fails += check_below_goal("analytic", an_err)
    fails += check_agreement("analytic", an_err, analytic["final_error"],
                             rounding_bound(samples["analytic"].size, dt))

    for i, entry in enumerate(opt["history"]):
        fwd = entry["params"]["forward_error"]
        if not fwd < GOAL:
            fails.append(f"optimize history entry {i}: forward error {fwd:.3e} misses {GOAL:g}")
    truncated_ns = samples["truncated"].size * dt
    if not truncated_ns < float(lct["t_max_ns"]):
        fails.append(f"truncated pulse lasts {truncated_ns:.2f} ns, "
                     f"not shorter than {lct['t_max_ns']} ns")
    return fails


def check_lct(out_dir: str, work) -> list:
    """Seeded replay, final error, population conservation and sector."""
    device, lct = work.config["device"], work.config["lct"]
    dt, src, dst = float(lct["dt_ns"]), lct["initial"], lct["target"]
    fails, samples = check_pulse_set(out_dir, "waveform", device, dt)

    header, traj = read_csv(os.path.join(out_dir, "trajectory.csv"))
    labels = [h[len("pop_"):] for h in header[2:]]
    pops = traj[:, 2:]
    if traj.shape[0] != samples.size + 1:
        fails.append(f"trajectory has {traj.shape[0]} rows for {samples.size} samples")
    if np.max(np.abs(traj[:-1, 1] - samples)) > 0.0:
        fails.append("trajectory control column differs from waveform.csv")

    (err,) = oracle.transfer_errors(device, samples, dt, [(src, dst)],
                                    eta=float(lct["eta"]))
    final_target = float(pops[-1, labels.index(dst)])
    if abs((1.0 - err) - final_target) > 1e-9:
        fails.append(f"replayed target population {1.0 - err:.12f} against "
                     f"trajectory's {final_target:.12f}")
    fails += check_below_goal("lct forward", err)
    summary = read_json(os.path.join(out_dir, "summary.json"))
    fails += check_agreement("lct summary", err, summary["final_error"], 1e-9)

    drift = float(np.max(np.abs(pops.sum(axis=1) - 1.0)))
    if drift > 1e-9:
        fails.append(f"populations sum to 1 only within {drift:.3e}")
    outside = [c for c, lab in enumerate(labels) if lab.count("1") != 1]
    leak = float(pops[:, outside].max()) if outside else 0.0
    if leak > 1e-12:
        fails.append(f"population {leak:.3e} outside the single-excitation sector")
    return fails


def check_spectrum(out_dir: str, work) -> list:
    """Dense eigenvalues, block gap minima and Hellmann-Feynman couplings."""
    device = work.config["device"]
    n_qubits = len(device["qubit_freqs_ghz"])
    lo, hi, steps = work.sweep
    fails = []

    _, eig = read_csv(os.path.join(out_dir, "eigenvalues.csv"))
    deltas = eig[:, 0]
    if eig.shape[0] != steps or np.max(np.abs(deltas - np.linspace(lo, hi, steps))) > 1e-9:
        fails.append(f"eigenvalue sweep is not {steps} points over [{lo}, {hi}] GHz")
    h0 = oracle.dense_hamiltonian(device, 0.0)
    gen = oracle.coupler_generator(n_qubits)
    dense = h0[None] + (oracle.TWO_PI * deltas)[:, None, None] * gen[None]
    expected = np.linalg.eigvalsh(dense) / oracle.TWO_PI
    if expected.shape != eig[:, 1:].shape:
        fails.append(f"eigenvalue table has shape {eig.shape}")
    else:
        worst = float(np.max(np.abs(expected - eig[:, 1:])))
        if worst > 1e-9:
            fails.append(f"eigenvalues differ from the dense oracle by {worst:.3e} GHz")

    summary = read_json(os.path.join(out_dir, "spectrum_summary.json"))["gap_minima"]
    minima = oracle.block_gap_minima(device, deltas)
    if len(summary) != len(minima):
        fails.append(f"{len(summary)} gap minima reported, oracle finds {len(minima)}")
    for got, (d, gap, pair) in zip(summary, minima):
        if (abs(got["delta_omega_ghz"] - d) > 1e-9 or abs(got["gap_ghz"] - gap) > 1e-9
                or tuple(got["branch_pair"]) != pair):
            fails.append(f"gap minimum {got} against oracle ({d}, {gap}, {pair})")
    found = sorted(m["delta_omega_ghz"] for m in summary)
    expected_at = sorted(work.gap_minima_ghz)
    if len(found) != len(expected_at) or any(
            abs(a - b) > 0.02 for a, b in zip(found, expected_at)):
        fails.append(f"gap minima at {found} GHz, expected {expected_at} within 0.02")

    header, coup = read_csv(os.path.join(out_dir, "couplings.csv"))
    pairs = [(j, j + 1) for j in range(2 ** (n_qubits + 1) - 1)]
    if coup.shape != (deltas.size, len(pairs) + 1):
        return fails + [f"coupling table has shape {coup.shape}"]
    hf = np.abs(oracle.hellmann_feynman(device, coup[:, 0], pairs))
    got = np.abs(coup[:, 1:])
    bad = np.flatnonzero(np.any(np.abs(got - hf) > 1e-9 + 1e-6 * hf, axis=1))
    if bad.size:
        i = bad[0]
        fails.append(f"couplings differ from Hellmann-Feynman at {bad.size} of "
                     f"{deltas.size} points, first at {coup[i, 0]:+.4f} GHz: "
                     f"{got[i]} against {hf[i]}")
    return fails


def check_outputs(work, out_dir: str) -> list:
    """The workload's checks, with an exception counted as a failure, so
    that a missing or reshaped output fails its round instead of ending
    the benchmark."""
    try:
        return work.check(out_dir, work)
    except Exception as exc:  # noqa: BLE001 - any error means bad outputs
        return [f"checks raised {type(exc).__name__}: {exc}"]


# ----------------------------------------------------------------
# determinism
# ----------------------------------------------------------------

def digests(out_dir: str) -> dict:
    """sha256 of every artifact except manifest.json, which records wall time."""
    out = {}
    for name in sorted(os.listdir(out_dir)):
        if name == "manifest.json":
            continue
        h = hashlib.sha256()
        with open(os.path.join(out_dir, name), "rb") as fh:
            for chunk in iter(lambda: fh.read(1 << 20), b""):
                h.update(chunk)
        out[name] = h.hexdigest()
    return out


def compare_digests(current: dict, reference: dict) -> list:
    """Artifacts that differ from, or are missing against, an earlier run
    of the same program."""
    fails = []
    for name in sorted(set(current) | set(reference)):
        if current.get(name) != reference.get(name):
            fails.append(f"{name}: bytes differ from an earlier run of the same program")
    return fails
