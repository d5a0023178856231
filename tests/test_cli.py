import filecmp
import hashlib
import json
import os
import pickle
import signal
import subprocess
import sys
import time

import numpy as np
import pytest

import lctpulse
from lctpulse import cli, lct, optimize
from lctpulse.cli import main
from lctpulse.dynamics import CHUNK
from lctpulse.io import (analytic_params_to_dict, analytic_section, device_from_config,
                         read_waveform_csv, write_json, write_waveform_csv)
from lctpulse.lct import LctConfig
from lctpulse.model import SystemParams, product_labels, sweep_eigenvalues
from lctpulse.optimize import OptimizationReport
from lctpulse.pulses import Waveform, clamp_floor, lowpass_filter
from lctpulse.units import TWO_PI
from conftest import record_lct

DEVICE = {
    "qubit_freqs_ghz": [5.890, 5.031],
    "couplings_ghz": [0.100, 0.071],
    "tc_max_freq_ghz": 7.445,
}

LCT_SHORT = {
    "lambda": 27626.0, "eta": 1e-6, "dt_ns": 0.01, "t_max_ns": 40.0,
    "initial": "100", "target": "010",
}


# A closed form that is sampled as it stands.
ANALYTIC = {"fit": False, "alpha1_ghz": -1.591, "alpha3_ghz": -2.457,
            "tau1_ns": 7.2, "tau2_ns": 8.9, "tau3_ns": 11.4,
            "sigma1_ns": 1.37, "sigma2_ns": 0.2, "sigma3_ns": 1.83}


# Strong couplings transfer within 60 ns at a low gain, so the bare run
# and a whole reversibility grid take about a second.
FAST_DEVICE = {**DEVICE, "couplings_ghz": [0.3, 0.2]}
FAST_LCT = {"lambda": 5000.0, "eta": 1e-6, "dt_ns": 0.01, "t_max_ns": 60.0,
            "initial": "100", "target": "010"}


# The fast device's search settings that pass, and a closed form to fit.
FAST_SEARCH = {"cutoff_candidates_ghz": [0.3, 0.45], "fidelity_goal": 0.5}
FIT = {**ANALYTIC, "fit": True}
ANALYTIC_FILES = ["analytic_report.json", "analytic_params.json", "analytic.csv",
                  "analytic_flux.csv", "analytic_spectrum.csv", "analytic_summary.json"]


@pytest.fixture(autouse=True)
def no_child_left():
    """No command leaves a child process behind, on success or failure:
    the analytic fit's forked child is reaped on every exit path."""
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _config(tmp_path, name="config.json", **sections):
    doc = {"device": DEVICE, **sections}
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out-dir", str(out)])
    return code, out


def _assert_trajectory(out, block, target, states):
    """out's trajectory.csv as a run in `block` towards `target` writes it:
    every label of the device, one row per state, the literal zero in the
    columns outside the block, populations that sum to 1 within 1e-9 in
    every row, the last hold repeated on the final state's row, and there
    the target's population 1 - summary.json's final_error within 1e-9."""
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    assert header == ["t_ns", "delta_omega_ghz", *(f"pop_{lab}" for lab in product_labels(2))]
    assert len(lines) == states + 1
    fields = list(zip(*(line.split(",") for line in lines[1:])))
    for lab in set(product_labels(2)) - set(block):
        assert set(fields[header.index(f"pop_{lab}")]) == {"0.000000000000e+00"}, lab
    data = np.loadtxt(out / "trajectory.csv", delimiter=",", skiprows=1)
    assert abs(data[:, 2:].sum(axis=1) - 1.0).max() <= 1e-9
    assert data[-1, 1] == data[-2, 1]
    final_error = json.loads((out / "summary.json").read_text())["final_error"]
    assert abs(data[-1, header.index(f"pop_{target}")] - (1.0 - final_error)) <= 1e-9


def test_spectrum_command(tmp_path, capsys):
    cfg = _config(tmp_path)
    code, out = _run(tmp_path, "spectrum", "--config", cfg, "--steps", "201")
    assert code == 0
    for name in ("eigenvalues.csv", "couplings.csv", "spectrum_summary.json",
                 "manifest.json"):
        assert (out / name).exists()
    # The levels of every excitation block, merged: all eight, one row per point.
    lines = (out / "eigenvalues.csv").read_text().splitlines()
    assert lines[0] == ("delta_omega_ghz,E_1_ghz,E_2_ghz,E_3_ghz,E_4_ghz,E_5_ghz,E_6_ghz,"
                        "E_7_ghz,E_8_ghz")
    assert len(lines) == 202
    summary = json.loads((out / "spectrum_summary.json").read_text())
    found = sorted(m["delta_omega_ghz"] for m in summary["gap_minima"])
    assert found[0] == pytest.approx(-2.40, abs=0.03)
    assert found[1] == pytest.approx(-1.56, abs=0.03)
    assert "gap minimum" in capsys.readouterr().out


def test_spectrum_decomposes_each_block_once(tmp_path, monkeypatch):
    # One stacked eigh per excitation block serves all three tables, next
    # to the four single-matrix decompositions of the device's sectors.
    calls = {"eigh": [], "eigvalsh": []}

    def counted(name, fn):
        def call(a, *args, **kwargs):
            calls[name].append(np.shape(a)[:-2])
            return fn(a, *args, **kwargs)
        return call

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    code, _ = _run(tmp_path, "spectrum", "--config", _config(tmp_path), "--steps", "601")
    assert code == 0
    assert calls["eigvalsh"] == []
    assert [s for s in calls["eigh"] if s] == [(601,)] * 4
    assert sum(int(np.prod(s)) for s in calls["eigh"]) == 4 + 4 * 601


def test_lct_command_outputs(tmp_path):
    cfg = _config(tmp_path, lct=LCT_SHORT)
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 0
    for name in ("waveform.csv", "waveform_flux.csv", "waveform_spectrum.csv",
                 "trajectory.csv", "summary.json", "manifest.json"):
        assert (out / name).exists()
    summary = json.loads((out / "summary.json").read_text())
    assert set(summary) >= {"final_error", "final_populations", "t_on_ns",
                            "transfer_time_99_ns", "duration_10_90_ns",
                            "clamp_saturated"}
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"].startswith("lct")
    assert "waveform.csv" in manifest["outputs"]
    assert "manifest.json" not in manifest["outputs"]
    _assert_trajectory(out, ["001", "010", "100"], "010", 4001)


@pytest.mark.parametrize("command", ["lct", "spectrum"])
def test_device_above_the_dimension_cap_exits_1(tmp_path, capsys, command):
    # 14 qubits and the coupler span 2^15 = 32 768 product states, twice
    # the cap: refused before anything is built or written.
    device = {"qubit_freqs_ghz": [5.0 + 0.1 * k for k in range(14)],
              "couplings_ghz": [0.05] * 14, "tc_max_freq_ghz": 7.445}
    lct = {**LCT_SHORT, "initial": "1" + "0" * 14, "target": "01" + "0" * 13}
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"device": device, "lct": lct}))
    code, out = _run(tmp_path, command, "--config", str(path))
    assert code == 1
    assert "dimension 32768 exceeds the cap" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_sample_period_comes_from_the_config_alone(tmp_path, monkeypatch):
    # The environment sets nothing the manifest does not record: a run
    # under PULSE_DT_NS writes the same bytes, and the same manifest
    # wall_time apart, as a run without it, at the config's dt_ns.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": 2.0})
    for name in ("plain", "env"):
        if name == "env":
            monkeypatch.setenv("PULSE_DT_NS", "0.05")
        (tmp_path / name).mkdir()
        monkeypatch.chdir(tmp_path / name)
        assert main(["lct", "--config", cfg, "--out-dir", "out"]) == 0
    plain, env = (tmp_path / name / "out" for name in ("plain", "env"))
    manifests = [json.loads((out / "manifest.json").read_text()) for out in (plain, env)]
    for manifest in manifests:
        manifest.pop("wall_time")
    assert manifests[0] == manifests[1]
    t = np.loadtxt(env / "waveform.csv", delimiter=",", skiprows=1)[:, 0]
    assert t[1] - t[0] == pytest.approx(0.01, abs=1e-9)
    for name in manifests[0]["outputs"]:
        assert filecmp.cmp(plain / name, env / name, shallow=False), name


def test_usage_errors_exit_1_writing_nothing(tmp_path, monkeypatch, capsys):
    # argparse's own refusal exits 2, the convergence code; a usage error is
    # a config error.  The default --out-dir is the working directory.
    cfg = _config(tmp_path)
    cwd = tmp_path / "cwd"
    cwd.mkdir()
    monkeypatch.chdir(cwd)
    for argv, needle in ((["lct"], "--config"),
                         (["spectrum", "--config", cfg, "--steps", "abc", "--out-dir", "out"],
                          "config error: lctpulse spectrum: argument --steps"),
                         ([], "command")):
        assert main(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("config error: lctpulse") and needle in err, argv
        assert list(cwd.iterdir()) == [], argv
    with pytest.raises(SystemExit) as done:
        main(["lct", "--help"])
    assert done.value.code == 0


def test_out_dir_that_cannot_be_created_exits_1(tmp_path, capsys):
    cfg = _config(tmp_path, lct=LCT_SHORT)
    before = open(cfg).read()
    assert main(["lct", "--config", cfg, "--out-dir", cfg]) == 1
    assert capsys.readouterr().err.startswith(f"config error: --out-dir {cfg}:")
    assert open(cfg).read() == before
    assert sorted(os.listdir(tmp_path)) == ["config.json"]


def test_removed_knobs_exit_1(tmp_path, capsys):
    # Each setting has one source: the seed run is the lct section, the
    # cutoff filter.cutoff_ghz, the input pulse --pulse, the run's gain
    # lct.lambda, the pass mark of truncation and the fit
    # optimize.FIDELITY_GOAL, the closed form's sample period
    # pulses.ANALYTIC_DT_NS and the truncation search's cap
    # optimize._TRUNCATION_MAX_EVALS; and the filter always clamps, as the
    # search's reference is clamped.
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, Waveform(dt=0.01, samples=-np.ones(200)))
    cases = (
        ("seed-section", {"lct": LCT_SHORT, "alt": LCT_SHORT},
         ["lct", "--seed-section", "alt"], "unrecognized arguments: --seed-section"),
        ("cutoff", {}, ["filter", "--pulse", pulse_path, "--cutoff", "0.3"],
         "unrecognized arguments: --cutoff"),
        ("filter", {"filter": {"pulse_path": pulse_path}}, ["filter", "--pulse", pulse_path],
         "section 'filter': unknown keys ['pulse_path']"),
        ("truncation", {"lct": LCT_SHORT, "truncation": {"pulse_path": pulse_path}},
         ["truncate", "--pulse", pulse_path], "section 'truncation': unknown keys ['pulse_path']"),
        ("lambda2", {"lct": {**LCT_SHORT, "lambda2": 400.0}}, ["lct"],
         "section 'lct': unknown keys ['lambda2']"),
        ("truncation-goal", {"lct": LCT_SHORT, "truncation": {"fidelity_goal": 1e-6}},
         ["truncate", "--pulse", pulse_path], "section 'truncation': unknown keys ['fidelity_goal']"),
        ("analytic-goal", {"lct": LCT_SHORT, "analytic": {**ANALYTIC, "fidelity_goal": 1e-6}},
         ["analytic"], "section 'analytic': unknown keys ['fidelity_goal']"),
        ("analytic-dt", {"lct": LCT_SHORT, "analytic": {**ANALYTIC, "dt_ns": 0.01}},
         ["analytic"], "section 'analytic': unknown keys ['dt_ns']"),
        ("filter-clamp", {"filter": {"clamp": False}}, ["filter", "--pulse", pulse_path],
         "section 'filter': unknown keys ['clamp']"),
        ("truncation-cap", {"lct": LCT_SHORT, "truncation": {"max_evals": 60}},
         ["truncate", "--pulse", pulse_path],
         "section 'truncation': unknown keys ['max_evals']"),
        ("pipeline-cap", {"lct": LCT_SHORT, "truncation": {"max_evals": 60}},
         ["pipeline"], "section 'truncation': unknown keys ['max_evals']"),
    )
    for name, sections, argv, message in cases:
        cfg = _config(tmp_path, f"{name}.json", **sections)
        code, out = _run(tmp_path / name, *argv, "--config", cfg)
        assert code == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, name
        if message.startswith("unrecognized arguments"):
            assert not out.exists(), name
        else:
            assert list(out.iterdir()) == [], name


def test_lct_rejects_transfer_across_excitation_numbers(tmp_path, capsys):
    # Exchange conserves excitation number, so 100 -> 110 can never
    # transfer; the run must fail at config time instead of exiting 0.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "target": "110"})
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 1
    assert "excitation number" in capsys.readouterr().err
    assert not (out / "waveform.csv").exists()


@pytest.mark.parametrize("initial, target", [
    ("11110", "11101"), ("100", "0a1"), ("100", "0100"), ("000", "")],
    ids=["11101", "0a1", "0100", "empty"])
def test_labels_beyond_the_devices_blocks_exit_1(tmp_path, capsys, initial, target):
    # 11110 and 11101 share an excitation number, four, but the 2-qubit
    # device has no block of four excitations.  0a1 and 0100 hold one
    # excitation and "" none, as their initial labels do, yet none is a
    # label of the device.  The label lookup must name the label and exit
    # 1, not raise an IndexError or run in the block the count picks.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "initial": initial, "target": target})
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 1
    assert repr(target) in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["lct", "pipeline"])
def test_run_whose_target_is_its_initial_label_exits_1(tmp_path, capsys, command):
    # Nothing moves from 100 to 100: the run must fail at config time,
    # before any file is written.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "target": "100"})
    code, out = _run(tmp_path, command, "--config", cfg)
    assert code == 1
    assert "nothing to transfer" in capsys.readouterr().err
    assert list(out.iterdir()) == []


# Both qubits at 5.5 GHz: the eigenstate labelled 010 is a drift eigenstate
# that G leaves alone, so no coupler shift moves population into or out of it.
DARK_DEVICE = {**DEVICE, "qubit_freqs_ghz": [5.5, 5.5]}


@pytest.mark.parametrize("command, initial, target", [
    ("lct", "100", "010"), ("lct", "010", "100"),
    ("optimize", "100", "010"), ("pipeline", "100", "010")])
def test_dark_initial_or_target_state_exits_1(tmp_path, capsys, command, initial, target):
    # The target's row alone would pass 010 -> 100: 100 couples to the
    # coupler state.  The run must name the dark label before any file.
    path = tmp_path / "dark.json"
    path.write_text(json.dumps({"device": DARK_DEVICE,
                                "lct": {**LCT_SHORT, "initial": initial, "target": target}}))
    code, out = _run(tmp_path, command, "--config", str(path))
    assert code == 1
    assert "eigenstate 010 does not couple" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_nearly_dark_device_still_runs(tmp_path):
    # 5.5 vs 5.5000001 GHz couples 010 at 7.7e-7 of max|sz_TC|: too slow
    # for a 40 ns run, but not unreachable, so it is not refused.
    path = tmp_path / "slow.json"
    path.write_text(json.dumps({"device": {**DEVICE, "qubit_freqs_ghz": [5.5, 5.5000001]},
                                "lct": LCT_SHORT}))
    code, out = _run(tmp_path, "lct", "--config", str(path))
    assert code == 0
    assert (out / "summary.json").exists()


def test_lct_failing_in_the_loop_leaves_no_partial_trajectory(tmp_path, monkeypatch, capsys):
    # trajectory.csv streams to disk chunk by chunk: a run that fails
    # after its first chunk was written must take the partial file away,
    # and with no file left there is no manifest to name it.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": 60.0})
    out = tmp_path / "out"
    steps, step_factors = [], lct.step_factors

    def failing(*args):
        steps.append(None)
        if len(steps) > CHUNK + 5:
            assert (out / "trajectory.csv").stat().st_size > 0
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return step_factors(*args)

    monkeypatch.setattr(lct, "step_factors", failing)
    code, _ = _run(tmp_path, "lct", "--config", cfg)
    assert code == 3
    assert "numerical error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_nan_shift_in_the_real_kernel_exits_3_leaving_no_file(tmp_path, monkeypatch, capsys):
    # A NaN sample escapes the clamp (it fails both comparisons) and
    # reaches the real step_factors after the first chunk was written.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": 60.0})
    calls, raw_feedback = [], lct._raw_feedback

    def nan_after_first_chunk(*args):
        calls.append(None)
        return np.nan if len(calls) > CHUNK + 5 else raw_feedback(*args)

    monkeypatch.setattr(lct, "_raw_feedback", nan_after_first_chunk)
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 3
    assert "numerical error" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_lct_failing_before_the_loop_opens_no_file(tmp_path, monkeypatch, capsys):
    # A t_max that is not a whole number of samples, or that is one sample
    # long (a waveform holds two), is refused before the first step: io
    # reads the config and never opens trajectory.csv.
    opened = []
    monkeypatch.setattr(lctpulse.io, "open", raising=False,
                        value=lambda path, *args: opened.append(path) or open(path, *args))
    for command, t_max, message in (("lct", 40.005, "integer number of samples"),
                                    ("lct", 0.01, "t_max shorter than two samples"),
                                    ("optimize", 0.01, "t_max shorter than two samples")):
        opened.clear()
        cfg = _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": t_max})
        code, out = _run(tmp_path / f"{command}-{t_max}", command, "--config", cfg)
        assert code == 1
        assert message in capsys.readouterr().err
        assert opened == [cfg]
        assert list(out.iterdir()) == []


def test_cli_leaves_openssl_unloaded(tmp_path):
    # config_hash takes sha256 from CPython's built-in module; hashlib
    # would load OpenSSL's libcrypto (_hashlib) for one digest.  Only a
    # fresh process shows what a run imports: -X importtime lists each
    # module on stderr, as `python -m lctpulse.cli` runs from start to exit.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": 2.0})
    src = os.path.dirname(os.path.dirname(os.path.realpath(lctpulse.__file__)))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])])}
    done = subprocess.run([sys.executable, "-X", "importtime", "-m", "lctpulse.cli", "lct",
                           "--config", cfg, "--out-dir", str(tmp_path / "out")],
                          capture_output=True, text=True, env=env)
    assert done.returncode == 0, done.stderr
    imported = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                if line.startswith("import time:")}
    assert "lctpulse.io" in imported and "_hashlib" not in imported
    assert (tmp_path / "out" / "manifest.json").exists()


def test_filter_command(tmp_path, capsys):
    wf = Waveform(dt=0.01, samples=-TWO_PI * np.abs(
        np.sin(0.3 * np.arange(2000) * 0.01)))
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, wf)
    # A config with no filter section filters at the default cutoff.
    for name, sections, ghz in (("set", {"filter": {"cutoff_ghz": 0.3}}, "0.3"),
                                ("default", {}, "0.45")):
        cfg = _config(tmp_path, f"{name}.json", **sections)
        code, out = _run(tmp_path / name, "filter", "--config", cfg, "--pulse", pulse_path)
        assert code == 0, name
        assert (out / "filtered.csv").exists()
        assert (out / "filtered_spectrum.csv").exists()
        assert f"filtered at {ghz} GHz" in capsys.readouterr().out.splitlines(), name


def test_filter_writes_the_clamped_reference_of_the_search(tmp_path):
    # A slow tone dipping to 0.9995 omega_tc_max, below the clamp floor but
    # inside the window, plus a 2 GHz ripple the filter removes.  The
    # filter writes the reference optimize_reversible builds at the
    # cutoff, lifted to the floor, not the raw transform.
    params = device_from_config({"device": DEVICE})
    t = np.arange(2000) * 0.01
    wf = Waveform(dt=0.01, samples=params.omega_tc_max * (
        -0.75 + 0.2495 * np.cos(TWO_PI * 0.1 * t) + 4e-4 * np.cos(TWO_PI * 2.0 * t)))
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, wf)
    wf = read_waveform_csv(pulse_path, params.omega_tc_max)
    raw = lowpass_filter(wf, 0.45)
    assert -params.omega_tc_max < raw.samples.min() < clamp_floor(params.omega_tc_max)
    for name, filtered in (("clamped", lowpass_filter(wf, 0.45, params.omega_tc_max)),
                           ("raw", raw)):
        write_waveform_csv(str(tmp_path / f"{name}.csv"), filtered)
    cfg = _config(tmp_path, filter={"cutoff_ghz": 0.45})
    code, out = _run(tmp_path, "filter", "--config", cfg, "--pulse", pulse_path)
    assert code == 0
    assert filecmp.cmp(out / "filtered.csv", tmp_path / "clamped.csv", shallow=False)
    assert not filecmp.cmp(out / "filtered.csv", tmp_path / "raw.csv", shallow=False)


def test_unclamped_filter_output_outside_the_window_exits_3_before_any_file(
        tmp_path, monkeypatch, capsys):
    # A filter output with a sample above 0 GHz: the flux export refuses
    # it, and so must the whole pulse set, before filtered.csv is written.
    monkeypatch.setattr(cli, "lowpass_filter", lambda wf, *args, **kwargs: Waveform(
        dt=wf.dt, samples=np.append(wf.samples[:-1], 0.1)))
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, Waveform(dt=0.01, samples=-np.ones(200)))
    code, out = _run(tmp_path, "filter", "--config", _config(tmp_path), "--pulse", pulse_path)
    assert code == 3
    assert "outside the coupler's window" in capsys.readouterr().err
    assert list(out.iterdir()) == []


def test_truncate_requires_a_pulse(tmp_path):
    cfg = _config(tmp_path, lct=LCT_SHORT, truncation={"sigma_ns": 1.0})
    code, _ = _run(tmp_path, "truncate", "--config", cfg)
    assert code == 1  # no --pulse


def test_truncate_stalls_on_idle_pulse(tmp_path, capsys):
    # Transfer never happens on an idle pulse, nor on 2 ns of feedback, so
    # the search cannot start: exit 2 before any file is written.
    idle_path = str(tmp_path / "idle.csv")
    write_waveform_csv(idle_path, Waveform(dt=0.05, samples=np.zeros(400)))
    code, short = _run(tmp_path / "short", "lct", "--config",
                       _config(tmp_path, "short.json", lct={**LCT_SHORT, "t_max_ns": 2.0}))
    assert code == 0
    cfg = _config(tmp_path, lct=LCT_SHORT, truncation={"sigma_ns": 1.0})
    for name, pulse_path in (("idle", idle_path), ("short", str(short / "waveform.csv"))):
        code, out = _run(tmp_path / name / "truncate", "truncate", "--config", cfg,
                         "--pulse", pulse_path)
        assert code == 2, name
        assert "reverse transfer never reaches 99%" in capsys.readouterr().err, name
        assert list(out.iterdir()) == [], name
    # The fast device's optimized pulse passes only a goal of 0.5: its
    # reverse transfer reaches 99%, so the search runs, and it misses the
    # goal.  Exit 2 after the truncated pulse and its report are written.
    fast = _config(tmp_path, "fast.json", device=FAST_DEVICE, lct=FAST_LCT,
                   reversibility=FAST_SEARCH)
    code, optimized = _run(tmp_path / "optimized", "optimize", "--config", fast)
    assert code == 0
    capsys.readouterr()
    code, out = _run(tmp_path / "stalled", "truncate", "--config", fast,
                     "--pulse", str(optimized / "optimized.csv"))
    assert code == 2
    assert capsys.readouterr().err.startswith("convergence failure: truncation search stalled at ")
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert manifest["outputs"] == ["truncated.csv", "truncated_flux.csv",
                                   "truncated_spectrum.csv", "truncate_report.json"]
    assert not json.loads((out / "truncate_report.json").read_text())["converged"]


def test_bad_config_exit_codes(tmp_path):
    missing = str(tmp_path / "absent.json")
    assert main(["lct", "--config", missing, "--out-dir", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["lct", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
    no_lct = _config(tmp_path, name="nolct.json")
    assert main(["lct", "--config", no_lct, "--out-dir", str(tmp_path)]) == 1


def test_config_that_is_not_utf8_exits_1_writing_nothing(tmp_path, capsys):
    # JSON text is UTF-8: a byte that does not decode is the config's
    # fault, named with its file, not a numerical error.  So is a config
    # in UTF-16 or UTF-32, which json.loads would take from bytes, and a
    # UTF-8 BOM, which is not JSON text.
    text = json.dumps({"device": DEVICE, "lct": LCT_SHORT})
    for name, data, message in (
            ("latin1", b'{"device": "\xff"}', "not UTF-8 text"),
            ("utf16", text.encode("utf-16"), "not UTF-8 text"),
            ("utf32", text.encode("utf-32"), "not UTF-8 text"),
            ("bom", text.encode("utf-8-sig"), "invalid JSON at line 1, column 1")):
        path = tmp_path / f"{name}.json"
        path.write_bytes(data)
        code, out = _run(tmp_path / name, "lct", "--config", str(path))
        assert code == 1, name
        assert capsys.readouterr().err.startswith(f"config error: {path}: {message}"), name
        assert not out.exists(), name


def test_two_excitation_run_writes_its_block_among_every_label(tmp_path):
    # 110 -> 101 runs in the 3-state block of two excitations: its columns
    # carry the run's populations as the sink handed them, every other
    # label reads the literal zero, and the summary lists all eight labels.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": 2.0, "initial": "110",
                                 "target": "101"})
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 0
    params = device_from_config({"device": DEVICE})
    run, traj = record_lct(params, LctConfig(
        lambda_=27626.0, eta=1e-6, dt=0.01, t_max=2.0, initial_label="110",
        target_label="101"))
    block = ["011", "101", "110"]
    assert sorted(run.final_populations) == block
    _assert_trajectory(out, block, "101", 201)
    lines = (out / "trajectory.csv").read_text().splitlines()
    header = lines[0].split(",")
    fields = list(zip(*(line.split(",") for line in lines[1:])))
    for lab in block:
        assert list(fields[header.index(f"pop_{lab}")]) == [
            "%.12e" % p for p in traj.populations[lab]], lab
    summary = json.loads((out / "summary.json").read_text())
    assert summary["final_populations"] == {
        lab: run.final_populations.get(lab, 0.0) for lab in product_labels(2)}
    assert summary["final_error"] == run.final_error


def test_degenerate_device_is_a_numerical_error(tmp_path):
    doc = {"device": {"qubit_freqs_ghz": [5.0, 5.0],
                      "couplings_ghz": [1e-5, 1e-5],
                      "tc_max_freq_ghz": 7.445}}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    code = main(["spectrum", "--config", str(path),
                 "--out-dir", str(tmp_path / "d"), "--steps", "11"])
    assert code == 3


def test_crossing_between_excitation_blocks_is_not_degenerate(tmp_path):
    # At this shift block 1's top level and block 2's lowest cross to
    # rounding.  Levels of different blocks couple exactly 0, so the pair
    # is written as the -0.0 of every other cross-block pair, not refused.
    device = {"qubit_freqs_ghz": [1.0, 1.2], "couplings_ghz": [0.1, 0.071],
              "tc_max_freq_ghz": 7.445}
    delta = -5.272077218157733
    sweep = sweep_eigenvalues(SystemParams.from_ghz(**device), [TWO_PI * delta])
    assert abs(sweep.levels[0, 4] - sweep.levels[0, 3]) < 1e-9
    block = np.repeat(np.arange(4), [1, 3, 3, 1])  # each merged column's block
    assert sorted(block[sweep.order[0, 3:5]]) == [1, 2]
    cfg = tmp_path / "crossing.json"
    cfg.write_text(json.dumps({"device": device}))
    code, out = _run(tmp_path, "spectrum", "--config", str(cfg),
                     "--range", str(delta), str(delta), "--steps", "1")
    assert code == 0
    header, row = ((out / "couplings.csv").read_text().splitlines())
    assert dict(zip(header.split(","), row.split(",")))["d_45"] == "-0.000000000000e+00"


def test_lct_reruns_are_byte_identical(tmp_path):
    cfg = _config(tmp_path, lct={**LCT_SHORT, "dt_ns": 0.02})
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    assert main(["lct", "--config", cfg, "--out-dir", str(out_a)]) == 0
    assert main(["lct", "--config", cfg, "--out-dir", str(out_b)]) == 0
    names = sorted(os.listdir(out_a))
    assert names == sorted(os.listdir(out_b))
    for name in names:
        if name == "manifest.json":
            continue  # wall_time differs between runs
        assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name
    ma = json.loads((out_a / "manifest.json").read_text())
    mb = json.loads((out_b / "manifest.json").read_text())
    for m in (ma, mb):
        m.pop("wall_time")   # timing
        m.pop("command")     # records the differing --out-dir
    assert ma == mb


def test_manifest_records_stage_timings(tmp_path):
    def manifest(command, sections, *extra):
        cfg = _config(tmp_path, f"{command}.json", **sections)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out-dir", str(out), *extra]) == 0
        return json.loads((out / "manifest.json").read_text())

    def stages(command, sections, *extra):
        doc = manifest(command, sections, *extra)
        assert all(isinstance(v, float) and 0.0 <= v <= doc["wall_time"]
                   for v in doc["stages"].values())
        return set(doc["stages"])

    # One-stage commands: their stage time is the manifest's wall_time,
    # and the manifest holds no stages key at all.
    keys = {"config_hash", "command", "outputs", "exit_code", "wall_time"}
    lct = manifest("lct", {"lct": LCT_SHORT})
    assert set(lct) == keys and lct["exit_code"] == 0
    assert lct["outputs"] == ["trajectory.csv", "waveform.csv", "waveform_flux.csv",
                              "waveform_spectrum.csv", "summary.json"]
    assert set(manifest("spectrum", {}, "--steps", "11")) == keys
    reversibility = {"cutoff_candidates_ghz": [0.3, 0.45], "fidelity_goal": 0.5}
    assert stages("analytic", {"lct": LCT_SHORT, "analytic": ANALYTIC}) == {"analytic"}
    assert stages("optimize", {"device": FAST_DEVICE, "lct": FAST_LCT,
                               "reversibility": reversibility}) == {"optimize"}
    assert stages("pipeline", {"device": FAST_DEVICE, "lct": FAST_LCT,
                               "reversibility": reversibility,
                               "analytic": ANALYTIC}) == {"optimize", "analytic"}


def test_forward_failure_in_search_grid_exits_2(tmp_path, capsys):
    # lambda2 = 0 leaves the filtered reference alone, whose forward error
    # misses the goal: the search must abort.
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility={
        "cutoff_candidates_ghz": [0.45], "lambda2_init": 0.0, "fidelity_goal": 0.5})
    code, out = _run(tmp_path, "optimize", "--config", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "forward error" in err and "cutoff 0.45 GHz, lambda2 0;" in err
    assert not (out / "optimize_report.json").exists()


def test_search_without_passing_cell_exits_2_with_report(tmp_path, capsys):
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility={
        "cutoff_candidates_ghz": [0.45, 1.0], "fidelity_goal": 1e-3})
    code, out = _run(tmp_path, "optimize", "--config", cfg)
    assert code == 2
    assert "reversibility search stalled" in capsys.readouterr().err
    report = json.loads((out / "optimize_report.json").read_text())
    assert report["converged"] is False
    assert report["evaluations"] == len(report["history"]) == 2


def test_unknown_stage_keys_exit_1(tmp_path, capsys):
    # A key the truncation search never reads from config, and a misspelt
    # one: the pipeline must refuse the config before its search runs.
    bad = {"simplex_tolerance": 5.0, "max_evalz": 1}
    reversibility = {"cutoff_candidates_ghz": [0.3, 0.45], "fidelity_goal": 0.5}
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, Waveform(dt=0.01, samples=-np.ones(200)))
    for name, sections in (
            ("truncation", {"truncation": {"sigma_ns": 1.0, **bad}}),
            ("analytic", {"analytic": {**ANALYTIC, **bad}})):
        cfg = _config(tmp_path, f"{name}.json", device=FAST_DEVICE, lct=FAST_LCT,
                      reversibility=reversibility, **sections)
        out = tmp_path / name
        for argv in (["pipeline"], ["truncate", "--pulse", pulse_path]
                     if name == "truncation" else ["analytic"]):
            assert main([*argv, "--config", cfg, "--out-dir", str(out)]) == 1
            err = capsys.readouterr().err
            assert f"section {name!r}: unknown keys ['max_evalz', 'simplex_tolerance']" in err
        assert not (out / "optimize_report.json").exists()


def test_unknown_device_seed_and_filter_keys_exit_1(tmp_path, capsys):
    wf = Waveform(dt=0.01, samples=-TWO_PI * np.abs(
        np.sin(0.3 * np.arange(2000) * 0.01)))
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, wf)
    cases = (
        ("filter", "filter", {"filter": {"cutof_ghz": 0.3}},
         "section 'filter': unknown keys ['cutof_ghz']"),
        ("filter", "filter-number", {"filter": 0.45},
         "config section 'filter' must be an object"),
        ("filter", "filter-list", {"filter": [0.3]},
         "config section 'filter' must be an object"),
        # A null section is not an absent one: it holds no settings.
        ("filter", "filter-null", {"filter": None},
         "config section 'filter' must be an object"),
        ("pipeline", "truncation-null", {"lct": LCT_SHORT, "truncation": None},
         "config section 'truncation' must be an object"),
        ("lct", "lct", {"lct": {**LCT_SHORT, "n_primes": 2, "lamda2": 3}},
         "section 'lct': unknown keys ['lamda2', 'n_primes']"),
        ("lct", "device", {"lct": LCT_SHORT,
                           "device": {**DEVICE, "coupling_ghz": [0.100, 0.071]}},
         "section 'device': unknown keys ['coupling_ghz']"),
    )
    for command, name, sections, message in cases:
        cfg = _config(tmp_path, f"{name}.json", **sections)
        extra = ["--pulse", pulse_path] if command == "filter" else []
        code, out = _run(tmp_path / name, command, "--config", cfg, *extra)
        assert code == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and message in err, name
        assert list(out.iterdir()) == []


def test_summary_reports_run_health(tmp_path):
    # Gain 60 000 on the reference device drives the feedback into the
    # clamp floor and breaks monotone transfer; the calibrated gain does
    # neither.
    def summary(gain):
        cfg = _config(tmp_path, f"{gain}.json",
                      lct={**LCT_SHORT, "lambda": gain, "t_max_ns": 100.0})
        out = tmp_path / str(gain)
        assert main(["lct", "--config", cfg, "--out-dir", str(out)]) == 0
        return json.loads((out / "summary.json").read_text())

    calibrated, strong = summary(27626.0), summary(60000.0)
    assert strong["clamp_saturation"] > calibrated["clamp_saturation"] >= 0.0
    assert not strong["clamp_saturated"]  # far from half of the steps
    assert strong["monotonicity_margin"] < -1e-6 < calibrated["monotonicity_margin"]
    path = tmp_path / "60000.0" / "trajectory.csv"
    column = path.read_text().splitlines()[0].split(",").index("pop_010")
    target = np.loadtxt(path, delimiter=",", skiprows=1)[:, column]
    assert strong["monotonicity_margin"] == pytest.approx(np.diff(target).min(), abs=1e-11)


def test_non_numeric_and_non_boolean_stage_values_exit_1(tmp_path, capsys):
    # Each value is cast where its section is read, so a bad one is a
    # config error (exit 1), not a numerical one (exit 3).
    wf = Waveform(dt=0.01, samples=-TWO_PI * np.abs(
        np.sin(0.3 * np.arange(2000) * 0.01)))
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, wf)
    cases = [("filter", "filter", {}, "cutoff_ghz", "x")]
    cases += [("truncate", "truncation", {}, "sigma_ns", "x")]
    cases += [("analytic", "analytic", ANALYTIC, "fit", value) for value in ("x", "false")]
    cases += [("lct", "lct", LCT_SHORT, key, "x")
              for key in ("lambda", "eta", "dt_ns", "t_max_ns", "n_prime")]
    cases += [("optimize", "reversibility", {}, key, "x")
              for key in ("lambda2_init", "fidelity_goal", "cutoff_candidates_ghz")]
    # Cutoffs: float() over the value would run "045" as (0.0, 4.0, 5.0),
    # an object by its keys, and true as 1.0; [] and [-0.1] would fail
    # only after the bare run.
    cases += [("optimize", "reversibility", {}, "cutoff_candidates_ghz", value)
              for value in ("045", {"0.3": 1}, [], [-0.1], [True])]
    # A goal of 1 or more passes any pulse; one of 0 or less passes none.
    cases += [("optimize", "reversibility", {}, "fidelity_goal", value)
              for value in (0, 1, -1, 2, float("nan"), True)]
    # Out-of-domain numbers: each would run, or write files, before failing.
    cases += [("filter", "filter", {}, "cutoff_ghz", value) for value in (0, -0.45)]
    cases += [("truncate", "truncation", {}, "sigma_ns", value)
              for value in (0, -1)]
    cases += [("optimize", "reversibility", {}, "lambda2_init", -5)]
    # A pipeline checks its truncation section before the bare run writes.
    cases += [("pipeline", "truncation", {}, "sigma_ns", -1)]
    # Integer keys: int() would run 2.7 as 2 and true as 1.
    cases += [("lct", "lct", LCT_SHORT, "n_prime", value) for value in (2.7, True)]
    # The device and the seed run: unchecked, each of these would run to a
    # pulse that does not transfer, fail as a numerical error, or overflow.
    nan, inf = float("nan"), float("inf")
    cases += [("lct", "device", DEVICE, key, value) for key, value in (
        ("qubit_freqs_ghz", [5.890, True]), ("qubit_freqs_ghz", [nan, 5.031]),
        ("couplings_ghz", [inf, 0.071]), ("tc_max_freq_ghz", inf))]
    cases += [("lct", "lct", LCT_SHORT, key, value) for key, value in (
        ("lambda", inf), ("lambda", nan), ("t_max_ns", inf), ("dt_ns", nan),
        ("eta", 1))]
    # The closed form's shape keys are finite numbers.
    cases += [("analytic", "analytic", ANALYTIC, key, value) for key, value in (
        ("alpha1_ghz", nan), ("alpha1_ghz", True), ("tau2_ns", inf))]
    # Labels and paths are strings: str() would run 100 as the label "100"
    # and null as "None".
    cases += [("lct", "lct", LCT_SHORT, key, value) for key, value in (
        ("initial", 100), ("target", None), ("initial", ["100"]),
        ("reference_pulse_path", None), ("reference_pulse_path", 5))]
    # A null is no value, not the default: each key's cast refuses it.
    cases += [("filter", "filter", {}, "cutoff_ghz", None),
              ("truncate", "truncation", {}, "sigma_ns", None),
              ("analytic", "analytic", ANALYTIC, "fit", None),
              ("lct", "lct", LCT_SHORT, "n_prime", None),
              ("lct", "device", DEVICE, "tc_max_freq_ghz", None),
              ("optimize", "reversibility", {}, "cutoff_candidates_ghz", None)]
    # A fit's start outside its bounds: the fit would refuse it only after
    # the bare run and the search (pipeline), or after stage 1 (sigma1_ns).
    cases += [(command, "analytic", {**ANALYTIC, "fit": True}, key, value)
              for command in ("analytic", "pipeline")
              for key, value in (("alpha1_ghz", -4.0), ("sigma1_ns", 6.0))]
    for command, section, base, key, value in cases:
        name = f"{section}-{key}-{value}"
        cfg = _config(tmp_path, f"{name}.json",
                      **{"lct": LCT_SHORT, section: {**base, key: value}})
        extra = ["--pulse", pulse_path] if command in ("filter", "truncate") else []
        code, out = _run(tmp_path / name, command, "--config", cfg, *extra)
        assert code == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:"), name
        assert f"section {section!r}, key {key!r}" in err, name
        assert list(out.iterdir()) == [], name


def test_unfitted_closed_form_is_checked_before_any_file(tmp_path, capsys):
    # With fit false the closed form is the pulse, so one that cannot be
    # sampled is a config error, found before the params are written and,
    # in a pipeline, before the search runs.
    for key, value, message in (("tau2_ns", 5.0, "branch times"),
                                ("sigma2_ns", 0.0, "widths must be positive"),
                                ("alpha1_ghz", -8.0, "amplitude at or below -omega_tc_max"),
                                ("alpha1_ghz", -7.445, "amplitude at or below -omega_tc_max")):
        cfg = _config(tmp_path, f"{key}.json", lct=LCT_SHORT,
                      analytic={**ANALYTIC, key: value})
        for command in ("analytic", "pipeline"):
            code, out = _run(tmp_path / command / key, command, "--config", cfg)
            assert code == 1, (command, key)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: section 'analytic': {message}"), (command, key)
            assert list(out.iterdir()) == [], (command, key)


def test_fit_on_a_low_coupler_stays_inside_its_window(tmp_path, monkeypatch, capsys):
    # A 2 GHz coupler's clamp floor, -1.998 GHz, is the low end of the
    # fit's amplitudes: a start below it is a config error before any file,
    # and a fit from inside writes a pulse the coupler can play, whose error
    # is the fit's own value.
    monkeypatch.setattr(optimize, "_FIT_MAX_EVALS", 8)
    device = {"qubit_freqs_ghz": [1.89, 1.031], "couplings_ghz": [0.1, 0.071],
              "tc_max_freq_ghz": 2.0}
    shape = {"fit": True, "alpha1_ghz": -1.99, "alpha3_ghz": -1.8,
             "tau1_ns": 7.201434824566999, "tau2_ns": 8.901434824566998,
             "tau3_ns": 11.401434824566998, "sigma1_ns": 1.37, "sigma2_ns": 0.2,
             "sigma3_ns": 1.83}
    cfg = _config(tmp_path, "below.json", device=device, lct=LCT_SHORT,
                  analytic={**shape, "alpha1_ghz": -2.5})
    code, out = _run(tmp_path / "below", "analytic", "--config", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: section 'analytic', key 'alpha1_ghz': -2.5 lies outside "
        "the fit's bounds [-1.998, -0.1592]\n")
    assert list(out.iterdir()) == []

    cfg = _config(tmp_path, "inside.json", device=device, lct=LCT_SHORT, analytic=shape)
    code, out = _run(tmp_path / "inside", "analytic", "--config", cfg)
    assert code in (0, 2)
    assert sorted(p.name for p in out.iterdir()) == [
        "analytic.csv", "analytic_flux.csv", "analytic_params.json", "analytic_report.json",
        "analytic_spectrum.csv", "analytic_summary.json", "manifest.json"]
    form = json.loads((out / "analytic_params.json").read_text())
    assert min(form["alpha1_ghz"], form["alpha3_ghz"]) >= clamp_floor(TWO_PI * 2.0) / TWO_PI
    fitted = json.loads((out / "analytic_report.json").read_text())
    written = json.loads((out / "analytic_summary.json").read_text())
    assert written["final_error"] == fitted["forward_error"]


def test_out_of_domain_flags_exit_1(tmp_path, capsys):
    # Values argparse parses but the run refuses: config errors, as
    # argparse's own refusals are (test_usage_errors_exit_1_writing_nothing).
    cfg = _config(tmp_path)
    for name, argv, flag in (
            ("steps", ["spectrum", "--steps", "0"], "--steps"),
            ("nan_range", ["spectrum", "--range", "nan", "0"], "--range"),
            ("inf_range", ["spectrum", "--range", "-3", "inf"], "--range"),
            # Both ends must lie in the coupler's window [-7.445, 0] GHz.
            ("wide_range", ["spectrum", "--range", "-20", "5"], "--range"),
            ("above_range", ["spectrum", "--range", "-3", "0.5"], "--range"),
            ("below_range", ["spectrum", "--range", "-7.5", "0"], "--range")):
        code, out = _run(tmp_path / name, *argv, "--config", cfg)
        assert code == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:") and flag in err, name
        assert list(out.iterdir()) == [], name
    # One point is the smallest sweep, with no interior gap minimum.
    code, out = _run(tmp_path / "one", "spectrum", "--steps", "1", "--config", cfg)
    assert code == 0
    assert json.loads((out / "spectrum_summary.json").read_text())["gap_minima"] == []


def test_bare_pulse_missing_the_goal_exits_2_before_the_search(tmp_path, capsys):
    # 2 ns of feedback transfers almost nothing, so the reversibility
    # search refuses the bare pulse; its files are written, no report is.
    cfg = _config(tmp_path, device=FAST_DEVICE, lct={**FAST_LCT, "t_max_ns": 2.0})
    code, out = _run(tmp_path, "optimize", "--config", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("convergence failure: bare pulse forward error")
    assert "misses the goal" in err
    assert (out / "bare.csv").exists()
    assert not (out / "optimize_report.json").exists()


def test_non_finite_pulse_sample_exits_1_naming_the_file(tmp_path, capsys):
    pulse_path = tmp_path / "nan.csv"
    pulse_path.write_text("t_ns,delta_omega_ghz\n0.0,-0.1\n0.01,nan\n0.02,-0.1\n")
    cfg = _config(tmp_path)
    code, out = _run(tmp_path, "filter", "--config", cfg, "--pulse", str(pulse_path))
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {pulse_path}:") and "finite" in err
    assert list(out.iterdir()) == []
    # So is a --pulse that names no file.
    absent = str(tmp_path / "absent.csv")
    cfg = _config(tmp_path, "lct.json", lct=LCT_SHORT)
    for command in ("filter", "truncate"):
        code, out = _run(tmp_path / command, command, "--config", cfg, "--pulse", absent)
        assert code == 1, command
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read waveform {absent}:"), command
        assert list(out.iterdir()) == [], command


def test_pulse_outside_the_window_exits_1_before_any_file(tmp_path, capsys):
    # Unchecked, the filter would clamp such a pulse into the window and
    # write the filter of a pulse the file does not hold.
    for name, ghz in (("above", 0.5), ("below", -8.0)):
        pulse_path = str(tmp_path / f"{name}.csv")
        write_waveform_csv(pulse_path, Waveform(dt=0.01, samples=TWO_PI * np.array([-0.1, ghz])))
        cfg = _config(tmp_path, f"{name}.json", lct=LCT_SHORT)
        for argv in (["filter", "--pulse", pulse_path], ["truncate", "--pulse", pulse_path]):
            code, out = _run(tmp_path / name / argv[0], *argv, "--config", cfg)
            assert code == 1, (name, argv)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {pulse_path}:"), (name, argv)
            assert "outside the coupler's window" in err, (name, argv)
            assert list(out.iterdir()) == [], (name, argv)


def test_pulse_grid_not_starting_at_0_exits_1_before_any_file(tmp_path, capsys):
    # Read as if it started at 0, a pulse file from 5 ns would be played
    # 5 ns early: as the input pulse and as a run's reference.
    pulse_path = str(tmp_path / "late.csv")
    with open(pulse_path, "w") as fh:
        fh.write("t_ns,delta_omega_ghz\n5.0,-0.1\n5.5,-0.1\n6.0,-0.1\n6.5,-0.1\n")
    cfg = _config(tmp_path, lct={**LCT_SHORT, "reference_pulse_path": pulse_path})
    for argv in (["filter", "--pulse", pulse_path], ["truncate", "--pulse", pulse_path],
                 ["lct"]):
        code, out = _run(tmp_path / argv[0], *argv, "--config", cfg)
        assert code == 1, argv
        err = capsys.readouterr().err
        assert err.startswith(f"config error: {pulse_path}: time grid starts at 5 ns"), argv
        assert list(out.iterdir()) == [], argv


@pytest.mark.parametrize("command", ["analytic", "pipeline"])
def test_analytic_fit_missing_its_goal_exits_2_after_its_files(
        tmp_path, monkeypatch, capsys, command):
    # As optimize and truncate do: the report and the pulse are written,
    # and the run then fails as a convergence failure, with a manifest
    # that names them and the exit code.
    stalled = OptimizationReport(best_params={}, best_value=0.1358, evaluations=1239,
                                 converged=False, forward_error=0.1358)
    monkeypatch.setattr(cli, "fit_analytic_pulse", lambda params, form, *args, **kwargs: (
        form, stalled))
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT,
                  reversibility={"cutoff_candidates_ghz": [0.3, 0.45], "fidelity_goal": 0.5},
                  analytic={**ANALYTIC, "fit": True})
    code, out = _run(tmp_path, command, "--config", cfg)
    assert code == 2
    prefix = "pipeline stage 'analytic': " if command == "pipeline" else ""
    assert capsys.readouterr().err == (
        f"convergence failure: {prefix}analytic fit stalled at 1.358e-01\n")
    assert json.loads((out / "analytic_report.json").read_text())["converged"] is False
    names = ["analytic_report.json", "analytic_params.json", "analytic.csv",
             "analytic_flux.csv", "analytic_spectrum.csv", "analytic_summary.json"]
    for name in names:
        assert (out / name).exists(), name
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    # The stage that failed is timed too, and names the pipeline's failure.
    assert set(manifest["stages"]) == (
        {"optimize", "analytic"} if command == "pipeline" else {"analytic"})
    assert manifest["outputs"][-6:] == names
    assert sorted(manifest["outputs"]) == sorted(p.name for p in out.iterdir()
                                                 if p.name != "manifest.json")


def _stdout_lines_once(capfd) -> tuple:
    """The captured (stdout lines, stderr), each stdout line written once:
    the parent flushes before it forks, and the child flushes nothing."""
    captured = capfd.readouterr()
    lines = captured.out.splitlines()
    assert len(lines) == len(set(lines)), lines
    return lines, captured.err


def test_pipeline_whose_search_aborts_kills_the_running_fit(tmp_path, monkeypatch, capfd):
    # The fit, started before the search, would outlast the test by far;
    # the search aborts (lambda2 = 0, as in
    # test_forward_failure_in_search_grid_exits_2), and the run must kill
    # and reap the child and write no analytic file.
    monkeypatch.setattr(cli, "fit_analytic_pulse", lambda *args: time.sleep(600))
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility={
        "cutoff_candidates_ghz": [0.45], "lambda2_init": 0.0, "fidelity_goal": 0.5},
        analytic=FIT)
    print("before the run")
    started = time.monotonic()
    code, out = _run(tmp_path, "pipeline", "--config", cfg)
    assert code == 2
    assert time.monotonic() - started < 60
    lines, err = _stdout_lines_once(capfd)
    assert lines == ["before the run"]
    assert err.startswith("convergence failure: pipeline stage 'optimize': forward error")
    assert not [p.name for p in out.iterdir() if p.name.startswith("analytic")]
    assert "fit_time" not in json.loads((out / "manifest.json").read_text())


def test_fit_failing_in_its_child_exits_3_after_the_feedback_stages(
        tmp_path, monkeypatch, capfd):
    def singular(*args):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    # Truncation of the fast device's pulse stalls; here it hands the pulse
    # on as converged, so the run goes on to collect the fit.
    converged = OptimizationReport(best_params={}, best_value=0.0, evaluations=1,
                                   converged=True, forward_error=0.0, reverse_error=0.0)
    monkeypatch.setattr(cli, "optimize_truncation",
                        lambda params, pulse, *args, **kwargs: (pulse, converged))
    monkeypatch.setattr(cli, "fit_analytic_pulse", singular)
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility=FAST_SEARCH,
                  truncation={}, analytic=FIT)
    code, out = _run(tmp_path, "pipeline", "--config", cfg)
    assert code == 3
    lines, err = _stdout_lines_once(capfd)
    assert lines[0].startswith("reverse error") and lines[1].startswith("truncated to")
    assert err == "numerical error: Eigenvalues did not converge\n"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert set(manifest["stages"]) == {"optimize", "truncate", "analytic"}
    assert manifest["outputs"] == [
        "bare.csv", "bare_flux.csv", "bare_spectrum.csv", "optimized.csv",
        "optimized_flux.csv", "optimized_spectrum.csv", "optimize_report.json",
        "truncated.csv", "truncated_flux.csv", "truncated_spectrum.csv",
        "truncate_report.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json"])


def test_fit_in_its_child_writes_the_bytes_of_a_fit_in_process(tmp_path, monkeypatch):
    # The fit misses its goal on the fast device, so each command exits 2
    # with every file written: at the fit's own cap, whose pickled outcome
    # (about 77 kB) is more than a Linux pipe buffers (64 KiB), and capped
    # at 8 evaluations per stage, a cap patched here that the forked child
    # inherits.
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility=FAST_SEARCH,
                  analytic=FIT)

    def run_both(name):
        outs = {}
        for command in ("analytic", "pipeline"):
            code, outs[command] = _run(tmp_path / name / command, command, "--config", cfg)
            assert code == 2, (name, command)
            manifest = json.loads((outs[command] / "manifest.json").read_text())
            # The child's own wall seconds, apart from stages.analytic, which
            # in a pipeline times only the wait and the writes.
            assert 0.0 < manifest["fit_time"] <= manifest["wall_time"], (name, command)
            assert "fit_time" not in manifest["stages"], (name, command)
        match, mismatch, errors = filecmp.cmpfiles(outs["analytic"], outs["pipeline"],
                                                   ANALYTIC_FILES, shallow=False)
        assert (match, mismatch, errors) == (ANALYTIC_FILES, [], []), name
        return outs

    run_both("full")
    monkeypatch.setattr(optimize, "_FIT_MAX_EVALS", 8)
    outs = run_both("capped")

    doc = json.loads(open(cfg).read())
    params = device_from_config(doc)
    form, _ = optimize.fit_analytic_pulse(
        params, analytic_section(doc, params.omega_tc_max)[0], "100", "010")
    write_json(str(tmp_path / "in_process.json"), analytic_params_to_dict(form))
    assert ((tmp_path / "in_process.json").read_bytes()
            == (outs["pipeline"] / "analytic_params.json").read_bytes())


def test_fit_without_fork_runs_inline_with_the_bytes_of_a_forked_fit(tmp_path, monkeypatch):
    # Where os.fork is missing (Windows) the fit runs inline when it is
    # started; its files are those of the forked fit, and its own wall
    # seconds are recorded all the same.
    monkeypatch.setattr(optimize, "_FIT_MAX_EVALS", 8)
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility=FAST_SEARCH,
                  analytic=FIT)
    code, forked = _run(tmp_path / "forked", "analytic", "--config", cfg)
    assert code == 2
    monkeypatch.delattr(os, "fork")
    for command in ("analytic", "pipeline"):
        code, out = _run(tmp_path / command, command, "--config", cfg)
        assert code == 2, command
        manifest = json.loads((out / "manifest.json").read_text())
        assert 0.0 < manifest["fit_time"] <= manifest["wall_time"], command
        match, mismatch, errors = filecmp.cmpfiles(forked, out, ANALYTIC_FILES, shallow=False)
        assert (match, mismatch, errors) == (ANALYTIC_FILES, [], []), command


@pytest.mark.parametrize("command, cut", [
    pytest.param("analytic", False, id="analytic"), pytest.param("pipeline", False, id="pipeline"),
    pytest.param("analytic", True, id="analytic-cut"), pytest.param("pipeline", True, id="pipeline-cut")])
def test_fit_child_that_dies_without_an_outcome_exits_3(tmp_path, monkeypatch, capfd, command, cut):
    # A child killed before it sends its outcome, or whose outcome arrives
    # cut short, fails the run as exit 3, naming how it ended; the
    # pipeline's feedback files stay, and its manifest names them.
    if cut:
        dumps = pickle.dumps
        monkeypatch.setattr(cli, "fit_analytic_pulse", lambda *args: None)
        monkeypatch.setattr(pickle, "dumps", lambda obj: dumps(obj)[:8])
        how = "exit status 0"
    else:
        monkeypatch.setattr(cli, "fit_analytic_pulse",
                            lambda *args: os.kill(os.getpid(), signal.SIGKILL))
        how = "killed by SIGKILL"
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility=FAST_SEARCH,
                  analytic=FIT)
    code, out = _run(tmp_path, command, "--config", cfg)
    assert code == 3
    _, err = _stdout_lines_once(capfd)
    assert err == f"runtime error: the forked child ended without an outcome ({how})\n"
    if command == "analytic":
        assert list(out.iterdir()) == []
        return
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3 and "fit_time" not in manifest
    assert set(manifest["stages"]) == {"optimize", "analytic"}
    assert manifest["outputs"] == [
        "bare.csv", "bare_flux.csv", "bare_spectrum.csv", "optimized.csv",
        "optimized_flux.csv", "optimized_spectrum.csv", "optimize_report.json"]
    assert sorted(p.name for p in out.iterdir()) == sorted(manifest["outputs"] + ["manifest.json"])


@pytest.mark.parametrize("change", ["delete", "rewrite"])
def test_config_changed_mid_run_is_hashed_as_the_run_read_it(tmp_path, monkeypatch, change):
    # The config is read once: the manifest hashes the bytes the run
    # parsed, whatever happens to the file once the run has started.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": 2.0})
    data = open(cfg, "rb").read()

    def run_then_change(params, config, sink):
        result = lct.run_lct(params, config, sink)
        if change == "delete":
            os.remove(cfg)
        else:
            _config(tmp_path, lct={**LCT_SHORT, "t_max_ns": 3.0})
        return result

    monkeypatch.setattr(cli, "run_lct", run_then_change)
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config_hash"] == hashlib.sha256(data).hexdigest()
    assert manifest["exit_code"] == 0 and len(manifest["outputs"]) == 5


@pytest.mark.parametrize("command", ["analytic", "pipeline"])
def test_coupler_too_narrow_for_a_fitted_closed_form_exits_1(tmp_path, capsys, command):
    # Below about 0.1593 GHz the clamp floor lies above the fit's highest
    # amplitude, -1 rad/ns, so no amplitude is left to fit.
    device = {"qubit_freqs_ghz": [0.1, 0.12], "couplings_ghz": [0.01, 0.01],
              "tc_max_freq_ghz": 0.15}
    cfg = _config(tmp_path, device=device, lct=LCT_SHORT,
                  analytic={**FIT, "alpha1_ghz": -0.155, "alpha3_ghz": -0.155})
    code, out = _run(tmp_path, command, "--config", cfg)
    assert code == 1
    assert capsys.readouterr().err == (
        "config error: section 'analytic': the coupler's window [-0.15, 0] GHz is too "
        "narrow for the closed form, whose fitted amplitudes lie at or below -0.1592 GHz\n")
    assert list(out.iterdir()) == []


def test_lambda_is_the_gain_of_a_run_with_a_reference(tmp_path, monkeypatch):
    # The bare 40 ns pulse is the reference; lambda then shapes the
    # correction term, unseeded as the reversibility search runs it.
    code, bare = _run(tmp_path / "bare", "lct", "--config",
                      _config(tmp_path, "bare.json", lct=LCT_SHORT))
    assert code == 0
    ref_path = str(bare / "waveform.csv")
    params, pulses = device_from_config({"device": DEVICE}), {}
    monkeypatch.setattr(cli, "run_lct", lambda params, config, sink: pulses.setdefault(
        config.lambda_, lct.run_lct(params, config, sink)))
    for gain in (500.0, 900.0):
        cfg = _config(tmp_path, f"{gain}.json", lct={
            **LCT_SHORT, "lambda": gain, "eta": 0.0, "reference_pulse_path": ref_path})
        code, out = _run(tmp_path / str(gain), "lct", "--config", cfg)
        assert code == 0
        _assert_trajectory(out, ["001", "010", "100"], "010", 4001)
        config = LctConfig(lambda_=gain, eta=0.0, dt=0.01, t_max=40.0, initial_label="100",
                           target_label="010",
                           reference=read_waveform_csv(ref_path, params.omega_tc_max))
        expected = lct.run_lct(params, config).waveform
        np.testing.assert_array_equal(pulses[gain].waveform.samples, expected.samples)
    assert not filecmp.cmp(tmp_path / "500.0" / "out" / "waveform.csv",
                           tmp_path / "900.0" / "out" / "waveform.csv", shallow=False)


def test_reference_outside_the_window_exits_1_before_any_file(tmp_path, capsys):
    # Unchecked, the feedback loop would clamp such a reference sample by
    # sample and exit 0 with a pulse that does not transfer.
    def config(name, ghz):
        ref_path = str(tmp_path / f"{name}.csv")
        write_waveform_csv(ref_path, Waveform(dt=0.01, samples=TWO_PI * np.array([-0.1, ghz])))
        return ref_path, _config(tmp_path, f"{name}.json", lct={
            **LCT_SHORT, "t_max_ns": 0.02, "reference_pulse_path": ref_path})

    for name, ghz in (("above", 0.5), ("below", -20.0)):
        ref_path, cfg = config(name, ghz)
        for command in ("lct", "optimize", "pipeline"):
            code, out = _run(tmp_path / name / command, command, "--config", cfg)
            assert code == 1, (name, command)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {ref_path}:"), (name, command)
            assert "outside the coupler's window" in err, (name, command)
            assert list(out.iterdir()) == [], (name, command)
    _, cfg = config("inside", -2.0)
    code, out = _run(tmp_path / "inside", "lct", "--config", cfg)
    assert code == 0
    assert (out / "summary.json").exists()
