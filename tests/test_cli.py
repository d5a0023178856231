import filecmp
import json
import os

import numpy as np
import pytest

from lctpulse.cli import main
from lctpulse.io import write_waveform_csv
from lctpulse.pulses import Waveform
from lctpulse.units import TWO_PI

DEVICE = {
    "qubit_freqs_ghz": [5.890, 5.031],
    "couplings_ghz": [0.100, 0.071],
    "tc_max_freq_ghz": 7.445,
}

LCT_SHORT = {
    "lambda": 27626.0, "eta": 1e-6, "dt_ns": 0.01, "t_max_ns": 40.0,
    "initial": "100", "target": "010",
}


# Strong couplings transfer within 60 ns at a low gain, so the bare run
# and a whole reversibility grid take about a second.
FAST_DEVICE = {**DEVICE, "couplings_ghz": [0.3, 0.2]}
FAST_LCT = {"lambda": 5000.0, "eta": 1e-6, "dt_ns": 0.01, "t_max_ns": 60.0,
            "initial": "100", "target": "010"}


def _config(tmp_path, name="config.json", **sections):
    doc = {"device": DEVICE, **sections}
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def _run(tmp_path, *argv):
    out = tmp_path / "out"
    code = main(list(argv) + ["--out-dir", str(out)])
    return code, out


def test_spectrum_command(tmp_path, capsys):
    cfg = _config(tmp_path)
    code, out = _run(tmp_path, "spectrum", "--config", cfg, "--steps", "201")
    assert code == 0
    for name in ("eigenvalues.csv", "couplings.csv", "spectrum_summary.json",
                 "manifest.json"):
        assert (out / name).exists()
    summary = json.loads((out / "spectrum_summary.json").read_text())
    found = sorted(m["delta_omega_ghz"] for m in summary["gap_minima"])
    assert found[0] == pytest.approx(-2.40, abs=0.03)
    assert found[1] == pytest.approx(-1.56, abs=0.03)
    assert "gap minimum" in capsys.readouterr().out


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


def test_dt_env_override(tmp_path, monkeypatch):
    cfg = _config(tmp_path, lct=LCT_SHORT)
    monkeypatch.setenv("PULSE_DT_NS", "0.05")
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 0
    t = np.loadtxt(out / "waveform.csv", delimiter=",", skiprows=1)[:, 0]
    assert t[1] - t[0] == pytest.approx(0.05, abs=1e-9)
    monkeypatch.setenv("PULSE_DT_NS", "not-a-number")
    assert main(["lct", "--config", cfg, "--out-dir", str(tmp_path / "x")]) == 1


def test_lct_rejects_transfer_across_excitation_numbers(tmp_path, capsys):
    # Exchange conserves excitation number, so 100 -> 110 can never
    # transfer; the run must fail at config time instead of exiting 0.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "target": "110"})
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 1
    assert "excitation number" in capsys.readouterr().err
    assert not (out / "waveform.csv").exists()


def test_filter_command(tmp_path):
    wf = Waveform(dt=0.01, samples=-TWO_PI * np.abs(
        np.sin(0.3 * np.arange(2000) * 0.01)))
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, wf)
    cfg = _config(tmp_path, filter={"cutoff_ghz": 0.45})
    code, out = _run(tmp_path, "filter", "--config", cfg,
                     "--pulse", pulse_path, "--cutoff", "0.3")
    assert code == 0
    assert (out / "filtered.csv").exists()
    assert (out / "filtered_spectrum.csv").exists()


def test_truncate_requires_a_pulse(tmp_path):
    cfg = _config(tmp_path, lct=LCT_SHORT, truncation={"sigma_ns": 1.0})
    code, _ = _run(tmp_path, "truncate", "--config", cfg)
    assert code == 1  # no --pulse and no pulse_path


def test_truncate_stalls_on_idle_pulse(tmp_path):
    wf = Waveform(dt=0.05, samples=np.zeros(400))
    pulse_path = str(tmp_path / "idle.csv")
    write_waveform_csv(pulse_path, wf)
    cfg = _config(tmp_path, lct=LCT_SHORT,
                  truncation={"sigma_ns": 1.0, "pulse_path": pulse_path})
    code, _ = _run(tmp_path, "truncate", "--config", cfg)
    assert code == 2  # transfer never happens, search cannot start


def test_bad_config_exit_codes(tmp_path):
    missing = str(tmp_path / "absent.json")
    assert main(["lct", "--config", missing, "--out-dir", str(tmp_path)]) == 1
    bad = tmp_path / "bad.json"
    bad.write_text("{broken")
    assert main(["lct", "--config", str(bad), "--out-dir", str(tmp_path)]) == 1
    no_lct = _config(tmp_path, name="nolct.json")
    assert main(["lct", "--config", no_lct, "--out-dir", str(tmp_path)]) == 1


def test_degenerate_device_is_a_numerical_error(tmp_path):
    doc = {"device": {"qubit_freqs_ghz": [5.0, 5.0],
                      "couplings_ghz": [1e-5, 1e-5],
                      "tc_max_freq_ghz": 7.445}}
    path = tmp_path / "deg.json"
    path.write_text(json.dumps(doc))
    code = main(["spectrum", "--config", str(path),
                 "--out-dir", str(tmp_path / "d"), "--steps", "11"])
    assert code == 3


def test_lct_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.setenv("PULSE_DT_NS", "0.02")
    cfg = _config(tmp_path, lct=LCT_SHORT)
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


def test_seed_section_flag(tmp_path):
    cfg = _config(tmp_path, alt=LCT_SHORT)
    code, out = _run(tmp_path, "lct", "--config", cfg,
                     "--seed-section", "alt")
    assert code == 0
    assert (out / "waveform.csv").exists()


def test_manifest_records_stage_timings(tmp_path):
    def stages(command, sections, *extra):
        cfg = _config(tmp_path, f"{command}.json", **sections)
        out = tmp_path / command
        assert main([command, "--config", cfg, "--out-dir", str(out), *extra]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        found = manifest.get("stages", {})
        assert all(isinstance(v, float) and 0.0 <= v <= manifest["wall_time"]
                   for v in found.values())
        return set(found)

    # One-stage commands: their stage time is the manifest's wall_time.
    assert stages("lct", {"lct": LCT_SHORT}) == set()
    assert stages("spectrum", {}, "--steps", "11") == set()
    analytic = {"fit": False, "alpha1_ghz": -1.591, "alpha3_ghz": -2.457,
                "tau1_ns": 7.2, "tau2_ns": 8.9, "tau3_ns": 11.4,
                "sigma1_ns": 1.37, "sigma2_ns": 0.2, "sigma3_ns": 1.83}
    reversibility = {"cutoff_candidates_ghz": [0.3, 0.45],
                     "lambda2_bounds": [200.0, 1000.0], "fidelity_goal": 0.5}
    assert stages("analytic", {"lct": LCT_SHORT, "analytic": analytic}) == {"analytic"}
    assert stages("optimize", {"device": FAST_DEVICE, "lct": FAST_LCT,
                               "reversibility": reversibility}) == {"optimize"}
    assert stages("pipeline", {"device": FAST_DEVICE, "lct": FAST_LCT,
                               "reversibility": reversibility,
                               "analytic": analytic}) == {"optimize", "analytic"}


def test_forward_failure_in_search_grid_exits_2(tmp_path, capsys):
    # lambda2 = 0 is on the grid and leaves the filtered reference alone,
    # whose forward error misses the goal: the search must abort.
    cfg = _config(tmp_path, device=FAST_DEVICE, lct=FAST_LCT, reversibility={
        "cutoff_candidates_ghz": [0.45], "lambda2_bounds": [0.0, 1000.0],
        "fidelity_goal": 0.5})
    code, out = _run(tmp_path, "optimize", "--config", cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "forward error" in err and "cutoff 0.45 GHz, lambda2 0;" in err
    assert not (out / "optimize_report.json").exists()
