import filecmp
import json
import os

import numpy as np
import pytest

from lctpulse.cli import main
from lctpulse.io import device_from_config, read_waveform_csv, write_waveform_csv
from lctpulse.pulses import Waveform, clamp_floor, lowpass_filter
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


# A closed form that is sampled as it stands.
ANALYTIC = {"fit": False, "alpha1_ghz": -1.591, "alpha3_ghz": -2.457,
            "tau1_ns": 7.2, "tau2_ns": 8.9, "tau3_ns": 11.4,
            "sigma1_ns": 1.37, "sigma2_ns": 0.2, "sigma3_ns": 1.83}


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


def test_dt_env_override(tmp_path, monkeypatch, capsys):
    cfg = _config(tmp_path, lct=LCT_SHORT)
    monkeypatch.setenv("PULSE_DT_NS", "0.05")
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 0
    t = np.loadtxt(out / "waveform.csv", delimiter=",", skiprows=1)[:, 0]
    assert t[1] - t[0] == pytest.approx(0.05, abs=1e-9)
    # A sample period that is not a positive finite number is refused
    # before any run: nan would exit 3, and inf as "t_max shorter than one
    # sample".
    capsys.readouterr()
    for value in ("not-a-number", "nan", "inf", "0", "-1"):
        monkeypatch.setenv("PULSE_DT_NS", value)
        code, out = _run(tmp_path / value, "lct", "--config", cfg)
        assert code == 1, value
        err = capsys.readouterr().err
        assert err.startswith("config error: PULSE_DT_NS"), value
        assert list(out.iterdir()) == [], value


def test_lct_rejects_transfer_across_excitation_numbers(tmp_path, capsys):
    # Exchange conserves excitation number, so 100 -> 110 can never
    # transfer; the run must fail at config time instead of exiting 0.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "target": "110"})
    code, out = _run(tmp_path, "lct", "--config", cfg)
    assert code == 1
    assert "excitation number" in capsys.readouterr().err
    assert not (out / "waveform.csv").exists()


@pytest.mark.parametrize("command", ["lct", "pipeline"])
def test_run_whose_target_is_its_initial_label_exits_1(tmp_path, capsys, command):
    # Nothing moves from 100 to 100: the run must fail at config time,
    # before any file is written.
    cfg = _config(tmp_path, lct={**LCT_SHORT, "target": "100"})
    code, out = _run(tmp_path, command, "--config", cfg)
    assert code == 1
    assert "nothing to transfer" in capsys.readouterr().err
    assert list(out.iterdir()) == []


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


def test_filter_clamp_false_writes_the_raw_filter_output(tmp_path):
    # A slow tone dipping to 0.9995 omega_tc_max, below the clamp floor but
    # inside the window, plus a 2 GHz ripple the filter removes.
    params = device_from_config({"device": DEVICE})
    t = np.arange(2000) * 0.01
    wf = Waveform(dt=0.01, samples=params.omega_tc_max * (
        -0.75 + 0.2495 * np.cos(TWO_PI * 0.1 * t) + 4e-4 * np.cos(TWO_PI * 2.0 * t)))
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, wf)
    wf = read_waveform_csv(pulse_path)
    raw = lowpass_filter(wf, 0.45)
    assert -params.omega_tc_max < raw.samples.min() < clamp_floor(params.omega_tc_max)
    expected = {"clamped": lowpass_filter(wf, 0.45, omega_tc_max=params.omega_tc_max),
                "raw": raw}
    for name, sec in (("clamped", {}), ("raw", {"clamp": False})):
        write_waveform_csv(str(tmp_path / f"{name}.csv"), expected[name])
        cfg = _config(tmp_path, f"{name}.json",
                      filter={"cutoff_ghz": 0.45, "pulse_path": pulse_path, **sec})
        code, out = _run(tmp_path / name, "filter", "--config", cfg)
        assert code == 0
        assert filecmp.cmp(out / "filtered.csv", tmp_path / f"{name}.csv", shallow=False)
    assert not filecmp.cmp(tmp_path / "clamped.csv", tmp_path / "raw.csv", shallow=False)


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
    # lambda2 without reference_pulse_path would be ignored, not applied.
    lambda2_only = _config(tmp_path, name="lambda2.json",
                           lct={**LCT_SHORT, "lambda2": 400.0})
    assert main(["lct", "--config", lambda2_only, "--out-dir", str(tmp_path)]) == 1


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
    for name, sections in (
            ("truncation", {"truncation": {"sigma_ns": 1.0, **bad}}),
            ("analytic", {"analytic": {**ANALYTIC, **bad}})):
        cfg = _config(tmp_path, f"{name}.json", device=FAST_DEVICE, lct=FAST_LCT,
                      reversibility=reversibility, **sections)
        out = tmp_path / name
        for command in ("pipeline", "truncate" if name == "truncation" else "analytic"):
            assert main([command, "--config", cfg, "--out-dir", str(out)]) == 1
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
    cases = [("filter", "filter", {"pulse_path": pulse_path}, key, "x")
             for key in ("cutoff_ghz", "clamp")]
    cases += [("filter", "filter", {"pulse_path": pulse_path}, "clamp", "false")]
    cases += [("truncate", "truncation", {"pulse_path": pulse_path}, key, "x")
              for key in ("sigma_ns", "fidelity_goal", "max_evals")]
    cases += [("analytic", "analytic", ANALYTIC, key, "x")
              for key in ("dt_ns", "fidelity_goal", "fit")]
    # The seed section, under its default name and under --seed-section.
    cases += [("lct", section, LCT_SHORT, key, "x")
              for section in ("lct", "alt")
              for key in ("lambda", "eta", "dt_ns", "t_max_ns", "n_prime", "lambda2")]
    cases += [("optimize", "reversibility", {}, key, "x")
              for key in ("lambda2_init", "fidelity_goal", "cutoff_candidates_ghz")]
    # Cutoffs: float() over the value would run "045" as (0.0, 4.0, 5.0),
    # an object by its keys, and true as 1.0; [] and [-0.1] would fail
    # only after the bare run.
    cases += [("optimize", "reversibility", {}, "cutoff_candidates_ghz", value)
              for value in ("045", {"0.3": 1}, [], [-0.1], [True])]
    # A goal of 1 or more passes any pulse; one of 0 or less passes none.
    cases += [(command, section, base, "fidelity_goal", value)
              for command, section, base in (
                  ("optimize", "reversibility", {}),
                  ("truncate", "truncation", {"pulse_path": pulse_path}),
                  ("analytic", "analytic", ANALYTIC))
              for value in (0, 1, -1, 2, float("nan"), True)]
    # Out-of-domain numbers: each would run, or write files, before failing.
    cases += [("filter", "filter", {"pulse_path": pulse_path}, "cutoff_ghz", value)
              for value in (0, -0.45)]
    cases += [("truncate", "truncation", {"pulse_path": pulse_path}, "sigma_ns", value)
              for value in (0, -1)]
    cases += [("analytic", "analytic", ANALYTIC, "dt_ns", value) for value in (0, -0.01)]
    cases += [("optimize", "reversibility", {}, "lambda2_init", -5)]
    # A pipeline checks its truncation section before the bare run writes.
    cases += [("pipeline", "truncation", {}, "sigma_ns", -1)]
    # Integer keys: int() would run 2.7 as 2 and true as 1.
    cases += [("lct", "lct", LCT_SHORT, "n_prime", value) for value in (2.7, True)]
    cases += [("truncate", "truncation", {"pulse_path": pulse_path}, "max_evals", value)
              for value in (60.9, True)]
    # The device and the seed run: unchecked, each of these would run to a
    # pulse that does not transfer, fail as a numerical error, or overflow.
    nan, inf = float("nan"), float("inf")
    cases += [("lct", "device", DEVICE, key, value) for key, value in (
        ("qubit_freqs_ghz", [5.890, True]), ("qubit_freqs_ghz", [nan, 5.031]),
        ("couplings_ghz", [inf, 0.071]), ("tc_max_freq_ghz", inf))]
    cases += [("lct", "lct", LCT_SHORT, key, value) for key, value in (
        ("lambda", inf), ("lambda", nan), ("t_max_ns", inf), ("dt_ns", nan),
        ("eta", 1), ("lambda2", -1))]
    # The closed form's shape keys are finite numbers.
    cases += [("analytic", "analytic", ANALYTIC, key, value) for key, value in (
        ("alpha1_ghz", nan), ("alpha1_ghz", True), ("tau2_ns", inf))]
    # A fit's start outside its bounds: the fit would refuse it only after
    # the bare run and the search (pipeline), or after stage 1 (sigma1_ns).
    cases += [(command, "analytic", {**ANALYTIC, "fit": True}, key, value)
              for command in ("analytic", "pipeline")
              for key, value in (("alpha1_ghz", -4.0), ("sigma1_ns", 6.0))]
    for command, section, base, key, value in cases:
        name = f"{section}-{key}-{value}"
        cfg = _config(tmp_path, f"{name}.json",
                      **{"lct": LCT_SHORT, section: {**base, key: value}})
        extra = ["--seed-section", "alt"] if section == "alt" else []
        code, out = _run(tmp_path / name, command, "--config", cfg, *extra)
        assert code == 1, name
        err = capsys.readouterr().err
        assert err.startswith("config error:"), name
        assert f"section {section!r}, key {key!r}" in err, name
        assert not out.exists() or list(out.iterdir()) == [], name


def test_unfitted_closed_form_is_checked_before_any_file(tmp_path, capsys):
    # With fit false the closed form is the pulse, so one that cannot be
    # sampled is a config error, found before the params are written and,
    # in a pipeline, before the search runs.
    for key, value, message in (("tau2_ns", 5.0, "branch times"),
                                ("sigma2_ns", 0.0, "widths must be positive"),
                                ("alpha1_ghz", -8.0, "omega_tc_max"),
                                ("alpha1_ghz", -7.445, "at or below -omega_tc_max")):
        cfg = _config(tmp_path, f"{key}.json", lct=LCT_SHORT,
                      analytic={**ANALYTIC, key: value})
        for command in ("analytic", "pipeline"):
            code, out = _run(tmp_path / command / key, command, "--config", cfg)
            assert code == 1, (command, key)
            err = capsys.readouterr().err
            assert err.startswith("config error: section 'analytic':"), (command, key)
            assert message in err, (command, key)
            assert list(out.iterdir()) == [], (command, key)


def test_out_of_domain_flags_exit_1(tmp_path, capsys):
    # argparse's own refusal would exit 2, the convergence code.
    pulse_path = str(tmp_path / "in.csv")
    write_waveform_csv(pulse_path, Waveform(dt=0.01, samples=-np.ones(200)))
    cfg = _config(tmp_path)
    for name, argv, flag in (
            ("cutoff", ["filter", "--pulse", pulse_path, "--cutoff", "-1"], "--cutoff"),
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


def test_pulse_outside_the_window_exits_1_before_any_file(tmp_path, capsys):
    # Unclamped, the filter would hand such a pulse to the flux export,
    # which refuses it only after filtered.csv is written.
    for name, ghz in (("above", 0.5), ("below", -8.0)):
        pulse_path = str(tmp_path / f"{name}.csv")
        write_waveform_csv(pulse_path, Waveform(dt=0.01, samples=TWO_PI * np.array([-0.1, ghz])))
        cfg = _config(tmp_path, f"{name}.json", lct=LCT_SHORT, filter={"clamp": False},
                      truncation={"pulse_path": pulse_path})
        for argv in (["filter", "--pulse", pulse_path], ["truncate"]):
            code, out = _run(tmp_path / name / argv[0], *argv, "--config", cfg)
            assert code == 1, (name, argv)
            err = capsys.readouterr().err
            assert err.startswith(f"config error: {pulse_path}:"), (name, argv)
            assert "outside the coupler's window" in err, (name, argv)
            assert list(out.iterdir()) == [], (name, argv)
