import ast
import hashlib
import inspect
import json
import pathlib
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import record_lct
from lctpulse import io, optimize, pulses
from lctpulse.errors import ConfigError
from lctpulse.io import (
    CHUNK,
    _write_csv,
    analytic_params_to_dict,
    analytic_section,
    device_from_config,
    filter_section,
    lct_config_from,
    load_config,
    read_waveform_csv,
    report_to_dict,
    reversibility_section,
    truncation_section,
    write_eigenvalue_sweep_csv,
    write_flux_csv,
    write_json,
    write_spectrum_csv,
    write_trajectory_csv,
    write_waveform_csv,
)
from lctpulse.lct import LctConfig, run_lct
from lctpulse.model import SystemParams
from lctpulse.optimize import (
    OptimizationReport,
    fit_analytic_pulse,
    optimize_reversible,
    optimize_truncation,
)
from lctpulse.pulses import AnalyticPulseParams, Waveform, clamp_floor, fourier_spectrum
from lctpulse.units import TWO_PI
from oracles import frequency_to_flux

DEVICE = {
    "device": {
        "qubit_freqs_ghz": [5.890, 5.031],
        "couplings_ghz": [0.100, 0.071],
        "tc_max_freq_ghz": 7.445,
    }
}
OMEGA_TC_MAX = device_from_config(DEVICE).omega_tc_max

# The closed form's eight shape keys, and the form they give.
SHAPE = {"alpha1_ghz": -1.591, "alpha3_ghz": -2.457, "tau1_ns": 7.2, "tau2_ns": 8.9,
         "tau3_ns": 11.4, "sigma1_ns": 1.37, "sigma2_ns": 0.2, "sigma3_ns": 1.83}
FORM = AnalyticPulseParams(alpha1=TWO_PI * -1.591, alpha3=TWO_PI * -2.457, tau1=7.2,
                           tau2=8.9, tau3=11.4, sigma1=1.37, sigma2=0.2, sigma3=1.83)


def _write(tmp_path, name, text):
    p = tmp_path / name
    p.write_text(text)
    return str(p)


# ----------------------------------------------------------------
# config documents
# ----------------------------------------------------------------

def test_load_config_roundtrip(tmp_path):
    path = _write(tmp_path, "c.json", json.dumps(DEVICE))
    assert load_config(path) == DEVICE


def test_load_config_reports_position(tmp_path):
    path = _write(tmp_path, "bad.json", '{\n  "a": 1,\n}\n')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(path)


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(str(tmp_path / "absent.json"))


def test_load_config_rejects_non_object(tmp_path):
    path = _write(tmp_path, "arr.json", "[1, 2]")
    with pytest.raises(ConfigError, match="object"):
        load_config(path)


def test_device_from_config(params):
    built = device_from_config(DEVICE)
    np.testing.assert_allclose(built.omega, params.omega)
    np.testing.assert_allclose(built.g, params.g)
    assert built.omega_tc_max == params.omega_tc_max


def test_device_section_errors():
    with pytest.raises(ConfigError, match="device"):
        device_from_config({})
    doc = {"device": {"qubit_freqs_ghz": [5.0]}}
    with pytest.raises(ConfigError, match="couplings_ghz"):
        device_from_config(doc)
    bad = {"device": {"qubit_freqs_ghz": [5.0], "couplings_ghz": [-0.1],
                      "tc_max_freq_ghz": 7.0}}
    with pytest.raises(ConfigError):
        device_from_config(bad)


def test_lct_section(tmp_path):
    doc = {"lct": {"lambda": 27626.0, "eta": 1e-6, "dt_ns": 0.01,
                   "t_max_ns": 450.0, "initial": "100", "target": "010"}}
    cfg = lct_config_from(doc, OMEGA_TC_MAX)
    assert cfg.lambda_ == 27626.0
    assert cfg.dt == 0.01
    assert cfg.reference is None


def test_lct_section_loads_reference(tmp_path):
    wf = Waveform(dt=0.01, samples=-TWO_PI * np.linspace(0.0, 1.0, 50))
    ref_path = str(tmp_path / "ref.csv")
    write_waveform_csv(ref_path, wf)
    doc = {"lct": {"lambda": 400.0, "eta": 0.0, "dt_ns": 0.01, "t_max_ns": 1.0,
                   "initial": "100", "target": "010",
                   "reference_pulse_path": ref_path}}
    cfg = lct_config_from(doc, OMEGA_TC_MAX)
    assert cfg.reference is not None
    assert cfg.reference.n == 50
    assert cfg.lambda_ == 400.0


def test_integer_keys_take_whole_numbers_only():
    lct = {"lambda": 1.0, "eta": 0.0, "dt_ns": 0.01, "t_max_ns": 1.0,
           "initial": "100", "target": "010"}
    for value in (3, 3.0):
        n_prime = lct_config_from({"lct": {**lct, "n_prime": value}}, OMEGA_TC_MAX).n_prime
        assert n_prime == 3 and type(n_prime) is int
    for value in (2.7, True, False, float("inf"), float("nan"), "x"):
        with pytest.raises(ConfigError, match="section 'lct', key 'n_prime'"):
            lct_config_from({"lct": {**lct, "n_prime": value}}, OMEGA_TC_MAX)


def test_lct_section_missing_key():
    with pytest.raises(ConfigError, match="t_max_ns"):
        lct_config_from({"lct": {"lambda": 1.0, "eta": 0.0, "dt_ns": 0.01,
                                 "initial": "100", "target": "010"}}, OMEGA_TC_MAX)
    # dt_ns is required like the rest; the first missing key is named.
    doc = {"lct": {"eta": 0.0, "t_max_ns": 1.0, "initial": "100", "target": "010"}}
    with pytest.raises(ConfigError, match="section 'lct': missing key 'lambda'"):
        lct_config_from(doc, OMEGA_TC_MAX)
    doc["lct"]["lambda"] = 1.0
    with pytest.raises(ConfigError, match="section 'lct': missing key 'dt_ns'"):
        lct_config_from(doc, OMEGA_TC_MAX)


def test_reversibility_section_defaults_and_overrides():
    # A section that sets nothing leaves every setting at the driver's default.
    assert reversibility_section({}) == {}
    assert inspect.signature(optimize_reversible).parameters["lambda2_init"].default == 300.0
    sec = reversibility_section(
        {"reversibility": {"lambda2_init": 598.14,
                           "cutoff_candidates_ghz": [0.45, 0.5]}})
    assert sec["lambda2_init"] == 598.14
    assert sec["cutoff_candidates_ghz"] == (0.45, 0.5)
    with pytest.raises(ConfigError):
        reversibility_section({"reversibility": {"lambda2_init": "x"}})
    # Keys this version no longer reads fail loudly instead of being ignored.
    with pytest.raises(ConfigError, match="max_outer_iters"):
        reversibility_section(
            {"reversibility": {"lambda2_init": 598.14, "max_outer_iters": 8}})
    # The simplex fallback's knobs went with it, and the spread grid's bounds.
    for key, value in (("simplex_tolerance", 1e-3), ("max_evals", 60),
                       ("lambda2_bounds", [100.0, 1000.0])):
        with pytest.raises(ConfigError, match=key):
            reversibility_section({"reversibility": {key: value}})


def test_cutoffs_take_a_non_empty_list_of_positive_numbers_only():
    def cutoffs(value):
        return reversibility_section(
            {"reversibility": {"cutoff_candidates_ghz": value}})["cutoff_candidates_ghz"]

    assert cutoffs([0.45, 1]) == (0.45, 1.0)
    # float() over the value would read "045" as (0.0, 4.0, 5.0), an
    # object by its keys, and true as 1.0.
    for value in ("045", {"0.3": 1}, [], [-0.1], [0.0], [True], [0.45, "x"],
                  [float("nan")], [float("inf")], 0.45):
        with pytest.raises(ConfigError,
                           match="section 'reversibility', key 'cutoff_candidates_ghz'"):
            cutoffs(value)


def test_fidelity_goals_lie_strictly_between_0_and_1():
    # The reversibility search's is the one goal a config sets; truncation
    # and the fit pass at optimize.FIDELITY_GOAL.
    def goal(value):
        return reversibility_section(
            {"reversibility": {"fidelity_goal": value}})["fidelity_goal"]

    assert goal(1e-6) == 1e-6 and goal(0.5) == 0.5
    for value in (0, 0.0, 1, 1.0, -1.0, 2.0, float("nan"), True, False, "x"):
        with pytest.raises(ConfigError, match="section 'reversibility', key 'fidelity_goal'"):
            goal(value)


def test_cutoffs_widths_and_steps_are_positive_and_gains_not_negative():
    readers = {
        ("filter", "cutoff_ghz"): filter_section,
        ("truncation", "sigma_ns"): lambda sec: truncation_section(sec)["sigma_ns"],
    }
    for (name, key), read in readers.items():
        assert read({name: {key: 0.45}}) == 0.45
        assert read({name: {key: 2}}) == 2.0
        for value in (0, 0.0, -0.45, -1, float("nan"), float("inf"), True, "x"):
            with pytest.raises(ConfigError, match=f"section '{name}', key '{key}'"):
                read({name: {key: value}})

    def lambda2_init(value):
        return reversibility_section(
            {"reversibility": {"lambda2_init": value}})["lambda2_init"]

    assert lambda2_init(0) == 0.0 and lambda2_init(598.15) == 598.15
    for value in (-5, -1e-9, float("nan"), float("inf"), True):
        with pytest.raises(ConfigError, match="section 'reversibility', key 'lambda2_init'"):
            lambda2_init(value)


def test_truncation_and_analytic_sections_reject_unknown_keys():
    every_key = {"truncation": {"sigma_ns": 1.0},
                 "analytic": {**SHAPE, "fit": False}}
    assert truncation_section(every_key) == every_key["truncation"]
    assert analytic_section(every_key, OMEGA_TC_MAX) == (FORM, False)
    assert truncation_section({}) == {}
    with pytest.raises(ConfigError, match="missing config section 'analytic'"):
        analytic_section({}, OMEGA_TC_MAX)
    # The search's evaluation cap is optimize._TRUNCATION_MAX_EVALS, not a setting.
    with pytest.raises(ConfigError, match=r"section 'truncation': unknown keys \['max_evals'\]"):
        truncation_section({"truncation": {"sigma_ns": 1.0, "max_evals": 60}})
    # A key the truncation search never reads from config, and a misspelt one.
    with pytest.raises(ConfigError, match=r"\['max_evalz', 'simplex_tolerance'\]"):
        truncation_section({"truncation": {"sigma_ns": 1.0, "simplex_tolerance": 5.0,
                                           "max_evalz": 1}})
    for key, value in (("simplex_tolerance", 5.0), ("max_evalz", 1)):
        with pytest.raises(ConfigError, match=f"section 'analytic'.*{key}"):
            analytic_section({"analytic": {**SHAPE, key: value}}, OMEGA_TC_MAX)


def test_device_lct_and_filter_sections_reject_unknown_keys():
    lct = {"lambda": 27626.0, "eta": 1e-6, "dt_ns": 0.01, "t_max_ns": 450.0,
           "initial": "100", "target": "010"}
    with pytest.raises(ConfigError, match=r"section 'device': unknown keys \['coupling_ghz'\]"):
        device_from_config({"device": {**DEVICE["device"], "coupling_ghz": [0.1, 0.071]}})
    with pytest.raises(ConfigError, match=r"section 'lct': unknown keys \['lamda2', 'n_primes'\]"):
        lct_config_from({"lct": {**lct, "n_primes": 2, "lamda2": 3}}, OMEGA_TC_MAX)
    assert filter_section({"filter": {"cutoff_ghz": 0.3}}) == 0.3
    assert filter_section({}) == 0.45
    # The filter always clamps: its output is the search's reference.
    with pytest.raises(ConfigError, match=r"section 'filter': unknown keys \['clamp'\]"):
        filter_section({"filter": {"cutoff_ghz": 0.3, "clamp": False}})
    with pytest.raises(ConfigError, match=r"section 'filter': unknown keys \['cutof_ghz'\]"):
        filter_section({"filter": {"cutof_ghz": 0.3}})
    for value in (0.45, [0.3]):
        with pytest.raises(ConfigError, match="config section 'filter' must be an object"):
            filter_section({"filter": value})
    with pytest.raises(ConfigError, match="config section 'device' must be an object"):
        device_from_config({"device": [5.890, 5.031]})


# README's stage defaults, by section.
_DOCUMENTED_DEFAULTS = {
    "reversibility": {"lambda2_init": 300.0, "cutoff_candidates_ghz": (0.40, 0.45, 0.50),
                      "fidelity_goal": 1e-6},
    "truncation": {"sigma_ns": 1.0},
    "filter": {"cutoff_ghz": 0.45},
    "analytic": {"fit": True},
}


def _default_sites(trees: list, name: str) -> list:
    """Each expression that gives the setting `name` its value when none is
    set: a parameter's default, or the default of a .get("name", default)."""
    sites = []
    for node in (n for tree in trees for n in ast.walk(tree)):
        if isinstance(node, ast.arguments):
            args = node.posonlyargs + node.args
            defaults = [*zip(args[len(args) - len(node.defaults):], node.defaults),
                        *zip(node.kwonlyargs, node.kw_defaults)]
            sites += [d for a, d in defaults if a.arg == name and d is not None]
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "get" and len(node.args) == 2
              and isinstance(node.args[0], ast.Constant) and node.args[0].value == name):
            sites.append(node.args[1])
    return sites


def test_stage_defaults_have_one_source():
    # The drivers take their settings as keywords, whose defaults are README's.
    drivers = {"reversibility": optimize_reversible, "truncation": optimize_truncation}
    for name, driver in drivers.items():
        parameters = inspect.signature(driver).parameters
        for key, value in _DOCUMENTED_DEFAULTS[name].items():
            assert parameters[key].default == value, key
    # The fit has no settings: it and the analytic command sample the
    # closed form through analytic_pulse, at README's one period.
    assert list(inspect.signature(fit_analytic_pulse).parameters) == [
        "params", "init", "source_label", "destination_label"]
    assert list(inspect.signature(pulses.analytic_pulse).parameters) == ["p", "omega_tc_max"]
    assert pulses.ANALYTIC_DT_NS == 0.01
    package = pathlib.Path(io.__file__).parent
    assert [path.name for path in sorted(package.glob("*.py"))
            if "ANALYTIC_DT_NS" in path.read_text()] == ["pulses.py"]

    # A section that omits every key and one that spells out every default
    # lead to the same call, with README's values.
    def call(read, name, base, spelt_out):
        out = read({name: {**base, **spelt_out}})
        if name not in drivers:
            return out
        bound = inspect.signature(drivers[name]).bind_partial(**out)
        bound.apply_defaults()
        return dict(bound.arguments)

    readers = {"reversibility": (reversibility_section, {}),
               "truncation": (truncation_section, {}), "filter": (filter_section, {}),
               "analytic": (lambda doc: analytic_section(doc, OMEGA_TC_MAX), SHAPE)}
    for name, (read, base) in readers.items():
        spelt_out = json.loads(json.dumps(_DOCUMENTED_DEFAULTS[name]))  # as a config holds it
        assert call(read, name, base, {}) == call(read, name, base, spelt_out), name
    assert filter_section({}) == 0.45
    assert analytic_section({"analytic": SHAPE}, OMEGA_TC_MAX) == (FORM, True)

    # Each default is written once in the package: one literal, or one named
    # constant assigned once.
    trees = [ast.parse(path.read_text())
             for path in sorted(pathlib.Path(io.__file__).parent.glob("*.py"))]
    assigned = [t.id for tree in trees for node in ast.walk(tree) if isinstance(node, ast.Assign)
                for t in node.targets if isinstance(t, ast.Name)]
    for key, value in ((k, v) for sec in _DOCUMENTED_DEFAULTS.values() for k, v in sec.items()):
        sites = _default_sites(trees, key)
        literals = [ast.literal_eval(d) for d in sites if not isinstance(d, ast.Name)]
        constants = {d.id for d in sites if isinstance(d, ast.Name)}
        assert len(literals) + len(constants) == 1, key
        if constants:
            (constant,) = constants
            assert assigned.count(constant) == 1, constant
            literals = [getattr(optimize, constant)]
        assert literals == [value], key


def test_analytic_params_roundtrip():
    p = AnalyticPulseParams(
        alpha1=-TWO_PI * 2.457, alpha3=-TWO_PI * 1.591,
        tau1=5.8, tau2=8.3, tau3=10.0, sigma1=1.83, sigma2=0.2, sigma3=1.37)
    back, _ = analytic_section({"analytic": analytic_params_to_dict(p)}, OMEGA_TC_MAX)
    for f in ("alpha1", "alpha3", "tau1", "tau2", "tau3",
              "sigma1", "sigma2", "sigma3"):
        assert getattr(back, f) == pytest.approx(getattr(p, f), rel=1e-12)
    with pytest.raises(ConfigError, match="section 'analytic': missing key 'alpha3_ghz'"):
        analytic_section({"analytic": {"alpha1_ghz": -2.0}}, OMEGA_TC_MAX)


def test_config_hash_tracks_bytes(tmp_path):
    # The digest is of the bytes load_config parsed, read once.
    path = _write(tmp_path, "c.json", '{"a": 1}')
    doc = load_config(path)
    assert doc == {"a": 1} and doc.sha256 == hashlib.sha256(b'{"a": 1}').hexdigest()
    _write(tmp_path, "c.json", '{"a": 2}')
    assert doc.sha256 == hashlib.sha256(b'{"a": 1}').hexdigest()
    assert load_config(path).sha256 == hashlib.sha256(b'{"a": 2}').hexdigest()


def test_config_hash_falls_back_to_hashlib(tmp_path, monkeypatch):
    # Without CPython's built-in sha256 module the digest comes from
    # hashlib, and it is the same digest.
    path = _write(tmp_path, "c.json", '{"a": 1}')
    builtin = load_config(path).sha256
    assert io._SHA256 is not hashlib.sha256
    for name in ("_sha2", "_sha256"):
        monkeypatch.setitem(sys.modules, name, None)
    monkeypatch.setattr(io, "_SHA256", io._builtin_sha256())
    assert io._SHA256 is hashlib.sha256
    assert load_config(path).sha256 == builtin == hashlib.sha256(b'{"a": 1}').hexdigest()


# ----------------------------------------------------------------
# CSV round trips
# ----------------------------------------------------------------

def test_waveform_csv_roundtrip(tmp_path):
    t = np.arange(300) * 0.01
    wf = Waveform(dt=0.01, samples=-TWO_PI * 1.7 * np.exp(
        -0.5 * ((t - 1.5) / 0.4) ** 2))
    path = str(tmp_path / "wf.csv")
    write_waveform_csv(path, wf)
    with open(path) as fh:
        assert fh.readline().strip() == "t_ns,delta_omega_ghz"
    back = read_waveform_csv(path, OMEGA_TC_MAX)
    assert back.dt == pytest.approx(wf.dt, abs=1e-9)
    np.testing.assert_allclose(back.samples, wf.samples, atol=1e-9)


def test_waveform_csv_rejects_bad_grids(tmp_path):
    path = _write(tmp_path, "bad.csv",
                  "t_ns,delta_omega_ghz\n0.0,-1.0\n0.01,-1.0\n0.5,-1.0\n")
    with pytest.raises(ConfigError, match="uniform"):
        read_waveform_csv(path, OMEGA_TC_MAX)
    # Too few rows: one, or none under the header, which numpy would also
    # warn about; the config error alone reports it.
    for name, text in (("short", "t_ns,delta_omega_ghz\n0.0,-1.0\n"),
                       ("header", "t_ns,delta_omega_ghz\n")):
        with warnings.catch_warnings(), pytest.raises(
                ConfigError, match="expected two columns and at least two rows"):
            warnings.simplefilter("error")
            read_waveform_csv(_write(tmp_path, f"{name}.csv", text), OMEGA_TC_MAX)
    junk = _write(tmp_path, "junk.csv", "t_ns,delta_omega_ghz\nhello,world\n")
    with pytest.raises(ConfigError):
        read_waveform_csv(junk, OMEGA_TC_MAX)
    # A pulse's first hold starts at t = 0: a file from 5 ns would be
    # played 5 ns early.  The grid check's 1e-6 ns tolerance applies.
    for start in (5.0, -0.5, 2e-6):
        path = _write(tmp_path, f"{start}.csv", "t_ns,delta_omega_ghz\n" + "".join(
            f"{start + 0.5 * k},-1.0\n" for k in range(4)))
        message = re.escape(path) + ": time grid starts at .* not at 0"
        with pytest.raises(ConfigError, match=message):
            read_waveform_csv(path, OMEGA_TC_MAX)
    path = _write(tmp_path, "near.csv", "t_ns,delta_omega_ghz\n5e-7,-1.0\n0.5,-1.0\n")
    assert read_waveform_csv(path, OMEGA_TC_MAX).dt == pytest.approx(0.5, abs=1e-6)


def test_waveform_csv_samples_lie_in_the_coupler_window(tmp_path):
    # The reader hands back a pulse the coupler can play, or names the file.
    for ghz in (0.5, -7.5):
        path = _write(tmp_path, f"{ghz}.csv", f"t_ns,delta_omega_ghz\n0.0,-0.1\n0.01,{ghz}\n")
        message = re.escape(path) + ": sample at t = 0.01 ns .* outside the coupler's window"
        with pytest.raises(ConfigError, match=message):
            read_waveform_csv(path, OMEGA_TC_MAX)
    edges = _write(tmp_path, "edges.csv", "t_ns,delta_omega_ghz\n0.0,0.0\n0.01,-7.445\n")
    np.testing.assert_array_equal(read_waveform_csv(edges, OMEGA_TC_MAX).samples,
                                  [0.0, -OMEGA_TC_MAX])


def test_trajectory_csv_layout(tmp_path):
    # A sink call hands over the block's labels (its populations' row
    # order), the samples held on its rows and their populations, the
    # last call one row more: the state at the end.  The file lists every
    # label of the device, in product order, the block's from its rows.
    control = -TWO_PI * np.array([0.0, 1.0, 2.0, 1.0])
    pops = np.array([np.linspace(1, 0, 5), np.linspace(0, 1, 5)])
    path = str(tmp_path / "traj.csv")
    assert write_trajectory_csv(path, 0.1, lambda sink: sink(
        0, ["100", "010"], control, pops) or "done") == "done"
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == ("t_ns,delta_omega_ghz,pop_000,pop_001,pop_010,pop_011,"
                      "pop_100,pop_101,pop_110,pop_111")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (5, 10)
    # control column repeats its last hold on the final state row
    assert data[-1, 1] == data[-2, 1]
    np.testing.assert_allclose(data[:, 4], np.linspace(0, 1, 5), atol=1e-10)
    np.testing.assert_allclose(data[:, 6], np.linspace(1, 0, 5), atol=1e-10)
    assert not data[:, [2, 3, 5, 7, 8, 9]].any()


def test_spectrum_csv(tmp_path):
    wf = Waveform(dt=0.01, samples=np.sin(TWO_PI * 0.5 * np.arange(200) * 0.01))
    path = str(tmp_path / "spec.csv")
    write_spectrum_csv(path, fourier_spectrum(wf))
    with open(path) as fh:
        assert fh.readline().strip() == "f_ghz,power"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (101, 2)
    assert np.all(data[:, 1] >= 0)


def test_flux_csv(tmp_path, params):
    wf = Waveform(dt=0.01, samples=np.array([0.0, -TWO_PI * 1.0, -TWO_PI * 2.0]))
    path = str(tmp_path / "flux.csv")
    write_flux_csv(path, params, wf)
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (3, 2)
    phis = data[:, 1]
    assert phis[0] == pytest.approx(0.0, abs=1e-9)
    assert np.all(np.diff(phis) > 0)  # deeper shift, more flux
    assert np.all((phis >= 0) & (phis < 0.5))


def test_flux_csv_matches_scalar_map(tmp_path, params):
    # The column is one vectorised arccos; it must write the same bytes as
    # frequency_to_flux applied sample by sample.
    floor = clamp_floor(params.omega_tc_max)
    samples = np.concatenate([[0.0, floor], np.linspace(floor, 0.0, 203)[1:-1], [0.0]])
    wf = Waveform(dt=0.01, samples=samples)
    path = tmp_path / "flux.csv"
    write_flux_csv(str(path), params, wf)
    phis = [frequency_to_flux(params, params.omega_tc_max + s) for s in samples]
    scalar = tmp_path / "scalar.csv"
    np.savetxt(scalar, np.column_stack([wf.times(), phis]), fmt=["%.9f", "%.12f"],
               delimiter=",", header="t_ns,phi_over_phi0", comments="")
    assert path.read_bytes() == scalar.read_bytes()


def test_flux_window_includes_both_ends(tmp_path, params):
    # The window is [-omega_tc_max, 0]: a coupler tuned down to 0 is half
    # a flux quantum, for the pulse check and the flux export alike.
    wf = Waveform(dt=0.01, samples=np.array([0.0, -params.omega_tc_max]))
    wf.validate_range(params.omega_tc_max)
    path = str(tmp_path / "flux.csv")
    write_flux_csv(path, params, wf)
    assert np.loadtxt(path, delimiter=",", skiprows=1)[:, 1].tolist() == [0.0, 0.5]


@pytest.mark.parametrize("bad_ghz", [1e-9, -8.0])
def test_flux_csv_rejects_samples_outside_window(tmp_path, params, bad_ghz):
    wf = Waveform(dt=0.01, samples=np.array([0.0, TWO_PI * bad_ghz, -1.0]))
    with pytest.raises(ValueError, match="outside"):
        write_flux_csv(str(tmp_path / "flux.csv"), params, wf)


def test_eigenvalue_sweep_csv(tmp_path):
    deltas = -TWO_PI * np.linspace(0, 3, 4)
    energies = TWO_PI * np.arange(8.0)[None, :].repeat(4, axis=0)
    path = str(tmp_path / "sweep.csv")
    write_eigenvalue_sweep_csv(path, deltas, energies)
    with open(path) as fh:
        header = fh.readline().strip()
    assert header == ("delta_omega_ghz,E_1_ghz,E_2_ghz,E_3_ghz,E_4_ghz,E_5_ghz,E_6_ghz,"
                      "E_7_ghz,E_8_ghz")
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (4, 9)
    np.testing.assert_allclose(data[0, 1:], np.arange(8.0), atol=1e-9)


def _savetxt_bytes(tmp_path, header, columns, fmts) -> bytes:
    ref = tmp_path / "savetxt.csv"
    np.savetxt(ref, np.column_stack(columns), fmt=fmts, delimiter=",",
               header=header, comments="")
    return ref.read_bytes()


_CSV_FORMATS = ("%.9f", "%.12f", "%.12e")
_SPECIAL_VALUES = (0.0, -0.0, np.nan, np.inf, -np.inf)


@st.composite
def _csv_columns(draw):
    """Equal-length columns (no rows at all, as `spectrum --steps 0` writes,
    up to a few chunks) of four kinds: bulk floats over many magnitudes
    with specials sprinkled in, an exact constant, a mix of +0.0 and -0.0,
    +0.0 at both ends with one -0.0 inside, and specials alone."""
    n = draw(st.sampled_from((0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 6))):
        kind = draw(st.sampled_from(("bulk", "constant", "signed_zeros", "inner_zero",
                                     "specials")))
        if kind == "bulk":
            col = rng.normal(size=n) * 10.0 ** rng.uniform(-14, 4, size=n)
            spots = rng.random(n) < 0.05
            col[spots] = rng.choice(_SPECIAL_VALUES, size=spots.sum())
        elif kind == "constant":
            col = np.full(n, draw(st.sampled_from(_SPECIAL_VALUES) | st.floats()))
        elif kind == "signed_zeros":
            col = np.where(rng.random(n) < 0.5, 0.0, -0.0)
            col[:1], col[-1:] = 0.0, -0.0  # never all one sign once n > 1
        elif kind == "inner_zero":  # equal ends; only min against max tells
            col = np.zeros(n)
            if n > 2:
                col[n // 2] = -0.0
        else:
            col = rng.choice(_SPECIAL_VALUES, size=n)
        columns.append(col)
    fmts = [draw(st.sampled_from(_CSV_FORMATS)) for _ in columns]
    return columns, fmts


@settings(max_examples=80, deadline=None, derandomize=True)
@given(_csv_columns())
def test_write_csv_matches_savetxt_bytes(tmp_path_factory, case):
    columns, fmts = case
    tmp_path = tmp_path_factory.mktemp("csv")
    header = ",".join(f"c{k}" for k in range(len(columns)))
    path = tmp_path / "helper.csv"
    _write_csv(str(path), header, columns, fmts)
    assert path.read_bytes() == _savetxt_bytes(tmp_path, header, columns, fmts)


def test_four_qubit_trajectory_csv_matches_savetxt(tmp_path):
    # Every one of the 32 labels is tracked; those outside the run's
    # excitation block are exactly-zero columns.  The run streams two
    # chunks (4096 rows, then 5), which the file must join seamlessly.
    device = SystemParams.from_ghz([5.890, 5.031, 6.350, 6.720],
                                   [0.100, 0.071, 0.060, 0.050], 7.445)
    config = LctConfig(lambda_=27626.0, eta=1e-6, dt=0.01, t_max=41.0,
                       initial_label="10000", target_label="01000")
    _, traj = record_lct(device, config)
    assert len(traj.populations) == 32
    path = tmp_path / "traj.csv"
    write_trajectory_csv(str(path), config.dt, lambda sink: run_lct(device, config, sink))
    labels = sorted(traj.populations)
    control_ghz = np.append(traj.control, traj.control[-1]) / TWO_PI
    columns = [traj.times, control_ghz] + [traj.populations[lab] for lab in labels]
    zero = [lab for lab in labels if not traj.populations[lab].any()]
    assert 0 < len(zero) < 32 and traj.times.size > CHUNK
    header = "t_ns,delta_omega_ghz," + ",".join(f"pop_{lab}" for lab in labels)
    fmts = ["%.9f", "%.12f"] + ["%.12e"] * 32
    assert path.read_bytes() == _savetxt_bytes(tmp_path, header, columns, fmts)


# ----------------------------------------------------------------
# JSON
# ----------------------------------------------------------------

def test_write_json_is_deterministic(tmp_path):
    path = str(tmp_path / "r.json")
    write_json(path, {"b": np.float64(2.0), "a": [0, 1, 2]})
    text = open(path).read()
    assert text.endswith("\n")
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"a": [0, 1, 2], "b": 2.0}
    # Only what json encodes natively: the program writes no numpy array
    # or integer, and one is refused before the file opens.
    bad = tmp_path / "bad.json"
    for value in (object(), np.arange(3), np.int64(1)):
        with pytest.raises(TypeError):
            write_json(str(bad), {"x": value})
    assert not bad.exists()


def test_report_to_dict_flattens_history():
    rep = OptimizationReport(
        best_params={"x0": 1.0}, best_value=0.5, evaluations=2,
        history=[(np.array([1.0]), 0.5), ({"cutoff_ghz": 0.45}, 0.25)])
    out = report_to_dict(rep)
    assert out["history"][0] == {"params": {"x0": 1.0}, "value": 0.5}
    assert out["history"][1]["params"]["cutoff_ghz"] == 0.45

