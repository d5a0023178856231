"""Each check rejects a corrupted output, and the oracle is sound.

Run from the root of the repository:

    python3 -m pytest -q lctbench/tests

The outputs come from real CLI runs; the pipeline fixture costs about a
minute.  Every corruption test first confirms that the intact copy passes.
"""

import dataclasses
import json
import os
import shutil

import numpy as np
import pytest

import checks
import oracle
from lctpulse.cli import main
from tracer import Tracer
from workloads import REFERENCE_DEVICE, WORKLOADS

# The bare 450 ns run of the reference device, checked as an lct run: the
# same checks as lct-4q at a quarter of its cost.
LCT_2Q = dataclasses.replace(
    WORKLOADS["lct-4q"], name="lct-2q",
    config={"device": REFERENCE_DEVICE,
            "lct": {"lambda": 27626.0, "eta": 1e-6, "dt_ns": 0.01,
                    "t_max_ns": 450.0, "initial": "100", "target": "010"}},
)


def _run_cli(work, out_dir):
    os.makedirs(out_dir)
    config = os.path.join(out_dir, "..", f"{work.name}.json")
    with open(config, "w") as fh:
        json.dump(work.config, fh)
    assert main(work.argv(config, str(out_dir))) == 0
    return str(out_dir)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    base = tmp_path_factory.mktemp("runs")
    return {w.name: (w, _run_cli(w, base / w.name))
            for w in (WORKLOADS["spectrum-2q"], LCT_2Q, WORKLOADS["pipeline-2q"])}


@pytest.fixture
def copy_of(outputs, tmp_path):
    """An intact copy of a workload's outputs, confirmed to pass."""
    def make(name):
        work, src = outputs[name]
        dst = str(tmp_path / name)
        shutil.copytree(src, dst)
        assert work.check(dst, work) == []
        return work, dst
    return make


def _edit_csv(path, row, col, edit):
    """Apply edit(value) to one cell; row 0 is the first data row."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = repr(edit(float(cells[col])))
    lines[row + 1] = ",".join(cells)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _edit_column(path, col, edit):
    header, data = checks.read_csv(path)
    data[:, col] = edit(data[:, col])
    np.savetxt(path, data, fmt="%.12e", delimiter=",", header=",".join(header), comments="")


def _edit_json(path, edit):
    with open(path) as fh:
        doc = json.load(fh)
    edit(doc)
    with open(path, "w") as fh:
        json.dump(doc, fh)


def _fails(work, out_dir):
    return work.check(out_dir, work)


# ----------------------------------------------------------------
# the corruptions the benchmark must reject
# ----------------------------------------------------------------

@pytest.mark.parametrize("name, stem", [("pipeline-2q", "truncated"), ("lct-2q", "waveform")])
def test_positive_sample_is_rejected(copy_of, name, stem):
    work, out = copy_of(name)
    _edit_csv(os.path.join(out, f"{stem}.csv"), 1000, 1, lambda v: 1e-3)
    assert any("above 0" in f for f in _fails(work, out))


def test_shifted_eigenvalue_is_rejected(copy_of):
    work, out = copy_of("spectrum-2q")
    _edit_csv(os.path.join(out, "eigenvalues.csv"), 300, 3, lambda v: v + 1e-6)
    assert any("dense oracle" in f for f in _fails(work, out))


def test_scaled_population_column_is_rejected(copy_of):
    work, out = copy_of("lct-2q")
    path = os.path.join(out, "trajectory.csv")
    header, _ = checks.read_csv(path)
    _edit_column(path, header.index("pop_010"), lambda col: 1.001 * col)
    fails = _fails(work, out)
    assert any("sum to 1" in f for f in fails)
    assert any("replayed target population" in f for f in fails)


def test_changed_byte_between_runs_is_rejected(copy_of):
    _, out = copy_of("pipeline-2q")
    before = checks.digests(out)
    path = os.path.join(out, "optimize_report.json")
    with open(path, "rb") as fh:
        data = bytearray(fh.read())
    data[len(data) // 2] ^= 0x01
    with open(path, "wb") as fh:
        fh.write(bytes(data))
    assert checks.compare_digests(before, before) == []
    assert checks.compare_digests(checks.digests(out), before) == [
        "optimize_report.json: bytes differ from an earlier run of the same program"]


def test_missing_artifact_is_rejected(copy_of):
    work, out = copy_of("spectrum-2q")
    before = checks.digests(out)
    os.remove(os.path.join(out, "couplings.csv"))
    assert len(checks.compare_digests(checks.digests(out), before)) == 1
    (fail,) = checks.check_outputs(work, out)
    assert fail.startswith("checks raised FileNotFoundError") and "couplings.csv" in fail


def test_reshaped_report_fails_the_round(copy_of):
    work, out = copy_of("pipeline-2q")
    assert checks.check_outputs(work, out) == []
    _edit_json(os.path.join(out, "truncate_report.json"), lambda d: d.pop("reverse_error"))
    assert checks.check_outputs(work, out) == ["checks raised KeyError: 'reverse_error'"]


# ----------------------------------------------------------------
# every other check
# ----------------------------------------------------------------

def test_flux_off_the_pulse_is_rejected(copy_of):
    work, out = copy_of("pipeline-2q")
    _edit_csv(os.path.join(out, "analytic_flux.csv"), 500, 1, lambda v: v + 1e-6)
    assert any("flux maps back" in f for f in _fails(work, out))


def test_spectrum_breaking_parseval_is_rejected(copy_of):
    work, out = copy_of("lct-2q")
    _edit_csv(os.path.join(out, "waveform_spectrum.csv"), 0, 1, lambda v: v * (1 + 1e-6))
    assert any("time-domain energy" in f for f in _fails(work, out))


def test_report_disagreeing_with_oracle_is_rejected(copy_of):
    work, out = copy_of("pipeline-2q")
    _edit_json(os.path.join(out, "truncate_report.json"),
               lambda d: d.update(reverse_error=d["reverse_error"] * 1.01))
    assert any("truncated reverse: oracle error" in f for f in _fails(work, out))


def test_pulse_that_does_not_transfer_is_rejected(copy_of):
    work, out = copy_of("pipeline-2q")
    path = os.path.join(out, "optimized.csv")
    _edit_column(path, 1, lambda col: 0.999 * col)
    fails = _fails(work, out)
    assert any("optimized forward: transfer error" in f for f in fails)


def test_history_entry_above_goal_is_rejected(copy_of):
    work, out = copy_of("pipeline-2q")
    _edit_json(os.path.join(out, "optimize_report.json"),
               lambda d: d["history"][3]["params"].update(forward_error=2e-6))
    assert any("history entry 3" in f for f in _fails(work, out))


def test_truncated_pulse_must_be_shorter(copy_of):
    work, out = copy_of("pipeline-2q")
    config = json.loads(json.dumps(work.config))
    config["lct"]["t_max_ns"] = 250.0
    shorter = dataclasses.replace(work, config=config)
    assert any("not shorter" in f for f in _fails(shorter, out))


def test_population_outside_the_sector_is_rejected(copy_of):
    work, out = copy_of("lct-2q")
    path = os.path.join(out, "trajectory.csv")
    header, _ = checks.read_csv(path)
    _edit_csv(path, 2000, header.index("pop_110"), lambda v: 1e-11)
    assert any("outside the single-excitation sector" in f for f in _fails(work, out))


def test_moved_gap_minimum_is_rejected(copy_of):
    work, out = copy_of("spectrum-2q")
    _edit_json(os.path.join(out, "spectrum_summary.json"),
               lambda d: d["gap_minima"][0].update(delta_omega_ghz=-1.555))
    assert any("gap minimum" in f for f in _fails(work, out))


def test_gap_minima_far_from_the_crossings_are_rejected(copy_of):
    work, out = copy_of("spectrum-2q")
    moved = dataclasses.replace(work, gap_minima_ghz=(-2.40, -1.50))
    assert any("expected" in f for f in _fails(moved, out))


def test_wrong_coupling_is_rejected(copy_of):
    work, out = copy_of("spectrum-2q")
    _edit_column(os.path.join(out, "couplings.csv"), 2, lambda col: 1.001 * col)
    assert any("Hellmann-Feynman" in f for f in _fails(work, out))


# ----------------------------------------------------------------
# oracle and tracer
# ----------------------------------------------------------------

def test_oracle_reproduces_resonant_rabi_swap():
    device = {"qubit_freqs_ghz": [5.890], "couplings_ghz": [0.100], "tc_max_freq_ghz": 7.445}
    g = oracle.TWO_PI * 0.100
    resonant = [5.890 - 7.445]
    for t in (0.4, 1.1, np.pi / (2 * g)):
        psi = oracle.propagate(device, resonant, t, np.array([[1.0], [0.0]]))
        assert abs(abs(psi[1, 0]) ** 2 - np.sin(g * t) ** 2) < 1e-12


def test_dense_and_block_spectra_agree():
    for delta in (-2.4, -1.0, 0.0):
        dense = np.linalg.eigvalsh(oracle.dense_hamiltonian(REFERENCE_DEVICE, delta))
        block = np.linalg.eigvalsh(oracle.block_hamiltonian(REFERENCE_DEVICE, delta))
        ground = dense[0]
        # Single-excitation levels sit one excitation above the ground state.
        singles = np.sort(dense[1:4]) - ground
        assert np.allclose(np.sort(block), singles, atol=1e-9)


def test_tracer_counts_and_restores(tmp_path):
    import lctpulse.cli
    import lctpulse.optimize

    original = lctpulse.cli.run_lct
    short = dataclasses.replace(LCT_2Q, config={
        **LCT_2Q.config, "lct": {**LCT_2Q.config["lct"], "t_max_ns": 20.0}})
    tracer = Tracer()
    tracer.install()
    try:
        assert lctpulse.optimize.run_lct is lctpulse.cli.run_lct is not original
        _run_cli(short, tmp_path / "out")
    finally:
        tracer.uninstall()
    assert lctpulse.cli.run_lct is original
    m = tracer.layer_metrics()
    assert m["cli.lct_s"] > m["lct.run_lct_s"] > 0
    assert m["lct.run_lct_calls"] == 1 and m["lct.steps"] == 2000
    assert 0 < m["lct.eigh_matrices"] <= 2000
    assert m["lct.cache_hit_ratio"] == 1 - m["lct.eigh_matrices"] / 2000
    assert m["model.eigendecompose_calls"] == m["model.eigh_matrices"] == 1
    written = sum(os.path.getsize(tmp_path / "out" / n)
                  for n in os.listdir(tmp_path / "out") if n != "manifest.json")
    assert m["io.bytes_written"] == written


def test_state_belongs_to_one_program(tmp_path, monkeypatch):
    import run

    shutil.copytree(os.path.join(run.ROOT, "src", "lctpulse"), tmp_path / "src" / "lctpulse",
                    ignore=shutil.ignore_patterns("__pycache__"))
    monkeypatch.setattr(run, "ROOT", str(tmp_path))
    monkeypatch.setattr(run, "OUT", str(tmp_path / "out"))
    work, info = WORKLOADS["spectrum-2q"], {"cores": 2}
    key = run.program_key(work, info)
    assert key == run.program_key(work, info)
    assert key != run.program_key(work, {"cores": 1})
    assert key != run.program_key(LCT_2Q, info)
    with open(tmp_path / "src" / "lctpulse" / "model.py", "a") as fh:
        fh.write("# edited\n")
    edited = run.program_key(work, info)
    assert edited != key

    wd = run.Workdir(work, key)
    wd.state["digests"] = {"couplings.csv": "0" * 64}
    wd.save()
    assert run.Workdir(work, key).state["digests"] == {"couplings.csv": "0" * 64}
    assert run.Workdir(work, edited).state == {"key": edited}
