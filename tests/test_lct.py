import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import example, given, settings, strategies as st
from scipy.linalg import expm

from lctpulse.dynamics import CHUNK, apply_step, propagate_waveform, step_factors
from lctpulse.errors import ConfigError
from lctpulse.io import write_trajectory_csv
from lctpulse.lct import LctConfig, refined_config, run_lct, run_lct_lockstep, seed_state
from lctpulse.optimize import transfer_errors
from lctpulse.model import SystemParams, product_labels
from lctpulse.pulses import CLAMP_FLOOR_FRACTION, Waveform, lowpass_filter
from conftest import record_lct
from oracles import (
    dense_spectrum,
    feedback_value,
    hamiltonian_at,
    single_excitation_block,
    time_to_population,
)

LAMBDA_STAR = 27626.0


def _base(t_max=450.0, **kw):
    args = dict(lambda_=LAMBDA_STAR, eta=1e-6, dt=0.01, t_max=t_max,
                initial_label="100", target_label="010")
    args.update(kw)
    return LctConfig(**args)


@pytest.fixture(scope="module")
def bare_recorded(params):
    return record_lct(params, _base())


@pytest.fixture(scope="module")
def bare_run(bare_recorded):
    return bare_recorded[0]


@pytest.fixture(scope="module")
def short_run(params):
    return run_lct(params, _base(t_max=40.0))


# ----------------------------------------------------------------
# config and seeding
# ----------------------------------------------------------------

def test_seed_state_mixes_exact_target_weight(params):
    sector = params.sector_of("100")
    psi0, tgt = sector.state("100"), sector.state("010")
    eta = 1e-6
    mixed = seed_state(psi0, tgt, eta)
    assert abs(np.linalg.norm(mixed) - 1.0) <= 1e-12
    assert abs(np.vdot(tgt, mixed)) ** 2 == pytest.approx(eta, rel=1e-9)
    same = seed_state(psi0, tgt, 0.0)
    np.testing.assert_allclose(same, psi0, atol=1e-15)


# ----------------------------------------------------------------
# feedback law
# ----------------------------------------------------------------

def test_feedback_zero_on_eigenstates(params, spectrum):
    for lab in ("100", "010"):
        psi = spectrum.state(lab)
        val = feedback_value(psi, spectrum, spectrum.index_of_label("010"),
                             LAMBDA_STAR, omega_tc_max=params.omega_tc_max)
        assert abs(val) < 1e-9


def test_feedback_stays_in_clamp_window(params, spectrum, rng):
    lo = -params.omega_tc_max * (1.0 - CLAMP_FLOOR_FRACTION)
    j = spectrum.index_of_label("010")
    for _ in range(50):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = v / np.linalg.norm(v)
        val = feedback_value(psi, spectrum, j, 1e9,
                             omega_tc_max=params.omega_tc_max)
        assert lo <= val <= 0.0


def test_feedback_projected_equals_full(params, spectrum, rng):
    # Number conservation: a single-excitation state only overlaps the
    # ground + three one-excitation eigenstates, so keeping the lowest four
    # reproduces the full sum.
    j = spectrum.index_of_label("010")
    basis = np.stack([spectrum.state(lab) for lab in ("100", "010", "001")], axis=1)
    for _ in range(50):
        c = rng.normal(size=3) + 1j * rng.normal(size=3)
        psi = basis @ c / np.linalg.norm(c)
        full = feedback_value(psi, spectrum, j, LAMBDA_STAR,
                              omega_tc_max=params.omega_tc_max)
        proj = feedback_value(psi, spectrum, j, LAMBDA_STAR, n_prime=4,
                              omega_tc_max=params.omega_tc_max)
        assert proj == pytest.approx(full, abs=1e-12 * max(1.0, abs(full)))


def test_feedback_validation(params):
    # n_prime keeps the lowest eigenstates, which must hold the target
    # (010 is the second lowest).
    with pytest.raises(ConfigError, match="outside the projected set"):
        run_lct(params, _base(t_max=1.0, n_prime=1))


# ----------------------------------------------------------------
# bare runs
# ----------------------------------------------------------------

def test_bare_run_transfers(bare_run):
    assert bare_run.final_error < 1e-5
    assert not bare_run.clamp_saturation > 0.5


def test_clamp_saturation_is_the_fraction_of_floor_steps(params, bare_run):
    lo = -params.omega_tc_max * (1.0 - CLAMP_FLOOR_FRACTION)
    assert bare_run.clamp_saturation == 0.0
    strong = run_lct(params, LctConfig(lambda_=60000.0, eta=1e-6, dt=0.01, t_max=100.0,
                                       initial_label="100", target_label="010"))
    samples = strong.waveform.samples
    assert strong.clamp_saturation == np.mean(samples == lo) > 0.0
    assert not strong.clamp_saturation > 0.5


def test_bare_run_shapes(bare_recorded):
    bare_run, traj = bare_recorded
    wf = bare_run.waveform
    assert wf.n == 45000
    assert wf.dt == 0.01
    assert traj.times.size == wf.n + 1
    np.testing.assert_array_equal(traj.control, wf.samples)


def test_bare_first_sample_is_zero(bare_run):
    # Causal loop: nothing has been measured before the first step.
    assert bare_run.waveform.samples[0] == 0.0


def test_bare_samples_respect_clamp(params, bare_run):
    s = bare_run.waveform.samples
    lo = -params.omega_tc_max * (1.0 - CLAMP_FLOOR_FRACTION)
    assert np.all(s <= 0.0)
    assert np.all(s >= lo)


def test_bare_monotone_at_run_grid(bare_recorded):
    # Feedback guarantees a non-negative rate at each step start; within a
    # 0.01 ns hold the rate can drift slightly negative.
    dips = np.diff(bare_recorded[1].populations["010"])
    assert dips.min() > -1e-7


def _worst_dip(params, lambda_, t_max, dt):
    _, target = record_lct(params, _base(t_max=t_max, lambda_=lambda_, dt=dt))
    return abs(np.diff(target.populations["010"]).min())


@settings(max_examples=8, deadline=None, derandomize=True)
@given(st.floats(1000.0, 30000.0), st.integers(20, 60))
def test_dips_shrink_with_the_sample_period(params, lambda_, t_max):
    # The law makes the target's rate a perfect square at each sample;
    # what dips is the hold between samples.  Quartering dt must shrink
    # the worst dip at least fourfold (measured: 8x to 2900x).
    coarse = _worst_dip(params, lambda_, float(t_max), 0.01)
    assert _worst_dip(params, lambda_, float(t_max), 0.0025) <= coarse / 4 + 1e-14


def test_run_is_deterministic(params, short_run):
    again = run_lct(params, _base(t_max=40.0))
    np.testing.assert_array_equal(short_run.waveform.samples,
                                  again.waveform.samples)
    assert short_run.final_error == again.final_error


def test_lambda_zero_does_nothing(params):
    res = run_lct(params, _base(t_max=20.0, lambda_=0.0))
    np.testing.assert_array_equal(res.waveform.samples, np.zeros(2000))
    assert res.final_error == pytest.approx(1.0, abs=1e-5)


def test_unseeded_bare_run_stalls(params):
    # eta = 0 leaves the target population at the fixed point the law
    # cannot see; the pulse never exceeds lambda times the eigenvector
    # orthogonality residue.
    res = run_lct(params, _base(t_max=20.0, eta=0.0))
    assert np.max(np.abs(res.waveform.samples)) < 1e-12
    assert res.final_error > 0.999


def test_out_of_block_labels_read_exactly_zero(params):
    # The loop runs in the single-excitation block; labels of other
    # excitation numbers can never fill and are written as exact zeros.
    res, traj = record_lct(params, _base(t_max=5.0))
    pops = traj.populations
    for lab in ("000", "110", "111"):
        assert np.all(pops[lab] == 0.0)
    assert pops["010"][-1] > 0.0


@pytest.mark.parametrize("n_prime", [None, 3])
def test_emitted_samples_match_feedback_law(params, spectrum, short_run, n_prime):
    # Replay the emitted pulse on the seeded state; the sample applied on
    # step k+1 must equal the (clamped) law evaluated at the step-k state.
    # n_prime = 3 keeps the three lowest levels of the whole spectrum, 000,
    # 010 and 100, and so drops 001 from inside the run's block.
    cfg = _base(t_max=40.0, n_prime=n_prime)
    wf = (short_run if n_prime is None else run_lct(params, cfg)).waveform
    if n_prime is not None:
        assert spectrum.bare_labels[:4] == ["000", "010", "100", "001"]
        assert not np.array_equal(wf.samples, short_run.waveform.samples)
    j = spectrum.index_of_label("010")
    amp = seed_state(spectrum.state("100"), spectrum.state("010"), cfg.eta)
    worst = 0.0
    for k in range(wf.n - 1):
        w, u = np.linalg.eigh(hamiltonian_at(params, wf.samples[k]))
        amp = u @ (np.exp(-1j * w * wf.dt) * (u.conj().T @ amp))
        predicted = feedback_value(amp, spectrum, j, cfg.lambda_, n_prime,
                                   omega_tc_max=params.omega_tc_max)
        worst = max(worst, abs(predicted - wf.samples[k + 1]))
    assert worst < 1e-9


def test_replay_reproduces_run_final_state_exactly(params, short_run):
    # run_lct and propagate_waveform step through the same kernel, so
    # replaying the seeded state under the emitted pulse must land on the
    # run's final amplitudes bit for bit.
    cfg = _base(t_max=40.0)
    sector = params.sector_of("100")
    psi = seed_state(sector.state("100"), sector.state("010"), cfg.eta)
    assert np.any(short_run.waveform.samples == 0.0)
    assert np.any(short_run.waveform.samples != 0.0)
    traj = propagate_waveform(sector, psi, short_run.waveform, tracked=[])
    np.testing.assert_array_equal(traj.final_state, short_run.final_state)


def test_replay_reproduces_4q_run_final_state_exactly():
    # The same bit-for-bit replay on a 4-qubit device, whose single-
    # excitation block has dimension 5.
    device = SystemParams.from_ghz([5.890, 5.031, 6.350, 6.720],
                                   [0.100, 0.071, 0.060, 0.050], 7.445)
    assert device.sector(1).eigenvectors.shape == (5, 5)
    cfg = _base(t_max=20.0, initial_label="10000", target_label="01000")
    run = run_lct(device, cfg)
    assert np.any(run.waveform.samples == 0.0)
    assert np.any(run.waveform.samples != 0.0)
    sector = device.sector_of("10000")
    psi = seed_state(sector.state("10000"), sector.state("01000"), cfg.eta)
    traj = propagate_waveform(sector, psi, run.waveform, tracked=[])
    np.testing.assert_array_equal(traj.final_state, run.final_state)


_FOUR_QUBITS = ([5.890, 5.031, 6.350, 6.720], [0.100, 0.071, 0.060, 0.050], 7.445)


def test_4q_populations_hold_the_block_and_share_one_zero_array():
    # In-block labels read |c_b|^2 of the loop's drift-basis amplitudes,
    # recomputed here step by step through the same kernel, across the
    # boundary of the loop's first CHUNK steps; the 27 labels outside the
    # single-excitation block have no row in what the sink receives, read
    # one exact zero and are no key of the run's final populations.
    device = SystemParams.from_ghz(*_FOUR_QUBITS)
    cfg = _base(t_max=(CHUNK + 4) * 0.01, initial_label="10000", target_label="01000")
    chunks = []
    run, traj = record_lct(device, cfg, chunks)
    spec, sector = dense_spectrum(device), device.sector(1)
    single = np.flatnonzero([lab.count("1") == 1 for lab in spec.bare_labels])
    psi = seed_state(sector.state("10000"), sector.state("01000"), cfg.eta)
    vt = sector.eigenvectors.conj().T
    amps = [vt @ psi]
    for s in run.waveform.samples:
        psi = apply_step(*step_factors(sector, s, cfg.dt), psi)
        amps.append(vt @ psi)
    amps = np.array(amps)

    assert [(k0, p.shape) for k0, _, _, p in chunks] == [(0, (5, CHUNK)), (CHUNK, (5, 5))]
    labels = chunks[0][1]
    assert all(lab is labels for _, lab, _, _ in chunks)
    rows = {lab: labels.index(lab) if lab in labels else None for lab in product_labels(4)}
    pops = traj.populations
    outside = [lab for lab, b in rows.items() if b is None]
    assert len(outside) == 27 and len(pops) == 32
    assert outside == [lab for lab in product_labels(4) if lab.count("1") != 1]
    assert sorted(b for b in rows.values() if b is not None) == list(range(5))
    for lab in outside:
        assert not pops[lab].any() and lab not in run.final_populations
    for lab in set(pops) - set(outside):
        b = int(np.searchsorted(single, spec.index_of_label(lab)))
        assert rows[lab] == b
        assert pops[lab].tobytes() == (np.abs(amps[:, b]) ** 2).tobytes()
    # The summary is read off the same rows.
    target = pops["01000"]
    assert run.monotonicity_margin == float(np.diff(target).min())
    assert run.final_populations == {lab: float(pops[lab][-1]) for lab in labels}
    for level, t in run.crossings.items():
        assert t == time_to_population(traj, "01000", level)


def test_4q_block_populations_are_float64_rows_of_one_array():
    # Each sink call hands the block's rows as one (block dim, rows)
    # float64 array, every call a view of the one buffer the run reuses,
    # with one sample per row held; the last call's final row, the state
    # at t_max, holds none.
    device = SystemParams.from_ghz(*_FOUR_QUBITS)
    cfg = _base(t_max=(CHUNK + 4) * 0.01, initial_label="10000", target_label="01000")
    calls = []
    run = run_lct(device, cfg, sink=lambda k0, labels, samples, p: calls.append(
        (k0, samples.copy(), p)))
    assert [k0 for k0, _, _ in calls] == [0, CHUNK]
    buffer = calls[0][2]
    for k0, samples, p in calls:
        assert p.dtype == np.float64 and p.shape == (5, samples.size + (k0 == CHUNK))
        assert np.shares_memory(p, buffer)
    samples = np.concatenate([s for _, s, _ in calls])
    assert samples.size == run.waveform.n
    assert samples.tobytes() == run.waveform.samples.tobytes()
    # The waveform's samples are one read-only array.
    assert not run.waveform.samples.flags.writeable


def test_4q_trajectory_csv_writes_exact_zeros_outside_the_block(tmp_path):
    device = SystemParams.from_ghz(*_FOUR_QUBITS)
    cfg = _base(t_max=5.0, initial_label="10000", target_label="01000")
    path = tmp_path / "trajectory.csv"
    run = write_trajectory_csv(str(path), cfg.dt, lambda sink: run_lct(device, cfg, sink))
    lines = path.read_text().splitlines()
    header = lines[0].split(",")
    assert len(lines) == 502
    assert header[2:] == [f"pop_{lab}" for lab in product_labels(4)]
    for lab in product_labels(4):
        column = {line.split(",")[header.index(f"pop_{lab}")] for line in lines[1:]}
        assert (column == {"0.000000000000e+00"}) == (lab not in run.final_populations)


def test_4q_run_memory_grows_by_at_most_20_bytes_per_step(tmp_path):
    # The run keeps its samples (8 B per step) and nothing else per step:
    # the populations go to the sink, here the trajectory writer, one
    # chunk at a time.
    device = SystemParams.from_ghz(*_FOUR_QUBITS)

    def traced_peak(n_steps):
        cfg = _base(t_max=n_steps * 0.01, initial_label="10000", target_label="01000")
        tracemalloc.start()
        try:
            write_trajectory_csv(str(tmp_path / "trajectory.csv"), cfg.dt,
                                 lambda sink: run_lct(device, cfg, sink))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(10)  # builds and caches the run's sector
    slope = (traced_peak(8000) - traced_peak(2000)) / 6000
    assert slope <= 20, slope


_EIGHT_QUBITS = ([5.890, 5.031, 6.350, 6.720, 5.410, 6.080, 5.650, 6.930],
                 [0.100, 0.071, 0.060, 0.050, 0.080, 0.065, 0.090, 0.055], 7.445)


def test_8q_run_replays_on_the_oracle_block():
    # An 8-qubit device has dimension 512, but a single-excitation run
    # lives in its 9-dimensional block: the run, its device's setup
    # included, never holds as much as one 512 x 512 float array, and its
    # final error is that of its pulse replayed by expm on the block
    # written from the formula (site order: qubit 1 first).
    device = SystemParams.from_ghz(*_EIGHT_QUBITS)
    cfg = _base(t_max=20.0, initial_label="100000000", target_label="010000000")
    tracemalloc.start()
    try:
        run = run_lct(device, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert run.waveform.n == 2000 and np.any(run.waveform.samples != 0.0)
    assert peak < 512 * 512 * 8, peak

    h, g = single_excitation_block(device)
    v = np.linalg.eigh(h)[1]
    v *= np.sign(v[np.abs(v).argmax(axis=0), range(9)])
    initial, target = (v[:, np.abs(v[site]).argmax()] for site in (0, 1))
    psi = seed_state(initial, target, cfg.eta)
    for s in run.waveform.samples:
        psi = expm(-1j * (h + s * g) * cfg.dt) @ psi
    assert abs((1.0 - abs(np.vdot(target, psi)) ** 2) - run.final_error) < 1e-10


# ----------------------------------------------------------------
# correction stage
# ----------------------------------------------------------------

def test_refined_config_unseeds(short_run):
    ref = Waveform(dt=0.01, samples=short_run.waveform.samples.copy())
    cfg = refined_config(_base(t_max=40.0), ref, 500.0)
    assert cfg.eta == 0.0
    assert cfg.lambda_ == 500.0
    assert cfg.reference is ref


def test_zero_gain_reproduces_reference(params, short_run):
    ref = lowpass_filter(short_run.waveform, 0.45,
                         omega_tc_max=params.omega_tc_max)
    res = run_lct(params, refined_config(_base(t_max=40.0), ref, 0.0))
    np.testing.assert_array_equal(res.waveform.samples, ref.samples)


def test_total_is_reference_plus_correction(params, short_run):
    ref = lowpass_filter(short_run.waveform, 0.45,
                         omega_tc_max=params.omega_tc_max)
    res = run_lct(params, refined_config(_base(t_max=40.0), ref, 500.0))
    correction = res.waveform.samples - ref.samples
    # Causal loop: the first sample is the reference alone, and the
    # correction shapes the rest.
    assert correction[0] == 0.0
    assert np.max(np.abs(correction)) > 0.0


def test_refined_run_replays_on_pure_state(params, short_run):
    # The correction stage is unseeded, so feeding its emitted pulse back
    # through a plain propagation of the pure initial state must land on
    # the same final error.
    ref = lowpass_filter(short_run.waveform, 0.45,
                         omega_tc_max=params.omega_tc_max)
    res = run_lct(params, refined_config(_base(t_max=40.0), ref, 500.0))
    sector = params.sector_of("100")
    traj = propagate_waveform(sector, sector.state("100"), res.waveform, ["010"])
    assert abs((1.0 - traj.populations["010"][-1]) - res.final_error) < 1e-12


# ----------------------------------------------------------------
# lockstep runs (property suite)
# ----------------------------------------------------------------

@st.composite
def _lockstep_case(draw):
    """A random device (1-3 qubits), two of its single-excitation labels,
    and 1-4 members that share everything but their reference (none, or
    a random one with exact zeros, shorter or longer than the run) and
    their gain."""
    n = draw(st.integers(1, 3))
    ghz = st.floats(3.0, 8.0)
    params = SystemParams.from_ghz(
        draw(st.lists(ghz, min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.01, 0.3), min_size=n, max_size=n)),
        draw(ghz))
    singles = ["0" * i + "1" + "0" * (n - i) for i in range(n + 1)]
    initial, target = draw(st.permutations(singles))[:2]
    dt = draw(st.floats(0.005, 0.05))
    n_steps = draw(st.integers(2, 200))
    shared = dict(eta=draw(st.one_of(st.just(0.0), st.floats(1e-8, 1e-3))),
                  dt=dt, t_max=n_steps * dt, initial_label=initial,
                  target_label=target)
    gain = st.floats(0.0, 3e4)
    depth = st.one_of(st.just(0.0), st.floats(0.0, 0.999))
    configs = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            configs.append(LctConfig(lambda_=draw(gain), **shared))
            continue
        fractions = draw(st.lists(depth, min_size=2, max_size=n_steps + 5))
        ref = Waveform(dt=dt, samples=-params.omega_tc_max * np.array(fractions))
        configs.append(LctConfig(lambda_=draw(gain), reference=ref, **shared))
    return params, configs


def _is_dark(params, label):
    """The drift eigenstate of label is also an eigenvector of G, so no
    coupler shift moves population into or out of it."""
    sector = params.sector_of(label)
    v = sector.state(label)
    gv = sector.control @ v
    return np.linalg.norm(gv - np.vdot(v, gv) * v) < 1e-12


# Cases the check covers whatever the draw, on the reference device: a
# reference with exact zeros that dips below the clamp floor (0.999
# omega_tc_max deep), and members run alone, mixed and at zero gain.
_DEVICE = SystemParams.from_ghz([5.890, 5.031], [0.100, 0.071], 7.445)
_RUN = dict(dt=0.01, t_max=2.0, initial_label="100", target_label="010")
_DIPPING = Waveform(dt=0.01, samples=-_DEVICE.omega_tc_max * np.repeat(
    [0.0, 0.3, 1.0, 0.9995, 0.0, 0.5], 30))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_lockstep_case())
@example((_DEVICE, [LctConfig(lambda_=LAMBDA_STAR, eta=1e-6, **_RUN)]))
@example((_DEVICE, [LctConfig(lambda_=500.0, eta=0.0, reference=_DIPPING, **_RUN)]))
@example((_DEVICE, [LctConfig(lambda_=LAMBDA_STAR, eta=1e-6, **_RUN),
                    LctConfig(lambda_=500.0, eta=1e-6, reference=_DIPPING, **_RUN),
                    LctConfig(lambda_=3e4, eta=1e-6, reference=_DIPPING, **_RUN)]))
@example((_DEVICE, [LctConfig(lambda_=0.0, eta=0.0, reference=_DIPPING, **_RUN)]))
def test_lockstep_matches_single_runs(case):
    params, configs = case
    first = configs[0]
    dark = [lab for lab in (first.target_label, first.initial_label)
            if _is_dark(params, lab)]
    if dark:
        # No shift moves a dark eigenstate: both loops refuse the run.
        with pytest.raises(ConfigError, match=f"{dark[0]} does not couple"):
            run_lct_lockstep(params, configs)
        for config in configs:
            with pytest.raises(ConfigError, match=f"{dark[0]} does not couple"):
                run_lct(params, config)
        return
    samples, forward, reverse = run_lct_lockstep(params, configs)
    for b, config in enumerate(configs):
        # Same matrix-vector products as run_lct: equal bit for bit, which
        # is well inside the 1e-12 a rounding-level agreement would need.
        single = run_lct(params, config)
        np.testing.assert_array_equal(samples[:, b], single.waveform.samples)
        assert forward[b] == single.final_error
        rev = transfer_errors(params, Waveform(dt=first.dt, samples=samples[:, b]),
                              first.target_label, first.initial_label)[0]
        assert abs(reverse[b] - rev) <= 1e-12
        alone = run_lct_lockstep(params, [config])
        np.testing.assert_array_equal(alone[0][:, 0], samples[:, b])
        assert alone[1][0] == forward[b]
        assert alone[2][0] == reverse[b]


def test_lockstep_forward_error_squares_as_run_lct_does():
    # A case the property suite drew: the final target amplitude's modulus
    # 0.762103571076567 squares to ...656 as x * x but ...6561 through libm's
    # pow, so a scalar ** 2 in one loop would put the errors one ulp apart.
    params = SystemParams(n_qubits=2, omega=(40.82134668768651, 24.138278374963637),
                          g=(1.0735498987562437, 0.3141592653589793),
                          omega_tc_max=30.84156159608531)
    config = LctConfig(eta=0.0, dt=0.01, t_max=2.0, initial_label="100",
                       target_label="001", lambda_=14772.072936506143,
                       reference=Waveform(dt=0.01, samples=np.array([-7.133993793368288, -0.0])))
    _, forward, _ = run_lct_lockstep(params, [config])
    assert forward[0] == run_lct(params, config).final_error


def test_lockstep_members_must_share_the_run(params):
    with pytest.raises(ConfigError, match="t_max"):
        run_lct_lockstep(params, [_base(t_max=5.0), _base(t_max=6.0)])
    with pytest.raises(ValueError):
        run_lct_lockstep(params, [])


def test_lockstep_refined_run_reverse_error_from_probe(params, short_run):
    # The operating point of the reversibility search on a short run: the
    # probe column's reverse error is the endpoint replay's.
    ref = lowpass_filter(short_run.waveform, 0.45,
                         omega_tc_max=params.omega_tc_max)
    cfg = refined_config(_base(t_max=40.0), ref, 500.0)
    samples, _, reverse = run_lct_lockstep(params, [cfg, replace(cfg, lambda_=900.0)])
    single = run_lct(params, cfg)
    np.testing.assert_array_equal(samples[:, 0], single.waveform.samples)
    rev = transfer_errors(params, single.waveform, "010", "100")[0]
    assert abs(reverse[0] - rev) <= 1e-12
    assert samples.shape == (4000, 2)
