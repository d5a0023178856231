import tracemalloc

import numpy as np
import pytest
from dataclasses import replace
from hypothesis import given, settings, strategies as st

from lctpulse import (
    ConfigError,
    LctConfig,
    QuantumState,
    SystemParams,
    Waveform,
    lowpass_filter,
    propagate_waveform,
    refined_config,
    run_lct,
)
from lctpulse.dynamics import CHUNK, apply_step, step_factors
from lctpulse.lct import run_lct_lockstep, seed_state
from lctpulse.optimize import reverse_error
from lctpulse.model import product_labels
from lctpulse.pulses import CLAMP_FLOOR_FRACTION
from oracles import feedback_value

LAMBDA_STAR = 27626.0


def _base(t_max=450.0, **kw):
    args = dict(lambda_=LAMBDA_STAR, eta=1e-6, dt=0.01, t_max=t_max,
                initial_label="100", target_label="010")
    args.update(kw)
    return LctConfig(**args)


@pytest.fixture(scope="module")
def bare_run(params):
    return run_lct(params, _base())


@pytest.fixture(scope="module")
def short_run(params):
    return run_lct(params, _base(t_max=40.0))


# ----------------------------------------------------------------
# config and seeding
# ----------------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        _base(lambda_=-1.0)
    with pytest.raises(ConfigError):
        _base(eta=1.0)
    with pytest.raises(ConfigError):
        LctConfig(lambda_=1.0, eta=0.0, dt=0.01, t_max=10.0,
                  initial_label="100", target_label="010",
                  reference=Waveform(dt=0.01, samples=np.zeros(10)))
    # lambda2 steers only the correction term; without a reference the run
    # would use lambda and ignore it.
    with pytest.raises(ConfigError, match="lambda2 without a reference"):
        _base(lambda2=400.0)


def test_transfer_across_excitation_numbers_rejected():
    # Exchange conserves excitation number: no pulse moves 100 into 110.
    with pytest.raises(ConfigError, match="excitation number"):
        _base(target_label="110")
    with pytest.raises(ConfigError, match="excitation number"):
        _base(initial_label="000", target_label="001")


def test_transfer_to_the_initial_label_rejected():
    # A run from 100 to 100 would report a tiny error for moving nothing.
    with pytest.raises(ConfigError, match="nothing to transfer"):
        _base(target_label="100")


def test_misaligned_t_max_rejected(params):
    with pytest.raises(ConfigError):
        run_lct(params, _base(t_max=10.005))


def test_reference_dt_mismatch(params):
    cfg = _base(t_max=10.0, reference=Waveform(dt=0.02, samples=np.zeros(5)),
                lambda2=10.0)
    with pytest.raises(ConfigError):
        run_lct(params, cfg)


def test_seed_state_mixes_exact_target_weight(spectrum):
    psi0 = QuantumState(spectrum.state("100"))
    tgt = QuantumState(spectrum.state("010"))
    eta = 1e-6
    mixed = seed_state(psi0, tgt, eta)
    assert abs(np.linalg.norm(mixed.amplitudes) - 1.0) <= 1e-12
    assert abs(np.vdot(tgt.amplitudes, mixed.amplitudes)) ** 2 == pytest.approx(
        eta, rel=1e-9)
    same = seed_state(psi0, tgt, 0.0)
    np.testing.assert_allclose(same.amplitudes, psi0.amplitudes, atol=1e-15)


# ----------------------------------------------------------------
# feedback law
# ----------------------------------------------------------------

def test_feedback_zero_on_eigenstates(params, spectrum):
    for lab in ("100", "010"):
        psi = QuantumState(spectrum.state(lab))
        val = feedback_value(psi, spectrum, spectrum.index_of_label("010"),
                             LAMBDA_STAR, omega_tc_max=params.omega_tc_max)
        assert abs(val) < 1e-9


def test_feedback_stays_in_clamp_window(params, spectrum, rng):
    lo = -params.omega_tc_max * (1.0 - CLAMP_FLOOR_FRACTION)
    j = spectrum.index_of_label("010")
    for _ in range(50):
        v = rng.normal(size=8) + 1j * rng.normal(size=8)
        psi = QuantumState(v / np.linalg.norm(v))
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
        psi = QuantumState(basis @ c / np.linalg.norm(c))
        full = feedback_value(psi, spectrum, j, LAMBDA_STAR,
                              omega_tc_max=params.omega_tc_max)
        proj = feedback_value(psi, spectrum, j, LAMBDA_STAR, n_prime=4,
                              omega_tc_max=params.omega_tc_max)
        assert proj == pytest.approx(full, abs=1e-12 * max(1.0, abs(full)))


def test_feedback_validation(params):
    # n_prime keeps the lowest eigenstates, which must hold the target
    # (010 is the second lowest).
    with pytest.raises(ConfigError, match="n_prime"):
        run_lct(params, _base(t_max=1.0, n_prime=0))
    with pytest.raises(ConfigError, match="outside the projected set"):
        run_lct(params, _base(t_max=1.0, n_prime=1))


# ----------------------------------------------------------------
# bare runs
# ----------------------------------------------------------------

def test_bare_run_transfers(bare_run):
    assert bare_run.final_error < 1e-5
    assert not bare_run.clamp_saturated


def test_clamp_saturation_is_the_fraction_of_floor_steps(params, bare_run):
    lo = -params.omega_tc_max * (1.0 - CLAMP_FLOOR_FRACTION)
    assert bare_run.clamp_saturation == 0.0
    strong = run_lct(params, LctConfig(lambda_=60000.0, eta=1e-6, dt=0.01, t_max=100.0,
                                       initial_label="100", target_label="010"))
    samples = strong.waveform.samples
    assert strong.clamp_saturation == np.mean(samples == lo) > 0.0
    assert not strong.clamp_saturated


def test_bare_run_shapes(bare_run):
    wf = bare_run.waveform
    assert wf.n == 45000
    assert wf.dt == 0.01
    assert bare_run.trajectory.times.size == wf.n + 1
    np.testing.assert_array_equal(bare_run.trajectory.control, wf.samples)


def test_bare_first_sample_is_zero(bare_run):
    # Causal loop: nothing has been measured before the first step.
    assert bare_run.waveform.samples[0] == 0.0


def test_bare_samples_respect_clamp(params, bare_run):
    s = bare_run.waveform.samples
    lo = -params.omega_tc_max * (1.0 - CLAMP_FLOOR_FRACTION)
    assert np.all(s <= 0.0)
    assert np.all(s >= lo)


def test_bare_monotone_at_run_grid(bare_run):
    # Feedback guarantees a non-negative rate at each step start; within a
    # 0.01 ns hold the rate can drift slightly negative.
    dips = np.diff(bare_run.trajectory.populations["010"])
    assert dips.min() > -1e-7


def _worst_dip(params, lambda_, t_max, dt):
    target = run_lct(params, _base(t_max=t_max, lambda_=lambda_, dt=dt)).trajectory
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
    res = run_lct(params, _base(t_max=5.0))
    pops = res.trajectory.populations
    for lab in ("000", "110", "111"):
        assert np.all(pops[lab] == 0.0)
    assert pops["010"][-1] > 0.0
    weight = np.array([lab.count("1") for lab in product_labels(params.n_qubits)])
    assert np.all(res.trajectory.final_state.amplitudes[weight != 1] == 0.0)


def test_emitted_samples_match_feedback_law(params, spectrum, short_run):
    # Replay the emitted pulse on the seeded state; the sample applied on
    # step k+1 must equal the (clamped) law evaluated at the step-k state.
    cfg = _base(t_max=40.0)
    j = spectrum.index_of_label("010")
    psi = seed_state(QuantumState(spectrum.state("100")),
                     QuantumState(spectrum.state("010")), cfg.eta)
    wf = short_run.waveform
    h_d, gen = params.drift_operators
    amp = psi.amplitudes
    worst = 0.0
    for k in range(wf.n - 1):
        h = h_d + wf.samples[k] * gen
        w, u = np.linalg.eigh(h)
        amp = u @ (np.exp(-1j * w * wf.dt) * (u.conj().T @ amp))
        predicted = feedback_value(QuantumState(amp), spectrum, j, cfg.lambda_,
                                   omega_tc_max=params.omega_tc_max)
        worst = max(worst, abs(predicted - wf.samples[k + 1]))
    assert worst < 1e-9


def test_replay_reproduces_run_final_state_exactly(params, spectrum, short_run):
    # run_lct and propagate_waveform step through the same kernel, so
    # replaying the seeded state under the emitted pulse must land on the
    # run's final amplitudes bit for bit.
    cfg = _base(t_max=40.0)
    i0, j = spectrum.index_of_label("100"), spectrum.index_of_label("010")
    psi = seed_state(QuantumState(spectrum.eigenvectors[:, i0]),
                     QuantumState(spectrum.eigenvectors[:, j]), cfg.eta)
    assert np.any(short_run.waveform.samples == 0.0)
    assert np.any(short_run.waveform.samples != 0.0)
    traj = propagate_waveform(params, psi, short_run.waveform, tracked=[])
    np.testing.assert_array_equal(traj.final_state.amplitudes,
                                  short_run.trajectory.final_state.amplitudes)


def test_replay_reproduces_4q_run_final_state_exactly():
    # The same bit-for-bit replay on a 4-qubit device, whose single-
    # excitation block has dimension 5.
    device = SystemParams.from_ghz([5.890, 5.031, 6.350, 6.720],
                                   [0.100, 0.071, 0.060, 0.050], 7.445)
    assert device.sectors[1].indices.size == 5
    cfg = _base(t_max=20.0, initial_label="10000", target_label="01000")
    run = run_lct(device, cfg)
    assert np.any(run.waveform.samples == 0.0)
    assert np.any(run.waveform.samples != 0.0)
    spec = device.drift_spectrum
    psi = seed_state(QuantumState(spec.state("10000")),
                     QuantumState(spec.state("01000")), cfg.eta)
    traj = propagate_waveform(device, psi, run.waveform, tracked=[])
    np.testing.assert_array_equal(traj.final_state.amplitudes,
                                  run.trajectory.final_state.amplitudes)


def test_4q_populations_hold_the_block_and_share_one_zero_array():
    # In-block labels read |c_b|^2 of the loop's drift-basis amplitudes,
    # recomputed here step by step through the same kernel, across the
    # boundary of the loop's first CHUNK steps; the 27 labels outside the
    # single-excitation block share one read-only zero array.
    device = SystemParams.from_ghz([5.890, 5.031, 6.350, 6.720],
                                   [0.100, 0.071, 0.060, 0.050], 7.445)
    cfg = _base(t_max=(CHUNK + 4) * 0.01, initial_label="10000", target_label="01000")
    run = run_lct(device, cfg)
    spec, sector = device.drift_spectrum, device.sectors[1]
    psi = seed_state(QuantumState(spec.state("10000")),
                     QuantumState(spec.state("01000")), cfg.eta).amplitudes[sector.indices]
    vt = sector.eigenvectors.conj().T
    amps = [vt @ psi]
    for s in run.waveform.samples:
        psi = apply_step(*step_factors(sector, s, cfg.dt), psi)
        amps.append(vt @ psi)
    amps = np.array(amps)

    pops = run.trajectory.populations
    outside = [lab for lab in product_labels(4) if lab.count("1") != 1]
    assert len(outside) == 27 and len(pops) == 32
    zeros = pops[outside[0]]
    assert all(pops[lab] is zeros for lab in outside)
    assert not zeros.flags.writeable
    assert zeros.shape == (run.waveform.n + 1,) and not zeros.any()
    for lab in set(pops) - set(outside):
        b = int(np.searchsorted(sector.columns, spec.index_of_label(lab)))
        assert pops[lab].tobytes() == (np.abs(amps[:, b]) ** 2).tobytes()


def test_4q_block_populations_are_float64_rows_of_one_array():
    device = SystemParams.from_ghz([5.890, 5.031, 6.350, 6.720],
                                   [0.100, 0.071, 0.060, 0.050], 7.445)
    run = run_lct(device, _base(t_max=5.0, initial_label="10000", target_label="01000"))
    rows = [run.trajectory.populations[lab] for lab in device.sectors[1].bare_labels]
    table = rows[0].base
    assert table.dtype == np.float64 and table.shape == (5, run.waveform.n + 1)
    for b, row in enumerate(rows):
        assert row.base is table and row.flags.c_contiguous
        assert np.shares_memory(row, table[b])
    # The waveform and the recorded control are one read-only array.
    assert run.trajectory.control is run.waveform.samples
    assert not run.waveform.samples.flags.writeable


def test_4q_run_memory_grows_by_less_than_100_bytes_per_step():
    # The run keeps each block label's population (8 B per step and label,
    # 40 B on this block) but no per-step amplitudes: a complex history of
    # the block would add 80 B per step on its own.
    device = SystemParams.from_ghz([5.890, 5.031, 6.350, 6.720],
                                   [0.100, 0.071, 0.060, 0.050], 7.445)

    def traced_peak(n_steps):
        cfg = _base(t_max=n_steps * 0.01, initial_label="10000", target_label="01000")
        tracemalloc.start()
        try:
            run_lct(device, cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    traced_peak(10)  # builds and caches the device's spectrum and sectors
    slope = (traced_peak(8000) - traced_peak(2000)) / 6000
    assert slope < 100, slope


# ----------------------------------------------------------------
# correction stage
# ----------------------------------------------------------------

def test_refined_config_unseeds(short_run):
    ref = Waveform(dt=0.01, samples=short_run.waveform.samples.copy())
    cfg = refined_config(_base(t_max=40.0), ref, 500.0)
    assert cfg.eta == 0.0
    assert cfg.lambda2 == 500.0
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


def test_refined_run_replays_on_pure_state(params, spectrum, short_run):
    # The correction stage is unseeded, so feeding its emitted pulse back
    # through a plain propagation of the pure initial state must land on
    # the same final error.
    ref = lowpass_filter(short_run.waveform, 0.45,
                         omega_tc_max=params.omega_tc_max)
    res = run_lct(params, refined_config(_base(t_max=40.0), ref, 500.0))
    traj = propagate_waveform(params, QuantumState(spectrum.state("100")),
                              res.waveform, ["010"])
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
        configs.append(LctConfig(lambda_=0.0, reference=ref, lambda2=draw(gain),
                                 **shared))
    return params, configs


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_lockstep_case())
def test_lockstep_matches_single_runs(case):
    params, configs = case
    batch = run_lct_lockstep(params, configs)
    first = configs[0]
    for b, config in enumerate(configs):
        # Same matrix-vector products as run_lct: equal bit for bit, which
        # is well inside the 1e-12 a rounding-level agreement would need.
        single = run_lct(params, config)
        np.testing.assert_array_equal(batch.samples[:, b], single.waveform.samples)
        assert batch.forward_error[b] == single.final_error
        rev = reverse_error(params, batch.waveform(b), first.target_label,
                            first.initial_label)
        assert abs(batch.reverse_error[b] - rev) <= 1e-12
        alone = run_lct_lockstep(params, [config])
        np.testing.assert_array_equal(alone.samples[:, 0], batch.samples[:, b])
        assert alone.forward_error[0] == batch.forward_error[b]
        assert alone.reverse_error[0] == batch.reverse_error[b]


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
    batch = run_lct_lockstep(params, [cfg, replace(cfg, lambda2=900.0)])
    single = run_lct(params, cfg)
    np.testing.assert_array_equal(batch.samples[:, 0], single.waveform.samples)
    rev = reverse_error(params, single.waveform, "010", "100")
    assert abs(batch.reverse_error[0] - rev) <= 1e-12
    assert batch.samples.shape == (4000, 2)
