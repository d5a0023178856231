import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.linalg import expm

from lctpulse import dynamics
from lctpulse.dynamics import (
    CHUNK,
    _ordered_product,
    apply_step,
    first_crossing,
    propagate_waveform,
    propagator,
    step_factors,
)
from lctpulse.model import SystemParams, build_drift_hamiltonian
from lctpulse.pulses import Waveform
from lctpulse.units import TWO_PI
from conftest import all_sectors, block_indices
from oracles import (
    hamiltonian_at,
    label_index,
    population_derivative_check,
    propagate_step,
    time_reverse,
    time_to_population,
    transfer_duration,
)


def _random_state(rng, dim=8):
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def _gaussian_waveform(dt, duration=12.0, depth=-2.0):
    t = np.arange(int(round(duration / dt))) * dt
    return Waveform(dt=dt, samples=TWO_PI * depth * np.exp(
        -0.5 * ((t - duration / 2) / 2.0) ** 2))


# ----------------------------------------------------------------
# single step
# ----------------------------------------------------------------

def test_step_matches_expm_oracle(params, rng):
    h = hamiltonian_at(params, -TWO_PI * 1.2)
    psi = _random_state(rng)
    dt = 0.37
    ours = propagate_step(psi, h, dt)
    oracle = expm(-1j * h * dt) @ psi
    np.testing.assert_allclose(ours, oracle, atol=1e-12)


def test_stacked_step_matches_each_member_exactly(rng):
    # A stack of B = 4 random unitaries, each applied to its member's two
    # state columns, must give what each member's own step gives, bit for
    # bit: the batch axis stays put under the conjugate transpose and the
    # phases broadcast over the columns.
    d = 3
    z = rng.normal(size=(4, d, d)) + 1j * rng.normal(size=(4, d, d))
    u = np.linalg.qr(z)[0]
    phases = np.exp(-1j * rng.normal(size=(4, d)))
    psi = rng.normal(size=(4, d, 2)) + 1j * rng.normal(size=(4, d, 2))
    stacked = apply_step(u, phases, psi)
    for b in range(4):
        np.testing.assert_array_equal(stacked[b], apply_step(u[b], phases[b], psi[b]))
        for col in range(2):
            np.testing.assert_allclose(
                stacked[b, :, col],
                u[b] @ np.diag(phases[b]) @ u[b].conj().T @ psi[b, :, col],
                rtol=0, atol=1e-14)


@pytest.mark.parametrize("members", [1, 3, 51])
def test_stacked_zero_steps_match_the_scalar_zero_path(params, rng, members):
    # Every stack goes to one batched eigh.  Appending a zero must leave
    # every other member with the same bits.
    for sector in all_sectors(params):
        shifts = -TWO_PI * rng.uniform(0.01, 7.0, size=members)
        held = step_factors(sector, shifts, 0.01)
        masked = step_factors(sector, np.append(shifts, 0.0), 0.01)
        for fast, slow in zip(held, masked):
            assert fast.dtype == slow.dtype
            assert fast.tobytes() == slow[:members].tobytes()

        # The members of a mixed stack that are not zero match an all-held
        # stack of themselves.  Its exact zeros (every member when there is
        # one) get H's own eigenvectors, which may differ from the stored
        # ones in the signs of columns; a step with them must still match
        # the scalar zero path bit for bit, alone and in a stack of state
        # columns.
        mixed = shifts.copy()
        mixed[::2] = 0.0
        u, phases = step_factors(sector, mixed, 0.01)
        nonzero = mixed != 0.0
        if nonzero.any():
            u_held, phases_held = step_factors(sector, mixed[nonzero], 0.01)
            assert u[nonzero].tobytes() == u_held.tobytes()
            assert phases[nonzero].tobytes() == phases_held.tobytes()
        zero_u, zero_phases = step_factors(sector, 0.0, 0.01)
        d = len(zero_phases)
        complex_state = _random_state(rng, d)
        with_zero = complex_state.copy()
        with_zero[d // 2] = 0.0
        for psi in (complex_state, rng.normal(size=d), with_zero):
            expected = apply_step(zero_u, zero_phases, psi).tobytes()
            columns = np.broadcast_to(psi[:, None], (2, members, d, 1)).copy()
            stacked = apply_step(u, phases, columns)
            for b in np.flatnonzero(~nonzero):
                assert apply_step(u[b], phases[b], psi).tobytes() == expected
                assert all(stacked[a, b, :, 0].tobytes() == expected for a in range(2))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in H + s G
@pytest.mark.parametrize("shift", [np.nan, np.inf, -np.inf])
def test_non_finite_shift_raises_linalg_error(params, shift):
    # The CLI maps LinAlgError to exit 3; a kernel that bypasses
    # np.linalg.eigh's wrapper must keep raising it, alone and in a stack.
    sector = params.sector(1)
    with pytest.raises(np.linalg.LinAlgError):
        step_factors(sector, shift, 0.01)
    with pytest.raises(np.linalg.LinAlgError):
        step_factors(sector, np.array([-1.0, shift, 0.0]), 0.01)


def test_step_preserves_norm(params, rng):
    h = build_drift_hamiltonian(params)
    psi = _random_state(rng)
    out = propagate_step(psi, h, 1.234)
    assert abs(np.linalg.norm(out) - 1.0) <= 1e-12


def test_step_leaves_eigenstate_populations(params, spectrum):
    psi = spectrum.state("100")
    out = propagate_step(psi, build_drift_hamiltonian(params), 5.0)
    assert abs(np.vdot(spectrum.state("100"), out)) == pytest.approx(
        1.0, abs=1e-12)


def test_rabi_oracle():
    # Single qubit resonant with the TC: exact two-level exchange dynamics,
    # P(swap) = sin^2(g t), full swap at pi/(2 g).
    single = SystemParams.from_ghz([5.890], [0.100], 7.445)
    delta_res = single.omega[0] - single.omega_tc_max
    h = hamiltonian_at(single, delta_res)
    psi0 = np.zeros(4, dtype=complex)
    psi0[label_index("10", 1)] = 1.0
    g = single.g[0]
    for t in (0.3, 1.0, np.pi / (2 * g)):
        out = propagate_step(psi0, h, t)
        p_swap = abs(out[label_index("01", 1)]) ** 2
        assert p_swap == pytest.approx(np.sin(g * t) ** 2, abs=1e-6)
    t_swap = np.pi / (2 * g)
    assert t_swap == pytest.approx(2.5, abs=0.01)


# ----------------------------------------------------------------
# waveform propagation
# ----------------------------------------------------------------

def test_zero_waveform_keeps_populations(params):
    wf = Waveform(dt=0.05, samples=np.zeros(200))
    sector = params.sector_of("010")
    traj = propagate_waveform(sector, sector.state("010"), wf, tracked=["010", "100"])
    np.testing.assert_allclose(traj.populations["010"], 1.0, atol=1e-10)
    np.testing.assert_allclose(traj.populations["100"], 0.0, atol=1e-10)


def test_waveform_matches_stepwise_composition(params, rng):
    wf = Waveform(dt=0.02, samples=-TWO_PI * rng.random(40))
    for sector in all_sectors(params):
        psi = _random_state(rng, len(sector.bare_labels))
        traj = propagate_waveform(sector, psi, wf, tracked=[])
        rows = block_indices(sector)
        state = np.zeros(params.dim, dtype=complex)
        state[rows] = psi
        for s in wf.samples:
            h = hamiltonian_at(params, float(s))
            state = propagate_step(state, h, wf.dt)
        np.testing.assert_allclose(traj.final_state, state[rows], atol=1e-10)


def test_trajectory_record_shape(params):
    wf = Waveform(dt=0.02, samples=np.zeros(50))
    sector = params.sector_of("100")
    traj = propagate_waveform(sector, sector.state("100"), wf, tracked=["100"])
    assert traj.times.size == 51
    assert traj.control.size == 50
    steps = np.diff(traj.times)
    assert np.all(steps > 0)
    np.testing.assert_allclose(steps, wf.dt, rtol=1e-12)
    pops = traj.populations["100"]
    assert np.all(pops >= 0) and np.all(pops <= 1 + 1e-9)


def test_unknown_tracked_label(params, rng):
    wf = Waveform(dt=0.02, samples=np.zeros(10))
    with pytest.raises(ValueError, match="bogus"):
        propagate_waveform(params.sector(1), _random_state(rng, 3), wf, tracked=["bogus"])


def test_linearity_on_superpositions(params, rng):
    wf = _gaussian_waveform(0.01)
    a, b = 0.6, 0.8j
    sector = params.sector(1)
    s1, s2 = _random_state(rng, 3), _random_state(rng, 3)
    out1 = propagate_waveform(sector, s1, wf, tracked=[]).final_state
    out2 = propagate_waveform(sector, s2, wf, tracked=[]).final_state
    mixed = a * s1 + b * s2
    norm = np.linalg.norm(mixed)
    outm = propagate_waveform(sector, mixed / norm, wf, tracked=[]).final_state
    np.testing.assert_allclose(outm, (a * out1 + b * out2) / norm, atol=1e-10)


def test_hold_splitting_is_exact(params):
    # Each sample is held constant over its interval, so splitting every
    # hold into two half-holds of the same value cannot change the result.
    wf = _gaussian_waveform(0.01)
    split = Waveform(dt=wf.dt / 2, samples=np.repeat(wf.samples, 2))
    sector = params.sector_of("100")
    psi = sector.state("100")
    a = propagate_waveform(sector, psi, wf, tracked=[]).final_state
    b = propagate_waveform(sector, psi, split, tracked=[]).final_state
    np.testing.assert_allclose(a, b, atol=1e-12)


def test_step_size_refinement_converges(params):
    # Resampling a smooth pulse on finer grids must tighten the result.
    sector = params.sector_of("100")
    psi = sector.state("100")
    p = [propagate_waveform(sector, psi, _gaussian_waveform(dt),
                            ["100"]).populations["100"][-1]
         for dt in (0.02, 0.01, 0.005)]
    coarse_gap = abs(p[1] - p[0])
    fine_gap = abs(p[2] - p[1])
    assert fine_gap < 0.7 * coarse_gap
    assert fine_gap < 1e-4


def test_unitary_time_reversal(params):
    # H is real symmetric, so conjugating the final state and replaying the
    # reversed waveform walks the evolution back exactly.
    wf = _gaussian_waveform(0.01)
    sector = params.sector_of("100")
    psi = sector.state("100")
    fwd = propagate_waveform(sector, psi, wf, tracked=[])
    back = propagate_waveform(
        sector, fwd.final_state.conj(), time_reverse(wf), tracked=[])
    np.testing.assert_allclose(
        np.abs(back.final_state) ** 2, np.abs(psi) ** 2, atol=1e-8)


def test_norm_conserved_over_long_run(params):
    wf = Waveform(dt=0.01, samples=-TWO_PI * 1.5 * np.ones(45000))
    sector = params.sector_of("100")
    traj = propagate_waveform(sector, sector.state("100"), wf, tracked=["100", "010"])
    assert abs(np.linalg.norm(traj.final_state) - 1.0) <= 1e-10
    total = traj.populations["100"] + traj.populations["010"]
    assert np.all(total <= 1.0 + 1e-9)


# ----------------------------------------------------------------
# chunked replays against the whole stack
# ----------------------------------------------------------------

_DEVICES = {
    2: SystemParams.from_ghz([5.890, 5.031], [0.100, 0.071], 7.445),
    3: SystemParams.from_ghz([5.890, 5.031, 6.350], [0.100, 0.071, 0.060], 7.445),
}


def _whole_stack_endpoints(sector, states, wf):
    """The endpoint products with every step unitary of the block built at once."""
    u, phases = step_factors(sector, wf.samples, wf.dt)
    product = _ordered_product((u * phases[:, None, :]) @ u.conj().swapaxes(-1, -2))
    return [product @ psi0 for psi0 in states]


def _whole_stack_waveform(sector, psi0, wf, tracked):
    """propagate_waveform's final state and populations with every step
    factor of the block built before its loop."""
    track_vecs = np.stack([sector.state(lab) for lab in tracked], axis=1)
    psi = psi0
    u, phases = step_factors(sector, wf.samples, wf.dt)
    history = [psi]
    for k in range(wf.n):
        psi = apply_step(u[k], phases[k], psi)
        history.append(psi)
    return psi, np.abs(np.array(history) @ track_vecs.conj()) ** 2


def test_chunk_is_a_power_of_two():
    assert CHUNK >= 1 and CHUNK & (CHUNK - 1) == 0


@pytest.mark.parametrize("n_qubits", [2, 3])
@pytest.mark.parametrize("n", [2, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3])
def test_chunked_replays_match_the_whole_stack_bitwise(rng, n_qubits, n):
    # Chunk products are the whole-stack tree's nodes at level log2(CHUNK),
    # and each chunk's eigh gives its members the bits of the whole stack's,
    # so the replays must not move a bit at or around a chunk boundary.
    params = _DEVICES[n_qubits]
    samples = -params.omega_tc_max * rng.uniform(0.0, 0.9, size=n)
    samples[rng.random(n) < 0.3] = 0.0
    samples[-1] = 0.0
    wf = Waveform(dt=0.01, samples=samples)
    for sector in all_sectors(params):
        states = [_random_state(rng, len(sector.bare_labels)) for _ in range(2)]
        for count in (1, 2):
            ours = [propagator(sector, wf) @ psi for psi in states[:count]]
            for got, want in zip(ours, _whole_stack_endpoints(sector, states[:count], wf)):
                assert got.tobytes() == want.tobytes()

        tracked = sector.bare_labels
        traj = propagate_waveform(sector, states[0], wf, tracked)
        final, pops = _whole_stack_waveform(sector, states[0], wf, tracked)
        assert traj.final_state.tobytes() == final.tobytes()
        for i, lab in enumerate(tracked):
            assert traj.populations[lab].tobytes() == pops[:, i].tobytes()


def test_replays_never_build_more_than_chunk_steps(params, rng, monkeypatch):
    sizes = []
    kernel = dynamics.step_factors

    def recording(spectrum, shifts, dt):
        sizes.append(np.size(shifts))
        return kernel(spectrum, shifts, dt)

    monkeypatch.setattr(dynamics, "step_factors", recording)
    wf = Waveform(dt=0.01, samples=-params.omega_tc_max * rng.uniform(0.0, 0.9, 3 * CHUNK))
    for sector in all_sectors(params):  # one state in each of the four blocks
        psi = _random_state(rng, len(sector.bare_labels))
        propagate_waveform(sector, psi, wf, tracked=[])
        propagator(sector, wf) @ psi
    assert max(sizes) == CHUNK
    assert sum(sizes) == 2 * (params.n_qubits + 2) * wf.n


def test_first_crossing_is_the_full_history_read_and_stops_at_its_chunk(monkeypatch):
    # A weak coupling held on resonance swaps 10 into 01 in about 50 ns,
    # so the 0.99 crossing lies in the second of three chunks.  The scan
    # must give the time a full replay's history gives, bit for bit, and
    # build no step factor past the chunk that holds the crossing.
    device = SystemParams.from_ghz([5.890], [0.005], 7.445)
    sector = device.sector_of("10")
    psi = sector.state("10")
    wf = Waveform(dt=0.01, samples=np.full(3 * CHUNK, device.omega[0] - device.omega_tc_max))
    want = time_to_population(propagate_waveform(sector, psi, wf, ["01"]), "01", 0.99)

    sizes = []
    kernel = dynamics.step_factors

    def recording(spectrum, shifts, dt):
        sizes.append(np.size(shifts))
        return kernel(spectrum, shifts, dt)

    monkeypatch.setattr(dynamics, "step_factors", recording)
    tau = first_crossing(sector, psi, wf, "01", 0.99)
    assert CHUNK * wf.dt < tau < 2 * CHUNK * wf.dt
    assert np.float64(tau).tobytes() == np.float64(want).tobytes()
    assert sizes == [CHUNK, CHUNK]

    # A crossing at t = 0 reads 0.0, and a pulse that never crosses None.
    assert first_crossing(sector, psi, wf, "10", 0.99) == 0.0
    assert first_crossing(sector, psi, Waveform(dt=0.01, samples=np.zeros(50)),
                          "01", 0.99) is None


# ----------------------------------------------------------------
# block kernel against the dense held Hamiltonian (property suite)
# ----------------------------------------------------------------

@st.composite
def _device_states_waveform(draw):
    """A random device (1-4 qubits), one random state in each excitation
    block, and a short waveform with exact zeros among its samples."""
    n = draw(st.integers(1, 4))
    ghz = st.floats(3.0, 8.0)
    params = SystemParams.from_ghz(
        draw(st.lists(ghz, min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.01, 0.3), min_size=n, max_size=n)),
        draw(ghz))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    states = [_random_state(rng, len(sector.bare_labels)) for sector in all_sectors(params)]
    depth = st.one_of(st.just(0.0), st.floats(0.0, 0.999))
    fractions = draw(st.lists(depth, min_size=2, max_size=30))
    wf = Waveform(dt=draw(st.floats(0.005, 0.1)),
                  samples=-params.omega_tc_max * np.array(fractions))
    return params, states, wf


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_device_states_waveform())
def test_block_propagation_matches_dense_oracle(case):
    # Each block's state is replayed densely, embedded in the full space:
    # one column per block, stepped by the full held Hamiltonian.  The
    # tracked eigenstates are the sector's, embedded the same way: on a
    # device with degenerate levels the dense decomposition may pick
    # another basis of their eigenspace.
    params, states, wf = case
    sectors = all_sectors(params)
    dense = np.zeros((params.dim, len(states)), dtype=complex)
    for b, (sector, psi) in enumerate(zip(sectors, states)):
        dense[block_indices(sector), b] = psi
    history = [dense]
    for s in wf.samples:
        w, u = np.linalg.eigh(hamiltonian_at(params, s))
        dense = u @ (np.exp(-1j * w * wf.dt)[:, None] * (u.conj().T @ dense))
        history.append(dense)

    for b, (sector, psi) in enumerate(zip(sectors, states)):
        tracked = sector.bare_labels[:3]
        embedded = np.zeros((len(tracked), params.dim))
        embedded[:, block_indices(sector)] = [sector.state(lab) for lab in tracked]
        pops = [np.abs(embedded @ step[:, b]) ** 2 for step in history]

        traj = propagate_waveform(sector, psi, wf, tracked)
        out = np.zeros(params.dim, dtype=complex)
        out[block_indices(sector)] = traj.final_state
        np.testing.assert_allclose(out, dense[:, b], rtol=0, atol=1e-10)
        assert abs(np.linalg.norm(out) - 1.0) <= 1e-10
        np.testing.assert_allclose(
            np.column_stack([traj.populations[lab] for lab in tracked]),
            np.array(pops), rtol=0, atol=1e-10)

        end = propagator(sector, wf) @ psi
        for lab in tracked:
            p_end = abs(np.vdot(sector.state(lab), end)) ** 2
            assert abs(p_end - traj.populations[lab][-1]) <= 1e-11


@st.composite
def _device_shifts(draw):
    """A random device (1-4 qubits), a dt, and a stack of 1-8 held shifts
    with exact zeros among them."""
    n = draw(st.integers(1, 4))
    ghz = st.floats(3.0, 8.0)
    params = SystemParams.from_ghz(
        draw(st.lists(ghz, min_size=n, max_size=n)),
        draw(st.lists(st.floats(0.01, 0.3), min_size=n, max_size=n)),
        draw(ghz))
    depth = st.one_of(st.just(0.0), st.floats(0.0, 0.999))
    fractions = draw(st.lists(depth, min_size=1, max_size=8))
    return params, draw(st.floats(0.001, 1.0)), -params.omega_tc_max * np.array(fractions)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(_device_shifts())
def test_step_factors_are_unitary(case):
    # M = U diag(phases) U^H must be unitary in every sector, whether the
    # shifts go through the stacked kernel or one at a time.
    params, dt, shifts = case
    for sector in all_sectors(params):
        eye = np.eye(len(sector.bare_labels))
        stacked = step_factors(sector, shifts, dt)
        for u, phases in [stacked, *(step_factors(sector, float(s), dt) for s in shifts)]:
            m = u @ (phases[..., None] * u.conj().swapaxes(-1, -2))
            assert np.abs(m @ m.conj().swapaxes(-1, -2) - eye).max() <= 1e-13


# ----------------------------------------------------------------
# population derivative
# ----------------------------------------------------------------

def test_derivative_zero_for_eigenstate_projector(params, spectrum):
    h = build_drift_hamiltonian(params)
    psi = spectrum.state("100")
    proj = np.outer(spectrum.state("100"), spectrum.state("100").conj())
    rate = population_derivative_check(psi, h, proj)
    assert rate == pytest.approx(0.0, abs=1e-12)


def test_derivative_matches_finite_difference(params, spectrum):
    shift = -TWO_PI * 1.8
    h = hamiltonian_at(params, shift)
    v = spectrum.state("010")
    proj = np.outer(v, v.conj())
    raw = (spectrum.state("100") + 0.4 * v + 0.2 * spectrum.state("001"))
    psi = raw / np.linalg.norm(raw)
    rate = population_derivative_check(psi, h, proj)
    # Central difference through an independent expm propagator.
    dt = 1e-5
    def pop_at(t):
        out = expm(-1j * h * t) @ psi
        return abs(np.vdot(v, out)) ** 2
    fd = (pop_at(dt) - pop_at(-dt)) / (2 * dt)
    assert rate == pytest.approx(fd, abs=1e-6)


def test_trajectory_timing_helpers():
    from lctpulse.dynamics import TrajectoryRecord
    times = np.linspace(0.0, 10.0, 101)
    pops = np.clip(times / 8.0, 0, 1)
    rec = TrajectoryRecord(
        times=times, control=np.zeros(100),
        populations={"010": pops},
        final_state=np.eye(3)[0].astype(complex))
    assert time_to_population(rec, "010", 0.5) == pytest.approx(4.0, abs=0.1)
    assert transfer_duration(rec, "010", 0.1, 0.9) == pytest.approx(6.4, abs=0.2)
    assert time_to_population(rec, "010", 2.0) is None
