import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lctpulse import model
from lctpulse.model import (
    SystemParams,
    build_drift_hamiltonian,
    eigendecompose,
    excitation_labels,
    nonadiabatic_coupling,
    product_labels,
    single_excitation_gap_minima,
    sweep_eigenvalues,
    sweep_nonadiabatic_couplings,
)
from lctpulse.units import TWO_PI
from conftest import all_sectors, block_indices
from oracles import (
    control_generator,
    dense_spectrum,
    flux_to_frequency,
    frequency_to_flux,
    greedy_labels,
    hamiltonian_at,
    label_index,
    single_excitation_block,
)


# ----------------------------------------------------------------
# parameters and labels
# ----------------------------------------------------------------

def test_from_ghz_converts_to_angular(params):
    assert params.omega[0] == pytest.approx(TWO_PI * 5.890, rel=1e-15)
    assert params.omega_tc_max == pytest.approx(TWO_PI * 7.445, rel=1e-15)
    assert params.dim == 8


def test_product_labels_binary_order():
    labels = product_labels(2)
    assert labels[0] == "000" and labels[-1] == "111"
    assert len(labels) == 8
    for i, lab in enumerate(labels):
        assert label_index(lab, 2) == i


def test_label_index_rejects_garbage():
    with pytest.raises(ValueError):
        label_index("01", 2)
    with pytest.raises(ValueError):
        label_index("0a0", 2)


# ----------------------------------------------------------------
# Hamiltonian construction
# ----------------------------------------------------------------

def _oracle_hamiltonian(params, delta):
    """Independent construction from number and ladder operators."""
    n_op = np.array([[0.0, 0.0], [0.0, 1.0]])
    raise_op = np.array([[0.0, 0.0], [1.0, 0.0]])
    eye = np.eye(2)

    def embed(op, site, n_sites):
        mats = [eye] * n_sites
        mats[site] = op
        out = mats[0]
        for m in mats[1:]:
            out = np.kron(out, m)
        return out

    n_sites = params.n_qubits + 1
    freqs = list(params.omega) + [params.omega_tc_max + delta]
    h = sum(w * (embed(n_op, i, n_sites) - 0.5 * np.eye(2 ** n_sites))
            for i, w in enumerate(freqs))
    a_tc = embed(raise_op, n_sites - 1, n_sites).T
    for i, g in enumerate(params.g):
        a_i = embed(raise_op, i, n_sites).T
        h = h + g * (a_i.conj().T @ a_tc + a_tc.conj().T @ a_i)
    return h


def test_drift_matches_independent_construction(params):
    for delta in (0.0, -TWO_PI * 1.56, -TWO_PI * 2.8):
        h = hamiltonian_at(params, delta)
        np.testing.assert_allclose(h, _oracle_hamiltonian(params, delta),
                                   atol=1e-12)


def test_hermiticity(params):
    h = build_drift_hamiltonian(params)
    assert np.max(np.abs(h - h.conj().T)) <= 1e-12 * np.max(np.abs(h))


def test_zero_excitation_energies_exact(params):
    # N is conserved, and the 0- and 3-excitation sectors are 1-dim, so
    # those two eigenvalues are exactly the decoupled sums.
    vals = np.linalg.eigvalsh(build_drift_hamiltonian(params))
    total = sum(params.omega) + params.omega_tc_max
    assert vals[0] == pytest.approx(-0.5 * total, rel=1e-14)
    assert vals[-1] == pytest.approx(0.5 * total, rel=1e-14)


def test_single_excitation_block_oracle(params):
    # The 3x3 single-excitation block diagonalized on its own must
    # reproduce three of the full spectrum's eigenvalues.
    w1, w2 = params.omega
    wt = params.omega_tc_max
    e0 = -0.5 * (w1 + w2 + wt)
    block = np.array([
        [e0 + w1, 0.0, params.g[0]],
        [0.0, e0 + w2, params.g[1]],
        [params.g[0], params.g[1], e0 + wt],
    ])
    sector = np.linalg.eigvalsh(block)
    full = np.linalg.eigvalsh(build_drift_hamiltonian(params))
    for e in sector:
        assert np.min(np.abs(full - e)) < 1e-12


def test_control_generator_diagonal_signs(params):
    for sector in all_sectors(params):
        gen = sector.control
        assert np.allclose(gen, np.diag(np.diag(gen)))
        for lab, value in zip(sorted(sector.bare_labels), np.diag(gen)):
            assert value == pytest.approx(-0.5 if lab[-1] == "0" else 0.5)


def test_generator_commutes_with_decoupled_drift():
    tiny = SystemParams.from_ghz([5.890, 5.031], [1e-9, 1e-9], 7.445)
    for sector in all_sectors(tiny):
        h, gen = sector.hamiltonian, sector.control
        assert np.max(np.abs(h @ gen - gen @ h)) < 1e-6


# ----------------------------------------------------------------
# flux map
# ----------------------------------------------------------------

def test_flux_fixed_points(params):
    assert flux_to_frequency(params, 0.0) == pytest.approx(
        params.omega_tc_max)
    # cos(pi/2) only reaches ~6e-17 in floats; the sqrt makes that ~1e-8.
    assert flux_to_frequency(params, 0.5) == pytest.approx(0.0, abs=1e-6)
    third = flux_to_frequency(params, 1.0 / 3.0)
    assert third == pytest.approx(params.omega_tc_max * np.sqrt(0.5), rel=1e-12)


def test_flux_round_trip(params):
    for omega in np.linspace(0.0, params.omega_tc_max, 7):
        back = flux_to_frequency(params, frequency_to_flux(params, omega))
        assert back == pytest.approx(omega, rel=1e-10, abs=1e-6)


def test_flux_out_of_range(params):
    with pytest.raises(ValueError):
        frequency_to_flux(params, -0.1)
    with pytest.raises(ValueError):
        frequency_to_flux(params, params.omega_tc_max * 1.01)


# ----------------------------------------------------------------
# eigendecomposition and labels
# ----------------------------------------------------------------

def test_spectrum_orthonormal_and_residual(params):
    h = build_drift_hamiltonian(params)
    spec = eigendecompose(h, control_generator(params), product_labels(2))
    v = spec.eigenvectors
    np.testing.assert_allclose(v.conj().T @ v, np.eye(8), atol=1e-10)
    scale = np.linalg.norm(h)
    for j in range(8):
        res = h @ v[:, j] - spec.eigenvalues[j] * v[:, j]
        assert np.linalg.norm(res) <= 1e-10 * scale
    recon = v @ np.diag(spec.eigenvalues) @ v.conj().T
    np.testing.assert_allclose(recon, h, atol=1e-10 * scale)


def test_labels_are_a_permutation(params):
    spec = eigendecompose(build_drift_hamiltonian(params), control_generator(params),
                          product_labels(2))
    assert sorted(spec.bare_labels) == sorted(product_labels(2))


def test_dispersive_labels_have_high_overlap(params):
    spec = eigendecompose(build_drift_hamiltonian(params), control_generator(params),
                          product_labels(2))
    for lab in ("100", "010", "001"):
        vec = spec.state(lab)
        assert abs(vec[label_index(lab, 2)]) ** 2 > 0.99


def test_crossing_pair_mixes_half_half(params):
    # At the first resonance the |100> and |001> branches hybridize.
    spec = eigendecompose(hamiltonian_at(params, -TWO_PI * 1.555), control_generator(params),
                          product_labels(2))
    i100 = spec.index_of_label("100")
    vec = spec.eigenvectors[:, i100]
    p100 = abs(vec[label_index("100", 2)]) ** 2
    p001 = abs(vec[label_index("001", 2)]) ** 2
    assert 0.3 < p100 < 0.7 and 0.3 < p001 < 0.7


def test_unknown_label_raises(params, spectrum):
    with pytest.raises(ValueError, match="222"):
        spectrum.state("222")


# ----------------------------------------------------------------
# excitation sectors
# ----------------------------------------------------------------

_FOUR_QUBITS = SystemParams.from_ghz([5.890, 5.031, 6.350, 6.720],
                                     [0.100, 0.071, 0.060, 0.050], 7.445)

_EIGHT_QUBITS = ([5.890, 5.031, 6.350, 6.720, 5.410, 6.080, 5.650, 6.930],
                 [0.100, 0.071, 0.060, 0.050, 0.080, 0.065, 0.090, 0.055])


@st.composite
def _tied_vectors(draw):
    """A square matrix whose entries take few magnitudes, so that many
    overlaps tie exactly, with some columns zero and some signs flipped."""
    dim = draw(st.integers(1, 7))
    cells = st.lists(st.sampled_from([0.0, 0.25, 0.5, 0.5, 1.0]), min_size=dim * dim,
                     max_size=dim * dim)
    vectors = np.array(draw(cells)).reshape(dim, dim)
    signs = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=dim * dim,
                                   max_size=dim * dim))).reshape(dim, dim)
    zero = draw(st.lists(st.booleans(), min_size=dim, max_size=dim))
    vectors[:, zero] = 0.0
    return vectors * signs


@settings(max_examples=300, deadline=None)
@given(_tied_vectors())
def test_labeller_matches_the_greedy_oracle_on_ties(vectors):
    labels = [f"b{i}" for i in range(len(vectors))]
    assert model._assign_labels(vectors, labels) == greedy_labels(vectors, labels)


@pytest.mark.parametrize("freqs, couplings", [
    ([5.890], [0.100]),
    ([5.890, 5.031], [0.100, 0.071]),
    ([5.890, 5.031], [0.3, 0.2]),
    ([5.5, 5.5], [0.100, 0.071]),
    ([5.0, 5.0], [1e-5, 1e-5]),
    ([5.890, 5.031], [1e-9, 1e-9]),
    ([5.0, 5.0, 5.0], [0.1, 0.1, 0.1]),
    ([5.890, 5.031, 6.350], [0.100, 0.071, 0.060]),
    ([5.890, 5.031, 6.350, 6.720], [0.100, 0.071, 0.060, 0.050]),
    _EIGHT_QUBITS,
], ids=["1q", "2q", "fast", "dark", "degenerate", "tiny", "identical", "3q", "4q", "8q"])
def test_every_block_is_labelled_as_the_greedy_oracle_labels_it(freqs, couplings):
    device = SystemParams.from_ghz(freqs, couplings, 7.445)
    for k in range(device.n_qubits + 2):
        sector = device.sector(k)
        assert sector.bare_labels == greedy_labels(
            sector.eigenvectors, excitation_labels(device.n_qubits, k))


def _same_bytes(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("four_qubits", [False, True])
def test_sectors_are_the_drift_spectrum_on_each_block(params, four_qubits):
    # Each block, built from its labels and diagonalised alone, is the
    # dense drift's spectrum on that block: bit for bit on the reference
    # device, while the 4-qubit device's blocks round differently, within
    # 1e-13.
    device = _FOUR_QUBITS if four_qubits else params
    spectrum = dense_spectrum(device)
    h, g = spectrum.hamiltonian, spectrum.control
    sectors = all_sectors(device)
    assert len(sectors) == device.n_qubits + 2
    for k, sector in enumerate(sectors):
        rows = block_indices(sector)
        cols = np.flatnonzero([lab.count("1") == k for lab in spectrum.bare_labels])
        assert _same_bytes(sector.hamiltonian, h[np.ix_(rows, rows)])
        assert _same_bytes(sector.control, g[np.ix_(rows, rows)])
        for ours, dense in ((sector.eigenvalues, spectrum.eigenvalues[cols]),
                            (sector.eigenvectors, spectrum.eigenvectors[np.ix_(rows, cols)])):
            if four_qubits:
                assert ours.dtype == dense.dtype
                np.testing.assert_allclose(ours, dense, rtol=0, atol=1e-13)
            else:
                assert _same_bytes(ours, dense)
        assert sector.bare_labels == [spectrum.bare_labels[c] for c in cols]
        for lab in sector.bare_labels:
            assert lab.count("1") == k
            assert sector.index_of_label(lab) == np.searchsorted(
                cols, spectrum.index_of_label(lab))
        outside = next(lab for lab in spectrum.bare_labels if lab.count("1") != k)
        with pytest.raises(ValueError):
            sector.index_of_label(outside)


def test_a_sector_is_built_once_on_first_use(monkeypatch):
    # A run decomposes its own block and no other: sector_of builds the
    # block of the label's excitation number, from its labels in
    # product-basis order, once.
    calls = []
    decompose = model.eigendecompose
    monkeypatch.setattr(model, "eigendecompose",
                        lambda h, g, labels: calls.append(labels) or decompose(h, g, labels))
    device = SystemParams.from_ghz([5.890, 5.031], [0.100, 0.071], 7.445)
    assert device.sector_of("010") is device.sector_of("100") is device.sector(1)
    assert calls == [["001", "010", "100"]]


def test_eight_qubit_single_excitation_sector_matches_oracle_block():
    # Block 1 of an 8-qubit device is 9 x 9; its eigenpairs must be those
    # of the block written from the formula, in product-basis order (the
    # reverse of site order), gauge-fixed the same way.
    device = SystemParams.from_ghz(_EIGHT_QUBITS[0], _EIGHT_QUBITS[1], 7.445)
    sector = device.sector_of("000000010")
    h, _ = single_excitation_block(device)
    w, v = np.linalg.eigh(h)
    v = v[::-1]
    v *= np.sign(v[np.abs(v).argmax(axis=0), range(9)])
    assert sector.eigenvectors.shape == (9, 9)
    np.testing.assert_allclose(sector.eigenvalues, w, rtol=0, atol=1e-12)
    np.testing.assert_allclose(sector.eigenvectors, v, rtol=0, atol=1e-12)


def test_cached_drift_arrays_are_read_only(params):
    # Every later run shares a device's sectors, so a write to one must
    # fail instead of changing them all.
    sector = params.sector(1)
    for a in (sector.hamiltonian, sector.control, sector.eigenvalues, sector.eigenvectors):
        assert not a.flags.writeable
        with pytest.raises(ValueError):
            a[0, ...] = 0.0


# ----------------------------------------------------------------
# nonadiabatic couplings
# ----------------------------------------------------------------

def _fd_coupling(params, j, k, delta, h=1e-6):
    # One-sided difference for <d psi_j / d delta | psi_k>, which is the
    # quotient convention nonadiabatic_coupling documents (divide by
    # eps_j - eps_k).  Offsetting the ket instead flips the sign.
    labels = product_labels(params.n_qubits)
    s0 = eigendecompose(hamiltonian_at(params, delta), control_generator(params), labels)
    s1 = eigendecompose(hamiltonian_at(params, delta + h), control_generator(params), labels)
    return float(np.real(np.vdot(s1.eigenvectors[:, j], s0.eigenvectors[:, k]))) / h


@pytest.mark.parametrize("delta_ghz", [-1.50, -1.56, -2.40, -0.8])
def test_hellmann_feynman_vs_finite_difference(params, delta_ghz):
    delta = TWO_PI * delta_ghz
    spec = eigendecompose(hamiltonian_at(params, delta), control_generator(params),
                          product_labels(2))
    singles = [i for i, lab in enumerate(spec.bare_labels) if lab.count("1") == 1]
    j, k = singles[0], singles[1]
    hf = nonadiabatic_coupling(params, j, k, delta)
    fd = _fd_coupling(params, j, k, delta)
    assert hf == pytest.approx(fd, rel=1e-4)


def test_coupling_antisymmetric(params):
    delta = -TWO_PI * 1.3
    d12 = nonadiabatic_coupling(params, 1, 2, delta)
    d21 = nonadiabatic_coupling(params, 2, 1, delta)
    assert d12 == pytest.approx(-d21, rel=1e-12)


def test_coupling_needs_distinct_levels(params):
    with pytest.raises(ValueError):
        nonadiabatic_coupling(params, 3, 3, 0.0)


def test_degenerate_pair_raises():
    # Identical qubits with a nearly decoupled far TC: the symmetric and
    # antisymmetric qubit combinations split only at second order in g.
    sym = SystemParams.from_ghz([5.0, 5.0], [1e-5, 1e-5], 7.445)
    with pytest.raises(ValueError, match="degenerate"):
        nonadiabatic_coupling(sym, 1, 2, 0.0)
    # The batched sweep finds the pair among other points and pairs.
    deltas = TWO_PI * np.array([-1.0, -0.5, 0.0])
    with pytest.raises(ValueError, match="degenerate"):
        sweep_nonadiabatic_couplings(sweep_eigenvalues(sym, deltas), [(0, 1), (1, 2)])


def test_cross_block_pair_couples_zero_at_an_exact_crossing(params):
    # Levels 3 and 4 lie in blocks 1 and 2; made to cross exactly, the pair
    # still couples 0 (no 0/0), and a same-block pair keeps its value.
    sweep = sweep_eigenvalues(params, TWO_PI * np.array([-1.0]))
    block = np.repeat(np.arange(4), [1, 3, 3, 1])  # each merged column's block
    assert sorted(block[sweep.order[0, 3:5]]) == [1, 2]
    d23 = sweep_nonadiabatic_couplings(sweep, [(2, 3)])[0, 0]
    sweep.levels[0, 4] = sweep.levels[0, 3]
    with np.errstate(all="raise"):
        d = sweep_nonadiabatic_couplings(sweep, [(3, 4), (2, 3)])
    assert d[0, 0] == 0.0 and d[0, 1] == d23 != 0.0


def test_near_zero_coupling_gives_near_zero_d(params):
    # Couplings scale as 1/gap near a crossing, so even g = 1e-9 leaves
    # residues approaching 1e-7 at grid points adjacent to resonances.
    tiny = SystemParams.from_ghz([5.890, 5.031], [1e-9, 1e-9], 7.445)
    deltas = TWO_PI * np.linspace(-3.0, 0.0, 7)
    pairs = [(1, 2), (2, 3), (3, 4)]
    out = sweep_nonadiabatic_couplings(sweep_eigenvalues(tiny, deltas), pairs)
    assert np.max(np.abs(out)) < 1e-6


# ----------------------------------------------------------------
# sweeps and gap minima
# ----------------------------------------------------------------

def test_sweep_shape_and_order(params):
    deltas = TWO_PI * np.linspace(-3.0, 0.0, 11)
    out = sweep_eigenvalues(params, deltas).levels
    assert out.shape == (11, 8)
    assert np.all(np.diff(out, axis=1) >= 0)


def test_block_sweeps_match_the_dense_drift():
    # The sweeps merge each block's decomposition.  The dense held
    # Hamiltonian decomposed whole must give the same levels and, between
    # two levels of one block, the same couplings; levels of different
    # blocks couple exactly 0, where the dense product leaves residue.
    rng = np.random.default_rng(11)
    device = SystemParams.from_ghz(
        list(rng.uniform(4.5, 6.5, 3)), list(rng.uniform(0.03, 0.12, 3)), 7.4)
    deltas = TWO_PI * np.linspace(-3.2, 0.0, 41)
    pairs = [(j, j + 1) for j in range(15)] + [(1, 3), (5, 2), (0, 15)]
    sweep = sweep_eigenvalues(device, deltas)
    levels = sweep.levels
    couplings = sweep_nonadiabatic_couplings(sweep, pairs)
    g = np.diag(hamiltonian_at(device, 1.0) - hamiltonian_at(device, 0.0))
    for m, d in enumerate(deltas):
        spec = eigendecompose(hamiltonian_at(device, d), control_generator(device),
                              product_labels(3))
        np.testing.assert_allclose(levels[m], spec.eigenvalues, rtol=0, atol=1e-12)
        v, w = spec.eigenvectors, spec.eigenvalues
        for c, (j, k) in enumerate(pairs):
            if spec.bare_labels[j].count("1") != spec.bare_labels[k].count("1"):
                assert couplings[m, c] == 0.0
            else:
                dense = (v[:, j] * g) @ v[:, k] / (w[j] - w[k])
                assert couplings[m, c] == pytest.approx(dense, rel=1e-9, abs=1e-12)


def test_gap_minima_locations(params):
    deltas = TWO_PI * np.linspace(-3.0, 0.0, 601)
    minima = single_excitation_gap_minima(sweep_eigenvalues(params, deltas))
    found = sorted(m.delta_omega_tc / TWO_PI for m in minima)
    # Crossings sit at omega_i - omega_tc_max, pushed slightly by repulsion.
    assert any(abs(x - (-1.555)) < 0.02 for x in found)
    assert any(abs(x - (-2.414)) < 0.02 for x in found)


def test_single_point_sweep_has_no_interior_minima(params):
    minima = single_excitation_gap_minima(sweep_eigenvalues(params, np.array([-TWO_PI])))
    assert minima == []


def test_gap_minima_match_labelled_reference():
    # Reference: full eigendecomposition at every point, single-excitation
    # levels picked by their assigned bare label, adjacent-gap minima.
    rng = np.random.default_rng(7)
    device = SystemParams.from_ghz(
        list(rng.uniform(4.5, 6.5, 3)), list(rng.uniform(0.03, 0.12, 3)), 7.4)
    deltas = TWO_PI * np.linspace(-3.2, 0.0, 161)
    gaps = []
    for d in deltas:
        spec = eigendecompose(hamiltonian_at(device, d), control_generator(device),
                              product_labels(3))
        singles = [i for i, lab in enumerate(spec.bare_labels)
                   if lab.count("1") == 1]
        gaps.append(np.diff(spec.eigenvalues[singles]))
    gaps = np.array(gaps)
    expected = []
    for pair in range(gaps.shape[1]):
        i_min = int(np.argmin(gaps[:, pair]))
        if 0 < i_min < deltas.size - 1:
            expected.append((deltas[i_min], gaps[i_min, pair], (pair, pair + 1)))
    expected.sort(key=lambda m: -m[0])

    minima = single_excitation_gap_minima(sweep_eigenvalues(device, deltas))
    assert len(minima) == len(expected) >= 2
    for m, (delta, gap, pair) in zip(minima, expected):
        assert m.delta_omega_tc == delta
        assert m.branch_pair == pair
        assert m.gap == pytest.approx(gap, abs=1e-10)
