"""Reference implementations the tests compare lctpulse against.

Each is written from its formula and imports only public lctpulse names,
so a test that checks the library against one does not check it against
itself.  The program never calls them.
"""

import numpy as np

from lctpulse.model import DriftSpectrum, build_drift_hamiltonian, eigendecompose, product_labels
from lctpulse.pulses import Waveform, clamp_samples


def control_generator(params) -> np.ndarray:
    """G = -1/2 sz_TC on the whole product basis: -1/2 where the coupler
    (the last bit of the index) is empty, +1/2 where it is excited."""
    return np.diag(np.where(np.arange(params.dim) & 1, 0.5, -0.5))


def hamiltonian_at(params, delta_omega_tc: float) -> np.ndarray:
    """H(delta) = H_d + delta G, the coupler held at a static shift (rad/ns)."""
    return build_drift_hamiltonian(params) + delta_omega_tc * control_generator(params)


def dense_spectrum(params) -> DriftSpectrum:
    """The drift's spectrum on the whole product basis, with G.

    H_d is decomposed in excitation-number order, where it is block
    diagonal with contiguous blocks, so every eigenvector is exactly zero
    outside its block (in product order LAPACK leaves rounding residue
    there, 4e-16 on a 4-qubit device); the rows then return to product
    order.
    """
    labels = product_labels(params.n_qubits)
    order = sorted(range(params.dim), key=lambda i: labels[i].count("1"))
    h, g = build_drift_hamiltonian(params), control_generator(params)
    spectrum = eigendecompose(h[np.ix_(order, order)], g[np.ix_(order, order)],
                              [labels[i] for i in order])
    return DriftSpectrum(eigenvalues=spectrum.eigenvalues,
                         eigenvectors=spectrum.eigenvectors[np.argsort(order)],
                         bare_labels=spectrum.bare_labels, hamiltonian=h, control=g)


def single_excitation_block(params) -> tuple:
    """(H_d, G) on the n+1 single-excitation states, in site order (qubit 1
    ... qubit n, then the coupler; product-basis order is the reverse).

    H_d is diag(omega_1 ... omega_n, omega_tc_max) with g_i between qubit i
    and the coupler, offset by the ground energy -1/2 (sum of them all);
    G = -1/2 sz_TC reads -1/2 on the qubits and +1/2 on the coupler.
    """
    freqs = [*params.omega, params.omega_tc_max]
    h = np.diag(freqs)
    h[-1, :-1] = h[:-1, -1] = params.g
    return h - 0.5 * sum(freqs) * np.eye(len(freqs)), np.diag([-0.5] * params.n_qubits + [0.5])


def propagate_step(psi: np.ndarray, h, dt: float) -> np.ndarray:
    """Exact one-interval step exp(-i h dt)|psi>, h a Hermitian array,
    through a plain eigendecomposition of h."""
    w, u = np.linalg.eigh(h)
    return u @ (np.exp(-1j * w * dt) * (u.conj().T @ psi))


def population_derivative_check(psi: np.ndarray, h, projector) -> float:
    """Instantaneous d<P>/dt = i <[H, P]> at the full-space state psi,
    returned as a real number.

    The commutator expectation is anti-Hermitian so the product with i is
    real; anything beyond a 1e-12 imaginary residue signals a bad input.
    """
    hp = h @ projector
    z = 1j * (np.vdot(psi, hp @ psi) - np.vdot(psi, hp.conj().T @ psi))
    if abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
        raise ValueError("population rate has a non-negligible imaginary part")
    return float(z.real)


def feedback_value(psi: np.ndarray, spectrum, target_index: int, lambda_: float,
                   n_prime=None, *, omega_tc_max: float) -> float:
    """The clamped feedback law of lctpulse.lct's docstring at the
    full-space state psi:

        -lambda Im( sum_{k < n_prime} <psi_j|sz_TC|psi_k> <psi_k|Psi> <psi_j|Psi>* )

    with j = target_index, sz_TC = -2 G from the spectrum's control
    generator, and the sum over every eigenstate when n_prime is None.
    """
    v = spectrum.eigenvectors[:, :n_prime]
    j = target_index
    c = v.conj().T @ psi
    coupling = spectrum.eigenvectors[:, j].conj() @ (-2.0 * spectrum.control) @ v
    return float(clamp_samples(-lambda_ * (coupling @ c * np.conj(c[j])).imag, omega_tc_max))


def label_index(label: str, n_qubits: int) -> int:
    """Product-basis index of a bare label; the TC bit is last."""
    if len(label) != n_qubits + 1 or any(c not in "01" for c in label):
        raise ValueError(f"bad label {label!r} for {n_qubits} qubits + TC")
    return int(label, 2)


def flux_to_frequency(params, phi_over_phi0: float) -> float:
    """omega_tc = omega_tc_max * sqrt(|cos(pi Phi/Phi_0)|)."""
    return params.omega_tc_max * np.sqrt(np.abs(np.cos(np.pi * phi_over_phi0)))


def frequency_to_flux(params, omega_tc: float) -> float:
    """Smallest non-negative Phi/Phi_0 that tunes the coupler to omega_tc:
    the principal branch [0, 1/2]; outside [0, omega_tc_max] a ValueError."""
    if not 0.0 <= omega_tc <= params.omega_tc_max:
        raise ValueError(f"omega_tc={omega_tc:.6g} rad/ns outside [0, {params.omega_tc_max:.6g}]")
    return float(np.arccos((omega_tc / params.omega_tc_max) ** 2) / np.pi)


def time_reverse(wf: Waveform) -> Waveform:
    """The samples in reverse order, dt unchanged."""
    return Waveform(dt=wf.dt, samples=wf.samples[::-1].copy())


def dominant_frequency(spectrum, min_freq_ghz: float = 0.0) -> float:
    """Frequency of a PulseSpectrum's strongest bin at or above min_freq_ghz,
    which lets a caller skip the DC / slow-envelope band."""
    idx = np.flatnonzero(spectrum.freqs_ghz >= min_freq_ghz)
    if not idx.size:
        raise ValueError("min_freq_ghz above the Nyquist frequency")
    return float(spectrum.freqs_ghz[idx[np.argmax(spectrum.power[idx])]])


def time_to_population(traj, label: str, level: float) -> float | None:
    """First grid time where a trajectory's `label` population reaches
    `level`; None when it never does."""
    hits = np.flatnonzero(traj.populations[label] >= level)
    return float(traj.times[hits[0]]) if hits.size else None


def transfer_duration(traj, label: str, lo: float, hi: float) -> float | None:
    """Time a trajectory's `label` population spends between its first
    crossings of lo and hi; None when it never reaches one of them."""
    t_lo = time_to_population(traj, label, lo)
    t_hi = time_to_population(traj, label, hi)
    if t_lo is None or t_hi is None:
        return None
    return t_hi - t_lo


def greedy_labels(vectors: np.ndarray, labels: list) -> list:
    """The basis label of each eigenvector column, assigned greedily: the
    (basis index, eigenvector) pairs are visited by decreasing squared
    overlap, ties to the lower basis index, then the lower eigenvector
    index, and a pair is taken when neither side is taken yet."""
    dim = len(labels)
    overlap = np.abs(vectors) ** 2  # [basis, vec]
    order = sorted(
        ((i, j) for i in range(dim) for j in range(dim)),
        key=lambda ij: (-overlap[ij[0], ij[1]], ij[0], ij[1]),
    )
    assigned = [None] * dim
    used_basis = set()
    for i, j in order:
        if assigned[j] is None and i not in used_basis:
            assigned[j] = labels[i]
            used_basis.add(i)
    return assigned
