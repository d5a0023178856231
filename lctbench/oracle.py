"""Physics computed apart from lctpulse, for checking its outputs.

Nothing here imports the package under test.  Devices are plain dicts in
the config convention (GHz); Hamiltonians are built in angular units
(rad/ns) so that couplings compare with the program's CSV directly.

Two constructions:

- the single-excitation block, of dimension n+1, straight from the device
  numbers: diag(omega_1 .. omega_n, omega_tc) with g_i on the coupler row.
  Exchange conserves excitation number, so every transfer here lives in
  it, and a coupler shift moves only its last diagonal entry;
- the dense 2^(n+1) Hamiltonian assembled from Pauli matrices, for the
  full eigenvalue sweep.
"""

from __future__ import annotations

from functools import reduce

import numpy as np
import scipy.linalg

TWO_PI = 2.0 * np.pi

_X = np.array([[0.0, 1.0], [1.0, 0.0]])
_Y = np.array([[0.0, -1j], [1j, 0.0]])
_Z = np.array([[1.0, 0.0], [0.0, -1.0]])   # |0> = +1, so -w/2 Z prices an excitation at +w
_I = np.eye(2)


def block_hamiltonian(device: dict, delta_ghz: float = 0.0) -> np.ndarray:
    """Single-excitation block (rad/ns) at coupler shift delta_ghz.

    Basis order: qubit 1 excited, ..., qubit n excited, coupler excited.
    The ground-state energy is dropped; it is a global phase here.
    """
    w = TWO_PI * np.asarray(device["qubit_freqs_ghz"], dtype=float)
    g = TWO_PI * np.asarray(device["couplings_ghz"], dtype=float)
    n = w.size
    h = np.zeros((n + 1, n + 1))
    h[np.arange(n), np.arange(n)] = w
    h[n, n] = TWO_PI * (device["tc_max_freq_ghz"] + delta_ghz)
    h[n, :n] = g
    h[:n, n] = g
    return h


def block_labels(n_qubits: int) -> list:
    """Bare label of each block basis vector, coupler bit last."""
    labels = []
    for i in range(n_qubits + 1):
        bits = ["0"] * (n_qubits + 1)
        bits[i] = "1"
        labels.append("".join(bits))
    return labels


def drift_states(device: dict) -> dict:
    """Drift eigenvectors of the block, keyed by the bare label of their
    largest component."""
    h = block_hamiltonian(device)
    _, vecs = np.linalg.eigh(h)
    labels = block_labels(len(device["qubit_freqs_ghz"]))
    out = {}
    for j in range(vecs.shape[1]):
        lab = labels[int(np.argmax(np.abs(vecs[:, j])))]
        if lab in out:
            raise ValueError(f"two drift eigenstates share the label {lab}")
        out[lab] = vecs[:, j]
    return out


def propagate(device: dict, samples_ghz: np.ndarray, dt: float,
              states: np.ndarray) -> np.ndarray:
    """Apply the sample-and-hold pulse to the columns of `states`.

    Each hold is exp(-i H(delta_k) dt) from scipy.linalg.expm, computed
    once per distinct sample value.
    """
    h0 = block_hamiltonian(device)
    n = h0.shape[0]
    values, inverse = np.unique(np.asarray(samples_ghz, dtype=float),
                                return_inverse=True)
    batch = np.repeat(h0[None], values.size, axis=0)
    batch[:, n - 1, n - 1] += TWO_PI * values
    steps = scipy.linalg.expm(-1j * dt * batch)
    psi = np.asarray(states, dtype=complex)
    for k in inverse:
        psi = steps[k] @ psi
    return psi


def transfer_errors(device: dict, samples_ghz: np.ndarray, dt: float,
                    pairs: list, eta: float = 0.0) -> list:
    """1 - P(destination) for each (source, destination) label pair.

    With eta > 0 the start is the seeded state
    sqrt(eta)|destination> + sqrt(1 - eta)|source>, as a feedback run uses.
    """
    basis = drift_states(device)
    starts = []
    for src, dst in pairs:
        v = np.sqrt(eta) * basis[dst] + np.sqrt(1.0 - eta) * basis[src]
        starts.append(v / np.linalg.norm(v))
    psi = propagate(device, samples_ghz, dt, np.stack(starts, axis=1))
    return [1.0 - float(abs(np.vdot(basis[dst], psi[:, c])) ** 2)
            for c, (_, dst) in enumerate(pairs)]


def dense_hamiltonian(device: dict, delta_ghz: float) -> np.ndarray:
    """Full 2^(n+1) Hamiltonian (rad/ns) from Pauli matrices.

    H = -1/2 sum_i w_i Z_i + sum_i g_i (X_i X_c + Y_i Y_c)/2 - 1/2 w_c Z_c,
    sites in label order with the coupler last.
    """
    w = TWO_PI * np.asarray(device["qubit_freqs_ghz"], dtype=float)
    g = TWO_PI * np.asarray(device["couplings_ghz"], dtype=float)
    n_sites = w.size + 1
    coupler = n_sites - 1

    def at(ops: dict) -> np.ndarray:
        return reduce(np.kron, [ops.get(s, _I) for s in range(n_sites)])

    h = -0.5 * TWO_PI * (device["tc_max_freq_ghz"] + delta_ghz) * at({coupler: _Z})
    for i in range(w.size):
        h = h - 0.5 * w[i] * at({i: _Z})
        h = h + 0.5 * g[i] * (at({i: _X, coupler: _X}) + at({i: _Y, coupler: _Y}))
    return h.real


def coupler_generator(n_qubits: int) -> np.ndarray:
    """dH/d(delta omega_tc) = -Z_c / 2 on the dense space."""
    n_sites = n_qubits + 1
    return -0.5 * reduce(np.kron, [_I] * (n_sites - 1) + [_Z])


def hellmann_feynman(device: dict, deltas_ghz: np.ndarray, pairs: list) -> np.ndarray:
    """<j|dH/d delta|k> / (E_j - E_k) at each coupler shift, one column per
    index pair of the ascending dense spectrum, signed by this
    eigensolver's gauge."""
    h0 = dense_hamiltonian(device, 0.0)
    gen = coupler_generator(len(device["qubit_freqs_ghz"]))
    deltas = np.asarray(deltas_ghz, dtype=float)
    vals, vecs = np.linalg.eigh(h0[None] + (TWO_PI * deltas)[:, None, None] * gen[None])
    elements = np.transpose(vecs, (0, 2, 1)) @ gen @ vecs
    j, k = np.array(pairs).T
    return elements[:, j, k] / (vals[:, j] - vals[:, k])


def block_gap_minima(device: dict, deltas_ghz: np.ndarray) -> list:
    """Interior minima of the adjacent block-level gaps along a sweep.

    Returns (delta_ghz, gap_ghz, (lower, upper)) per adjacent pair whose
    smallest gap is not at either end of the grid, shallowest shift first.
    """
    h = np.repeat(block_hamiltonian(device)[None], len(deltas_ghz), axis=0)
    last = h.shape[1] - 1
    h[:, last, last] += TWO_PI * np.asarray(deltas_ghz)
    gaps = np.diff(np.linalg.eigvalsh(h), axis=1) / TWO_PI
    minima = []
    for pair in range(gaps.shape[1]):
        i = int(np.argmin(gaps[:, pair]))
        if 0 < i < len(deltas_ghz) - 1:
            minima.append((float(deltas_ghz[i]), float(gaps[i, pair]), (pair, pair + 1)))
    minima.sort(key=lambda m: -m[0])
    return minima
