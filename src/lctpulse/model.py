"""Device model: qubits exchange-coupled to a flux-tunable coupler.

The system is n fixed-frequency qubits, each coupled to one tunable coupler
(TC) through an excitation-exchange term.  In the product basis
|q_1 q_2 ... q_TC> the Hamiltonian reads

    H(t) = -1/2 sum_i omega_i sz_i
           + sum_i g_i (sp_i sm_TC + sm_i sp_TC)
           - 1/2 omega_tc(t) sz_TC

with sz|0> = +|0>, so -1/2 omega sz prices one excitation at +omega.
The drift H_d fixes the coupler at its maximum frequency omega_tc_max; the
only control is the shift delta_omega_tc(t) = omega_tc(t) - omega_tc_max,
which enters through the generator -1/2 sz_TC.

All frequencies in this module are angular (rad/ns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import product

import numpy as np

from .errors import DegenerateLevelsError, UnknownLabelError
from .units import TWO_PI

# Hilbert-space ceiling for dense eigendecomposition.
DIM_CAP = 2 ** 14

# Eigenvalue-difference floor below which nonadiabatic couplings blow up.
_DEGENERACY_FLOOR = 1e-9


# ================================================================
# parameters
# ================================================================

@dataclass(frozen=True)
class SystemParams:
    """Static device parameters, angular units.

    n_qubits        number of fixed-frequency qubits
    omega           qubit frequencies (rad/ns), length n_qubits
    g               qubit-TC exchange couplings (rad/ns), length n_qubits
    omega_tc_max    TC frequency at the flux sweet spot (rad/ns)
    """

    n_qubits: int
    omega: tuple
    g: tuple
    omega_tc_max: float

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if len(self.omega) != self.n_qubits or len(self.g) != self.n_qubits:
            raise ValueError("omega and g must each have n_qubits entries")
        if any(w <= 0 for w in self.omega) or self.omega_tc_max <= 0:
            raise ValueError("frequencies must be positive")
        if any(gi <= 0 for gi in self.g):
            raise ValueError("couplings must be positive")
        if self.dim > DIM_CAP:
            raise ValueError(f"dimension {self.dim} exceeds the dense cap {DIM_CAP}")

    @property
    def dim(self) -> int:
        return 2 ** (self.n_qubits + 1)

    # The device's drift is built once per instance (the instance is
    # frozen, and a CLI invocation makes a fresh one) and shared read-only.

    @cached_property
    def drift_operators(self) -> tuple:
        """(H_d, G): the drift and the diagonal control generator -1/2 sz_TC.

        The only place either is built; H_d + s G is held at coupler shift s.
        """
        ops = (build_drift_hamiltonian(self),
               np.diag(-0.5 * (1 - 2 * _occupations(self.n_qubits)[-1])))
        for a in ops:
            a.setflags(write=False)
        return ops

    @cached_property
    def drift_spectrum(self) -> DriftSpectrum:
        """Labelled spectrum of the drift (coupler at maximum), with G."""
        h, g = self.drift_operators
        spectrum = eigendecompose(h)
        spectrum.control = g
        spectrum.eigenvalues.setflags(write=False)
        spectrum.eigenvectors.setflags(write=False)
        return spectrum

    @cached_property
    def sectors(self) -> tuple:
        """The drift spectrum on each excitation-number block; sectors[k]
        holds k excitations."""
        spectrum = self.drift_spectrum
        h, g = self.drift_operators
        weight = np.array([lab.count("1") for lab in spectrum.bare_labels])
        out = []
        for k, rows in enumerate(excitation_blocks(self.n_qubits)):
            cols = np.flatnonzero(weight == k)
            out.append(DriftSpectrum(
                eigenvalues=spectrum.eigenvalues[cols],
                eigenvectors=spectrum.eigenvectors[np.ix_(rows, cols)],
                bare_labels=[spectrum.bare_labels[c] for c in cols],
                hamiltonian=h[np.ix_(rows, rows)], control=g[np.ix_(rows, rows)],
                indices=rows, columns=cols,
            ))
        return tuple(out)

    def sector_of(self, label: str) -> DriftSpectrum:
        """The sector holding bare label `label`; UnknownLabelError if none does."""
        self.drift_spectrum.index_of_label(label)
        return self.sectors[label.count("1")]

    @classmethod
    def from_ghz(cls, qubit_freqs_ghz, couplings_ghz, tc_max_freq_ghz):
        """Build from ordinary frequencies in GHz (the config convention)."""
        return cls(
            n_qubits=len(qubit_freqs_ghz),
            omega=tuple(TWO_PI * f for f in qubit_freqs_ghz),
            g=tuple(TWO_PI * g for g in couplings_ghz),
            omega_tc_max=TWO_PI * tc_max_freq_ghz,
        )


def product_labels(n_qubits: int) -> list:
    """All bare labels 'q_1...q_n q_TC' in product-basis (binary) order."""
    return ["".join(bits) for bits in product("01", repeat=n_qubits + 1)]


def _occupations(n_qubits: int) -> list:
    """Per site (qubits in order, the TC last), the bit each product-basis
    index holds for it: 1 when the site is excited."""
    index = np.arange(2 ** (n_qubits + 1))
    return [(index >> (n_qubits - k)) & 1 for k in range(n_qubits + 1)]


def excitation_blocks(n_qubits: int) -> list:
    """Product-basis indices with k excitations, ascending, for k = 0..n+1.

    Exchange conserves excitation number and the control is diagonal, so
    H_d + s G is block diagonal over these index sets.
    """
    weight = sum(_occupations(n_qubits))
    return [np.flatnonzero(weight == k) for k in range(n_qubits + 2)]


# ================================================================
# operators
# ================================================================

def build_drift_hamiltonian(params: SystemParams) -> np.ndarray:
    """H_d, the coupler held at omega_tc_max.

    Written from the exchange rule on the bits of each product-basis
    index.  The diagonal sums -1/2 omega sz site by site, qubits first and
    the coupler last, and g_i links each state with qubit i excited and
    the coupler empty to the state with those two swapped.
    """
    bits = _occupations(params.n_qubits)
    diag = np.zeros(params.dim)
    for omega, bit in zip((*params.omega, params.omega_tc_max), bits):
        diag += -0.5 * omega * (1 - 2 * bit)
    h = np.diag(diag)
    for i, g in enumerate(params.g):
        rows = np.flatnonzero(bits[i] & (1 - bits[-1]))
        cols = rows ^ (2 ** (params.n_qubits - i) + 1)
        h[rows, cols] = h[cols, rows] = g
    return h


# ================================================================
# drift spectrum
# ================================================================

@dataclass
class DriftSpectrum:
    """Eigendecomposition with bare-state labels attached.

    eigenvalues     ascending (rad/ns)
    eigenvectors    orthonormal columns, gauge-fixed so each vector's
                    largest-magnitude component is real and positive
    bare_labels     bare label assigned to each eigenvector; a permutation
                    of the product labels, or on a sector its block's
                    labels in column order
    hamiltonian     the matrix decomposed
    control         the control generator G = dH/d delta_omega_tc; set
                    only on a device's spectra (SystemParams.drift_spectrum
                    and its sectors)
    indices         set only on a sector (SystemParams.sectors): its
    columns         block's product-basis indices and the device spectrum's
                    columns of its eigenstates, both ascending
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    bare_labels: list = field(default_factory=list)
    hamiltonian: np.ndarray | None = None
    control: np.ndarray | None = None
    indices: np.ndarray | None = None
    columns: np.ndarray | None = None

    @property
    def dim(self) -> int:
        return self.eigenvectors.shape[0]

    def index_of_label(self, label: str) -> int:
        try:
            return self.bare_labels.index(label)
        except ValueError:
            raise UnknownLabelError(
                f"label {label!r} not present in spectrum"
            ) from None

    def state(self, label: str) -> np.ndarray:
        """Eigenvector assigned to `label` (copy)."""
        return self.eigenvectors[:, self.index_of_label(label)].copy()


def _gauge_fix(vectors: np.ndarray) -> np.ndarray:
    """Rotate each column (of one matrix or a stack) so its largest-|.|
    component is real positive."""
    rows = np.abs(vectors).argmax(axis=-2)[..., None, :]
    pivot = np.take_along_axis(vectors, rows, axis=-2)
    out = vectors * (np.conj(pivot) / np.abs(pivot))
    if np.iscomplexobj(out) and np.abs(out.imag).max() == 0.0:
        out = out.real
    return out


def _assign_labels(vectors: np.ndarray) -> list:
    """Greedy injective bare-label assignment by squared overlap.

    Candidate (basis index, eigenvector) pairs are visited in order of
    decreasing overlap; ties fall to the lowest product-basis index.
    """
    dim = vectors.shape[0]
    n_qubits = int(np.log2(dim)) - 1
    labels = product_labels(n_qubits)
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


def eigendecompose(h: np.ndarray) -> DriftSpectrum:
    """Ascending eigendecomposition with gauge fixing and label assignment.

    h is decomposed in excitation-number order, where it is block diagonal
    with contiguous blocks, so every eigenvector is exactly zero outside
    its block; in product order LAPACK leaves rounding residue there (4e-16
    on a 4-qubit device).
    """
    order = np.concatenate(excitation_blocks(int(np.log2(h.shape[0])) - 1))
    vals, vecs = np.linalg.eigh(h[np.ix_(order, order)])
    vecs = _gauge_fix(vecs[np.argsort(order)])
    return DriftSpectrum(eigenvalues=vals, eigenvectors=vecs,
                         bare_labels=_assign_labels(vecs), hamiltonian=h)


def held_hamiltonians(h: np.ndarray, g: np.ndarray, deltas) -> np.ndarray:
    """h + delta g for each coupler shift, stacked along the shape of deltas."""
    return h + np.asarray(deltas, dtype=float)[..., None, None] * g


# ================================================================
# sweeps
# ================================================================

def sweep_eigenvalues(params: SystemParams, deltas: np.ndarray) -> np.ndarray:
    """Eigenvalues (ascending, rad/ns) at each coupler shift; shape (m, dim)."""
    return np.linalg.eigvalsh(held_hamiltonians(*params.drift_operators, deltas))


def sweep_nonadiabatic_couplings(
    params: SystemParams, deltas: np.ndarray, pairs: list
) -> np.ndarray:
    """Hellmann-Feynman couplings <j| dH/d delta |k> / (eps_j - eps_k).

    Signed, shape (m, len(pairs)); indices j, k address the full ascending
    spectrum at each shift, with eigenvectors gauge-fixed as in
    eigendecompose.  Raises DegenerateLevelsError where a pair is closer
    than 1e-9 rad/ns, where the expression is singular.
    """
    if any(j == k for j, k in pairs):
        raise ValueError("coupling defined only between distinct levels")
    deltas = np.asarray(deltas, dtype=float)
    w, v = np.linalg.eigh(held_hamiltonians(*params.drift_operators, deltas))
    v = _gauge_fix(v)
    j, k = np.array(pairs, dtype=int).reshape(-1, 2).T
    gap = w[:, j] - w[:, k]
    degenerate = np.argwhere(np.abs(gap) < _DEGENERACY_FLOOR)
    if degenerate.size:
        i, c = degenerate[0]
        raise DegenerateLevelsError(
            f"levels {j[c]},{k[c]} degenerate to {gap[i, c]:.3e} rad/ns at "
            f"delta_omega_tc={deltas[i]:.6g}"
        )
    g = np.diag(params.drift_operators[1])
    numerator = np.einsum("mic,i,mic->mc", v[:, :, j].conj(), g, v[:, :, k])
    return numerator.real / gap


def nonadiabatic_coupling(
    params: SystemParams, j: int, k: int, delta_omega_tc: float
) -> float:
    """The coupling d_jk at one coupler shift; see sweep_nonadiabatic_couplings."""
    return float(
        sweep_nonadiabatic_couplings(params, [delta_omega_tc], [(j, k)])[0, 0]
    )


@dataclass(frozen=True)
class GapMinimum:
    """Location of an avoided crossing within the single-excitation sector."""

    delta_omega_tc: float      # rad/ns at the gap minimum
    gap: float                 # rad/ns
    branch_pair: tuple         # indices within the sorted single-exc levels


def single_excitation_gap_minima(params: SystemParams, deltas: np.ndarray) -> list:
    """Interior minima of adjacent single-excitation gaps along a sweep.

    Exchange coupling conserves excitation number, so the single-excitation
    levels are the eigenvalues of that (n+1)-dimensional block, tracked as
    the sorted set; adjacent-gap minima mark the avoided crossings.
    """
    deltas = np.asarray(deltas, dtype=float)
    rows = excitation_blocks(params.n_qubits)[1]
    block = held_hamiltonians(
        *(op[np.ix_(rows, rows)] for op in params.drift_operators), deltas)
    gaps = np.diff(np.linalg.eigvalsh(block), axis=1)
    minima = []
    for pair in range(gaps.shape[1]):
        g = gaps[:, pair]
        i_min = int(np.argmin(g))
        if 0 < i_min < deltas.size - 1:  # interior minimum only
            minima.append(
                GapMinimum(
                    delta_omega_tc=float(deltas[i_min]),
                    gap=float(g[i_min]),
                    branch_pair=(pair, pair + 1),
                )
            )
    minima.sort(key=lambda m: -m.delta_omega_tc)
    return minima
