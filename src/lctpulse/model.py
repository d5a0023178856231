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

Exchange conserves excitation number and the control is diagonal, so
the device is built block by block: block k, the C(n+1, k) bare labels
with k excitations, is written from the exchange rule on its labels and
diagonalised alone.  No 2^(n+1)-dimensional matrix is built on the way.

All frequencies in this module are angular (rad/ns).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .errors import DegenerateLevelsError, UnknownLabelError
from .units import TWO_PI

# Ceiling on the product-basis dimension 2^(n+1).  No matrix of that size
# is built, but four paths still scale with it: spectrum writes all 2^(n+1)
# levels, io's trajectory writer a population column per bare label, lct's
# n_prime decomposes every block to rank its levels, and excitation_labels
# walks product_labels.  The cap guards them against an outsized device.
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
    # The sectors built so far, by excitation number; see sector().
    _sectors: dict = field(default_factory=dict, init=False, repr=False, compare=False)

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
            raise ValueError(f"dimension {self.dim} exceeds the cap {DIM_CAP}")

    @property
    def dim(self) -> int:
        return 2 ** (self.n_qubits + 1)

    def sector(self, k: int) -> DriftSpectrum:
        """The drift spectrum on the block of k excitations, with its H_d
        and G: built and diagonalised alone on first use, then shared
        read-only (the instance is frozen; a CLI run makes a fresh one)."""
        if k not in self._sectors:
            labels = excitation_labels(self.n_qubits, k)
            self._sectors[k] = eigendecompose(*block_operators(self, labels), labels)
        return self._sectors[k]

    def sector_of(self, label: str) -> DriftSpectrum:
        """The sector holding bare label `label`; UnknownLabelError unless
        the label is n+1 characters of 0 and 1."""
        if len(label) != self.n_qubits + 1 or set(label) - {"0", "1"}:
            raise UnknownLabelError(f"label {label!r} is not a bare label of "
                                    f"{self.n_qubits} qubits and the coupler")
        return self.sector(label.count("1"))

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
    """All bare labels 'q_1...q_n q_TC' in product-basis (binary) order;
    a label's product-basis index is int(label, 2)."""
    return ["".join(bits) for bits in product("01", repeat=n_qubits + 1)]


def excitation_labels(n_qubits: int, k: int) -> list:
    """The bare labels with k excitations, in product-basis order: the
    states of block k."""
    return [lab for lab in product_labels(n_qubits) if lab.count("1") == k]


def _occupations(n_qubits: int, index: np.ndarray) -> list:
    """Per site (qubits in order, the TC last), the bit each product-basis
    index holds for it: 1 when the site is excited."""
    return [(index >> (n_qubits - k)) & 1 for k in range(n_qubits + 1)]


# ================================================================
# operators
# ================================================================

def block_operators(params: SystemParams, labels: list) -> tuple:
    """(H_d, G) on the bare states `labels`, given in product-basis order:
    one excitation block, or every label for the dense H_d.

    Written from the exchange rule on the bits of each label's
    product-basis index, int(label, 2).  The diagonal sums -1/2 omega sz
    site by site, qubits first and the coupler last, and g_i links each
    state with qubit i excited and the coupler empty to the state with
    those two swapped.  G = -1/2 sz_TC is diagonal.
    """
    index = np.array([int(lab, 2) for lab in labels])
    bits = _occupations(params.n_qubits, index)
    diag = np.zeros(index.size)
    for omega, bit in zip((*params.omega, params.omega_tc_max), bits):
        diag += -0.5 * omega * (1 - 2 * bit)
    h = np.diag(diag)
    for i, g in enumerate(params.g):
        rows = np.flatnonzero(bits[i] & (1 - bits[-1]))
        cols = np.searchsorted(index, index[rows] ^ (2 ** (params.n_qubits - i) + 1))
        h[rows, cols] = h[cols, rows] = g
    return h, np.diag(-0.5 * (1 - 2 * bits[-1]))


def build_drift_hamiltonian(params: SystemParams) -> np.ndarray:
    """H_d on the whole product basis, 2^(n+1)-dimensional.  The program
    builds one block at a time instead; this is the dense reference."""
    return block_operators(params, product_labels(params.n_qubits))[0]


# ================================================================
# drift spectrum
# ================================================================

@dataclass
class DriftSpectrum:
    """Eigendecomposition of one excitation block, with bare-state labels
    attached.

    eigenvalues     ascending (rad/ns)
    eigenvectors    orthonormal columns over the block's bare states in
                    product-basis order, gauge-fixed so each vector's
                    largest-magnitude component is real and positive
    bare_labels     bare label assigned to each eigenvector; a permutation
                    of the block's labels
    hamiltonian     the matrix decomposed
    control         the control generator G = dH/d delta_omega_tc on the
                    same states
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    bare_labels: list
    hamiltonian: np.ndarray
    control: np.ndarray

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
    """Flip the sign of each real column (of one matrix or a stack) so its
    largest-|.| component is positive."""
    rows = np.abs(vectors).argmax(axis=-2)[..., None, :]
    return vectors * np.sign(np.take_along_axis(vectors, rows, axis=-2))


def _assign_labels(vectors: np.ndarray, labels: list) -> list:
    """Greedy injective assignment of the basis labels to the eigenvectors
    by squared overlap.

    Candidate (basis index, eigenvector) pairs are visited in order of
    decreasing overlap; ties fall to the lowest basis index.
    """
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


def eigendecompose(h: np.ndarray, g: np.ndarray, labels: list) -> DriftSpectrum:
    """The spectrum of the real symmetric drift h under control g, whose
    basis states are the bare `labels`: h's ascending eigendecomposition,
    gauge-fixed and labelled.  Its arrays are read-only, so that every
    run can share it."""
    vals, vecs = np.linalg.eigh(h)
    vecs = _gauge_fix(vecs)
    for a in (h, g, vals, vecs):
        a.setflags(write=False)
    return DriftSpectrum(eigenvalues=vals, eigenvectors=vecs,
                         bare_labels=_assign_labels(vecs, labels), hamiltonian=h, control=g)


def held_hamiltonians(h: np.ndarray, g: np.ndarray, deltas) -> np.ndarray:
    """h + delta g for each coupler shift, stacked along the shape of deltas."""
    return h + np.asarray(deltas, dtype=float)[..., None, None] * g


# ================================================================
# sweeps
# ================================================================

@dataclass(frozen=True)
class SpectrumSweep:
    """Each excitation block decomposed once at every coupler shift in
    deltas (rad/ns, shape (m,)): per block, its ascending eigenvalues
    (m, b), its eigenvectors (m, b, b) gauge-fixed as in eigendecompose
    and its diag G (b,).  levels merges the blocks' eigenvalues ascending,
    (m, dim); order[m, i] is the column of levels[m, i] among the blocks'
    eigenvalues placed side by side, block 0 first."""

    deltas: np.ndarray
    eigenvalues: list
    eigenvectors: list
    controls: list
    levels: np.ndarray
    order: np.ndarray


def sweep_eigenvalues(params: SystemParams, deltas) -> SpectrumSweep:
    """The drift spectrum at each coupler shift: one stacked eigh of
    H_d + delta G per block, each block read from params.sector(k)."""
    deltas = np.asarray(deltas, dtype=float)
    sectors = [params.sector(k) for k in range(params.n_qubits + 2)]
    w, v = zip(*(np.linalg.eigh(held_hamiltonians(s.hamiltonian, s.control, deltas))
                 for s in sectors))
    merged = np.concatenate(w, axis=1)
    order = np.argsort(merged, axis=1, kind="stable")
    return SpectrumSweep(deltas, list(w), [_gauge_fix(vecs) for vecs in v],
                         [np.diag(s.control) for s in sectors],
                         np.take_along_axis(merged, order, axis=1), order)


def sweep_nonadiabatic_couplings(sweep: SpectrumSweep, pairs: list) -> np.ndarray:
    """Hellmann-Feynman couplings <j| dH/d delta |k> / (eps_j - eps_k).

    Signed, shape (m, len(pairs)); indices j, k address sweep.levels at each
    shift.  Levels of different blocks couple exactly 0, even where they
    cross.  Raises DegenerateLevelsError where a pair of one block is closer
    than 1e-9 rad/ns, where the expression is singular.
    """
    if any(j == k for j, k in pairs):
        raise ValueError("coupling defined only between distinct levels")
    # Merged column c is column c - start[b] of block b = block[c].
    sizes = [g.size for g in sweep.controls]
    block, start = np.repeat(np.arange(len(sizes)), sizes), np.cumsum([0, *sizes])

    j, k = np.array(pairs, dtype=int).reshape(-1, 2).T
    gap = sweep.levels[:, j] - sweep.levels[:, k]
    cj, ck = sweep.order[:, j], sweep.order[:, k]
    same = block[cj] == block[ck]
    degenerate = np.argwhere(same & (np.abs(gap) < _DEGENERACY_FLOOR))
    if degenerate.size:
        i, c = degenerate[0]
        raise DegenerateLevelsError(
            f"levels {j[c]},{k[c]} degenerate to {gap[i, c]:.3e} rad/ns at "
            f"delta_omega_tc={sweep.deltas[i]:.6g}"
        )
    numerator = np.zeros(gap.shape)
    for b, (vecs, g) in enumerate(zip(sweep.eigenvectors, sweep.controls)):
        m, c = np.nonzero(same & (block[cj] == b))
        vj, vk = vecs[m, :, cj[m, c] - start[b]], vecs[m, :, ck[m, c] - start[b]]
        numerator[m, c] = np.einsum("ri,i,ri->r", vj.conj(), g, vk).real
    # A cross-block pair is the signed 0 that 0 / gap gives, without 0 / 0.
    return np.divide(numerator, gap, out=np.copysign(numerator, gap), where=same)


def nonadiabatic_coupling(
    params: SystemParams, j: int, k: int, delta_omega_tc: float
) -> float:
    """The coupling d_jk at one coupler shift; see sweep_nonadiabatic_couplings."""
    sweep = sweep_eigenvalues(params, [delta_omega_tc])
    return float(sweep_nonadiabatic_couplings(sweep, [(j, k)])[0, 0])


@dataclass(frozen=True)
class GapMinimum:
    """Location of an avoided crossing within the single-excitation sector."""

    delta_omega_tc: float      # rad/ns at the gap minimum
    gap: float                 # rad/ns
    branch_pair: tuple         # indices within the sorted single-exc levels


def single_excitation_gap_minima(sweep: SpectrumSweep) -> list:
    """Interior minima of adjacent single-excitation gaps along a sweep.

    Exchange coupling conserves excitation number, so the single-excitation
    levels are the sweep's ascending eigenvalues of block 1, which is
    (n+1)-dimensional; adjacent-gap minima mark the avoided crossings.
    """
    gaps = np.diff(sweep.eigenvalues[1], axis=1)
    minima = []
    for pair in range(gaps.shape[1]):
        g = gaps[:, pair]
        i_min = int(np.argmin(g))
        if 0 < i_min < sweep.deltas.size - 1:  # interior minimum only
            minima.append(
                GapMinimum(
                    delta_omega_tc=float(sweep.deltas[i_min]),
                    gap=float(g[i_min]),
                    branch_pair=(pair, pair + 1),
                )
            )
    minima.sort(key=lambda m: -m.delta_omega_tc)
    return minima
