"""State propagation under piecewise-constant control.

Each sample interval is integrated exactly: the step propagator is
exp(-i h dt) computed through the eigendecomposition of the (real
symmetric) Hamiltonian held on that interval.  No Trotter or ODE error
enters; the only approximation anywhere is the sample-and-hold control.

step_factors and apply_step are the one propagation kernel: the waveform
replay, the endpoint product and the feedback loop in lct all use them.
Exchange conserves excitation number and the control is diagonal, so
H_d + s G is block diagonal by excitation number: waveforms are
propagated block by block (SystemParams.sectors, the drift spectrum on
each block), (n+1)-dimensional for a single excitation instead of
2^(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DriftSpectrum, SystemParams, held_hamiltonians
from .pulses import Waveform

_NORM_TOL = 1e-10

# Replays build step factors CHUNK samples at a time, so their scratch
# memory does not grow with the pulse.  It must be a power of two: the
# pairwise tree of _ordered_product over a whole stack holds, at level
# log2(CHUNK), exactly the products of its CHUNK-sample chunks (the last
# one possibly short), so folding the chunk products in a second tree
# gives the whole stack's product bit for bit.
CHUNK = 4096


@dataclass
class QuantumState:
    """Normalized state vector in the product basis."""

    amplitudes: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.amplitudes, dtype=complex)
        if a.ndim != 1:
            raise ValueError("state must be a vector")
        norm = np.linalg.norm(a)
        if abs(norm - 1.0) > _NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1")
        object.__setattr__(self, "amplitudes", a)

    @property
    def dim(self) -> int:
        return self.amplitudes.size


def step_factors(spectrum: DriftSpectrum, shifts, dt: float) -> tuple:
    """Factors (U, exp(-i w dt)) of exp(-i (H + s G) dt) for held shifts s.

    H and G are the spectrum's hamiltonian and control generator, and its
    eigenpairs are H's; shifts is a scalar or a 1-d array, and the factors
    stack along it.  A scalar shift of exactly 0.0 holds H itself and
    reuses the eigenpairs, which the feedback loop caps many samples at.
    A stack goes to one batched eigh whole, which gives each member the
    same bits as one at a time; its members of exactly 0.0 are then
    overwritten with the eigenpairs, so they match the scalar path.
    """
    if np.ndim(shifts) == 0:
        if shifts == 0.0:
            w, u = spectrum.eigenvalues, spectrum.eigenvectors
        else:  # held_hamiltonians' arithmetic, without its broadcasting cost
            w, u = np.linalg.eigh(spectrum.hamiltonian + shifts * spectrum.control)
        return u, np.exp(w * (-1j * dt))
    shifts = np.asarray(shifts, dtype=float)
    w, u = np.linalg.eigh(held_hamiltonians(spectrum.hamiltonian, spectrum.control, shifts))
    zero = shifts == 0.0
    if zero.any():
        w[zero], u[zero] = spectrum.eigenvalues, spectrum.eigenvectors
    return u, np.exp(w * (-1j * dt))


def apply_step(u: np.ndarray, phases: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One held step, U diag(phases) U^H psi, from step_factors' factors.

    psi is one state (d,) or a matrix of state columns (d, m).  For a
    stack of factors, (B, d, d) and (B, d), it is a stack of such
    matrices (..., B, d, m), each member's columns stepped by its own
    factors; a single column (m = 1) goes through the same matrix-vector
    products as a lone state, bit for bit.
    """
    rotated = u.conj().swapaxes(-1, -2) @ psi
    if psi.ndim >= u.ndim:  # state columns share their member's phases
        phases = phases[..., None]
    return u @ (phases * rotated)


# ----------------------------------------------------------------
# trajectories
# ----------------------------------------------------------------

@dataclass
class TrajectoryRecord:
    """Sampled history of one propagation.

    times has n+1 entries (state grid); control has n entries (one per hold
    interval); populations maps each tracked bare label to the squared
    overlap with the corresponding drift eigenstate on the state grid.
    """

    times: np.ndarray
    control: np.ndarray
    populations: dict
    final_state: QuantumState

    def time_to_population(self, label: str, level: float) -> float | None:
        """First grid time where the tracked population reaches `level`."""
        pops = self.populations[label]
        hits = np.flatnonzero(pops >= level)
        return float(self.times[hits[0]]) if hits.size else None


def propagate_waveform(
    params: SystemParams,
    psi0: QuantumState,
    wf: Waveform,
    tracked: list,
) -> TrajectoryRecord:
    """Propagate a state under a full control waveform.

    Each block the state occupies is stepped on its own, in sample order,
    with its step factors built by one batched eigendecomposition per
    CHUNK samples ahead of the (inherently sequential) update loop over
    them; the blocks it leaves empty stay exactly zero.  Tracked
    populations refer to drift eigenstates resolved by bare label and are
    computed from the stored amplitudes after the loop.
    """
    if psi0.dim != params.dim:
        raise ValueError("state dimension does not match the device")
    spectrum = params.drift_spectrum
    track_vecs = spectrum.eigenvectors[:, [spectrum.index_of_label(lab) for lab in tracked]]

    n = wf.n
    final = np.zeros(params.dim, dtype=complex)
    overlaps = np.zeros((n + 1, len(tracked)), dtype=complex)
    for sector in params.sectors:
        psi = psi0.amplitudes[sector.indices]
        if not np.any(psi):
            continue
        history = np.empty((n + 1, psi.size), dtype=complex)
        history[0] = psi
        for start in range(0, n, CHUNK):
            u, phases = step_factors(sector, wf.samples[start:start + CHUNK], wf.dt)
            for k in range(len(u)):
                psi = apply_step(u[k], phases[k], psi)
                history[start + k + 1] = psi
        final[sector.indices] = psi
        overlaps += history @ track_vecs[sector.indices].conj()
    pops = np.abs(overlaps) ** 2

    return TrajectoryRecord(
        times=np.arange(n + 1) * wf.dt,
        control=wf.samples.copy(),
        populations={lab: pops[:, i] for i, lab in enumerate(tracked)},
        final_state=QuantumState(amplitudes=final),
    )


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[1] @ mats[0], multiplied pairwise in log2 depth."""
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


def propagate_endpoints(params: SystemParams, states: list, wf: Waveform) -> list:
    """The states at the end of wf, for callers that read nothing else.

    Per occupied block, the step unitaries U_k = V_k diag(exp(-i w_k dt))
    V_k^H come from one batched eigh per CHUNK samples and are multiplied
    as a pairwise tree, so the replay is log2(n) batched products instead
    of n sequential steps.  It agrees with propagate_waveform to rounding,
    not bit for bit.  Each block's product is built once for all the
    states that occupy it, and each result is bit for bit the one of a
    lone call.
    """
    if any(psi0.dim != params.dim for psi0 in states):
        raise ValueError("state dimension does not match the device")
    finals = [np.zeros(params.dim, dtype=complex) for _ in states]
    for sector in params.sectors:
        occupied = [k for k, psi0 in enumerate(states)
                    if np.any(psi0.amplitudes[sector.indices])]
        if not occupied:
            continue
        chunks = []
        for start in range(0, wf.n, CHUNK):
            u, phases = step_factors(sector, wf.samples[start:start + CHUNK], wf.dt)
            chunks.append(_ordered_product((u * phases[:, None, :]) @ u.conj().swapaxes(-1, -2)))
        product = _ordered_product(np.stack(chunks))
        for k in occupied:
            finals[k][sector.indices] = product @ states[k].amplitudes[sector.indices]
    return [QuantumState(amplitudes=final) for final in finals]
