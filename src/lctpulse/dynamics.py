"""State propagation under piecewise-constant control.

Each sample interval is integrated exactly: the step propagator is
exp(-i h dt) computed through the eigendecomposition of the (real
symmetric) Hamiltonian held on that interval.  No Trotter or ODE error
enters; the only approximation anywhere is the sample-and-hold control.

Exchange conserves excitation number and the control is diagonal, so
H_d + s G is block diagonal by excitation number and a state never
leaves its block.  A state is therefore a sector (SystemParams.sector_of,
the drift spectrum of one block, built and diagonalised on its own) and a
plain array of that block's amplitudes: (n+1)-dimensional for a single
excitation instead of 2^(n+1).

step_factors and apply_step are the one propagation kernel.  One chunk
stepper drives them for the sequential replay (propagate_waveform) and
the first-crossing scan; the block unitary (propagator) and the feedback
loop in lct use them directly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import DriftSpectrum, held_hamiltonians
from .pulses import Waveform

# Replays build step factors CHUNK samples at a time, so their scratch
# memory does not grow with the pulse.  It must be a power of two: the
# pairwise tree of _ordered_product over a whole stack holds, at level
# log2(CHUNK), exactly the products of its CHUNK-sample chunks (the last
# one possibly short), so folding the chunk products in a second tree
# gives the whole stack's product bit for bit.
CHUNK = 4096


def step_factors(spectrum: DriftSpectrum, shifts, dt: float) -> tuple:
    """Factors (U, exp(-i w dt)) of exp(-i (H + s G) dt) for held shifts s.

    H and G are the spectrum's hamiltonian and control generator, and its
    eigenpairs are H's; shifts is a scalar or a 1-d array, and the factors
    stack along it.  A scalar shift of exactly 0.0 holds H itself and
    reuses the eigenpairs, which the feedback loop caps many samples at.
    A stack goes to one batched eigh whole, which gives each member the
    same bits as one at a time.  A member of exactly 0.0 gets H's own
    eigh, whose vectors differ from the stored, gauge-fixed ones only in
    the signs of columns; a column's sign cancels exactly in
    U diag(phases) U^H, so its steps match the scalar path's bit for bit.
    """
    if np.ndim(shifts):
        w, u = np.linalg.eigh(held_hamiltonians(spectrum.hamiltonian, spectrum.control, shifts))
    elif shifts == 0.0:
        w, u = spectrum.eigenvalues, spectrum.eigenvectors
    else:  # held_hamiltonians' arithmetic, without its broadcasting cost
        w, u = np.linalg.eigh(spectrum.hamiltonian + shifts * spectrum.control)
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
# replays
# ----------------------------------------------------------------

def _step_chunks(sector: DriftSpectrum, psi: np.ndarray, wf: Waveform):
    """Step the block amplitudes psi through wf, CHUNK samples at a time.

    Each chunk's step factors come from one batched eigendecomposition,
    built only when the chunk is reached and ahead of the (inherently
    sequential) update loop over them.  Yields (start, states) per chunk:
    states[i] holds the amplitudes at grid time start + i, the last row
    being the next chunk's first, in a buffer the next chunk overwrites.
    """
    states = np.empty((min(CHUNK, wf.n) + 1, len(psi)), dtype=complex)
    states[0] = psi
    for start in range(0, wf.n, CHUNK):
        u, phases = step_factors(sector, wf.samples[start:start + CHUNK], wf.dt)
        for k in range(len(u)):
            states[k + 1] = apply_step(u[k], phases[k], states[k])
        yield start, states[:len(u) + 1]
        states[0] = states[len(u)]


@dataclass
class TrajectoryRecord:
    """Sampled history of one propagation.

    times has n+1 entries (state grid); control has n entries (one per hold
    interval); populations maps each tracked bare label to the squared
    overlap with the corresponding drift eigenstate on the state grid;
    final_state is the block amplitudes at the last grid time.
    """

    times: np.ndarray
    control: np.ndarray
    populations: dict
    final_state: np.ndarray


def propagate_waveform(
    sector: DriftSpectrum,
    psi: np.ndarray,
    wf: Waveform,
    tracked: list,
) -> TrajectoryRecord:
    """Propagate the block amplitudes psi of a sector under a full waveform.

    Tracked populations refer to the sector's drift eigenstates, resolved
    by bare label, and are computed from the stored amplitudes after the
    loop.
    """
    track_vecs = sector.eigenvectors[:, [sector.index_of_label(lab) for lab in tracked]]
    history = np.empty((wf.n + 1, len(psi)), dtype=complex)
    for start, states in _step_chunks(sector, psi, wf):
        history[start:start + len(states)] = states
    pops = np.abs(history @ track_vecs.conj()) ** 2
    return TrajectoryRecord(
        times=np.arange(wf.n + 1) * wf.dt,
        control=wf.samples.copy(),
        populations={lab: pops[:, i] for i, lab in enumerate(tracked)},
        final_state=history[-1].copy(),
    )


def first_crossing(sector: DriftSpectrum, psi: np.ndarray, wf: Waveform,
                   label: str, level: float) -> float | None:
    """First grid time at which the population of the sector's eigenstate
    `label` reaches level, psi stepped through wf; None if it never does.

    The scan keeps no history and stops at the chunk holding the
    crossing.  It steps through propagate_waveform's states and reads
    the same times.
    """
    v = sector.eigenvectors[:, [sector.index_of_label(label)]].conj()
    for start, states in _step_chunks(sector, psi, wf):
        hits = np.flatnonzero(np.abs(states @ v) ** 2 >= level)
        if hits.size:
            return float((start + hits[0]) * wf.dt)
    return None


def _ordered_product(mats: np.ndarray) -> np.ndarray:
    """mats[-1] @ ... @ mats[1] @ mats[0], multiplied pairwise in log2 depth."""
    while len(mats) > 1:
        even = len(mats) - len(mats) % 2
        mats = np.concatenate([mats[1:even:2] @ mats[0:even:2], mats[even:]])
    return mats[0]


def propagator(sector: DriftSpectrum, wf: Waveform) -> np.ndarray:
    """The sector's block unitary over wf, for callers that read only
    final amplitudes: multiply it by each state.

    The step unitaries U_k = V_k diag(exp(-i w_k dt)) V_k^H come from one
    batched eigh per CHUNK samples and are multiplied as a pairwise tree,
    so the replay is log2(n) batched products instead of n sequential
    steps.  It agrees with propagate_waveform to rounding, not bit for bit.
    """
    chunks = []
    for start in range(0, wf.n, CHUNK):
        u, phases = step_factors(sector, wf.samples[start:start + CHUNK], wf.dt)
        chunks.append(_ordered_product((u * phases[:, None, :]) @ u.conj().swapaxes(-1, -2)))
    return _ordered_product(np.stack(chunks))
