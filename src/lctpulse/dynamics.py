"""State propagation under piecewise-constant control.

Each sample interval is integrated exactly: the step propagator is
exp(-i h dt) computed through the eigendecomposition of the (real
symmetric) Hamiltonian held on that interval.  No Trotter or ODE error
enters; the only approximation anywhere is the sample-and-hold control.

step_factors and apply_step are the one propagation kernel: the single
steps here, the waveform replay, the endpoint product and the feedback
loop in lct all use them.  Exchange conserves excitation number and the
control is diagonal, so H_d + s G is block diagonal by excitation number:
waveforms are propagated block by block (model.Sector), (n+1)-dimensional
for a single excitation instead of 2^(n+1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DriftSpectrum,
    HermitianOperator,
    Sector,
    SystemParams,
    drift_spectrum,
    eigendecompose,
    held_hamiltonians,
)
from .pulses import Waveform

_NORM_TOL = 1e-10


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


def step_factors(spectrum: Sector | DriftSpectrum, shifts, dt: float) -> tuple:
    """Factors (U, exp(-i w dt)) of exp(-i (H + s G) dt) for held shifts s.

    H and G are the sector's hamiltonian and control generator, and its
    eigenpairs are H's; shifts is a scalar or a 1-d array, and the factors
    stack along it.  A shift of exactly 0.0 holds H itself and reuses the
    eigenpairs (so a bare DriftSpectrum serves for it), which the feedback
    loop caps many samples at; the others come from one batched eigh,
    which gives the same bits as one at a time.
    """
    if np.ndim(shifts) == 0:
        if shifts == 0.0:
            w, u = spectrum.eigenvalues, spectrum.eigenvectors
        else:  # held_hamiltonians' arithmetic, without its broadcasting cost
            w, u = np.linalg.eigh(spectrum.hamiltonian + shifts * spectrum.control)
        return u, np.exp(w * (-1j * dt))
    shifts = np.asarray(shifts, dtype=float)
    held = shifts != 0.0
    w = np.empty(shifts.shape + spectrum.eigenvalues.shape)
    u = np.empty(shifts.shape + spectrum.eigenvectors.shape,
                 dtype=np.result_type(spectrum.eigenvectors, spectrum.hamiltonian))
    w[~held], u[~held] = spectrum.eigenvalues, spectrum.eigenvectors
    if held.any():
        w[held], u[held] = np.linalg.eigh(
            held_hamiltonians(spectrum.hamiltonian, spectrum.control, shifts[held]))
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


def propagate_step(state: QuantumState, h: HermitianOperator, dt: float) -> QuantumState:
    """Exact one-interval step: exp(-i h dt) |state>."""
    if dt <= 0:
        raise ValueError("dt must be positive")
    u, phases = step_factors(eigendecompose(h), 0.0, dt)
    return QuantumState(amplitudes=apply_step(u, phases, state.amplitudes))


def population_derivative_check(
    state: QuantumState, h: HermitianOperator, projector: HermitianOperator
) -> float:
    """Instantaneous d<P>/dt = i <[H, P]>, returned as a real number.

    The commutator expectation is anti-Hermitian so the product with i is
    real; anything beyond a 1e-12 imaginary residue signals a bad input.
    """
    psi = state.amplitudes
    hp = h.matrix @ projector.matrix
    z = 1j * (np.vdot(psi, hp @ psi) - np.vdot(psi, hp.conj().T @ psi))
    if abs(z.imag) > 1e-12 * max(1.0, abs(z.real)):
        raise ValueError("population rate has a non-negligible imaginary part")
    return float(z.real)


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

    def final_population(self, label: str) -> float:
        return float(self.populations[label][-1])

    def time_to_population(self, label: str, level: float) -> float | None:
        """First grid time where the tracked population reaches `level`."""
        pops = self.populations[label]
        hits = np.flatnonzero(pops >= level)
        return float(self.times[hits[0]]) if hits.size else None

    def transfer_duration(self, label: str, lo: float = 0.01, hi: float = 0.99) -> float | None:
        """Time spent between the lo and hi population levels."""
        t_lo = self.time_to_population(label, lo)
        t_hi = self.time_to_population(label, hi)
        if t_lo is None or t_hi is None:
            return None
        return t_hi - t_lo


def _occupied_sectors(params: SystemParams, amplitudes: np.ndarray) -> list:
    """The device's blocks in which the state has a nonzero amplitude."""
    return [sec for sec in params.sectors if np.any(amplitudes[sec.indices])]


def propagate_waveform(
    params: SystemParams,
    psi0: QuantumState,
    wf: Waveform,
    tracked: list,
) -> TrajectoryRecord:
    """Propagate a state under a full control waveform.

    Each block the state occupies is stepped on its own, in sample order,
    with its step factors built in one batched eigendecomposition before
    the (inherently sequential) update loop; the blocks it leaves empty
    stay exactly zero.  Tracked populations refer to drift eigenstates
    resolved by bare label and are computed from the stored amplitudes
    after the loop.
    """
    if psi0.dim != params.dim:
        raise ValueError("state dimension does not match the device")
    spectrum = drift_spectrum(params)
    if tracked:
        track_vecs = np.stack([spectrum.state(lab) for lab in tracked], axis=1)
    else:
        track_vecs = np.empty((params.dim, 0))

    n = wf.n
    final = np.zeros(params.dim, dtype=complex)
    overlaps = np.zeros((n + 1, len(tracked)), dtype=complex)
    for sector in _occupied_sectors(params, psi0.amplitudes):
        u, phases = step_factors(sector, wf.samples, wf.dt)
        psi = psi0.amplitudes[sector.indices]
        history = np.empty((n + 1, psi.size), dtype=complex)
        history[0] = psi
        for k in range(n):
            psi = apply_step(u[k], phases[k], psi)
            history[k + 1] = psi
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


def propagate_endpoint(params: SystemParams, psi0: QuantumState, wf: Waveform) -> QuantumState:
    """The state at the end of wf, for callers that read nothing else.

    Per occupied block, the step unitaries U_k = V_k diag(exp(-i w_k dt))
    V_k^H come from one batched eigh and are multiplied as a pairwise tree,
    so the replay is log2(n) batched products instead of n sequential
    steps.  It agrees with propagate_waveform to rounding, not bit for bit.
    """
    if psi0.dim != params.dim:
        raise ValueError("state dimension does not match the device")
    final = np.zeros(params.dim, dtype=complex)
    for sector in _occupied_sectors(params, psi0.amplitudes):
        u, phases = step_factors(sector, wf.samples, wf.dt)
        steps = (u * phases[:, None, :]) @ u.conj().swapaxes(-1, -2)
        final[sector.indices] = _ordered_product(steps) @ psi0.amplitudes[sector.indices]
    return QuantumState(amplitudes=final)
