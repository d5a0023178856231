"""State propagation under piecewise-constant control.

Each sample interval is integrated exactly: the step propagator is
exp(-i h dt) computed through the eigendecomposition of the (real
symmetric) Hamiltonian held on that interval.  No Trotter or ODE error
enters; the only approximation anywhere is the sample-and-hold control.

step_factors and apply_step are the one propagation kernel: the single
steps here, the waveform replay and the feedback loop in lct all use them.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    DriftSpectrum,
    HermitianOperator,
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


def step_factors(spectrum: DriftSpectrum, shifts, dt: float) -> tuple:
    """Factors (U, exp(-i w dt)) of exp(-i (H + s G) dt) for held shifts s.

    H and G are the spectrum's hamiltonian and control generator; shifts is
    a scalar or an array, and the factors stack along its shape, from one
    batched eigh.  A single shift of exactly 0.0 holds H itself and reuses
    the spectrum's eigenpairs: the feedback loop caps many samples there.
    """
    if np.ndim(shifts) == 0 and shifts == 0.0:
        w, u = spectrum.eigenvalues, spectrum.eigenvectors
    else:
        w, u = np.linalg.eigh(
            held_hamiltonians(spectrum.hamiltonian, spectrum.control, shifts))
    return u, np.exp(-1j * w * dt)


def apply_step(u: np.ndarray, phases: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """One held step, U diag(phases) U^H psi, from step_factors' factors."""
    return u @ (phases * (u.conj().T @ psi))


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


def propagate_waveform(
    params: SystemParams,
    psi0: QuantumState,
    wf: Waveform,
    tracked: list,
) -> TrajectoryRecord:
    """Propagate a state under a full control waveform.

    Step propagators depend only on the sample value, so they are built in
    one batched eigendecomposition before the (inherently sequential) state
    update loop.  Tracked populations refer to drift eigenstates resolved
    by bare label.
    """
    if psi0.dim != params.dim:
        raise ValueError("state dimension does not match the device")
    spectrum = drift_spectrum(params)
    if tracked:
        track_vecs = np.stack([spectrum.state(lab) for lab in tracked], axis=1)
    else:
        track_vecs = np.empty((params.dim, 0))
    track_rows = track_vecs.conj().T

    u, phases = step_factors(spectrum, wf.samples, wf.dt)

    n = wf.n
    pops = np.empty((n + 1, len(tracked)))
    psi = psi0.amplitudes.copy()
    pops[0] = np.abs(track_rows @ psi) ** 2
    for k in range(n):
        psi = apply_step(u[k], phases[k], psi)
        pops[k + 1] = np.abs(track_rows @ psi) ** 2

    return TrajectoryRecord(
        times=np.arange(n + 1) * wf.dt,
        control=wf.samples.copy(),
        populations={lab: pops[:, i] for i, lab in enumerate(tracked)},
        final_state=QuantumState(amplitudes=psi),
    )
