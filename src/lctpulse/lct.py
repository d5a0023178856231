"""Local control: on-the-fly feedback shaping of the coupler shift.

The target population P_j = |<psi_j|Psi>|^2 (psi_j a drift eigenstate)
changes only through the control term, at the exact rate

    dP_j/dt = delta_omega_tc * Im(<Psi|sz_TC|psi_j><psi_j|Psi>).

Choosing the shift proportional to that same imaginary part makes the rate
a perfect square, so the transfer is monotone by construction:

    delta_omega_raw = -lambda * Im( sum_k <psi_j|sz_TC|psi_k>
                                          <psi_k|Psi><psi_j|Psi>* )

where the sum runs over the n_prime lowest drift eigenstates (all of them
unless a projection is requested; then the law is approximate but cheap
for large systems).  The raw value is clamped to (-omega_tc_max + floor, 0]
because the coupler can only tune down from its sweet spot.

The loop is explicit and causal: the feedback computed from the state at
the end of step k is the sample applied on step k+1.  The first sample is
therefore 0, and with the standard seeding (a sqrt(eta) target admixture,
all amplitudes real at t=0) the law would start from 0 regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CHUNK, QuantumState, TrajectoryRecord, apply_step, step_factors
from .errors import ConfigError
from .model import DriftSpectrum, SystemParams, product_labels
from .pulses import Waveform, clamp_floor


@dataclass(frozen=True)
class LctConfig:
    """One local-control run.

    lambda_         feedback gain for a bare run (no reference)
    eta             seeding weight for the target admixture at t=0
    dt              sample period (ns)
    t_max           run length (ns)
    initial_label   bare label of the starting drift eigenstate
    target_label    bare label of the drift eigenstate to populate
    n_prime         number of low-lying eigenstates kept in the feedback
                    sum (None = all, the exact law)
    reference       optional fixed waveform added under the feedback; the
                    run then shapes only the correction term
    lambda2         feedback gain for the correction term; required when a
                    reference is present and rejected without one
    """

    lambda_: float
    eta: float
    dt: float
    t_max: float
    initial_label: str
    target_label: str
    n_prime: int | None = None
    reference: Waveform | None = None
    lambda2: float | None = None

    def __post_init__(self):
        if self.lambda_ < 0:
            raise ConfigError("lambda must be non-negative")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError("eta must be in [0, 1)")
        if self.dt <= 0 or self.t_max <= 0:
            raise ConfigError("dt and t_max must be positive")
        if self.t_max < self.dt:
            raise ConfigError("t_max shorter than one sample")
        if self.reference is not None and self.lambda2 is None:
            raise ConfigError("lambda2 is required when a reference is given")
        if self.reference is None and self.lambda2 is not None:
            raise ConfigError("lambda2 without a reference would be ignored: "
                              "the run uses lambda")
        if self.lambda2 is not None and self.lambda2 < 0:
            raise ConfigError("lambda2 must be non-negative")
        if self.initial_label == self.target_label:
            raise ConfigError(f"initial and target are both {self.initial_label}: "
                              "nothing to transfer")
        if self.initial_label.count("1") != self.target_label.count("1"):
            raise ConfigError(
                f"{self.initial_label} and {self.target_label} differ in excitation "
                "number, which exchange conserves: no pulse transfers between them")


@dataclass
class LctResult:
    """Output of run_lct.

    waveform is the applied (total) pulse; clamp_saturation is the
    fraction of steps whose sample sat at the clamp floor.
    """

    waveform: Waveform
    trajectory: TrajectoryRecord
    final_error: float
    clamp_saturation: float

    @property
    def clamp_saturated(self) -> bool:
        """A gain so large that more than half of the steps sat at the floor."""
        return self.clamp_saturation > 0.5


def seed_state(psi0: QuantumState, target: QuantumState, eta: float) -> QuantumState:
    """Mix a small target amplitude into the initial state.

    |Psi'> = sqrt(eta) |target> + sqrt(1 - eta) |psi0>, renormalized.  The
    feedback law is blind to a target population of exactly zero; eta > 0
    breaks that fixed point.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must be in [0, 1)")
    mixed = np.sqrt(eta) * target.amplitudes + np.sqrt(1.0 - eta) * psi0.amplitudes
    norm = np.linalg.norm(mixed)
    if norm == 0.0:
        raise ValueError("seeding produced the zero vector")
    return QuantumState(amplitudes=mixed / norm)


def _feedback_row(spectrum: DriftSpectrum, j: int, n_prime: int | None) -> np.ndarray:
    """<psi_j| sz_TC |psi_k> for every drift eigenstate k, zero from k = n_prime on.

    n_prime None keeps them all (the exact law); sz_TC = -2 G, from the
    spectrum's diagonal control generator.
    """
    n_keep = spectrum.dim if n_prime is None else n_prime
    if not 0 < n_keep <= spectrum.dim:
        raise ConfigError("n_prime must be in (0, dim]")
    if not 0 <= j < n_keep:
        raise ConfigError("target eigenstate lies outside the projected set")
    v = spectrum.eigenvectors
    row = (v[:, j].conj() * (-2.0 * np.diag(spectrum.control))) @ v
    row[n_keep:] = 0.0
    return row


def _raw_feedback(m_row: np.ndarray, c: np.ndarray, j: int, gain):
    """Unclamped law from the state's drift-basis amplitudes c.

    c is one state (d,), or a stack of state columns (B, d, m) with one
    gain per member (B, 1), giving (B, m) values; every column is read
    with the same dot product as a single state.  Im(<m|c> c_j*) is
    spelled out in real products because numpy's complex product of
    arrays may fuse them into multiply-adds, which would round a stack
    differently from one state.
    """
    mc = np.dot(m_row, c)
    cj = c[j] if c.ndim == 1 else c[..., j, :]
    return -gain * (mc.imag * cj.real - mc.real * cj.imag)


def _loop(params: SystemParams, config: LctConfig) -> tuple:
    """What a feedback loop takes from the device and its config.

    The loop runs in the excitation block of the two labels.  Returns the
    block's sector, the feedback row on it, the block columns of the
    target and initial eigenstates, the step count and the seeded initial
    state's block amplitudes.
    """
    spectrum = params.drift_spectrum
    j = spectrum.index_of_label(config.target_label)
    i0 = spectrum.index_of_label(config.initial_label)
    sector = params.sectors[config.target_label.count("1")]
    # The full law is the projected law at n_prime = dim, same arithmetic,
    # so the two are identical sample for sample.
    m_row = _feedback_row(spectrum, j, config.n_prime)[sector.columns]

    n_steps = int(round(config.t_max / config.dt))
    if abs(n_steps * config.dt - config.t_max) > 1e-9 * config.t_max:
        raise ConfigError("t_max must be an integer number of samples")

    psi0 = QuantumState(amplitudes=spectrum.eigenvectors[:, i0])
    psi = seed_state(psi0, QuantumState(amplitudes=spectrum.eigenvectors[:, j]),
                     config.eta).amplitudes[sector.indices]
    return (sector, m_row, sector.index_of_label(config.target_label),
            sector.index_of_label(config.initial_label), n_steps, psi)


def _reference(config: LctConfig, n_steps: int) -> np.ndarray:
    """The run's reference samples, zero without one."""
    reference = np.zeros(n_steps)
    if config.reference is not None:
        ref = config.reference
        if abs(ref.dt - config.dt) > 1e-12:
            raise ConfigError("reference sample period differs from the run dt")
        m = min(ref.n, n_steps)
        reference[:m] = ref.samples[:m]
    return reference


def _gain(config: LctConfig) -> float:
    return config.lambda_ if config.reference is None else config.lambda2


def run_lct(params: SystemParams, config: LctConfig) -> LctResult:
    """Shape a coupler-shift pulse by local-control feedback.

    Returns the applied waveform (reference plus shaped term, jointly
    clamped), the trajectory over the run with every bare label's
    population, the final target-population error and the fraction of
    steps held at the clamp floor.  The loop runs in the excitation block
    of the two labels (validated equal by LctConfig), CHUNK steps at a
    time: it buffers their drift-basis amplitudes and squares them into
    one (block dim, n+1) array, whose rows are the block labels'
    populations; every label outside the block reads one shared read-only
    array of zeros.  Waveform and control share the read-only samples.
    """
    sector, m_row, jb, _, n_steps, psi = _loop(params, config)
    reference, gain = _reference(config, n_steps), _gain(config)
    lo_clamp = clamp_floor(params.omega_tc_max)

    total = np.zeros(n_steps)
    pops = np.empty((psi.size, n_steps + 1))
    buf = np.empty((CHUNK, psi.size), dtype=complex)

    vt = sector.eigenvectors.conj().T
    c = vt @ psi
    pops[:, 0] = np.abs(c) ** 2
    raw = 0.0  # nothing computed yet; first sample is the reference alone
    saturated = 0

    for start in range(0, n_steps, CHUNK):
        block = buf[:n_steps - start]
        for i, k in enumerate(range(start, start + len(block))):
            applied = reference[k] + raw
            if applied > 0.0:
                applied = 0.0
            elif applied < lo_clamp:
                applied = lo_clamp
                saturated += 1
            total[k] = applied

            psi = apply_step(*step_factors(sector, applied, config.dt), psi)

            c = vt @ psi
            block[i] = c
            raw = _raw_feedback(m_row, c, jb, gain)
        pops[:, start + 1:start + 1 + len(block)] = (np.abs(block) ** 2).T

    outside = np.zeros(n_steps + 1)
    outside.flags.writeable = False
    populations = dict.fromkeys(product_labels(params.n_qubits), outside)
    populations.update(zip(sector.bare_labels, pops))
    final = np.zeros(params.dim, dtype=complex)
    final[sector.indices] = psi
    total.flags.writeable = False

    trajectory = TrajectoryRecord(
        times=np.arange(n_steps + 1) * config.dt,
        control=total,
        populations=populations,
        final_state=QuantumState(amplitudes=final),
    )
    final_error = 1.0 - float(np.abs(c[jb]) ** 2)
    return LctResult(
        waveform=Waveform(dt=config.dt, samples=total),
        trajectory=trajectory,
        final_error=final_error,
        clamp_saturation=saturated / n_steps,
    )


@dataclass
class LockstepResult:
    """Output of run_lct_lockstep for B members.

    samples holds the applied waveforms as columns, (n_steps, B);
    forward_error is each member's final target-population error and
    reverse_error the error of its waveform replayed on the target
    eigenstate toward the initial one.
    """

    dt: float
    samples: np.ndarray
    forward_error: np.ndarray
    reverse_error: np.ndarray

    def waveform(self, member: int) -> Waveform:
        return Waveform(dt=self.dt, samples=self.samples[:, member].copy())


# Config fields every lockstep member shares; only reference and gain vary.
_SHARED_FIELDS = ("eta", "dt", "t_max", "initial_label", "target_label", "n_prime")


def run_lct_lockstep(params: SystemParams, configs: list) -> LockstepResult:
    """Run feedback loops that differ only in reference and gain, in lockstep.

    Every member advances on the same time step: one batched eigh of the
    members' held block Hamiltonians, one stacked step, and the feedback
    law of run_lct read from each member's state.  Member b reproduces
    run_lct(params, configs[b]) bit for bit (a zero sample may differ in
    sign), alone or in a batch.  Each member also carries a probe, a
    second state started in the target eigenstate and pushed through the
    member's step unitaries, so the reverse error (the waveform's transfer
    back to the initial state, what optimize.reverse_error replays) falls
    out of the loop.  No per-step amplitudes are kept, only the applied
    samples and the final states.
    """
    if not configs:
        raise ValueError("no lockstep members")
    first = configs[0]
    for config in configs[1:]:
        for name in _SHARED_FIELDS:
            if getattr(config, name) != getattr(first, name):
                raise ConfigError(f"lockstep members differ in {name}")
    sector, m_row, target, initial, n_steps, psi = _loop(params, first)
    # Each member's reference fills its column of total, to which each step
    # adds the feedback.
    total = np.stack([_reference(c, n_steps) for c in configs], axis=1)
    gain = np.array([_gain(c) for c in configs], dtype=float)[:, None]
    lo_clamp = clamp_floor(params.omega_tc_max)

    # states[0] holds each member's state and states[1] its probe, both as
    # single columns: every step then applies run_lct's matrix-vector
    # products, and the two agree bit for bit.
    vt = sector.eigenvectors.conj().T
    states = np.empty((2, len(configs), psi.size, 1), dtype=complex)
    states[0, :, :, 0] = psi
    states[1, :, :, 0] = sector.eigenvectors[:, target]
    raw = np.zeros(len(configs))

    for applied in total:
        applied += raw
        applied.clip(lo_clamp, 0.0, out=applied)
        states = apply_step(*step_factors(sector, applied, first.dt), states)
        raw = _raw_feedback(m_row, vt @ states[0], target, gain)[:, 0]

    c = vt @ states
    return LockstepResult(
        dt=first.dt,
        samples=total,
        forward_error=1.0 - np.abs(c[0, :, target, 0]) ** 2,
        reverse_error=1.0 - np.abs(c[1, :, initial, 0]) ** 2,
    )


def refined_config(base: LctConfig, reference: Waveform, lambda2: float) -> LctConfig:
    """Derive the correction-stage config from a bare-stage config.

    The correction stage runs unseeded: the reference pulse already moves
    population into the target, which switches the feedback on without an
    artificial target admixture.  A seed would also contaminate the emitted
    pulse, which must act on the pure initial state.
    """
    return replace(base, reference=reference, lambda2=lambda2, eta=0.0)
