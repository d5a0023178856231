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
for large systems).  The raw value is clamped to [-omega_tc_max + floor, 0]
because the coupler can only tune down from its sweet spot.

The loop is explicit and causal: the feedback computed from the state at
the end of step k is the sample applied on step k+1.  The first sample is
therefore 0, and with the standard seeding (a sqrt(eta) target admixture,
all amplitudes real at t=0) the law would start from 0 regardless.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .dynamics import CHUNK, apply_step, step_factors
from .errors import ConfigError
from .model import DriftSpectrum, SystemParams
from .pulses import Waveform, clamp_floor

# Below this, against max|sz_TC| = 1, an off-diagonal feedback row is zero to
# rounding; a dark device reads 1e-16, a slow but live one 1e-6.
_DARK_FLOOR = 1e-12


@dataclass(frozen=True)
class LctConfig:
    """One local-control run.

    lambda_         the run's feedback gain; with a reference, the gain of
                    the correction term
    eta             seeding weight for the target admixture at t=0
    dt              sample period (ns)
    t_max           run length (ns)
    initial_label   bare label of the starting drift eigenstate
    target_label    bare label of the drift eigenstate to populate
    n_prime         number of low-lying eigenstates kept in the feedback
                    sum (None = all, the exact law)
    reference       optional fixed waveform added under the feedback; the
                    run then shapes only the correction term
    """

    lambda_: float
    eta: float
    dt: float
    t_max: float
    initial_label: str
    target_label: str
    n_prime: int | None = None
    reference: Waveform | None = None

    def __post_init__(self):
        if self.lambda_ < 0:
            raise ConfigError("lambda must be non-negative")
        if not 0.0 <= self.eta < 1.0:
            raise ConfigError("eta must be in [0, 1)")
        if self.dt <= 0 or self.t_max <= 0:
            raise ConfigError("dt and t_max must be positive")
        if self.t_max < 2 * self.dt:  # a waveform holds two samples or more
            raise ConfigError("t_max shorter than two samples")
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
    fraction of steps whose sample sat at the clamp floor.  final_state
    (the block amplitudes of the labels' sector) and final_populations
    (each of the block's bare labels') are at t_max.  crossings maps
    0.10, 0.90 and 0.99 to the target population's first grid time at that
    level (None: never); monotonicity_margin is its smallest step-to-step
    change.
    """

    waveform: Waveform
    final_state: np.ndarray
    final_error: float
    clamp_saturation: float
    final_populations: dict
    crossings: dict
    monotonicity_margin: float


def seed_state(psi0: np.ndarray, target: np.ndarray, eta: float) -> np.ndarray:
    """Mix a small target amplitude into the initial state's amplitudes.

    |Psi'> = sqrt(eta) |target> + sqrt(1 - eta) |psi0>, renormalized, as
    complex amplitudes.  The feedback law is blind to a target population
    of exactly zero; eta > 0 breaks that fixed point.
    """
    if not 0.0 <= eta < 1.0:
        raise ValueError("eta must be in [0, 1)")
    mixed = np.sqrt(eta) * target + np.sqrt(1.0 - eta) * psi0
    norm = np.linalg.norm(mixed)
    if norm == 0.0:
        raise ValueError("seeding produced the zero vector")
    # numpy divides complex by real as a product with 1/norm; dividing the
    # real mix instead would round differently and move the pulses.
    return mixed.astype(complex) / norm


def _feedback_row(params: SystemParams, sector: DriftSpectrum, j: int,
                  n_prime: int | None) -> np.ndarray:
    """<psi_j| sz_TC |psi_k> for every drift eigenstate k of the sector.

    n_prime None keeps them all (the exact law).  Otherwise the law keeps
    the n_prime lowest levels of the whole drift spectrum: a column is
    zeroed when its rank among every block's eigenvalues, merged in
    ascending order, is n_prime or higher.  sz_TC = -2 G, from the
    sector's diagonal control generator.
    """
    v = sector.eigenvectors
    row = (v[:, j].conj() * (-2.0 * np.diag(sector.control))) @ v
    if n_prime is None:
        return row
    if not 0 < n_prime <= params.dim:
        raise ConfigError("n_prime must be in (0, dim]")
    levels = np.sort(np.concatenate(
        [params.sector(k).eigenvalues for k in range(params.n_qubits + 2)]))
    rank = np.searchsorted(levels, sector.eigenvalues)
    if rank[j] >= n_prime:
        raise ConfigError("target eigenstate lies outside the projected set")
    row[rank >= n_prime] = 0.0
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
    sector = params.sector_of(config.target_label)
    jb = sector.index_of_label(config.target_label)
    ib = sector.index_of_label(config.initial_label)
    # The full law is the projected law at n_prime = dim, same arithmetic,
    # so the two are identical sample for sample.
    m_row = _feedback_row(params, sector, jb, config.n_prime)
    # A dark eigenstate, one sz_TC couples to nothing else in the block, is
    # a fixed point of every shift: no pulse fills or empties it.
    for label, row, k in ((config.target_label, m_row, jb),
                          (config.initial_label, _feedback_row(params, sector, ib, None), ib)):
        if np.abs(np.delete(row, k)).max() < _DARK_FLOOR:
            raise ConfigError(f"eigenstate {label} does not couple to the rest of its "
                              "block under a coupler shift: no pulse moves it")

    n_steps = int(round(config.t_max / config.dt))
    if abs(n_steps * config.dt - config.t_max) > 1e-9 * config.t_max:
        raise ConfigError("t_max must be an integer number of samples")

    v = sector.eigenvectors
    return sector, m_row, jb, ib, n_steps, seed_state(v[:, ib], v[:, jb], config.eta)


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


def run_lct(params: SystemParams, config: LctConfig, sink=None) -> LctResult:
    """Shape a coupler-shift pulse by local-control feedback.

    Returns the applied waveform (reference plus shaped term, jointly
    clamped) and what LctResult summarises.  The loop runs in the
    excitation block of the two labels (validated equal by LctConfig),
    CHUNK steps at a time, and keeps no history but the samples: it
    buffers the chunk's drift-basis amplitudes, squares them into the
    block's populations and folds those into the summary.  Row k is the
    state at k dt.  When a chunk ends, sink (if given) is called with the
    block as it ran: the chunk's first row index, the block's bare labels
    (the populations' row order), the samples held from its rows and
    their (block dim, rows) float64 populations, from a buffer the next
    chunk reuses.  The last chunk also holds row n, the final state, so
    its populations have one column more than its samples.
    """
    sector, m_row, jb, _, n_steps, psi = _loop(params, config)
    # The reference fills total, to which each step adds the feedback.
    total, gain = _reference(config, n_steps), config.lambda_
    lo_clamp = clamp_floor(params.omega_tc_max)

    # One chunk's rows start..stop of drift-basis amplitudes and their
    # populations; the last row is the next chunk's first.
    amps = np.empty((CHUNK + 1, psi.size), dtype=complex)
    pops = np.empty((CHUNK + 1, psi.size))
    vt = sector.eigenvectors.conj().T
    c = vt @ psi
    raw = 0.0  # nothing computed yet; first sample is the reference alone
    saturated = 0
    crossings = dict.fromkeys((0.10, 0.90, 0.99))
    margin = np.inf

    for start in range(0, n_steps, CHUNK):
        stop = min(start + CHUNK, n_steps)
        block = amps[:stop - start + 1]
        block[0] = c
        for i, k in enumerate(range(start, stop), 1):
            applied = total[k] + raw
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
        rows = pops[:len(block)]
        rows = np.square(np.abs(block, out=rows), out=rows).T
        target = rows[jb]
        margin = np.minimum(margin, np.diff(target).min())
        for level, t in crossings.items():
            hits = np.flatnonzero(target >= level)
            if t is None and hits.size:
                crossings[level] = float((start + hits[0]) * config.dt)
        if sink is not None:
            sink(start, sector.bare_labels, total[start:stop],
                 rows if stop == n_steps else rows[:, :-1])

    total.flags.writeable = False
    # The error squares as run_lct_lockstep's does: a scalar ** 2 (libm pow)
    # can round one ulp apart.
    return LctResult(
        waveform=Waveform(dt=config.dt, samples=total),
        final_state=psi,
        final_error=1.0 - float(target[-1]),
        clamp_saturation=saturated / n_steps,
        final_populations=dict(zip(sector.bare_labels, rows[:, -1].tolist())),
        crossings=crossings,
        monotonicity_margin=float(margin),
    )


# Config fields every lockstep member shares; only reference and gain vary.
_SHARED_FIELDS = ("eta", "dt", "t_max", "initial_label", "target_label", "n_prime")


def run_lct_lockstep(params: SystemParams, configs: list) -> tuple:
    """Run feedback loops that differ only in reference and gain, in lockstep.

    Every member advances on the same time step: one batched eigh of the
    members' held block Hamiltonians, one stacked step, and the feedback
    law of run_lct read from each member's state.  Member b reproduces
    run_lct(params, configs[b]) bit for bit (a zero sample may differ in
    sign), alone or in a batch.  Each member also carries a probe, a
    second state started in the target eigenstate and pushed through the
    member's step unitaries, so the reverse error (the waveform's transfer
    back to the initial state, what optimize.transfer_errors replays) falls
    out of the loop.  No per-step amplitudes are kept.  Returns the applied
    waveforms as columns, (n_steps, B), and each member's forward and
    reverse error, (B,) each.
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
    gain = np.array([c.lambda_ for c in configs], dtype=float)[:, None]
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
    return (total, 1.0 - np.abs(c[0, :, target, 0]) ** 2,
            1.0 - np.abs(c[1, :, initial, 0]) ** 2)


def refined_config(base: LctConfig, reference: Waveform, lambda2: float) -> LctConfig:
    """Derive the correction-stage config from a bare-stage config.

    The correction stage runs unseeded: the reference pulse already moves
    population into the target, which switches the feedback on without an
    artificial target admixture.  A seed would also contaminate the emitted
    pulse, which must act on the pure initial state.  lambda2, the
    correction term's gain, becomes the run's lambda_.
    """
    return replace(base, reference=reference, lambda_=lambda2, eta=0.0)
