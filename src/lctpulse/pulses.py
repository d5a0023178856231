"""Waveforms, spectra, and pulse shaping.

A Waveform is the coupler-shift control delta_omega_tc sampled on a uniform
grid with sample-and-hold semantics: samples[k] is held constant over
[k*dt, (k+1)*dt).  Samples are angular (rad/ns); spectra are reported in
ordinary frequency (GHz) because dt is in ns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Feedback clamp floor, as a fraction of omega_tc_max.  Keeps the coupler
# frequency strictly positive so the flux map stays invertible.
CLAMP_FLOOR_FRACTION = 1e-3

# Gaussian tails are cut where they drop below this fraction of their peak.
TAIL_CUTOFF = 1e-6

# The closed form's sample period (ns), for the fit and for the CLI's pulse.
ANALYTIC_DT_NS = 0.01


@dataclass
class Waveform:
    """Uniformly sampled control pulse (rad/ns, sample-and-hold)."""

    dt: float
    samples: np.ndarray

    def __post_init__(self):
        if self.dt <= 0:
            raise ValueError("dt must be positive")
        self.samples = np.asarray(self.samples, dtype=float)
        if self.samples.ndim != 1 or self.samples.size < 2:
            raise ValueError("waveform needs at least two samples")
        if not np.all(np.isfinite(self.samples)):
            raise ValueError("waveform samples must be finite")

    @property
    def n(self) -> int:
        return self.samples.size

    @property
    def duration(self) -> float:
        return self.n * self.dt

    def times(self) -> np.ndarray:
        """Left edge of each hold interval."""
        return np.arange(self.n) * self.dt

    def validate_range(self, omega_tc_max: float):
        """Check the flux map's window: every sample in [-omega_tc_max, 0],
        so the coupler's frequency lies in [0, omega_tc_max]."""
        bad = np.flatnonzero(~in_window(self.samples, omega_tc_max))
        if bad.size:
            raise ValueError(f"sample at t = {bad[0] * self.dt:.6g} ns ({self.samples[bad[0]]:.6g} "
                             f"rad/ns) lies outside the coupler's window [{-omega_tc_max:.6g}, 0]")


def in_window(values: np.ndarray, omega_tc_max: float) -> np.ndarray:
    """Whether each value lies in [-omega_tc_max, 0]; NaN lies outside."""
    return (values >= -omega_tc_max) & (values <= 0.0)


def clamp_floor(omega_tc_max: float) -> float:
    """Lowest allowed shift, -omega_tc_max + floor; keeps omega_tc > 0."""
    return -omega_tc_max * (1.0 - CLAMP_FLOOR_FRACTION)


def clamp_samples(samples: np.ndarray, omega_tc_max: float) -> np.ndarray:
    """Clamp to [clamp_floor(omega_tc_max), 0]."""
    return np.clip(samples, clamp_floor(omega_tc_max), 0.0)


# ----------------------------------------------------------------
# spectra
# ----------------------------------------------------------------

@dataclass
class PulseSpectrum:
    """One-sided spectrum of a waveform.

    power is |c|^2 of the raw forward FFT coefficients (unnormalized) on
    the non-negative frequency bins, with the conjugate-symmetric half
    folded in, so sum(power) == n * sum(samples**2) (Parseval, this
    normalization).
    """

    freqs_ghz: np.ndarray
    power: np.ndarray


def fourier_spectrum(wf: Waveform) -> PulseSpectrum:
    """One-sided FFT spectrum; frequencies in GHz since dt is in ns."""
    amps = np.fft.rfft(wf.samples)
    freqs = np.fft.rfftfreq(wf.n, d=wf.dt)
    fold = np.full(freqs.size, 2.0)
    fold[0] = 1.0
    if wf.n % 2 == 0:
        fold[-1] = 1.0  # Nyquist bin has no mirror
    power = np.abs(amps)
    np.multiply(np.square(power, out=power), fold, out=power)
    return PulseSpectrum(freqs_ghz=freqs, power=power)


def lowpass_filter(
    wf: Waveform,
    cutoff_ghz: float,
    omega_tc_max: float | None = None,
) -> Waveform:
    """Brick-wall low pass: zero every bin above cutoff, inverse transform.

    Given omega_tc_max (the physical variant) the result is clamped to
    [clamp_floor(omega_tc_max), 0]; without it the raw filter output is
    returned for diagnostics and may contain positive samples.
    """
    if cutoff_ghz <= 0:
        raise ValueError("cutoff must be positive")
    spec = np.fft.rfft(wf.samples)
    freqs = np.fft.rfftfreq(wf.n, d=wf.dt)
    spec[freqs > cutoff_ghz] = 0.0
    out = np.fft.irfft(spec, n=wf.n)
    if omega_tc_max is not None:
        out = clamp_samples(out, omega_tc_max)
    return Waveform(dt=wf.dt, samples=out)


# ----------------------------------------------------------------
# truncation
# ----------------------------------------------------------------

def truncate_with_gaussian_tail(wf: Waveform, tau: float, sigma: float) -> Waveform:
    """Replace the pulse beyond tau with a half-Gaussian decay.

    Samples before tau are untouched; from tau on the pulse becomes
    wf(tau) * exp(-(t - tau)^2 / (2 sigma^2)), cut where the tail drops
    below TAIL_CUTOFF of its starting value.  tau at (or beyond) the final
    sample returns the pulse unchanged.
    """
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if not 0.0 < tau <= wf.duration:
        raise ValueError(f"tau={tau:.6g} outside the pulse (0, {wf.duration:.6g}]")
    k_tau = int(round(tau / wf.dt))
    if k_tau >= wf.n - 1:
        return Waveform(dt=wf.dt, samples=wf.samples.copy())
    alpha = wf.samples[k_tau]
    # Tail length where exp(-x^2/2) crosses the cutoff.
    n_tail = int(np.ceil(sigma * np.sqrt(2.0 * np.log(1.0 / TAIL_CUTOFF)) / wf.dt))
    t_rel = np.arange(n_tail + 1) * wf.dt
    tail = alpha * np.exp(-(t_rel ** 2) / (2.0 * sigma ** 2))
    # sigma > 0 makes n_tail >= 1, so the tail alone holds two samples.
    return Waveform(dt=wf.dt, samples=np.concatenate([wf.samples[:k_tau], tail]))


# ----------------------------------------------------------------
# analytic pulse
# ----------------------------------------------------------------

@dataclass
class AnalyticPulseParams:
    """Half-Gaussian rise, tanh bridge, half-Gaussian fall.

    Amplitudes alpha1, alpha3 are coupler shifts (rad/ns, in the coupler's
    window: negative and above -omega_tc_max); tau1 <= tau2 <= tau3 are
    the branch switch times (ns); sigma1..3 the widths (ns).
    """

    alpha1: float
    alpha3: float
    tau1: float
    tau2: float
    tau3: float
    sigma1: float
    sigma2: float
    sigma3: float

    def validate(self, omega_tc_max: float):
        if not self.tau1 <= self.tau2 <= self.tau3:
            raise ValueError("branch times must satisfy tau1 <= tau2 <= tau3")
        if min(self.sigma1, self.sigma2, self.sigma3) <= 0:
            raise ValueError("widths must be positive")
        if self.alpha1 >= 0 or self.alpha3 >= 0:
            raise ValueError("amplitudes must be negative (coupler tunes down)")
        # Exclusive, unlike Waveform.validate_range's [-omega_tc_max, 0]: at
        # an amplitude of exactly -omega_tc_max the tanh bridge can round one
        # ulp below it, and the flux export would then refuse the sampled
        # pulse after its params are written.
        if min(self.alpha1, self.alpha3) <= -omega_tc_max:
            raise ValueError("amplitude at or below -omega_tc_max")


def analytic_bounds(omega_tc_max: float) -> dict:
    """The closed form's domain, the fit's box: (low, high) per field.  An
    amplitude's low end is the higher of -20 rad/ns and the clamp floor, so
    every pulse the fit scores is one the coupler can play."""
    floor = max(-20.0, clamp_floor(omega_tc_max))
    return {"alpha1": (floor, -1.0), "alpha3": (floor, -1.0),
            "tau1": (1.0, 15.0), "tau2": (1.0, 20.0), "tau3": (1.0, 25.0),
            "sigma1": (0.05, 5.0), "sigma2": (0.05, 5.0), "sigma3": (0.05, 5.0)}


def analytic_samples(p: AnalyticPulseParams, t: np.ndarray) -> np.ndarray:
    """Evaluate the three-branch shape; no validation (optimizer-safe)."""
    t = np.asarray(t, dtype=float)
    out = np.empty_like(t)
    rise = t < p.tau1
    fall = t > p.tau3
    mid = ~(rise | fall)
    out[rise] = p.alpha1 * np.exp(-0.5 * ((t[rise] - p.tau1) / p.sigma1) ** 2)
    out[mid] = 0.5 * (p.alpha3 + p.alpha1) + 0.5 * (p.alpha3 - p.alpha1) * np.tanh(
        (t[mid] - p.tau2) / p.sigma2
    )
    out[fall] = p.alpha3 * np.exp(-0.5 * ((t[fall] - p.tau3) / p.sigma3) ** 2)
    return out


def natural_duration(p: AnalyticPulseParams) -> float:
    """Time at which the trailing half-Gaussian falls below TAIL_CUTOFF."""
    return p.tau3 + p.sigma3 * np.sqrt(2.0 * np.log(1.0 / TAIL_CUTOFF))


def analytic_pulse(p: AnalyticPulseParams, omega_tc_max: float) -> Waveform:
    """Sample the analytic shape every ANALYTIC_DT_NS over natural_duration(p).

    Validates the parameter invariants, amplitudes inside the window of
    the coupler at omega_tc_max included, before sampling.
    """
    p.validate(omega_tc_max)
    dt = ANALYTIC_DT_NS
    n = max(2, int(round(natural_duration(p) / dt)))
    return Waveform(dt=dt, samples=analytic_samples(p, np.arange(n) * dt))
