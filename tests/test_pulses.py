import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from lctpulse.pulses import (
    AnalyticPulseParams,
    Waveform,
    analytic_pulse,
    analytic_samples,
    clamp_samples,
    fourier_spectrum,
    lowpass_filter,
    natural_duration,
    truncate_with_gaussian_tail,
)
from lctpulse.units import TWO_PI
from oracles import dominant_frequency, time_reverse

FIG_PARAMS = AnalyticPulseParams(
    alpha1=-TWO_PI * 2.457,
    alpha3=-TWO_PI * 1.591,
    tau1=5.8, tau2=8.3, tau3=10.0,
    sigma1=1.83, sigma2=0.2, sigma3=1.37,
)


def _tone(freq_ghz, dt=0.01, n=4000, amp=1.0):
    # n chosen so 0.5 GHz sits exactly on the FFT grid (bin pitch 0.025)
    t = np.arange(n) * dt
    return Waveform(dt=dt, samples=-amp * (1.0 + np.sin(TWO_PI * freq_ghz * t)) / 2)


# ----------------------------------------------------------------
# Waveform basics
# ----------------------------------------------------------------

def test_waveform_validation():
    with pytest.raises(ValueError):
        Waveform(dt=0.0, samples=np.zeros(4))
    with pytest.raises(ValueError):
        Waveform(dt=0.01, samples=np.zeros(1))
    with pytest.raises(ValueError):
        Waveform(dt=0.01, samples=np.array([0.0, np.nan]))


def test_waveform_grid():
    wf = Waveform(dt=0.5, samples=np.array([0.0, -1.0, -2.0]))
    assert wf.n == 3
    assert wf.duration == pytest.approx(1.5)
    np.testing.assert_allclose(wf.times(), [0.0, 0.5, 1.0])


def test_validate_range(params):
    Waveform(dt=0.1, samples=np.array([0.0, -1.0])).validate_range(
        params.omega_tc_max)
    with pytest.raises(ValueError):
        Waveform(dt=0.1, samples=np.array([0.1, -1.0])).validate_range(
            params.omega_tc_max)
    with pytest.raises(ValueError):
        Waveform(dt=0.1, samples=np.array([0.0, -50.0])).validate_range(
            params.omega_tc_max)


def test_closed_form_at_the_window_floor_rounds_below_it(params):
    # Why validate refuses an amplitude of exactly -omega_tc_max: where
    # tanh reads -1 the bridge rounds one ulp below the window, which the
    # flux export refuses.
    w = params.omega_tc_max
    p = AnalyticPulseParams(alpha1=-w, alpha3=-TWO_PI * 2.75, tau1=7.2, tau2=8.9,
                            tau3=11.4, sigma1=1.37, sigma2=0.05, sigma3=1.83)
    wf = Waveform(dt=0.01, samples=analytic_samples(p, np.arange(2000) * 0.01))
    with pytest.raises(ValueError, match="outside the coupler's window"):
        wf.validate_range(w)


def test_clamp_samples(params):
    out = clamp_samples(np.array([1.0, -100.0, -0.5]), params.omega_tc_max)
    assert out[0] == 0.0
    assert out[1] == pytest.approx(-params.omega_tc_max * (1 - 1e-3))
    assert out[2] == -0.5


def test_time_reverse_involution(rng):
    wf = Waveform(dt=0.01, samples=-rng.random(100))
    back = time_reverse(time_reverse(wf))
    np.testing.assert_array_equal(back.samples, wf.samples)
    sym = Waveform(dt=0.01, samples=-np.ones(10))
    np.testing.assert_array_equal(time_reverse(sym).samples, sym.samples)


# ----------------------------------------------------------------
# spectra
# ----------------------------------------------------------------

def test_parseval(rng):
    for n in (1000, 1001):
        wf = Waveform(dt=0.01, samples=-rng.random(n))
        spec = fourier_spectrum(wf)
        lhs = np.sum(spec.power)
        rhs = n * np.sum(wf.samples ** 2)
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_dominant_frequency_picks_the_tone():
    wf = _tone(0.5)
    spec = fourier_spectrum(wf)
    assert dominant_frequency(spec, min_freq_ghz=0.1) == pytest.approx(0.5, abs=1e-3)
    # single dominant bin: over 100x any bin away from DC and the tone
    mask = (spec.freqs_ghz > 0.1) & (np.abs(spec.freqs_ghz - 0.5) > 0.05)
    peak = spec.power[np.argmin(np.abs(spec.freqs_ghz - 0.5))]
    assert peak > 100 * spec.power[mask].max()


def test_dominant_frequency_floor_above_nyquist():
    with pytest.raises(ValueError):
        dominant_frequency(fourier_spectrum(_tone(0.5)), min_freq_ghz=1e4)


# ----------------------------------------------------------------
# low-pass filter
# ----------------------------------------------------------------

def test_filter_at_nyquist_is_identity():
    wf = _tone(0.3)
    nyquist = 0.5 / wf.dt
    out = lowpass_filter(wf, nyquist)
    np.testing.assert_allclose(out.samples, wf.samples, atol=1e-12)


def test_filter_removes_high_tone():
    t = np.arange(4500) * 0.01
    hi = np.sin(TWO_PI * 0.6 * t)
    wf = Waveform(dt=0.01, samples=hi)
    out = lowpass_filter(wf, 0.4)
    assert np.sqrt(np.mean(out.samples ** 2)) < 1e-6 * np.sqrt(np.mean(hi ** 2))


def test_filter_idempotent(rng):
    wf = Waveform(dt=0.01, samples=-rng.random(2048))
    once = lowpass_filter(wf, 0.45)
    twice = lowpass_filter(once, 0.45)
    np.testing.assert_allclose(twice.samples, once.samples, atol=1e-12)


def test_filter_linear(rng):
    w1 = Waveform(dt=0.01, samples=-rng.random(1500))
    w2 = Waveform(dt=0.01, samples=-rng.random(1500))
    a, b = 0.7, -1.3
    combo = Waveform(dt=0.01, samples=a * w1.samples + b * w2.samples)
    lhs = lowpass_filter(combo, 0.45).samples
    rhs = (a * lowpass_filter(w1, 0.45).samples
           + b * lowpass_filter(w2, 0.45).samples)
    np.testing.assert_allclose(lhs, rhs, atol=1e-12)


def test_filter_clamps_ringing(params):
    # A step-like pulse rings above zero after brick-wall filtering.
    samples = np.zeros(2000)
    samples[800:1200] = -2.0
    wf = Waveform(dt=0.01, samples=samples)
    raw = lowpass_filter(wf, 0.3)
    assert raw.samples.max() > 0.0
    clamped = lowpass_filter(wf, 0.3, omega_tc_max=params.omega_tc_max)
    assert clamped.samples.max() <= 0.0


# ----------------------------------------------------------------
# truncation
# ----------------------------------------------------------------

def test_truncation_preserves_head_and_is_continuous():
    wf = _tone(0.05, n=2000)
    out = truncate_with_gaussian_tail(wf, tau=10.0, sigma=1.0)
    k = int(round(10.0 / wf.dt))
    np.testing.assert_array_equal(out.samples[:k], wf.samples[:k])
    assert out.samples[k] == wf.samples[k]  # tail starts at wf(tau) exactly


def test_truncation_tail_is_gaussian():
    wf = Waveform(dt=0.01, samples=-np.ones(1000))
    sigma = 0.5
    out = truncate_with_gaussian_tail(wf, tau=5.0, sigma=sigma)
    k = int(round(5.0 / wf.dt))
    t_rel = (np.arange(out.n) - k) * wf.dt
    expected = -np.exp(-t_rel[k:] ** 2 / (2 * sigma ** 2))
    np.testing.assert_allclose(out.samples[k:], expected, atol=1e-12)
    # hard zero: tail is cut once it falls below 1e-6 of its start
    assert abs(out.samples[-1]) >= 1e-6 * abs(out.samples[k]) * 0.5
    assert out.n < wf.n


def test_truncation_small_sigma_ends_fast():
    wf = Waveform(dt=0.01, samples=-np.ones(1000))
    out = truncate_with_gaussian_tail(wf, tau=5.0, sigma=1e-3)
    assert out.duration <= 5.0 + 0.1


def test_truncation_validates():
    wf = Waveform(dt=0.01, samples=-np.ones(100))
    with pytest.raises(ValueError):
        truncate_with_gaussian_tail(wf, tau=5.0, sigma=1.0)  # beyond the pulse


def test_truncation_at_last_sample_is_identity():
    wf = Waveform(dt=0.01, samples=-np.ones(100))
    out = truncate_with_gaussian_tail(wf, tau=wf.duration, sigma=1.0)
    np.testing.assert_array_equal(out.samples, wf.samples)


@st.composite
def _truncation_case(draw):
    """A pulse, a width and a cut time in (0, duration], cuts within half a
    sample of the start included."""
    n = draw(st.integers(2, 400))
    dt = draw(st.floats(1e-3, 1.0))
    samples = draw(st.lists(st.floats(-10.0, 0.0), min_size=n, max_size=n))
    duration = n * dt
    tau = draw(st.one_of(
        st.floats(0.0, 0.5 * dt, exclude_min=True, exclude_max=True),
        st.floats(0.0, duration, exclude_min=True)))
    return Waveform(dt=dt, samples=samples), tau, draw(st.floats(1e-6, 2.0))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_truncation_case())
def test_truncation_keeps_the_head_and_two_samples(case):
    wf, tau, sigma = case
    out = truncate_with_gaussian_tail(wf, tau, sigma)
    assert out.n >= 2 and out.dt == wf.dt
    k = int(round(tau / wf.dt))
    np.testing.assert_array_equal(out.samples[:k], wf.samples[:k])


# ----------------------------------------------------------------
# analytic pulse
# ----------------------------------------------------------------

def test_analytic_branch_values():
    p = FIG_PARAMS
    assert analytic_samples(p, np.array([p.tau2]))[0] == pytest.approx(
        0.5 * (p.alpha1 + p.alpha3), rel=1e-12)
    # approaching tau1 from below stays on the rising Gaussian
    assert analytic_samples(p, np.array([p.tau1 - 1e-9]))[0] == pytest.approx(
        p.alpha1, rel=1e-9)


def test_analytic_branch_mismatch_bound():
    p = FIG_PARAMS
    mid_at_tau1 = analytic_samples(p, np.array([p.tau1]))[0]
    mismatch = abs(mid_at_tau1 - p.alpha1)
    bound = abs(p.alpha3 - p.alpha1) * (1.0 - np.tanh((p.tau2 - p.tau1) / p.sigma2))
    assert mismatch <= bound
    assert mismatch < 1e-5 * abs(p.alpha1)


def test_analytic_pulse_plateaus_and_duration(params):
    wf = analytic_pulse(FIG_PARAMS, omega_tc_max=params.omega_tc_max)
    ghz = wf.samples / TWO_PI
    k1 = int(round(FIG_PARAMS.tau1 / wf.dt))
    k3 = int(round(FIG_PARAMS.tau3 / wf.dt))
    assert ghz[k1] == pytest.approx(-2.457, abs=0.01)
    assert ghz[k3] == pytest.approx(-1.591, abs=0.01)
    assert 12.0 < wf.duration < 20.0
    assert natural_duration(FIG_PARAMS) == pytest.approx(wf.duration, abs=0.02)


def test_analytic_pulse_validation(params):
    bad = AnalyticPulseParams(
        alpha1=-1.0, alpha3=-1.0, tau1=5.0, tau2=4.0, tau3=6.0,
        sigma1=1.0, sigma2=1.0, sigma3=1.0)
    with pytest.raises(ValueError):
        analytic_pulse(bad, omega_tc_max=params.omega_tc_max)
    positive = AnalyticPulseParams(
        alpha1=0.5, alpha3=-1.0, tau1=1.0, tau2=2.0, tau3=3.0,
        sigma1=1.0, sigma2=1.0, sigma3=1.0)
    with pytest.raises(ValueError):
        analytic_pulse(positive, omega_tc_max=params.omega_tc_max)


@st.composite
def _analytic_shape(draw):
    """Valid closed-form parameters: negative amplitudes, ordered branch
    times, positive widths."""
    amp = st.floats(0.05, 3.0).map(lambda ghz: -TWO_PI * ghz)
    width = st.floats(0.1, 3.0)
    tau1 = draw(st.floats(0.0, 20.0))
    tau2 = tau1 + draw(st.floats(0.0, 10.0))
    tau3 = tau2 + draw(st.floats(0.0, 10.0))
    return AnalyticPulseParams(
        alpha1=draw(amp), alpha3=draw(amp), tau1=tau1, tau2=tau2, tau3=tau3,
        sigma1=draw(width), sigma2=draw(width), sigma3=draw(width))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(p=_analytic_shape())
def test_mirrored_closed_form_is_the_time_reverse(params, p):
    # Swapping the lobes and reflecting the branch times about T/2 gives
    # the shape played backwards: p'(T - t) == p(t).
    big_t = p.tau1 + p.tau3
    mirror = AnalyticPulseParams(
        alpha1=p.alpha3, alpha3=p.alpha1,
        tau1=big_t - p.tau3, tau2=big_t - p.tau2, tau3=big_t - p.tau1,
        sigma1=p.sigma3, sigma2=p.sigma2, sigma3=p.sigma1)
    mirror.validate(params.omega_tc_max)
    t = np.linspace(p.tau1 - 4.0 * p.sigma1, p.tau3 + 4.0 * p.sigma3, 2001)
    branch = np.array([p.tau1, p.tau2, p.tau3])
    t = t[np.abs(t[:, None] - branch).min(axis=1) > 1e-9]
    scale = max(abs(p.alpha1), abs(p.alpha3))
    np.testing.assert_allclose(analytic_samples(mirror, big_t - t),
                               analytic_samples(p, t), rtol=0, atol=1e-12 * scale)
