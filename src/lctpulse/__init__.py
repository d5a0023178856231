"""Local-control pulse synthesis for tunable-coupler population transfer."""

from .dynamics import TrajectoryRecord, propagate_waveform
from .errors import (
    ConfigError,
    ConvergenceError,
    DegenerateLevelsError,
    UnknownLabelError,
)
from .lct import LctConfig, LctResult, refined_config, run_lct, seed_state
from .model import (
    DriftSpectrum,
    GapMinimum,
    SystemParams,
    build_drift_hamiltonian,
    eigendecompose,
    nonadiabatic_coupling,
    single_excitation_gap_minima,
    sweep_eigenvalues,
    sweep_nonadiabatic_couplings,
)
from .optimize import (
    OptimizationReport,
    fit_analytic_pulse,
    nelder_mead,
    optimize_reversible,
    optimize_truncation,
    transfer_errors,
)
from .pulses import (
    AnalyticPulseParams,
    PulseSpectrum,
    Waveform,
    analytic_pulse,
    fourier_spectrum,
    lowpass_filter,
    natural_duration,
    truncate_with_gaussian_tail,
)

__version__ = "0.1.0"
