"""Refinement searches: one lockstep batch and a small Nelder-Mead core.

The reversibility search is one batch; the other two drivers share the
simplex engine.  A driver takes its settings as keyword-only arguments,
whose defaults are the stage's:

  optimize_reversible   one cell per filter cutoff at the correction gain
                        lambda2_init, run as one lockstep batch of feedback
                        loops whose probe column gives each cell's reverse
                        error (lambda2_init, cutoff_candidates_ghz,
                        fidelity_goal)
  optimize_truncation   1-d simplex over the truncation time tau (sigma_ns)
  fit_analytic_pulse    two-stage fit of the closed-form pulse (amplitudes
                        and switch times first, widths second), sampled
                        by pulses.analytic_pulse inside the coupler's window
                        (pulses.analytic_bounds); it has no settings

Truncation and the fit pass at FIDELITY_GOAL; the reversibility search
takes it as its default goal.  The simplex stops are constants, not
settings.  Every objective is deterministic, so repeated runs reproduce
bit-identical histories.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import first_crossing, propagator
from .errors import ConvergenceError
# run_lct stays bound here, though the search runs in lockstep: the
# benchmark's tracer wraps it in every module that binds it, and its test
# checks this module among them.
from .lct import LctConfig, refined_config, run_lct, run_lct_lockstep  # noqa: F401
from .model import SystemParams
from .pulses import (
    AnalyticPulseParams,
    Waveform,
    analytic_bounds,
    analytic_pulse,
    lowpass_filter,
    truncate_with_gaussian_tail,
)

# Simplex coefficients: reflection, expansion, contraction, shrink.
_ALPHA, _GAMMA, _RHO, _SHRINK = 1.0, 2.0, 0.5, 0.5

_PENALTY = 1e6

# Simplex stops: the truncation search's diameter as a fraction of its
# starting tau, and its evaluation cap; each fit stage's as a fraction of
# its start's largest magnitude (at least 1), and its evaluation cap.
_TRUNCATION_TOLERANCE = 1e-3
_TRUNCATION_MAX_EVALS = 60
_FIT_TOLERANCE = 1e-6
_FIT_MAX_EVALS = 2000

# The pass mark of truncation and the fit; the reversibility search's default.
FIDELITY_GOAL = 1e-6


@dataclass
class OptimizationReport:
    """What each driver writes as its report.

    history holds one (params, objective) pair per evaluation, params a
    dict or a simplex point; best_params is a plain dict.  forward_error
    and reverse_error are the transfer errors at the best point, None
    where the driver does not score that direction.
    """

    best_params: dict
    best_value: float
    evaluations: int
    history: list = field(default_factory=list)
    converged: bool = False
    forward_error: float | None = None
    reverse_error: float | None = None

    def __post_init__(self):
        for err in (self.forward_error, self.reverse_error):
            if err is not None and not 0.0 <= err <= 1.0:
                raise ValueError("transfer errors must lie in [0, 1]")


def _simplex_diameter(simplex: np.ndarray) -> float:
    best = simplex[0]
    return max(float(np.linalg.norm(v - best)) for v in simplex[1:])


def nelder_mead(
    objective,
    x0: np.ndarray,
    bounds: list,
    tolerance: float,
    max_evals: int,
    initial_spread: float = 0.1,
    target_value: float | None = None,
) -> tuple:
    """Simplex minimization with clip-plus-penalty bound handling.

    Out-of-bounds candidates are evaluated at the clipped point with
    _PENALTY * (squared excess) added, which steers the simplex back inside
    without ever calling the objective outside its domain.  The objective
    runs once per distinct clipped point: a revisit (such as a reflection
    clipped onto a bound already evaluated) reuses its value, so the
    simplex path is the same and `history` and `max_evals` count
    objective runs.  Terminates when the simplex diameter falls
    below `tolerance`, when `max_evals` is spent, or as soon as the best
    value drops below `target_value`.

    Returns (best, value, history): the best vertex at its clipped point,
    the objective's value there, and one (point, value) pair per run.
    """
    x0 = np.asarray(x0, dtype=float)
    lo = np.array([b[0] for b in bounds], dtype=float)
    hi = np.array([b[1] for b in bounds], dtype=float)
    if np.any(x0 < lo) or np.any(x0 > hi):
        raise ValueError("x0 must start inside the bounds")

    history = []
    seen = {}

    def f(x):
        xc = np.clip(x, lo, hi)
        excess = x - xc
        penalty = _PENALTY * float(np.dot(excess, excess))
        key = xc.tobytes()
        if key not in seen:  # the objective runs once per distinct point
            seen[key] = objective(xc)
            history.append((xc.copy(), seen[key] + penalty))
        return seen[key] + penalty

    n = x0.size
    simplex = [x0.copy()]
    for i in range(n):
        step = np.zeros(n)
        step[i] = initial_spread * (abs(x0[i]) if x0[i] != 0.0 else 1.0)
        if x0[i] + step[i] > hi[i]:  # step inward, so x0 on a bound keeps a full simplex
            step[i] = -step[i]
        simplex.append(np.clip(x0 + step, lo, hi))
    simplex = np.array(simplex)
    values = np.array([f(v) for v in simplex])

    def done():
        if target_value is not None and values.min() < target_value:
            return True
        if len(history) >= max_evals:
            return True
        order = np.argsort(values)
        return _simplex_diameter(simplex[order]) < tolerance

    while not done():
        order = np.argsort(values)
        simplex, values = simplex[order], values[order]
        centroid = simplex[:-1].mean(axis=0)

        xr = centroid + _ALPHA * (centroid - simplex[-1])
        fr = f(xr)
        if fr < values[0]:
            xe = centroid + _GAMMA * (xr - centroid)
            fe = f(xe)
            if fe < fr:
                simplex[-1], values[-1] = xe, fe
            else:
                simplex[-1], values[-1] = xr, fr
        elif fr < values[-2]:
            simplex[-1], values[-1] = xr, fr
        else:
            xc = centroid + _RHO * (simplex[-1] - centroid)
            fc = f(xc)
            if fc < values[-1]:
                simplex[-1], values[-1] = xc, fc
            else:
                for i in range(1, len(simplex)):
                    simplex[i] = simplex[0] + _SHRINK * (simplex[i] - simplex[0])
                    values[i] = f(simplex[i])

    best = np.clip(simplex[np.argsort(values)[0]], lo, hi)  # the point the objective ran at
    return best, float(seen[best.tobytes()]), history


# ----------------------------------------------------------------
# transfer-error objectives
# ----------------------------------------------------------------

def transfer_errors(
    params: SystemParams,
    wf: Waveform,
    source_label: str,
    destination_label: str,
) -> tuple:
    """(forward, reverse) transfer errors of wf, read from one propagator:
    1 - P(destination) from the source eigenstate, and 1 - P(source) from
    the destination's.  Labels of different blocks raise UnknownLabelError."""
    sector = params.sector_of(source_label)
    source, destination = sector.state(source_label), sector.state(destination_label)
    u = propagator(sector, wf)
    forward = abs(np.vdot(destination, u @ source))
    reverse = abs(np.vdot(source, u @ destination))
    # Squared as both feedback loops square: a scalar ** 2 (libm pow) can
    # round one ulp apart.
    return 1.0 - float(forward * forward), 1.0 - float(reverse * reverse)


# ----------------------------------------------------------------
# reversibility search
# ----------------------------------------------------------------

def optimize_reversible(
    params: SystemParams,
    bare_pulse: Waveform,
    base_config: LctConfig,
    *,
    lambda2_init: float = 300.0,
    cutoff_candidates_ghz: tuple = (0.40, 0.45, 0.50),
    fidelity_goal: float = FIDELITY_GOAL,
) -> tuple:
    """Find a filter cutoff at which the correction gain lambda2_init gives
    two-way transfer.

    For each of cutoff_candidates_ghz the bare pulse is low-passed into a
    reference, and the correction term reshapes it at lambda2_init.  The
    cells, one per cutoff, run as one lockstep batch of feedback loops
    (lct.run_lct_lockstep), whose probe column gives each cell's reverse
    transfer error without a replay.  The lowest cutoff whose cell passes
    fidelity_goal wins, and the report is converged; when no cell passes,
    the cell with the lowest reverse error is returned and the report is
    not converged.  Forward transfer must stay below the goal in
    every cell; a cell breaking that aborts the search, naming the first
    such cell by ascending cutoff, because the correction stage is
    supposed to be insensitive to lambda2 in its working range.  History
    holds one entry per cell, cutoff ascending.

    Returns (best total waveform, OptimizationReport).
    """
    if not cutoff_candidates_ghz:
        raise ValueError("no cutoff candidates")

    source = base_config.initial_label
    destination = base_config.target_label

    fwd_bare = transfer_errors(params, bare_pulse, source, destination)[0]
    if fwd_bare >= fidelity_goal:
        raise ConvergenceError(
            f"bare pulse forward error {fwd_bare:.3e} misses the goal"
        )

    cutoffs = sorted(cutoff_candidates_ghz)
    samples, forward, reverse = run_lct_lockstep(params, [
        refined_config(base_config,
                       lowpass_filter(bare_pulse, cutoff, omega_tc_max=params.omega_tc_max),
                       lambda2_init)
        for cutoff in cutoffs])
    forward, reverse = forward.tolist(), reverse.tolist()
    for cutoff, fwd in zip(cutoffs, forward):
        if fwd >= fidelity_goal:
            raise ConvergenceError(
                f"forward error {fwd:.3e} at cutoff {cutoff} GHz, "
                f"lambda2 {lambda2_init:.4g}; correction stage is unstable here"
            )

    passing = [i for i, rev in enumerate(reverse) if rev < fidelity_goal]
    cell = passing[0] if passing else int(np.argmin(reverse))
    history = [({"cutoff_ghz": cutoff, "lambda2": lambda2_init,
                 "forward_error": fwd, "reverse_error": rev}, rev)
               for cutoff, fwd, rev in zip(cutoffs, forward, reverse)]
    return Waveform(dt=base_config.dt, samples=samples[:, cell].copy()), OptimizationReport(
        best_params={"cutoff_ghz": cutoffs[cell], "lambda2": lambda2_init},
        best_value=reverse[cell],
        evaluations=len(history),
        history=history,
        converged=bool(passing),
        forward_error=forward[cell],
        reverse_error=reverse[cell],
    )


# ----------------------------------------------------------------
# truncation search
# ----------------------------------------------------------------

def optimize_truncation(
    params: SystemParams,
    pulse: Waveform,
    source_label: str,
    destination_label: str,
    *,
    sigma_ns: float = 1.0,
) -> tuple:
    """Shorten a reversible pulse with a half-Gaussian tail of width sigma_ns.

    tau starts where the reverse process first reaches 99% transfer, read
    by a scan that stops there, and is then tuned by a 1-d simplex on
    max(forward, reverse) error, within _TRUNCATION_MAX_EVALS evaluations.
    Returns (truncated waveform, OptimizationReport).
    """
    sector = params.sector_of(destination_label)
    tau0 = first_crossing(sector, sector.state(destination_label), pulse, source_label, 0.99)
    if tau0 is None:
        raise ConvergenceError("reverse transfer never reaches 99%")

    errors = {}

    def objective(x):
        tau = float(x[0])
        errors[tau] = transfer_errors(
            params, truncate_with_gaussian_tail(pulse, tau, sigma_ns),
            source_label, destination_label)
        return max(errors[tau])

    best, value, history = nelder_mead(
        objective,
        x0=np.array([tau0]),
        bounds=[(0.5 * tau0, pulse.duration)],
        tolerance=_TRUNCATION_TOLERANCE * tau0,
        max_evals=_TRUNCATION_MAX_EVALS,
        target_value=FIDELITY_GOAL,
    )
    tau = float(best[0])
    fwd, rev = errors[tau]
    return truncate_with_gaussian_tail(pulse, tau, sigma_ns), OptimizationReport(
        best_params={"tau_ns": tau, "sigma_ns": sigma_ns},
        best_value=value,
        evaluations=len(history),
        history=history,
        converged=value < FIDELITY_GOAL,
        forward_error=fwd,
        reverse_error=rev,
    )


# ----------------------------------------------------------------
# analytic-pulse fit
# ----------------------------------------------------------------

_STAGE1_FIELDS = ("alpha1", "alpha3", "tau1", "tau2", "tau3")
_STAGE2_FIELDS = ("sigma1", "sigma2", "sigma3")

def fit_analytic_pulse(
    params: SystemParams,
    init: AnalyticPulseParams,
    source_label: str,
    destination_label: str,
) -> tuple:
    """Two-stage fit of the closed-form pulse, sampled by analytic_pulse.

    Stage 1 moves the amplitudes and switch times with the widths frozen;
    stage 2 relaxes the widths around the stage-1 optimum.  Stage 2 starts
    from the stage-1 point, so its best value can only improve on stage 1.
    Each point, inside analytic_bounds, is scored as the pulse the CLI
    writes.  Returns (AnalyticPulseParams, OptimizationReport).
    """
    def evaluate(p: AnalyticPulseParams) -> float:
        # Ordering violations are penalized, not fatal: the simplex may
        # wander through tau2 < tau1 territory while contracting.
        penalty = 0.0
        if p.tau1 > p.tau2:
            penalty += _PENALTY * (p.tau1 - p.tau2) ** 2
        if p.tau2 > p.tau3:
            penalty += _PENALTY * (p.tau2 - p.tau3) ** 2
        if penalty > 0.0:
            return 1.0 + penalty
        wf = analytic_pulse(p, params.omega_tc_max)
        return transfer_errors(params, wf, source_label, destination_label)[0]

    def stage(fields, frozen: AnalyticPulseParams, spread: float):
        def obj(x):
            return evaluate(replace(frozen, **dict(zip(fields, x))))

        x0 = np.array([getattr(frozen, f) for f in fields])
        best, value, history = nelder_mead(
            obj,
            x0=x0,
            bounds=[analytic_bounds(params.omega_tc_max)[f] for f in fields],
            tolerance=_FIT_TOLERANCE * max(1.0, float(np.abs(x0).max())),
            max_evals=_FIT_MAX_EVALS,
            initial_spread=spread,
        )
        return replace(frozen, **dict(zip(fields, best))), value, history

    current, _, history1 = stage(_STAGE1_FIELDS, init, spread=0.05)
    current, value, history2 = stage(_STAGE2_FIELDS, current, spread=0.10)
    history = history1 + history2
    return current, OptimizationReport(
        best_params={f: getattr(current, f) for f in _STAGE1_FIELDS + _STAGE2_FIELDS},
        best_value=value,
        evaluations=len(history),
        history=history,
        converged=value < FIDELITY_GOAL,
        forward_error=value,
    )

