"""Derivative-free refinement loops built on a small Nelder-Mead core.

Three drivers share the simplex engine:

  optimize_reversible   grid over filter cutoffs x correction gains, run as
                        one lockstep feedback loop whose probe column gives
                        each cell's reverse error; a 1-d simplex over the
                        gain refines only when no grid cell passes
  optimize_truncation   1-d search over the truncation time tau
  fit_analytic_pulse    two-stage fit of the closed-form pulse (amplitudes
                        and switch times first, widths second)

Every objective is deterministic, so repeated runs reproduce bit-identical
histories.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace

import numpy as np

from .dynamics import QuantumState, propagate_endpoint, propagate_waveform
from .errors import ConvergenceError
# run_lct stays bound here, though the search runs in lockstep: the
# benchmark's tracer wraps it in every module that binds it, and its test
# checks this module among them.
from .lct import LctConfig, refined_config, run_lct, run_lct_lockstep  # noqa: F401
from .model import SystemParams, drift_spectrum
from .pulses import (
    AnalyticPulseParams,
    Waveform,
    analytic_samples,
    clamp_samples,
    lowpass_filter,
    natural_duration,
    truncate_with_gaussian_tail,
)

log = logging.getLogger(__name__)

# Simplex coefficients: reflection, expansion, contraction, shrink.
_ALPHA, _GAMMA, _RHO, _SHRINK = 1.0, 2.0, 0.5, 0.5

_PENALTY = 1e6


@dataclass
class OptimizationReport:
    """Search record shared by all drivers.

    history holds one (params, objective) pair per evaluation; best_params
    is a plain dict.  forward_error / reverse_error are filled by the
    transfer drivers and stay None for generic searches.
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


# lambda2 values spread evenly over lambda2_bounds in the reversibility
# grid, next to lambda2_init (17 per cutoff).
LAMBDA2_GRID_POINTS = 16


@dataclass(frozen=True)
class ReversibilityConfig:
    """Settings for the cutoff / gain reversibility search.

    The grid: cutoff_candidates_ghz (searched ascending) x lambda2_init
    plus LAMBDA2_GRID_POINTS points over lambda2_bounds.  fidelity_goal is
    the pass mark for every cell's reverse error and the limit on every
    forward error.  The fallback simplex, run only when no grid cell
    passes: simplex_tolerance (times lambda2_init) and max_evals per
    cutoff, within lambda2_bounds.
    """

    lambda2_init: float = 300.0
    lambda2_bounds: tuple = (100.0, 1000.0)
    cutoff_candidates_ghz: tuple = (0.40, 0.45, 0.50)
    fidelity_goal: float = 1e-6
    simplex_tolerance: float = 1e-3
    max_evals: int = 60


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
) -> OptimizationReport:
    """Simplex minimization with clip-plus-penalty bound handling.

    Out-of-bounds candidates are evaluated at the clipped point with
    _PENALTY * (squared excess) added, which steers the simplex back inside
    without ever calling the objective outside its domain.  The objective
    runs once per distinct clipped point: a revisit (such as a reflection
    clipped onto a bound already evaluated) reuses its value, so the
    simplex path is the same and `evaluations`, `history` and `max_evals`
    count objective runs.  Terminates when the simplex diameter falls
    below `tolerance`, when `max_evals` is spent, or as soon as the best
    value drops below `target_value`.
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

    order = np.argsort(values)
    simplex, values = simplex[order], values[order]
    hit_goal = target_value is not None and values[0] < target_value
    converged = hit_goal or _simplex_diameter(simplex) < tolerance
    return OptimizationReport(
        best_params={f"x{i}": float(xi) for i, xi in enumerate(simplex[0])},
        best_value=float(values[0]),
        evaluations=len(history),
        history=history,
        converged=converged,
    )


# ----------------------------------------------------------------
# transfer-error objectives
# ----------------------------------------------------------------

def reverse_error(
    params: SystemParams,
    wf: Waveform,
    source_label: str,
    destination_label: str,
) -> float:
    """1 - P(destination) after applying wf to the source eigenstate."""
    spectrum = drift_spectrum(params)
    final = propagate_endpoint(params, QuantumState(spectrum.state(source_label)), wf)
    return 1.0 - float(abs(np.vdot(spectrum.state(destination_label), final.amplitudes)) ** 2)


def forward_and_reverse_error(
    params: SystemParams,
    wf: Waveform,
    source_label: str,
    destination_label: str,
) -> tuple:
    """Transfer errors for wf applied forward and to the swapped pair."""
    fwd = reverse_error(params, wf, source_label, destination_label)
    rev = reverse_error(params, wf, destination_label, source_label)
    return fwd, rev


# ----------------------------------------------------------------
# reversibility search
# ----------------------------------------------------------------

def optimize_reversible(
    params: SystemParams,
    bare_pulse: Waveform,
    base_config: LctConfig,
    cfg: ReversibilityConfig,
) -> tuple:
    """Find a filter cutoff and correction gain giving two-way transfer.

    For each cutoff candidate the bare pulse is low-passed into a
    reference, and the correction term is reshaped at every lambda2 of the
    grid: lambda2_init, then LAMBDA2_GRID_POINTS points spread evenly over
    lambda2_bounds.  The whole cutoff x lambda2 grid runs as one lockstep
    feedback loop (lct.run_lct_lockstep), whose probe column gives each
    cell's reverse transfer error without a replay.  The lowest cutoff
    with a cell below the fidelity goal wins, with its lowest-error
    passing cell.  Only when no cell passes does a 1-d simplex over
    lambda2 run, cutoff by cutoff in ascending order from that cutoff's
    best cell, each evaluation a one-member lockstep run; it stops at the
    first cutoff reaching the goal.  Forward transfer must stay below the
    goal at every evaluation; a cell breaking that aborts the run, because
    the correction stage is supposed to be insensitive to lambda2 in its
    working range.  History entries follow the grid order (cutoff
    ascending, lambda2 as listed), then the simplex's evaluations.

    Returns (best total waveform, OptimizationReport).
    """
    source = base_config.initial_label
    destination = base_config.target_label

    fwd_bare = reverse_error(params, bare_pulse, source, destination)
    if fwd_bare >= cfg.fidelity_goal:
        raise ConvergenceError(
            f"bare pulse forward error {fwd_bare:.3e} misses the goal"
        )

    if not cfg.cutoff_candidates_ghz:
        raise ValueError("no cutoff candidates")

    cutoffs = sorted(cfg.cutoff_candidates_ghz)
    references = {
        cutoff: lowpass_filter(bare_pulse, cutoff, omega_tc_max=params.omega_tc_max)
        for cutoff in cutoffs
    }
    history = []

    def evaluate(cells: list):
        """Run (cutoff, lambda2) cells in lockstep and record each one."""
        batch = run_lct_lockstep(params, [
            refined_config(base_config, references[cutoff], lam2)
            for cutoff, lam2 in cells])
        for (cutoff, lam2), fwd, rev in zip(cells, batch.forward_error,
                                            batch.reverse_error):
            if fwd >= cfg.fidelity_goal:
                raise ConvergenceError(
                    f"forward error {fwd:.3e} at cutoff {cutoff} GHz, "
                    f"lambda2 {lam2:.4g}; correction stage is unstable here"
                )
            history.append(
                ({"cutoff_ghz": cutoff, "lambda2": lam2,
                  "forward_error": float(fwd), "reverse_error": float(rev)},
                 float(rev))
            )
        return batch

    def report(entry: dict, wf: Waveform, converged: bool) -> tuple:
        return wf, OptimizationReport(
            best_params={"cutoff_ghz": entry["cutoff_ghz"], "lambda2": entry["lambda2"]},
            best_value=entry["reverse_error"],
            evaluations=len(history),
            history=history,
            converged=converged,
            forward_error=entry["forward_error"],
            reverse_error=entry["reverse_error"],
        )

    lambdas = [cfg.lambda2_init,
               *np.linspace(*cfg.lambda2_bounds, LAMBDA2_GRID_POINTS).tolist()]
    grid = evaluate([(cutoff, lam2) for cutoff in cutoffs for lam2 in lambdas])
    errors = grid.reverse_error.reshape(len(cutoffs), len(lambdas))
    best_cells = errors.argmin(axis=1)
    for c, cutoff in enumerate(cutoffs):
        log.info("cutoff %.3g GHz: best grid reverse error %.3e",
                 cutoff, errors[c, best_cells[c]])
        if errors[c, best_cells[c]] < cfg.fidelity_goal:
            cell = c * len(lambdas) + best_cells[c]
            return report(history[cell][0], grid.waveform(cell), True)

    # No cell passes: refine lambda2 by simplex, lowest cutoff first.
    cell = int(grid.reverse_error.argmin())
    best = {"entry": history[cell][0], "wf": grid.waveform(cell)}
    for c, cutoff in enumerate(cutoffs):
        def objective(x, _cutoff=cutoff):
            run = evaluate([(_cutoff, float(x[0]))])
            if history[-1][1] < best["entry"]["reverse_error"]:
                best.update(entry=history[-1][0], wf=run.waveform(0))
            return history[-1][1]

        search = nelder_mead(
            objective,
            x0=np.array([lambdas[best_cells[c]]]),
            bounds=[cfg.lambda2_bounds],
            tolerance=cfg.simplex_tolerance * cfg.lambda2_init,
            max_evals=cfg.max_evals,
            target_value=cfg.fidelity_goal,
        )
        log.info(
            "cutoff %.3g GHz: simplex reverse error %.3e after %d evals",
            cutoff, search.best_value, search.evaluations,
        )
        if search.best_value < cfg.fidelity_goal:
            return report(best["entry"], best["wf"], True)
    return report(best["entry"], best["wf"], False)


# ----------------------------------------------------------------
# truncation search
# ----------------------------------------------------------------

def optimize_truncation(
    params: SystemParams,
    pulse: Waveform,
    sigma: float,
    source_label: str,
    destination_label: str,
    fidelity_goal: float = 1e-6,
    simplex_tolerance: float = 1e-3,
    max_evals: int = 60,
) -> tuple:
    """Shorten a reversible pulse with a half-Gaussian tail.

    tau starts where the reverse process first reaches 99% transfer and is
    then tuned by a 1-d simplex on max(forward, reverse) error.  Returns
    (truncated waveform, OptimizationReport).
    """
    psi_rev = QuantumState(amplitudes=drift_spectrum(params).state(destination_label))
    traj = propagate_waveform(params, psi_rev, pulse, tracked=[source_label])
    tau0 = traj.time_to_population(source_label, 0.99)
    if tau0 is None:
        raise ConvergenceError("reverse transfer never reaches 99%")

    best = {"value": np.inf, "wf": None, "fwd": None, "rev": None, "tau": None}

    def objective(x):
        tau = float(x[0])
        wt = truncate_with_gaussian_tail(pulse, tau, sigma)
        fwd, rev = forward_and_reverse_error(
            params, wt, source_label, destination_label
        )
        value = max(fwd, rev)
        if value < best["value"]:
            best.update(value=value, wf=wt, fwd=fwd, rev=rev, tau=tau)
        return value

    report = nelder_mead(
        objective,
        x0=np.array([tau0]),
        bounds=[(0.5 * tau0, pulse.duration)],
        tolerance=simplex_tolerance * tau0,
        max_evals=max_evals,
        target_value=fidelity_goal,
    )
    out = OptimizationReport(
        best_params={"tau_ns": best["tau"], "sigma_ns": sigma},
        best_value=best["value"],
        evaluations=report.evaluations,
        history=report.history,
        converged=report.best_value < fidelity_goal,
        forward_error=best["fwd"],
        reverse_error=best["rev"],
    )
    return best["wf"], out


# ----------------------------------------------------------------
# analytic-pulse fit
# ----------------------------------------------------------------

_STAGE1_FIELDS = ("alpha1", "alpha3", "tau1", "tau2", "tau3")
_STAGE2_FIELDS = ("sigma1", "sigma2", "sigma3")

DEFAULT_ANALYTIC_BOUNDS = {
    "alpha1": (-20.0, -1.0),   # rad/ns
    "alpha3": (-20.0, -1.0),
    "tau1": (1.0, 15.0),
    "tau2": (1.0, 20.0),
    "tau3": (1.0, 25.0),
    "sigma1": (0.05, 5.0),
    "sigma2": (0.05, 5.0),
    "sigma3": (0.05, 5.0),
}


def _analytic_objective(params, source_label, destination_label, dt):
    def evaluate(p: AnalyticPulseParams) -> float:
        # Ordering violations are penalized, not fatal: the simplex may
        # wander through tau2 < tau1 territory while contracting.
        penalty = 0.0
        if p.tau1 > p.tau2:
            penalty += _PENALTY * (p.tau1 - p.tau2) ** 2
        if p.tau2 > p.tau3:
            penalty += _PENALTY * (p.tau2 - p.tau3) ** 2
        if p.alpha1 >= 0.0:
            penalty += _PENALTY * (1.0 + p.alpha1) ** 2
        if p.alpha3 >= 0.0:
            penalty += _PENALTY * (1.0 + p.alpha3) ** 2
        if penalty > 0.0:
            return 1.0 + penalty
        duration = natural_duration(p)
        n = max(2, int(round(duration / dt)))
        samples = clamp_samples(analytic_samples(p, np.arange(n) * dt),
                                params.omega_tc_max)
        wf = Waveform(dt=dt, samples=samples)
        return reverse_error(params, wf, source_label, destination_label)

    return evaluate


def fit_analytic_pulse(
    params: SystemParams,
    init: AnalyticPulseParams,
    source_label: str,
    destination_label: str,
    bounds: dict | None = None,
    dt: float = 0.01,
    fidelity_goal: float = 1e-6,
    simplex_tolerance: float = 1e-6,
    max_evals_per_stage: int = 2000,
) -> tuple:
    """Two-stage fit of the closed-form pulse.

    Stage 1 moves the amplitudes and switch times with the widths frozen;
    stage 2 relaxes the widths around the stage-1 optimum.  Stage 2 starts
    from the stage-1 point, so its best value can only improve on stage 1.
    Returns (AnalyticPulseParams, OptimizationReport).
    """
    bounds = {**DEFAULT_ANALYTIC_BOUNDS, **(bounds or {})}
    evaluate = _analytic_objective(params, source_label, destination_label, dt)

    current = init

    def stage(fields, frozen: AnalyticPulseParams, spread: float):
        def obj(x):
            p = replace(frozen, **dict(zip(fields, x)))
            return evaluate(p)

        x0 = np.array([getattr(frozen, f) for f in fields])
        report = nelder_mead(
            obj,
            x0=x0,
            bounds=[bounds[f] for f in fields],
            tolerance=simplex_tolerance * max(1.0, float(np.abs(x0).max())),
            max_evals=max_evals_per_stage,
            initial_spread=spread,
            target_value=None,
        )
        x_best = np.array([report.best_params[f"x{i}"] for i in range(len(fields))])
        return replace(frozen, **dict(zip(fields, x_best))), report

    current, rep1 = stage(_STAGE1_FIELDS, current, spread=0.05)
    current, rep2 = stage(_STAGE2_FIELDS, current, spread=0.10)

    best_value = min(rep1.best_value, rep2.best_value)
    report = OptimizationReport(
        best_params={f: getattr(current, f) for f in
                     _STAGE1_FIELDS + _STAGE2_FIELDS},
        best_value=best_value,
        evaluations=rep1.evaluations + rep2.evaluations,
        history=rep1.history + rep2.history,
        converged=best_value < fidelity_goal,
        forward_error=best_value,
    )
    return current, report

