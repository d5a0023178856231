import inspect
from dataclasses import replace

import numpy as np
import pytest

from lctpulse import optimize
from lctpulse.errors import ConvergenceError, UnknownLabelError
from lctpulse.io import report_to_dict
from lctpulse.lct import LctConfig, refined_config, run_lct, run_lct_lockstep
from lctpulse.model import SystemParams
from lctpulse.optimize import (
    OptimizationReport,
    fit_analytic_pulse,
    nelder_mead,
    optimize_reversible,
    optimize_truncation,
    transfer_errors,
)
from lctpulse.pulses import (AnalyticPulseParams, Waveform, analytic_pulse, clamp_floor,
                             lowpass_filter,
                             truncate_with_gaussian_tail)
from lctpulse.units import TWO_PI


def _rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def _assert_best_is_an_evaluated_point(best, history, bounds):
    """The reported point lies inside the bounds and is one the objective
    ran at, not an unclipped vertex beyond them."""
    assert all(lo <= x <= hi for x, (lo, hi) in zip(best, bounds))
    assert any(np.array_equal(best, point) for point, _ in history)


def test_simplex_solves_rosenbrock():
    best, value, history = nelder_mead(
        _rosenbrock, x0=np.array([-1.2, 1.0]),
        bounds=[(-5.0, 5.0), (-5.0, 5.0)],
        tolerance=1e-8, max_evals=2000,
    )
    _assert_best_is_an_evaluated_point(best, history, [(-5.0, 5.0), (-5.0, 5.0)])
    assert len(history) < 2000  # stopped on its tolerance, before the cap
    assert best[0] == pytest.approx(1.0, abs=1e-4)
    assert best[1] == pytest.approx(1.0, abs=1e-4)
    assert value < 1e-8
    assert value == _rosenbrock(best)


def test_simplex_never_evaluates_outside_bounds():
    seen = []

    def obj(x):
        seen.append(x.copy())
        return float(np.sum((x - 2.0) ** 2))  # pull toward the bound

    best, _, history = nelder_mead(obj, x0=np.array([0.5]), bounds=[(0.0, 1.0)],
                                   tolerance=1e-10, max_evals=200)
    _assert_best_is_an_evaluated_point(best, history, [(0.0, 1.0)])
    pts = np.array(seen)
    assert np.all(pts >= 0.0) and np.all(pts <= 1.0)
    # minimum inside the box sits on the boundary
    assert pts[-1][0] == pytest.approx(1.0, abs=1e-6)


def test_simplex_runs_the_objective_once_per_distinct_point():
    # Pulled toward x = 2 from inside [0, 1], the simplex keeps reflecting
    # past the upper bound, and every such step clips onto x = 1 again.
    calls = []

    def obj(x):
        calls.append(float(x[0]))
        return float((x[0] - 2.0) ** 2)

    best, value, history = nelder_mead(obj, x0=np.array([0.5]), bounds=[(0.0, 1.0)],
                                       tolerance=1e-6, max_evals=200)
    _assert_best_is_an_evaluated_point(best, history, [(0.0, 1.0)])
    assert value == (best[0] - 2.0) ** 2  # no penalty
    assert len(calls) == len(set(calls))
    assert len(calls) == len(history)
    assert best[0] == pytest.approx(1.0, abs=1e-6)


def test_simplex_steps_inward_from_an_upper_bound():
    seen = []

    def obj(x):
        seen.append(float(x[0]))
        return float((x[0] - 0.3) ** 2)

    best, _, history = nelder_mead(obj, x0=np.array([1.0]), bounds=[(0.0, 1.0)],
                                   tolerance=1e-4, max_evals=100)
    _assert_best_is_an_evaluated_point(best, history, [(0.0, 1.0)])
    assert seen[:2] == [1.0, 0.9]
    assert best[0] == pytest.approx(0.3, abs=1e-3)


def test_simplex_rejects_bad_start():
    with pytest.raises(ValueError):
        nelder_mead(_rosenbrock, x0=np.array([9.0, 0.0]),
                    bounds=[(-5.0, 5.0), (-5.0, 5.0)],
                    tolerance=1e-6, max_evals=100)


def test_simplex_stops_at_target():
    best, value, history = nelder_mead(
        lambda x: float(np.dot(x, x)), x0=np.array([1.0]),
        bounds=[(-5.0, 5.0)], tolerance=1e-14, max_evals=500,
        target_value=1e-4,
    )
    _assert_best_is_an_evaluated_point(best, history, [(-5.0, 5.0)])
    assert value < 1e-4
    assert len(history) < 500


def test_report_rejects_out_of_range_errors():
    with pytest.raises(ValueError):
        OptimizationReport(best_params={}, best_value=0.0, evaluations=1,
                           forward_error=1.5)


def test_reversibility_config_defaults():
    parameters = inspect.signature(optimize_reversible).parameters
    assert parameters["cutoff_candidates_ghz"].default == (0.40, 0.45, 0.50)
    assert parameters["fidelity_goal"].default == 1e-6


def test_reverse_error_identity_on_idle_pulse(params):
    wf = Waveform(dt=0.05, samples=np.zeros(100))
    assert transfer_errors(params, wf, "100", "100")[0] == pytest.approx(0.0, abs=1e-10)
    assert transfer_errors(params, wf, "100", "010")[0] == pytest.approx(1.0, abs=1e-10)


def test_reverse_error_across_excitation_blocks_raises(params):
    # 011 lies outside the single-excitation block of 100, so no pulse
    # transfers between them: the pair is refused, not scored 1.0.
    wf = Waveform(dt=0.05, samples=np.zeros(100))
    with pytest.raises(UnknownLabelError, match="011"):
        transfer_errors(params, wf, "100", "011")


def test_forward_and_reverse_pair(params):
    wf = Waveform(dt=0.05, samples=np.zeros(100))
    fwd, rev = transfer_errors(params, wf, "100", "010")
    assert fwd == pytest.approx(1.0, abs=1e-10)
    assert rev == pytest.approx(1.0, abs=1e-10)


def test_transfer_errors_square_each_overlap_as_a_product(params, monkeypatch):
    # Block 0 holds the one state 000, whose 1 x 1 eigenvector is exactly 1,
    # so both overlaps are the propagator's one entry.  The feedback loops
    # square as x * x, which rounds 0.762103571076567^2 to
    # 0.580801853047656; a scalar ** 2 (libm pow) gives one ulp more.
    monkeypatch.setattr(optimize, "propagator",
                        lambda sector, wf: np.array([[0.762103571076567 + 0j]]))
    wf = Waveform(dt=0.05, samples=np.zeros(4))
    error = 1.0 - 0.580801853047656
    assert transfer_errors(params, wf, "000", "000") == (error, error)


def test_forward_and_reverse_share_one_endpoint_product(params, monkeypatch):
    wf = Waveform(dt=0.05, samples=-2.0 * np.abs(np.sin(np.linspace(0.1, 9.0, 400))))
    expected = (transfer_errors(params, wf, "100", "010")[0],
                transfer_errors(params, wf, "010", "100")[0])
    batched = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            batched.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert transfer_errors(params, wf, "100", "010") == expected
    assert batched == [wf.n]


def test_truncation_requires_a_transferring_pulse(params):
    wf = Waveform(dt=0.05, samples=np.zeros(200))
    with pytest.raises(ConvergenceError):
        optimize_truncation(params, wf, "100", "010", sigma_ns=1.0)


def test_truncation_reports_the_simplex_best(params, monkeypatch):
    # Only the untruncated pulse passes.  From tau0 = 95 ns the simplex
    # reflects past the pulse's end, where the clipped point (the whole
    # pulse) reads 1e-8 under a large penalty: the report must still be the
    # simplex's best, with the errors and the pulse of that point.
    wf = Waveform(dt=0.01, samples=-np.ones(10000))
    times = np.arange(wf.n + 1) * wf.dt
    monkeypatch.setattr(optimize, "first_crossing", lambda *args, **kw: float(
        times[np.flatnonzero(times >= 95.0)[0]]))
    monkeypatch.setattr(optimize, "transfer_errors", lambda p, wt, *labels: (
        (1e-8, 2e-9) if np.array_equal(wt.samples, wf.samples) else (1e-3, 5e-4)))
    simplex = []

    def recorded(*args, **kwargs):
        simplex.append(nelder_mead(*args, **kwargs))
        return simplex[-1]

    monkeypatch.setattr(optimize, "nelder_mead", recorded)
    out, report = optimize_truncation(params, wf, "100", "010", sigma_ns=1.0)
    assert any(point[0] == wf.duration for point, _ in report.history)
    assert report.best_value == simplex[0][1] == 1e-3
    assert report.converged == (report.best_value < 1e-6)
    assert report.best_params["tau_ns"] == simplex[0][0][0] == 95.0
    assert (report.forward_error, report.reverse_error) == (1e-3, 5e-4)
    assert np.array_equal(out.samples, truncate_with_gaussian_tail(wf, 95.0, 1.0).samples)


# ----------------------------------------------------------------
# reversibility search contract, on a fast device
# ----------------------------------------------------------------

# Strong couplings transfer within 60 ns at a low gain, so a whole search
# grid costs about a second.
_FAST = SystemParams.from_ghz([5.890, 5.031], [0.3, 0.2], 7.445)
_FAST_BASE = LctConfig(lambda_=5000.0, eta=1e-6, dt=0.01, t_max=60.0,
                       initial_label="100", target_label="010")


@pytest.fixture(scope="module")
def fast_bare():
    run = run_lct(_FAST, _FAST_BASE)
    assert run.final_error < 1e-5
    return run.waveform


@pytest.fixture
def simplex_calls(monkeypatch):
    calls = []

    def counted(objective, x0, *args, **kwargs):
        calls.append(float(x0[0]))
        return nelder_mead(objective, x0, *args, **kwargs)

    monkeypatch.setattr(optimize, "nelder_mead", counted)
    return calls


def _search(bare, **kw):
    return optimize_reversible(_FAST, bare, _FAST_BASE, **kw)


@pytest.fixture
def lockstep_batches(monkeypatch):
    """Member count of each lockstep batch the search runs."""
    batches = []

    def counted(params, configs):
        batches.append(len(configs))
        return run_lct_lockstep(params, configs)

    monkeypatch.setattr(optimize, "run_lct_lockstep", counted)
    return batches


def test_lowest_passing_cutoff_wins(fast_bare, lockstep_batches, simplex_calls):
    cutoffs = (1.0, 0.45, 0.3)
    # A cutoff x lambda2 grid in one lockstep run, the bit reference for
    # the search's cells: cutoff ascending, then lambda2_init and 16 gains
    # spread over 200..1000.
    lambdas = [300.0, *np.linspace(200.0, 1000.0, 16).tolist()]
    references = [lowpass_filter(fast_bare, c, omega_tc_max=_FAST.omega_tc_max)
                  for c in sorted(cutoffs)]
    full_samples, full_forward, full_reverse = run_lct_lockstep(
        _FAST, [refined_config(_FAST_BASE, ref, lam2)
                for ref in references for lam2 in lambdas])
    rows = full_reverse.reshape(len(cutoffs), len(lambdas))
    init = rows[:, 0]  # 0.3, 0.45 and 1.0 GHz
    assert init[1] < init[0] < 0.5 < init[2]
    lockstep_batches.clear()

    def same_bits(wf, cell):
        return wf.samples.tobytes() == full_samples[:, cell].tobytes()

    # Goal 0.5: the init cells of 0.3 and 0.45 GHz pass.  The lower cutoff
    # wins with its init cell although 0.45 GHz holds the lower error, and
    # only the init column runs, as one batch of three.
    wf, rep = _search(fast_bare, cutoff_candidates_ghz=cutoffs, fidelity_goal=0.5)
    assert lockstep_batches == [3]
    assert rep.evaluations == len(rep.history) == 3
    assert [h[0]["cutoff_ghz"] for h in rep.history] == [0.3, 0.45, 1.0]
    assert [h[0]["lambda2"] for h in rep.history] == [300.0] * 3
    assert [h[1] for h in rep.history] == init.tolist()
    assert rep.converged and simplex_calls == []
    assert rep.best_params == {"cutoff_ghz": 0.3, "lambda2": 300.0}
    assert rep.reverse_error == rep.best_value == init[0]
    assert rep.forward_error == full_forward[0]
    assert same_bits(wf, 0)
    assert abs(transfer_errors(_FAST, wf, "010", "100")[0] - rep.reverse_error) < 1e-12

    # With the goal between the two init errors, 0.3 GHz fails and
    # 0.45 GHz is the lowest cutoff whose init cell passes.
    goal = 0.5 * (init[0] + init[1])
    wf, rep = _search(fast_bare, cutoff_candidates_ghz=cutoffs, fidelity_goal=goal)
    assert rep.evaluations == 3
    assert rep.best_params == {"cutoff_ghz": 0.45, "lambda2": 300.0}
    assert rep.reverse_error == init[1]
    assert same_bits(wf, len(lambdas))

    # Below every init cell, the search still runs the init column alone,
    # although a spread cell at 0.3 GHz would pass this goal: it ends not
    # converged, with the lowest-error init cell (0.45 GHz).
    goal = 0.5 * (rows[0].min() + init.min())
    assert rows[0].min() < goal < init.min()
    lockstep_batches.clear()
    wf, rep = _search(fast_bare, cutoff_candidates_ghz=cutoffs, fidelity_goal=goal)
    assert lockstep_batches == [3]
    assert rep.evaluations == len(rep.history) == 3
    assert [h[1] for h in rep.history] == init.tolist()
    assert [h[0]["forward_error"] for h in rep.history] == full_forward[::len(lambdas)].tolist()
    assert not rep.converged and simplex_calls == []
    assert rep.best_params == {"cutoff_ghz": 0.45, "lambda2": 300.0}
    assert rep.reverse_error == rep.best_value == init.min() == init[1]
    assert same_bits(wf, len(lambdas))


def test_search_histories_are_identical(fast_bare):
    kw = dict(cutoff_candidates_ghz=(0.3, 0.45), fidelity_goal=0.5)
    wf_a, rep_a = _search(fast_bare, **kw)
    wf_b, rep_b = _search(fast_bare, **kw)
    assert rep_a.history == rep_b.history
    assert rep_a.best_params == rep_b.best_params
    np.testing.assert_array_equal(wf_a.samples, wf_b.samples)


def test_forward_failure_in_a_cell_aborts(fast_bare, lockstep_batches):
    # lambda2 = 0 leaves the filtered reference alone, which transfers
    # poorly; the cell's forward error misses the goal.  As the init gain
    # it fails in the first batch.
    with pytest.raises(ConvergenceError, match="cutoff 0.45 GHz, lambda2 0;"):
        _search(fast_bare, cutoff_candidates_ghz=(0.45,),
                lambda2_init=0.0, fidelity_goal=0.5)
    assert lockstep_batches == [1]
    # The abort names the first failing cell by ascending cutoff.
    with pytest.raises(ConvergenceError, match="cutoff 0.3 GHz, lambda2 0;"):
        _search(fast_bare, cutoff_candidates_ghz=(0.45, 0.3),
                lambda2_init=0.0, fidelity_goal=0.5)
    assert lockstep_batches == [1, 2]


def test_bare_pulse_missing_the_goal_aborts_before_the_search(lockstep_batches):
    # An idle pulse transfers nothing, so no refinement of it can pass:
    # the search refuses it before any lockstep batch runs.
    idle = Waveform(dt=0.01, samples=np.zeros(6000))
    with pytest.raises(ConvergenceError, match="bare pulse forward error .* misses the goal"):
        _search(idle)
    assert lockstep_batches == []


def test_empty_cutoffs_fail_before_the_bare_replay():
    # The idle pulse would miss the goal, but no cutoff means no search,
    # which is said before the replay runs.
    idle = Waveform(dt=0.01, samples=np.zeros(6000))
    with pytest.raises(ValueError, match="no cutoff candidates"):
        _search(idle, cutoff_candidates_ghz=())


def test_no_passing_cell_returns_the_lowest_error_cell(fast_bare, simplex_calls):
    cutoffs = (0.45, 1.0)
    wf, rep = _search(fast_bare, cutoff_candidates_ghz=cutoffs, fidelity_goal=1e-3)
    # The search is the init column alone: nothing runs after it fails.
    assert rep.evaluations == len(rep.history) == len(cutoffs)
    assert simplex_calls == []
    assert not rep.converged
    assert rep.best_value == min(h[1] for h in rep.history) >= 1e-3
    assert all(h[0]["forward_error"] < 1e-3 for h in rep.history)
    assert abs(transfer_errors(_FAST, wf, "010", "100")[0] - rep.reverse_error) < 1e-12


def test_simplex_histories_are_keyed_x_i_in_the_reports(fast_bare, monkeypatch):
    # The simplex hands back bare points; io alone names their coordinates
    # x0, x1, ... in the JSON report.  Truncation moves tau alone, and the
    # fit moves five shape keys, then three widths.
    wf, _ = _search(fast_bare, cutoff_candidates_ghz=(0.45,), fidelity_goal=0.5)
    monkeypatch.setattr(optimize, "_TRUNCATION_MAX_EVALS", 6)
    _, rep = optimize_truncation(_FAST, wf, "100", "010")
    history = report_to_dict(rep)["history"]
    assert len(history) == rep.evaluations > 1
    assert all(list(h["params"]) == ["x0"] for h in history)
    assert rep.best_params["tau_ns"] in [h["params"]["x0"] for h in history]

    monkeypatch.setattr(optimize, "_FIT_MAX_EVALS", 8)
    start = AnalyticPulseParams(alpha1=-10.0, alpha3=-15.4, tau1=7.2, tau2=8.9, tau3=11.4,
                                sigma1=1.37, sigma2=0.2, sigma3=1.83)
    _, rep = fit_analytic_pulse(_FAST, start, "100", "010")
    keys = [list(h["params"]) for h in report_to_dict(rep)["history"]]
    stage1 = sum(len(k) == 5 for k in keys)
    assert 8 <= stage1 <= len(keys) - 8 and len(keys) == rep.evaluations
    assert keys == ([[f"x{i}" for i in range(5)]] * stage1
                    + [[f"x{i}" for i in range(3)]] * (len(keys) - stage1))

    # Switch times 0.2 ns apart: the start's simplex puts tau1 past tau2
    # and tau2 past tau3, and its first reflection puts tau1 past tau2
    # again.  Each such point scores 1 plus the ordering penalty, and
    # none is the best.
    close = replace(start, tau1=7.2, tau2=7.4, tau3=7.6)
    _, rep = fit_analytic_pulse(_FAST, close, "100", "010")
    stage1 = [(x, value) for x, value in rep.history if x.size == 5]
    penalized = [(i, x) for i, (x, value) in enumerate(stage1) if value > 1.0]
    assert [i for i, x in penalized if x[2] > x[3]] == [3, 6]
    assert [i for i, x in penalized if x[3] > x[4]] == [4]
    for i, x in penalized:
        excess = np.maximum(x[2:4] - x[3:5], 0.0)
        assert stage1[i][1] == pytest.approx(1.0 + optimize._PENALTY * (excess ** 2).sum(),
                                             rel=1e-12)
    assert rep.best_value < 1.0


def test_fit_on_a_low_coupler_scores_only_pulses_it_can_write(monkeypatch):
    # A 2 GHz coupler's clamp floor, -1.998 GHz, lies above -20 rad/ns, so
    # it bounds the amplitudes: every point the fit scores is the pulse the
    # CLI samples for it, unclamped.  Without the floor, this start's
    # simplex reaches alpha1 -2.09 GHz at its 7th evaluation, inside the cap.
    monkeypatch.setattr(optimize, "_FIT_MAX_EVALS", 8)
    low = SystemParams.from_ghz([1.89, 1.031], [0.1, 0.071], 2.0)
    start = AnalyticPulseParams(
        alpha1=-TWO_PI * 1.99, alpha3=-TWO_PI * 1.8, tau1=7.201434824566999,
        tau2=8.901434824566998, tau3=11.401434824566998, sigma1=1.37, sigma2=0.2, sigma3=1.83)
    fitted, rep = fit_analytic_pulse(low, start, "100", "010")
    floor = clamp_floor(low.omega_tc_max)
    amplitudes = [float(a) for x, _ in rep.history if x.size == 5 for a in x[:2]]
    assert len(amplitudes) >= 16
    assert min(amplitudes) >= floor
    assert min(fitted.alpha1, fitted.alpha3) >= floor
    wf = analytic_pulse(fitted, low.omega_tc_max)
    assert transfer_errors(low, wf, "100", "010")[0] == rep.best_value == rep.forward_error
