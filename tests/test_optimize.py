import numpy as np
import pytest

from lctpulse import ConvergenceError, LctConfig, SystemParams, Waveform, run_lct
from lctpulse import optimize
from lctpulse.optimize import (
    LAMBDA2_GRID_POINTS,
    OptimizationReport,
    ReversibilityConfig,
    forward_and_reverse_error,
    nelder_mead,
    optimize_reversible,
    optimize_truncation,
    reverse_error,
)


def _rosenbrock(x):
    return float((1 - x[0]) ** 2 + 100.0 * (x[1] - x[0] ** 2) ** 2)


def test_simplex_solves_rosenbrock():
    rep = nelder_mead(
        _rosenbrock, x0=np.array([-1.2, 1.0]),
        bounds=[(-5.0, 5.0), (-5.0, 5.0)],
        tolerance=1e-8, max_evals=2000,
    )
    assert rep.converged
    assert rep.best_params["x0"] == pytest.approx(1.0, abs=1e-4)
    assert rep.best_params["x1"] == pytest.approx(1.0, abs=1e-4)
    assert rep.best_value < 1e-8
    assert len(rep.history) == rep.evaluations


def test_simplex_never_evaluates_outside_bounds():
    seen = []

    def obj(x):
        seen.append(x.copy())
        return float(np.sum((x - 2.0) ** 2))  # pull toward the bound

    nelder_mead(obj, x0=np.array([0.5]), bounds=[(0.0, 1.0)],
                tolerance=1e-10, max_evals=200)
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

    rep = nelder_mead(obj, x0=np.array([0.5]), bounds=[(0.0, 1.0)],
                      tolerance=1e-6, max_evals=200)
    assert len(calls) == len(set(calls))
    assert rep.evaluations == len(calls) == len(rep.history)
    assert rep.best_params["x0"] == pytest.approx(1.0, abs=1e-6)


def test_simplex_steps_inward_from_an_upper_bound():
    seen = []

    def obj(x):
        seen.append(float(x[0]))
        return float((x[0] - 0.3) ** 2)

    rep = nelder_mead(obj, x0=np.array([1.0]), bounds=[(0.0, 1.0)],
                      tolerance=1e-4, max_evals=100)
    assert seen[:2] == [1.0, 0.9]
    assert rep.best_params["x0"] == pytest.approx(0.3, abs=1e-3)


def test_simplex_rejects_bad_start():
    with pytest.raises(ValueError):
        nelder_mead(_rosenbrock, x0=np.array([9.0, 0.0]),
                    bounds=[(-5.0, 5.0), (-5.0, 5.0)],
                    tolerance=1e-6, max_evals=100)


def test_simplex_stops_at_target():
    rep = nelder_mead(
        lambda x: float(np.dot(x, x)), x0=np.array([1.0]),
        bounds=[(-5.0, 5.0)], tolerance=1e-14, max_evals=500,
        target_value=1e-4,
    )
    assert rep.converged
    assert rep.best_value < 1e-4
    assert rep.evaluations < 500


def test_report_rejects_out_of_range_errors():
    with pytest.raises(ValueError):
        OptimizationReport(best_params={}, best_value=0.0, evaluations=1,
                           forward_error=1.5)


def test_reversibility_config_defaults():
    cfg = ReversibilityConfig()
    assert cfg.cutoff_candidates_ghz == (0.40, 0.45, 0.50)
    assert cfg.fidelity_goal == 1e-6
    assert cfg.lambda2_bounds == (100.0, 1000.0)


def test_reverse_error_identity_on_idle_pulse(params):
    wf = Waveform(dt=0.05, samples=np.zeros(100))
    assert reverse_error(params, wf, "100", "100") == pytest.approx(0.0, abs=1e-10)
    assert reverse_error(params, wf, "100", "010") == pytest.approx(1.0, abs=1e-10)


def test_forward_and_reverse_pair(params):
    wf = Waveform(dt=0.05, samples=np.zeros(100))
    fwd, rev = forward_and_reverse_error(params, wf, "100", "010")
    assert fwd == pytest.approx(1.0, abs=1e-10)
    assert rev == pytest.approx(1.0, abs=1e-10)


def test_forward_and_reverse_share_one_endpoint_product(params, monkeypatch):
    wf = Waveform(dt=0.05, samples=-2.0 * np.abs(np.sin(np.linspace(0.1, 9.0, 400))))
    expected = (reverse_error(params, wf, "100", "010"),
                reverse_error(params, wf, "010", "100"))
    batched = []
    eigh = np.linalg.eigh

    def counted(a, *args, **kwargs):
        if np.ndim(a) == 3:
            batched.append(len(a))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    assert forward_and_reverse_error(params, wf, "100", "010") == expected
    assert batched == [wf.n]


def test_truncation_requires_a_transferring_pulse(params):
    wf = Waveform(dt=0.05, samples=np.zeros(200))
    with pytest.raises(ConvergenceError):
        optimize_truncation(params, wf, 1.0, "100", "010")


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
    cfg = ReversibilityConfig(**{"lambda2_bounds": (200.0, 1000.0), **kw})
    return optimize_reversible(_FAST, bare, _FAST_BASE, cfg)


def _rows(report, cutoffs):
    """Each cutoff's reverse errors, in lambda2 order."""
    return {c: [h[0]["reverse_error"] for h in report.history
                if h[0]["cutoff_ghz"] == c] for c in cutoffs}


def test_lowest_passing_cutoff_wins(fast_bare, simplex_calls):
    cutoffs = (1.0, 0.45, 0.3)
    wf, rep = _search(fast_bare, cutoff_candidates_ghz=cutoffs, fidelity_goal=0.5)
    grid = len(cutoffs) * (LAMBDA2_GRID_POINTS + 1)
    assert rep.evaluations == len(rep.history) == grid
    assert [h[0]["cutoff_ghz"] for h in rep.history][::LAMBDA2_GRID_POINTS + 1] == [
        0.3, 0.45, 1.0]
    assert [h[0]["lambda2"] for h in rep.history[:3]] == pytest.approx(
        [300.0, 200.0, 200.0 + 800.0 / 15])
    rows = _rows(rep, cutoffs)
    # Both 0.3 and 0.45 GHz pass; the higher cutoff holds the lower error,
    # but the lower cutoff wins, with its best cell.
    assert min(rows[0.45]) < min(rows[0.3]) < 0.5
    assert rep.converged and simplex_calls == []
    assert rep.best_params["cutoff_ghz"] == 0.3
    assert rep.reverse_error == rep.best_value == min(rows[0.3])
    cell = rows[0.3].index(min(rows[0.3]))
    assert rep.best_params["lambda2"] == rep.history[cell][0]["lambda2"]
    assert rep.forward_error == rep.history[cell][0]["forward_error"]
    assert abs(reverse_error(_FAST, wf, "010", "100") - rep.reverse_error) < 1e-12

    # With the goal between the two rows' best cells, 0.3 GHz fails and
    # 0.45 GHz is the lowest passing cutoff.
    goal = 0.5 * (min(rows[0.45]) + min(rows[0.3]))
    _, rep2 = _search(fast_bare, cutoff_candidates_ghz=cutoffs, fidelity_goal=goal)
    assert rep2.best_params["cutoff_ghz"] == 0.45
    assert rep2.reverse_error == min(rows[0.45])
    assert simplex_calls == []


def test_search_histories_are_identical(fast_bare):
    kw = dict(cutoff_candidates_ghz=(0.3, 0.45), fidelity_goal=0.5)
    wf_a, rep_a = _search(fast_bare, **kw)
    wf_b, rep_b = _search(fast_bare, **kw)
    assert rep_a.history == rep_b.history
    assert rep_a.best_params == rep_b.best_params
    np.testing.assert_array_equal(wf_a.samples, wf_b.samples)


def test_forward_failure_in_a_cell_aborts(fast_bare):
    # lambda2 = 0 leaves the filtered reference alone, which transfers
    # poorly; the cell's forward error misses the goal.
    with pytest.raises(ConvergenceError, match="cutoff 0.45 GHz, lambda2 0;"):
        _search(fast_bare, cutoff_candidates_ghz=(0.45,),
                lambda2_bounds=(0.0, 1000.0), fidelity_goal=0.5)


def test_no_passing_cell_returns_the_lowest_error_cell(fast_bare, simplex_calls):
    cutoffs = (0.45, 1.0)
    wf, rep = _search(fast_bare, cutoff_candidates_ghz=cutoffs, fidelity_goal=1e-3)
    # The search is the grid alone: no simplex runs after a failing grid.
    assert rep.evaluations == len(rep.history) == len(cutoffs) * (LAMBDA2_GRID_POINTS + 1)
    assert simplex_calls == []
    assert not rep.converged
    assert rep.best_value == min(h[1] for h in rep.history) >= 1e-3
    assert all(h[0]["forward_error"] < 1e-3 for h in rep.history)
    assert abs(reverse_error(_FAST, wf, "010", "100") - rep.reverse_error) < 1e-12
