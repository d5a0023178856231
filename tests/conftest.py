import numpy as np
import pytest

from lctpulse import SystemParams, TrajectoryRecord, run_lct
from lctpulse.lct import population_rows
from oracles import dense_spectrum

# Registry for the acceptance suite's one-line verdicts, printed at the end
# of the run so they survive pytest's output capture.
ACCEPTANCE_LINES = []


def record_lct(params, config, chunks=None):
    """run_lct with a sink that keeps what it is handed: the result and the
    run's TrajectoryRecord (every label's population on the state grid,
    one shared zero array outside the block).  chunks, a list, also
    receives each sink call's (k0, samples, populations), the populations
    copied out of the run's reused buffer."""
    chunks = [] if chunks is None else chunks
    result = run_lct(params, config, sink=lambda k0, samples, pops: chunks.append(
        (k0, samples, pops.copy())))
    pops = np.concatenate([p for _, _, p in chunks], axis=1)
    zeros = np.zeros(pops.shape[1])
    return result, TrajectoryRecord(
        times=np.arange(pops.shape[1]) * config.dt,
        control=np.concatenate([s for _, s, _ in chunks])[:-1],
        populations={lab: zeros if b is None else pops[b]
                     for lab, b in population_rows(params, config).items()},
        final_state=result.final_state,
    )


def all_sectors(params) -> list:
    """The device's sector of every excitation number, k = 0..n+1."""
    return [params.sector(k) for k in range(params.n_qubits + 2)]


def block_indices(sector) -> np.ndarray:
    """The product-basis indices of a sector's bare states, ascending: its
    rows in the full space."""
    return np.array(sorted(int(lab, 2) for lab in sector.bare_labels))


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def params():
    return SystemParams.from_ghz([5.890, 5.031], [0.100, 0.071], 7.445)


@pytest.fixture(scope="session")
def spectrum(params):
    return dense_spectrum(params)


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
