import numpy as np
import pytest

from lctpulse.dynamics import TrajectoryRecord
from lctpulse.lct import run_lct
from lctpulse.model import SystemParams
from lctpulse.model import product_labels
from oracles import dense_spectrum

# Registry for the acceptance suite's one-line verdicts, printed at the end
# of the run so they survive pytest's output capture.
ACCEPTANCE_LINES = []


def record_lct(params, config, chunks=None):
    """run_lct with a sink that keeps what it is handed: the result and the
    run's TrajectoryRecord (every label's population on the state grid,
    one shared zero array outside the block the run reports).  chunks, a
    list, also receives each sink call's (k0, labels, samples,
    populations), the populations copied out of the run's reused buffer."""
    chunks = [] if chunks is None else chunks
    result = run_lct(params, config, sink=lambda k0, labels, samples, pops: chunks.append(
        (k0, labels, samples, pops.copy())))
    labels = chunks[0][1]
    pops = np.concatenate([p for *_, p in chunks], axis=1)
    zeros = np.zeros(pops.shape[1])
    return result, TrajectoryRecord(
        times=np.arange(pops.shape[1]) * config.dt,
        control=np.concatenate([s for _, _, s, _ in chunks]),
        populations={lab: pops[labels.index(lab)] if lab in labels else zeros
                     for lab in product_labels(params.n_qubits)},
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
