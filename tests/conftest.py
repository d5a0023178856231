import numpy as np
import pytest

from lctpulse import SystemParams

# Registry for the acceptance suite's one-line verdicts, printed at the end
# of the run so they survive pytest's output capture.
ACCEPTANCE_LINES = []


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
    return params.drift_spectrum


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20260817)
