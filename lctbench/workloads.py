"""The benchmark's workloads: a config document, a CLI command, and checks.

The program takes no random input, so the configs are fixed.  They are
the reference device and settings of the acceptance suite (criterion 10),
plus a 4-qubit device that drives the feedback loop at dimension 32.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import checks

REFERENCE_DEVICE = {
    "qubit_freqs_ghz": [5.890, 5.031],
    "couplings_ghz": [0.100, 0.071],
    "tc_max_freq_ghz": 7.445,
}

FOUR_QUBIT_DEVICE = {
    "qubit_freqs_ghz": [5.890, 5.031, 6.350, 6.720],
    "couplings_ghz": [0.100, 0.071, 0.060, 0.050],
    "tc_max_freq_ghz": 7.445,
}

# Mirror image of the acceptance suite's reference closed-form pulse
# (lobes in reverse order): the fit seed for the 100 -> 010 direction.
# natural_duration of the reference shape is 17.001434824566998 ns.
MIRRORED_ANALYTIC = {
    "alpha1_ghz": -1.591,
    "alpha3_ghz": -2.457,
    "tau1_ns": 7.201434824566999,
    "tau2_ns": 8.901434824566998,
    "tau3_ns": 11.401434824566998,
    "sigma1_ns": 1.37,
    "sigma2_ns": 0.2,
    "sigma3_ns": 1.83,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str                 # lctpulse subcommand
    config: dict                 # written to config.json for the run
    check: Callable              # check(out_dir, workload) -> [failure]
    extra_args: tuple = ()
    sweep: tuple = ()            # spectrum: (lo_ghz, hi_ghz, points)
    gap_minima_ghz: tuple = ()   # spectrum: where the avoided crossings lie

    def argv(self, config_path: str, out_dir: str) -> list:
        return [self.command, "--config", config_path, "--out-dir", out_dir,
                *self.extra_args]


WORKLOADS = {
    w.name: w for w in (
        Workload(
            name="pipeline-2q",
            command="pipeline",
            config={
                "device": REFERENCE_DEVICE,
                "lct": {"lambda": 27626.0, "eta": 1e-6, "dt_ns": 0.01,
                        "t_max_ns": 450.0, "initial": "100", "target": "010"},
                "reversibility": {"lambda2_init": 598.15},
                "truncation": {"sigma_ns": 1.0},
                "analytic": {"fit": True, **MIRRORED_ANALYTIC},
            },
            check=checks.check_pipeline,
        ),
        Workload(
            name="lct-4q",
            command="lct",
            config={
                "device": FOUR_QUBIT_DEVICE,
                "lct": {"lambda": 27626.0, "eta": 1e-6, "dt_ns": 0.01,
                        "t_max_ns": 800.0, "initial": "10000", "target": "01000"},
            },
            check=checks.check_lct,
        ),
        Workload(
            name="spectrum-2q",
            command="spectrum",
            config={"device": REFERENCE_DEVICE},
            check=checks.check_spectrum,
            extra_args=("--range", "-3.0", "0.0", "--steps", "601"),
            sweep=(-3.0, 0.0, 601),
            gap_minima_ghz=(-2.40, -1.56),
        ),
    )
}
