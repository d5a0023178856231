"""lctpulse benchmark: run a workload through the CLI, check it, report metrics.

    python3 lctbench/run.py --workload pipeline-2q --seed 1 --seconds 10 --trace 0
    python3 lctbench/run.py --workload all

Run from the root of a checkout.  Each round is one `lctpulse` CLI
invocation in a fresh process, followed by the checks in checks.py; a
round fails when the CLI exits non-zero or a check fails.  Rounds repeat
until --seconds have passed (at least one).  With --trace 0 the last line
of standard output is a JSON object with the end-to-end metrics; with
--trace 1 the rounds run under tracer.py and it carries the per-layer
metrics.  Outputs go to lctbench/out/, which each round cleans up.

The program takes no random input: --seed is accepted and reported, and
changes nothing.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.realpath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
CHILD = os.path.join(BENCH, "child.py")
CORES = len(os.sched_getaffinity(0))

# BLAS threads never exceed the cores this process may run on; set before
# numpy loads, here and in every child.
os.environ.setdefault("OPENBLAS_NUM_THREADS", str(CORES))

import numpy as np  # noqa: E402

import checks  # noqa: E402
from tracer import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Set-up is timed in fresh processes, half before the rounds and half
# after, so that one burst of load on the machine does not set the median.
SETUP_SAMPLES = 20
CHILD_TIMEOUT_S = 170


def machine() -> dict:
    """Core count, Python, numpy, BLAS and its thread count."""
    import ctypes

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    return {
        "cores": CORES,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": threads,
    }


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def time_setup(config_path: str) -> float:
    """Seconds from starting a fresh process to lctpulse.cli imported and
    the config parsed."""
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, CHILD, "setup", config_path],
                          stdout=subprocess.PIPE, env=child_env(), cwd=ROOT) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - started
        proc.stdout.read()
        code = proc.wait()
    if line != b"ready\n" or code != 0:
        raise RuntimeError(f"setup process failed with exit code {code}")
    return elapsed


def program_key(work, info: dict) -> str:
    """sha256 of what a round's artifacts depend on: every file under
    src/lctpulse, the workload's config and command, and the machine."""
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "lctpulse")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            h.update(os.path.relpath(path, src).encode() + b"\0")
            with open(path, "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    h.update(json.dumps([work.config, work.argv("", ""), info], sort_keys=True).encode())
    return h.hexdigest()


class Workdir:
    """A workload's directory under out/: config, state and round outputs.

    state.json carries what later runs of the same program compare with:
    the artifact digests of the first passing round, and the fastest wall
    time of the latest untraced run.  It belongs to one program key; a
    run under another key (changed sources, config or machine) starts it
    afresh.
    """

    def __init__(self, work, key: str):
        self.path = os.path.join(OUT, work.name)
        os.makedirs(self.path, exist_ok=True)
        self.config = os.path.join(self.path, "config.json")
        with open(self.config, "w") as fh:
            json.dump(work.config, fh, indent=2, sort_keys=True)
        self.state_path = os.path.join(self.path, "state.json")
        try:
            with open(self.state_path) as fh:
                self.state = json.load(fh)
        except FileNotFoundError:
            self.state = {}
        if self.state.get("key") != key:
            self.state = {"key": key}

    def save(self) -> None:
        with open(self.state_path, "w") as fh:
            json.dump(self.state, fh, indent=2, sort_keys=True)


def run_round(work, wd: Workdir, trace: bool) -> dict:
    """One CLI invocation in a fresh process plus its checks."""
    out_dir = os.path.join(wd.path, "round")
    shutil.rmtree(out_dir, ignore_errors=True)
    result_path = os.path.join(wd.path, "result.json")
    if os.path.exists(result_path):
        os.remove(result_path)
    argv = [sys.executable, CHILD, "run", result_path, "1" if trace else "0", "--",
            *work.argv(wd.config, out_dir)]
    with open(os.path.join(wd.path, "cli.log"), "w") as log:
        try:
            code = subprocess.run(argv, stdout=log, stderr=subprocess.STDOUT,
                                  env=child_env(), cwd=ROOT, timeout=CHILD_TIMEOUT_S).returncode
        except subprocess.TimeoutExpired:
            code = None
    if code != 0 or not os.path.exists(result_path):
        return {"failures": [f"benchmark child exited with {code}; see {log.name}"],
                "check_failed": False}
    with open(result_path) as fh:
        result = json.load(fh)
    if result["exit_code"] != 0:
        result.update(failures=[f"lctpulse exited with {result['exit_code']}"],
                      check_failed=False)
        return result

    failures = checks.check_outputs(work, out_dir)
    digests = checks.digests(out_dir)
    if "digests" in wd.state:
        failures += checks.compare_digests(digests, wd.state["digests"])
    elif not failures:
        wd.state["digests"] = digests
    shutil.rmtree(out_dir)
    result.update(failures=failures, check_failed=bool(failures))
    return result


def run_workload(name: str, seconds: float, trace: bool, info: dict) -> dict:
    work = WORKLOADS[name]
    wd = Workdir(work, program_key(work, info))
    setup = [] if trace else [time_setup(wd.config) for _ in range(SETUP_SAMPLES // 2)]

    rounds = []
    reference = wd.state.get("untraced_wall_s")
    if trace and reference is None:
        # No untraced run of this program yet: make one for the overhead.
        untraced = run_round(work, wd, trace=False)
        rounds.append(untraced)
        if not untraced["failures"]:
            reference = untraced["wall_s"]
    started = time.perf_counter()
    while True:
        rounds.append(run_round(work, wd, trace))
        if time.perf_counter() - started >= seconds:
            break
    if not trace:
        setup += [time_setup(wd.config) for _ in range(SETUP_SAMPLES - len(setup))]
    # Only passing rounds are measured: a CLI that fails fast must not read
    # as a fast one.  With no passing round the metrics are left out.
    passed = [r for r in rounds if not r["failures"] and ("layers" in r) == trace]

    metrics = {}
    if trace:
        units = LAYER_METRICS
        if passed:
            metrics = {
                key: statistics.median(r["layers"][key] for r in passed)
                for key in LAYER_METRICS if key != "trace.overhead_s"
            }
            if reference is not None:
                metrics["trace.overhead_s"] = min(r["wall_s"] for r in passed) - reference
    else:
        units = END_TO_END
        metrics["setup_s"] = statistics.median(setup)
        if passed:
            # The fastest round: load from elsewhere on the machine only
            # ever slows a round, so the minimum is the steadiest figure.
            metrics["wall_s"] = min(r["wall_s"] for r in passed)
            metrics["peak_rss_mb"] = statistics.median(r["peak_rss_mb"] for r in passed)
            wd.state["untraced_wall_s"] = metrics["wall_s"]
    wd.save()
    return {
        "correct": not any(r["check_failed"] for r in rounds),
        "attempted": len(rounds),
        "failed": sum(1 for r in rounds if r["failures"]),
        "metrics": {k: {"value": float(metrics[k]), "unit": u}
                    for k, u in units.items() if k in metrics},
        "failures": [f for r in rounds for f in r["failures"]],
    }


def report(name: str, res: dict, seed: int, trace: bool) -> None:
    print(f"{name}: seed {seed}, trace {int(trace)}, "
          f"{res['attempted']} runs attempted, {res['failed']} failed")
    for failure in res["failures"]:
        print(f"  FAILED {failure}")
    for key, m in res["metrics"].items():
        print(f"  {key:36s} {m['value']:>16.6f} {m['unit']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1,
                        help="accepted and reported; the workloads take no random input")
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "lctpulse", "cli.py")):
        print(f"no lctpulse source under {ROOT}/src; run from a full checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)
    info = machine()
    with open(os.path.join(OUT, "machine.json"), "w") as fh:
        json.dump(info, fh, indent=2, sort_keys=True)
    print("machine: " + ", ".join(f"{k} {v}" for k, v in info.items()))

    trace = bool(args.trace)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seconds, trace, info)
        report(name, results[name], args.seed, trace)

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}/{k}": m for n, r in results.items() for k, m in r["metrics"].items()}
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
