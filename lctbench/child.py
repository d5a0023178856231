"""One fresh process of the benchmark.

    python3 child.py setup CONFIG
        import lctpulse.cli, parse CONFIG, print "ready" and exit; the
        parent times the process from its start to that line.
    python3 child.py run RESULT TRACE -- CLI_ARGS...
        call lctpulse.cli.main(CLI_ARGS) once, traced when TRACE is 1,
        and write wall time, peak RSS, the exit code and, when traced,
        the per-layer metrics to the JSON file RESULT.

The parent puts the checkout's src/ on PYTHONPATH; both modes refuse to
run against an lctpulse imported from anywhere else.
"""

from __future__ import annotations

import json
import os
import sys
import time

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.realpath(__file__))), "src")


def _import_cli():
    import lctpulse.cli

    where = os.path.dirname(os.path.realpath(lctpulse.cli.__file__))
    if where != os.path.join(SRC, "lctpulse"):
        sys.exit(f"lctpulse imported from {where}, not from {SRC}")
    return lctpulse.cli


def peak_rss_mb() -> float:
    """VmHWM, the high-water resident set of this process image.

    getrusage's ru_maxrss would do, but Linux carries it across exec, so
    it starts at the benchmark parent's resident set.
    """
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def setup(config_path: str) -> int:
    cli = _import_cli()
    cli.io.device_from_config(cli.io.load_config(config_path))
    sys.stdout.write("ready\n")
    sys.stdout.flush()
    return 0


def run(result_path: str, trace: bool, cli_argv: list) -> int:
    cli = _import_cli()
    tracer = None
    entry = cli.main
    if trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        entry = tracer.wrap("cli", "main", cli.main)
    started = time.perf_counter()
    code = entry(cli_argv)
    wall = time.perf_counter() - started
    result = {
        "exit_code": code,
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(os.path.join(os.path.dirname(result_path), "spans.jsonl"))
    with open(result_path, "w") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1] if len(sys.argv) > 1 else ""
    if mode == "setup" and len(sys.argv) == 3:
        sys.exit(setup(sys.argv[2]))
    if mode == "run" and len(sys.argv) > 5 and sys.argv[4] == "--":
        sys.exit(run(sys.argv[2], sys.argv[3] == "1", sys.argv[5:]))
    sys.exit(__doc__)
