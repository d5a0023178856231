"""Every function the benchmark's tracer wraps must still exist.

lctbench/tracer.py names lctpulse functions by module and name; a refactor
that moves or renames one should fail here, not in a traced benchmark run.
"""

import importlib
import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.realpath(__file__)))


def _tracer():
    path = os.path.join(ROOT, "lctbench", "tracer.py")
    spec = importlib.util.spec_from_file_location("lctbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve_in_their_home_modules():
    traced = _tracer().TRACED
    assert traced
    missing = []
    for _layer, home, names in traced:
        module = importlib.import_module(home)
        missing += [f"{home}.{name}" for name in names
                    if not callable(getattr(module, name, None))]
    assert missing == []
