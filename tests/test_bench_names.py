"""Every function the benchmark's tracer wraps must still exist, nothing
else in the library is there for the tests alone, and only io builds the
device and the run config it checked.

lctbench/tracer.py names lctpulse functions by module and name; a refactor
that moves or renames one should fail here, not in a traced benchmark run.
"""

import ast
import importlib
import importlib.util
import os
from collections import Counter
from pathlib import Path

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


def _public_definitions(tree):
    """(qualified name, name, node) of each public top-level function and
    class, and of each public method of those classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node.name, node
            if isinstance(node, ast.ClassDef):
                yield from ((f"{node.name}.{item.name}", item.name, item) for item in node.body
                            if isinstance(item, ast.FunctionDef)
                            and not item.name.startswith("_"))


def _private_definitions(tree):
    """(name, name, node) of each private top-level function, class and
    constant; a dunder such as __all__ is not private."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        yield from ((name, name, node) for name in names
                    if name.startswith("_") and not name.startswith("__"))


def _names_read(node) -> Counter:
    """Each name the code under node reads, bare or as an attribute; the
    AST holds no comments, a docstring is a string, not a name, and an
    assignment's target is written, not read."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _unread(definitions, exempt=frozenset()) -> list:
    """Each definition that nothing in src/lctpulse reads outside itself."""
    src = Path(ROOT, "src", "lctpulse")
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(src.glob("*.py"))}
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    return [f"lctpulse.{module}.{qualname}"
            for module, tree in trees.items()
            for qualname, name, node in definitions(tree)
            if (f"lctpulse.{module}", qualname) not in exempt
            and read[name] - _names_read(node)[name] <= 0]


def test_every_public_definition_has_a_caller_in_the_library():
    # The library is what the CLI runs: a public function, class or method
    # that nothing in src/lctpulse reads outside its own definition is
    # dead, or a test-only oracle (tests/oracles.py).  The tracer's names
    # and the console script's entry point are read from outside.
    exempt = {(home, name) for _layer, home, names in _tracer().TRACED for name in names}
    exempt.add(("lctpulse.cli", "main"))
    unread = _unread(_public_definitions, exempt)
    assert not unread, "no caller in src/lctpulse: " + ", ".join(unread)


def test_every_private_helper_has_a_reader_in_the_library():
    # A module's private function, class or constant serves the library:
    # one that only tests read, or none, is dead.
    unread = _unread(_private_definitions)
    assert not unread, "no reader in src/lctpulse: " + ", ".join(unread)


def test_only_io_builds_the_device_and_the_run_config():
    # io judges the device and the `lct` section whole, and SystemParams
    # and LctConfig take them as read: no other module may build one from
    # values io has not seen.  lct.refined_config derives a config from a
    # checked one through dataclasses.replace, which is not a build.
    built = []
    for path in sorted(Path(ROOT, "src", "lctpulse").glob("*.py")):
        if path.name == "io.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name) and func.id in ("SystemParams", "LctConfig"):
                built.append(f"{path.name}:{node.lineno} {func.id}(")
            elif (isinstance(func, ast.Attribute) and func.attr == "from_ghz"
                  and isinstance(func.value, ast.Name) and func.value.id == "SystemParams"):
                built.append(f"{path.name}:{node.lineno} SystemParams.from_ghz(")
    assert built == [], "built outside io: " + ", ".join(built)
