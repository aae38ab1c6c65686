"""Every module of the package and of its tests uses every name it
imports, every top-level definition is read somewhere or exported, and
importing the package and its CLI loads only what a solve runs."""

import ast
import json
import pathlib
import subprocess
import sys

import pytest

import abduce

PACKAGE = pathlib.Path(abduce.__file__).parent
TESTS = pathlib.Path(__file__).parent


def unused_imports(source):
    """Names bound by import statements that the module never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_detects_unused_import():
    src = "import os\nfrom a import b, c as d\nprint(b)\n"
    assert unused_imports(src) == [(1, "os"), (2, "d")]


def test_no_module_imports_an_unused_name():
    # the package's __init__ re-exports what it imports; the tests do not
    paths = [path for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"]
    paths += sorted(TESTS.glob("*.py"))
    found = {}
    for path in paths:
        unused = unused_imports(path.read_text())
        if unused:
            found[path.name] = unused
    assert found == {}


def defined_names(stmt):
    """Names a top-level statement defines: a function, a class or an
    assigned constant."""
    if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = (stmt.targets if isinstance(stmt, ast.Assign)
               else [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return {node.id for t in targets for node in ast.walk(t)
            if isinstance(node, ast.Name)}


def dead_definitions(sources, exported=()):
    """(module, name) of top-level definitions in ``sources`` (module name
    -> text) that no other top-level statement of any module reads."""
    stmts = [(module, stmt) for module, text in sources.items()
             for stmt in ast.parse(text).body]
    reads = [{node.id for node in ast.walk(stmt)
              if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
             for _, stmt in stmts]
    dead = []
    for i, (module, stmt) in enumerate(stmts):
        for name in sorted(defined_names(stmt)):
            if name not in exported and not any(
                    name in r for j, r in enumerate(reads) if j != i):
                dead.append((module, name))
    return dead


def test_detects_dead_definition():
    sources = {
        "a.py": "K = 1\nL = 2\ndef f(x):\n    return f(x) + K\n",
        "b.py": "from a import g\ndef g():\n    return L\n"}
    assert dead_definitions(sources) == [("a.py", "f"), ("b.py", "g")]
    assert dead_definitions(sources, exported={"f", "g"}) == []


def test_no_definition_is_dead():
    sources = {path.name: path.read_text()
               for path in sorted(PACKAGE.glob("*.py"))}
    dead = [(module, name) for module, name
            in dead_definitions(sources, set(abduce.__all__))
            if module != "__init__.py"]
    assert dead == []


# run in a fresh interpreter, so no module another test loaded counts
FOOTPRINT = """
import json, sys
sys.path.insert(0, %r)
MODULES = ("abduce.brute", "abduce.generators", "abduce.qbf", "csv",
           "abduce.baseline", "abduce.maxsat", "argparse", "dataclasses",
           "inspect")
loaded = lambda: [m for m in MODULES if m in sys.modules]
import abduce, abduce.cli
steps = [loaded()]
abduce.bf_solve
steps.append(loaded())
abduce.qbf
steps.append(loaded())
abduce.gen_random
steps.append(loaded())
print(json.dumps(steps))
""" % str(PACKAGE.parent)


def test_import_loads_only_the_solve_path():
    # dataclasses (which loads inspect) never loads: the value types are
    # plain __slots__ classes
    out = subprocess.run([sys.executable, "-c", FOOTPRINT], check=True,
                         capture_output=True, text=True).stdout
    solve_path = ["abduce.baseline", "abduce.maxsat", "argparse"]
    assert json.loads(out) == [
        solve_path,
        ["abduce.brute"] + solve_path,
        ["abduce.brute", "abduce.qbf"] + solve_path,
        ["abduce.brute", "abduce.generators", "abduce.qbf"] + solve_path]


def test_every_exported_name_resolves():
    for name in abduce.__all__:
        assert getattr(abduce, name) is not None, name
    assert abduce.bf_solve is abduce.brute.bf_solve
    assert abduce.gen_family1 is abduce.generators.gen_family1
    assert abduce.write_qcir is abduce.qbf.write_qcir
    namespace = {}
    exec("from abduce import *", namespace)
    assert set(abduce.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    message = "module 'abduce' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        abduce.no_such_name
