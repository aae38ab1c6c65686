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

from conftest import trap_instance, worked_instance

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


# runs each statement given on the command line in a fresh interpreter,
# so no module another test loaded counts
FOOTPRINT = """
import json, sys
sys.path.insert(0, %r)
MODULES = ("abduce.brute", "abduce.generators", "abduce.qbf", "csv",
           "abduce.baseline", "abduce.maxsat", "argparse", "dataclasses",
           "inspect")
steps, namespace = [], {}
for statement in sys.argv[1:]:
    exec(statement, namespace)
    steps.append([m for m in MODULES if m in sys.modules])
print(json.dumps(steps))
""" % str(PACKAGE.parent)


def footprint(*statements):
    """The watched modules loaded after each of ``statements``."""
    out = subprocess.run([sys.executable, "-c", FOOTPRINT, *statements],
                         check=True, capture_output=True, text=True).stdout
    return json.loads(out)


def test_import_loads_only_the_solve_path():
    # cli loads baseline, whose solve_abhs it calls by module attribute;
    # the OLL engine (abduce.maxsat) and argparse load on first use, and
    # dataclasses (which loads inspect) never loads: the value types are
    # plain __slots__ classes
    steps = footprint("import abduce, abduce.cli", "abduce.bf_solve",
                      "abduce.qbf", "abduce.gen_random",
                      "abduce.cli.build_parser()")
    loaded = ["abduce.brute", "abduce.generators", "abduce.qbf",
              "abduce.baseline", "abduce.maxsat"]
    assert steps == [
        ["abduce.baseline"],
        ["abduce.brute", "abduce.baseline"],
        # qbf imports the totalizer from maxsat
        ["abduce.brute", "abduce.qbf", "abduce.baseline", "abduce.maxsat"],
        loaded,
        loaded + ["argparse"]]


def test_maxsat_loads_on_first_use():
    assert footprint("import abduce", "abduce.solve_wcnf") == [
        [], ["abduce.maxsat"]]


def test_only_hyper_without_a_witness_loads_maxsat():
    # with a model of T and M and H, candidates come from branch and
    # bound; without one, from the OLL engine
    for instance, oll in ((worked_instance(), False), (trap_instance(), True)):
        steps = footprint("from abduce import Pap, solve_hyper",
                          "solve_hyper(%r)" % (instance,))
        assert ("abduce.maxsat" in steps[-1]) is oll, instance


def test_every_exported_name_resolves():
    for name in abduce.__all__:
        assert getattr(abduce, name) is not None, name
    assert abduce.bf_solve is abduce.brute.bf_solve
    assert abduce.gen_family1 is abduce.generators.gen_family1
    assert abduce.write_qcir is abduce.qbf.write_qcir
    assert abduce.solve_wcnf is abduce.maxsat.solve_wcnf
    assert abduce.solve_abhs is abduce.baseline.solve_abhs
    namespace = {}
    exec("from abduce import *", namespace)
    assert set(abduce.__all__) <= set(namespace)


def test_unknown_name_raises_attribute_error():
    message = "module 'abduce' has no attribute 'no_such_name'"
    with pytest.raises(AttributeError, match=message):
        abduce.no_such_name
