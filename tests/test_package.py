"""The package as a whole: its public names resolve and each has a user, as
does each private module-level name, importing a module loads only what it
imports, the README's library example and CLI lines run as documented, it
needs only the standard library, and the test oracles import none of it."""

import ast
import importlib
import os
import pkgutil
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import markedgroups
from markedgroups import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = sorted(f"markedgroups.{info.name}" for info in pkgutil.iter_modules(markedgroups.__path__))


def test_every_module_is_found():
    assert "markedgroups.grigorchuk" in MODULES and "markedgroups.cli" in MODULES


@pytest.mark.parametrize("name", MODULES)
def test_all_exports_resolve(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"
    assert len(set(exported)) == len(exported), f"{name}.__all__ has duplicates"
    exec(f"from {name} import *", {})


def test_oracles_import_nothing_from_the_package():
    # agreement with tests/oracles.py is evidence only while the oracles
    # share no code with the package they judge
    tree = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    imported = [
        (node.level, node.module or "") if isinstance(node, ast.ImportFrom) else (0, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    ]
    assert imported
    wrong = [(level, name) for level, name in imported if level or name.split(".")[0] == "markedgroups"]
    assert not wrong, wrong


def _package_trees():
    return [(path.name, ast.parse(path.read_text())) for path in sorted((SRC / "markedgroups").glob("*.py"))]


def test_names_imported_from_siblings_are_exported():
    # a public name that one package module imports from another is part of
    # the other's interface, so the other's __all__ lists it
    imported, missing = 0, []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module:
                exported = getattr(importlib.import_module(f"markedgroups.{node.module}"), "__all__", [])
                for alias in node.names:
                    if not alias.name.startswith("_"):
                        imported += 1
                        if alias.name not in exported:
                            missing.append(f"{name}: {node.module}.{alias.name}")
    assert imported > 20
    assert not missing, missing


def test_only_the_cli_writes_payload_bytes():
    # the library returns records; cli alone stamps the schema version and
    # turns them into JSON or CSV text, so it alone holds a "schema" literal
    # or imports json, io or TextIO
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Constant) and node.value == "schema":
                found.append((name, "schema"))
            elif isinstance(node, ast.Import):
                found.extend((name, alias.name) for alias in node.names if alias.name in ("json", "io"))
            elif isinstance(node, ast.ImportFrom):
                if node.module in ("json", "io"):
                    found.append((name, node.module))
                found.extend((name, alias.name) for alias in node.names if alias.name == "TextIO")
    assert ("cli.py", "schema") in found and ("cli.py", "json") in found
    assert all(name == "cli.py" for name, _ in found), found


def test_no_floating_point_in_the_package():
    # every verdict is exact: no module imports math, divides with /, or
    # holds a float literal
    found = []
    for name, tree in _package_trees():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                found.extend((name, alias.name) for alias in node.names if alias.name == "math")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                found.append((name, "math"))
            elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div):
                found.append((name, "/"))
            elif isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                found.append((name, node.value))
    assert not found, found


def test_only_frozen_defines_equality_and_hashing():
    # the value types inherit __eq__ and __hash__ from words._Frozen, which
    # derives both from __slots__
    found = sorted(
        (name, node.name, item.name)
        for name, tree in _package_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, ast.FunctionDef) and item.name in ("__eq__", "__hash__")
    )
    assert found == [("words.py", "_Frozen", "__eq__"), ("words.py", "_Frozen", "__hash__")]


def _loaded_names(path):
    """Names a file loads, as names or attributes, outside the definition
    that binds them; __all__ strings and imports do not count."""
    used = set()
    for stmt in ast.parse(path.read_text()).body:
        own = {stmt.name} if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)) else set()
        for node in ast.walk(stmt):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in own:
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return used


def test_every_public_name_has_a_user():
    # a name in a submodule's __all__ is used by the package or the scripts,
    # or the README documents it; a name only the tests call belongs in them
    used = set().union(*(_loaded_names(path) for path in [*SRC.rglob("*.py"), *(ROOT / "scripts").glob("*.py")]))
    readme = (ROOT / "README.md").read_text()
    unused = [
        f"{name}.{attr}"
        for name in MODULES
        for attr in getattr(importlib.import_module(name), "__all__", [])
        if attr not in used and not re.search(rf"\b{re.escape(attr)}\b", readme)
    ]
    assert not unused, unused


def _private_module_names(path):
    """Names a module binds at its top level with one leading underscore:
    its functions, classes, imports and assignment or loop targets."""
    bound = set()
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
            bound.add(stmt.name)
        elif isinstance(stmt, (ast.Import, ast.ImportFrom)):
            bound.update((alias.asname or alias.name).split(".")[0] for alias in stmt.names)
        else:
            bound.update(node.id for node in ast.walk(stmt) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store))
    return {name for name in bound if name.startswith("_") and not name.startswith("__")}


def test_every_private_module_name_has_a_user():
    # a private module-level name in the package is loaded somewhere in src/
    # outside its own definition; one that nothing loads is dead code
    paths = sorted((SRC / "markedgroups").glob("*.py"))
    used = set().union(*(_loaded_names(path) for path in paths))
    private = [f"{path.stem}.{name}" for path in paths for name in sorted(_private_module_names(path))]
    assert "marked_space._lockstep" in private
    unused = [name for name in private if name.split(".", 1)[1] not in used]
    assert not unused, unused


def test_package_does_not_load_numpy():
    # every submodule imported and one minimality command run, in a fresh
    # interpreter: the package runs on the standard library alone
    code = "\n".join(
        [
            "import importlib, os, sys",
            f"for name in {MODULES!r}:",
            "    importlib.import_module(name)",
            "from markedgroups.cli import main",
            "assert main(['minimality', '--n', '2', '--m', '2', '--window', '8', '--out', os.devnull]) == 0",
            "assert 'numpy' not in sys.modules",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_importing_a_module_loads_only_what_it_imports():
    # in a fresh interpreter: the package re-exports nothing, so importing it
    # loads no submodule, and a submodule brings in only its own imports
    code = "\n".join(
        [
            "import sys",
            "def loaded(): return sorted(m for m in sys.modules if m.split('.')[0] == 'markedgroups')",
            "import markedgroups",
            "assert loaded() == ['markedgroups'], loaded()",
            "import markedgroups.circle_product",
            "assert loaded() == ['markedgroups', 'markedgroups.circle_product', 'markedgroups.words'], loaded()",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_cli_loads_no_dataclasses_inspect_or_numpy():
    # a fresh interpreter imports only the CLI, then runs one command: the
    # package's types are named tuples and slotted classes, so neither the
    # import nor a run pays for the dataclasses machinery (which loads
    # inspect, ast, dis and tokenize) or for numpy
    code = "\n".join(
        [
            "import os, sys",
            "def heavy(): return [m for m in ('dataclasses', 'inspect', 'numpy') if m in sys.modules]",
            "import markedgroups.cli",
            "assert not heavy(), heavy()",
            "argv = ['separate', '--omega1', '(012)', '--omega2', '(021)', '--lmax', '8', '--out', os.devnull]",
            "assert markedgroups.cli.main(argv) == 0",
            "assert not heavy(), heavy()",
        ]
    )
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr


def test_readme_library_block_runs_as_documented():
    # the README's "Library" python block runs, and every expression line
    # with a trailing comment evaluates to the repr that comment shows
    readme = (ROOT / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    lines = block.splitlines()
    namespace: dict = {}
    shown = []
    for stmt in ast.parse(block).body:
        line = lines[stmt.end_lineno - 1]
        if isinstance(stmt, ast.Expr) and "  # " in line:
            value = eval(compile(ast.Expression(stmt.value), "README", "eval"), namespace)
            shown.append((line.split("  # ", 1)[1].strip(), repr(value)))
        else:
            exec(compile(ast.Module([stmt], []), "README", "exec"), namespace)
    assert all(comment == result for comment, result in shown), shown
    assert {"False", "4", "AgreeRadius(n=7, exact=True)"} <= {comment for comment, _ in shown}


def test_readme_cli_lines_run_as_documented():
    # every `markedgroups ...` line of the README's CLI section, run through
    # cli.main, exits 0, or N where the line ends in `# exit N`
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    blocks = section.split("```")[1::2]
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("markedgroups ")]
    assert len(lines) >= 13
    wrong = []
    for line in lines:
        documented = re.search(r"# exit (\d+)$", line)
        expected = int(documented.group(1)) if documented else 0
        code = cli.main(shlex.split(line, comments=True)[1:])
        if code != expected:
            wrong.append((line, code))
    assert not wrong, wrong
