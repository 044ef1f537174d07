"""The package as a whole: its public names resolve, and it needs only the
standard library."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import markedgroups

SRC = Path(__file__).resolve().parent.parent / "src"
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


def test_star_import_of_the_package():
    namespace: dict = {}
    exec("from markedgroups import *", namespace)
    assert "is_trivial" in namespace and "verify_minimality" in namespace


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
