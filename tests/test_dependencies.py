"""The dependency surface: numpy is the only third-party distribution the library
imports, and the only one ``requirements.txt`` and ``setup.py`` declare; and every
name a module exports in ``__all__`` exists, so ``from repro.x import *`` works."""

from __future__ import annotations

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]

# Imports every module under ``repro`` and prints, as JSON, the distributions
# that adds to the ones already loaded by the interpreter and this probe, and
# the ``__all__`` entries that name nothing in their module.
PROBE = """
import importlib, importlib.metadata, json, pkgutil, sys
owners = importlib.metadata.packages_distributions()
def loaded():
    return {d for name in list(sys.modules) for d in owners.get(name.partition(".")[0], ())}
before = loaded()
import repro
modules = [repro] + [importlib.import_module(info.name)
                     for info in pkgutil.walk_packages(repro.__path__, "repro.")]
unresolved = [f"{module.__name__}.{name}" for module in modules
              for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
print(json.dumps({"added": sorted(loaded() - before), "unresolved": unresolved}))
"""


def _name(requirement: str) -> str:
    return re.split(r"[<>=!~;\[ ]", requirement.strip(), maxsplit=1)[0].lower()


@pytest.fixture(scope="module")
def probe():
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": pythonpath})
    return json.loads(completed.stdout)


def test_numpy_is_the_only_runtime_dependency(probe):
    assert probe["added"] == ["numpy"]

    requirements = [line for line in (REPO / "requirements.txt").read_text().splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
    assert [_name(line) for line in requirements] == ["numpy"]

    setup_call = next(node for node in ast.walk(ast.parse((REPO / "setup.py").read_text()))
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup")
    install_requires = next(ast.literal_eval(keyword.value) for keyword in setup_call.keywords
                            if keyword.arg == "install_requires")
    assert [_name(requirement) for requirement in install_requires] == ["numpy"]


def test_every_all_entry_names_something_in_its_module(probe):
    assert probe["unresolved"] == []
