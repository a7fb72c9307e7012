"""The dependency surface: numpy is the only third-party distribution the library
imports, and the only one ``requirements.txt`` and ``setup.py`` declare."""

from __future__ import annotations

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]

# Imports every module under ``repro`` and prints the distributions that adds to
# the ones already loaded by the interpreter and this probe.
PROBE = """
import importlib, importlib.metadata, pkgutil, sys
owners = importlib.metadata.packages_distributions()
def loaded():
    return {d for name in list(sys.modules) for d in owners.get(name.partition(".")[0], ())}
before = loaded()
import repro
for info in pkgutil.walk_packages(repro.__path__, "repro."):
    importlib.import_module(info.name)
print(sorted(loaded() - before))
"""


def _name(requirement: str) -> str:
    return re.split(r"[<>=!~;\[ ]", requirement.strip(), maxsplit=1)[0].lower()


def test_numpy_is_the_only_runtime_dependency():
    pythonpath = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    completed = subprocess.run([sys.executable, "-c", PROBE], capture_output=True, text=True,
                               check=True, env={**os.environ, "PYTHONPATH": pythonpath})
    assert completed.stdout.strip() == "['numpy']"

    requirements = [line for line in (REPO / "requirements.txt").read_text().splitlines()
                    if line.strip() and not line.lstrip().startswith("#")]
    assert [_name(line) for line in requirements] == ["numpy"]

    setup_call = next(node for node in ast.walk(ast.parse((REPO / "setup.py").read_text()))
                      if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "setup")
    install_requires = next(ast.literal_eval(keyword.value) for keyword in setup_call.keywords
                            if keyword.arg == "install_requires")
    assert [_name(requirement) for requirement in install_requires] == ["numpy"]
