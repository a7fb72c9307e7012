#!/usr/bin/env python3
"""Every dotted ``repro.…`` name in README.md and docs/*.md still resolves.

A deletion that leaves its name in the docs sends a reader to a module or
attribute that is gone.  This check collects each dotted ``repro.`` name —
prose, inline code and fenced blocks alike — and resolves it: import the
longest module prefix, then ``getattr`` the rest.  ``make docs-check`` runs
it (``python -m tools.docs_names``, from the repo root with ``src`` on
``PYTHONPATH``); it prints each stale name with the files naming it and exits 1.
"""

from __future__ import annotations

import dataclasses
import importlib
import re
import sys
import typing
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
NAME = re.compile(r"(?<![\w./-])repro(?:\.[A-Za-z_]\w*)+")


def documented_names(root: Path = ROOT) -> Dict[str, List[str]]:
    """``{name: [file, ...]}`` for every dotted ``repro.`` name in the docs."""
    names: Dict[str, List[str]] = {}
    for path in [root / "README.md", *sorted((root / "docs").glob("*.md"))]:
        for name in NAME.findall(path.read_text(encoding="utf-8")):
            names.setdefault(name, []).append(path.relative_to(root).as_posix())
    return names


def resolves(name: str) -> bool:
    """The longest importable prefix of ``name``, then attributes for the rest.

    A dataclass field built by ``default_factory`` is no class attribute, so
    it resolves through the class's fields, to its annotated type.
    """
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            if hasattr(target, attribute):
                target = getattr(target, attribute)
            elif isinstance(target, type) and dataclasses.is_dataclass(target) and any(
                    spec_field.name == attribute for spec_field in dataclasses.fields(target)):
                target = typing.get_type_hints(target)[attribute]
            else:
                return False
        return True
    return False


def stale_names(root: Path = ROOT) -> Dict[str, List[str]]:
    """``{name: sorted files}`` for every documented name that does not resolve."""
    return {name: sorted(set(files)) for name, files in documented_names(root).items()
            if not resolves(name)}


def main() -> int:
    stale = stale_names()
    for name, files in sorted(stale.items()):
        print(f"docs-check: {name} does not resolve (named in {', '.join(files)})")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
