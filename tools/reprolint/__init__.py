"""reprolint: project-aware static analysis for the R-TOSS reproduction.

Three AST checkers enforce the invariants PRs 3-6 established by convention:

* ``lock-discipline`` -- attributes declared guarded (``_guarded_by_`` class
  convention or the config table) may only be mutated under their lock.
* ``hot-path-alloc`` -- functions registered as hot (fused executor, GEMM
  kernels, conv epilogues, ArrayChannel framing) may not call allocating
  numpy APIs outside arena acquisition.
* ``mutable-global`` / ``fork-lock-reset`` -- fork/thread hygiene for
  module-level mutable state and cross-fork locks (the plan.py at-fork
  pattern from PR 4).

Run ``python -m tools.reprolint src/repro tools`` (or ``repro lint``).
Suppress single findings with ``# reprolint: disable=<rule>``; accept legacy
debt in ``tools/reprolint/baseline.json`` (regenerate: ``make lint-baseline``).

The package is deliberately stdlib-only (``ast`` + ``json``): the CI lint job
runs it without installing the runtime deps.  See ``docs/analysis.md``.
"""

from tools.reprolint.core import Finding, Rule, all_rules, register  # noqa: F401
from tools.reprolint.runner import lint_paths, lint_source  # noqa: F401
