"""Compare two result sets: ``python3 -m bench.compare A.json B.json``.

A result set is what ``python3 -m bench --workload all --runs N --set FILE``
writes.  For every end-to-end metric on every workload the second set's
median is held against the first's and the verdict is one of

* ``within bound`` — not worse than the first by more than the metric's bound,
* ``worse`` — worse by more than the bound,
* ``unresolved`` — a set's own run-to-run spread (distance between its
  quartiles over its median) is wider than the bound, so the bound cannot be
  checked; this is not the same as unchanged.

Exit status 1 when any row is ``worse`` or ``unresolved``.
"""

from __future__ import annotations

import json
import sys
from typing import Any, Dict, List, Optional

from bench import stats
from bench.common import load_contract


def metric_values(result_set: Dict[str, Any], workload: str, metric: str) -> List[float]:
    """One value per untraced run of ``workload``."""
    return [run["metrics"][metric]["value"]
            for run in result_set["workloads"][workload]["runs"]]


def compare_sets(first: Dict[str, Any], second: Dict[str, Any],
                 contract: Dict[str, Any]) -> List[Dict[str, Any]]:
    """One row per workload and end-to-end metric, in ``BENCHMARK.json`` order."""
    rows = []
    for workload in (w["name"] for w in contract["workloads"]):
        for metric in contract["end_to_end"]:
            a = metric_values(first, workload, metric["name"])
            b = metric_values(second, workload, metric["name"])
            row = stats.verdict(a, b, metric["better"], metric["bound"])
            row.update({"workload": workload, "metric": metric["name"],
                        "unit": metric["unit"], "runs": (len(a), len(b))})
            rows.append(row)
    return rows


def format_rows(rows: List[Dict[str, Any]]) -> str:
    lines = [f"{'workload':<13} {'metric':<17} {'first':>11} {'second':>11} "
             f"{'worse by':>9} {'spread':>7} {'bound':>6}  verdict"]
    for row in rows:
        lines.append(
            f"{row['workload']:<13} {row['metric']:<17} {row['first']:>11.5g} "
            f"{row['second']:>11.5g} {row['worse_by']:>+9.1%} {row['spread']:>7.1%} "
            f"{row['bound']:>6.0%}  {row['verdict']}")
    return "\n".join(lines)


def main(argv: Optional[List[str]] = None) -> int:
    paths = sys.argv[1:] if argv is None else argv
    if len(paths) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    sets = []
    for path in paths:
        with open(path) as handle:
            sets.append(json.load(handle))
    rows = compare_sets(sets[0], sets[1], load_contract())
    print(format_rows(rows))
    bad = [row for row in rows if row["verdict"] != "within bound"]
    print(f"{len(rows) - len(bad)} of {len(rows)} rows within bound"
          + (f"; {len(bad)} worse or unresolved" if bad else ""))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
