#!/usr/bin/env python3
"""Benchmark-regression gate: compare BENCH_*.json against committed baselines.

The benchmark suite writes its measured numbers to ``benchmarks/BENCH_*.json``;
``benchmarks/baselines.json`` commits the expected values.  This script (run as
``make bench-check``) compares the two with a relative tolerance band and exits
non-zero on any regression, which is what turns "we keep claiming speedups"
into a CI gate.

Baselines schema::

    {
      "tolerance": 0.20,                    # default relative band (+-20%)
      "metrics": [
        {
          "name": "engine_speedup",         # display name
          "file": "BENCH_engine.json",      # result file inside --bench-dir
          "key": "speedup",                 # dotted path into the JSON
          "baseline": 1.8,                  # committed expected value
          "tolerance": 0.25,                # optional per-metric override
          "required": false,                # optional: missing file/key -> skip
          "informational": true             # optional: never fails (not even
                                            # when missing), only shown
        }
      ]
    }

Verdicts per metric: ``ok`` (inside the band), ``regression`` (below the lower
bound -> failure), ``improved`` (above the upper bound -> warning to refresh the
baseline, not a failure), ``missing`` (failure unless ``required`` is false or
the metric is informational), ``info`` (informational metrics, e.g.
machine-dependent absolute throughput).

``--update`` rewrites the baselines file with the measured values (keeping
tolerances and flags), the maintainer path after a legitimate speedup.

Intentionally stdlib-only so the CI job needs nothing beyond the checkout.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

DEFAULT_TOLERANCE = 0.20


def dig(data: Any, dotted_key: str) -> Optional[float]:
    """Resolve a dotted path (``"restart_drill.completed"``) into nested dicts."""
    node = data
    for part in dotted_key.split("."):
        if not isinstance(node, dict) or part not in node:
            return None
        node = node[part]
    if isinstance(node, bool) or not isinstance(node, (int, float)):
        return None
    return float(node)


def load_baselines(path: Path) -> Dict[str, Any]:
    try:
        baselines = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as error:
        raise SystemExit(f"bench-check: cannot read baselines {path}: {error}")
    if not isinstance(baselines.get("metrics"), list):
        raise SystemExit(f"bench-check: {path} must contain a 'metrics' list")
    return baselines


def check_metric(
    entry: Dict[str, Any], bench_dir: Path, default_tolerance: float
) -> Dict[str, Any]:
    """One comparison row: measured value vs committed baseline band."""
    name = entry.get("name") or f"{entry.get('file')}:{entry.get('key')}"
    baseline = float(entry["baseline"])
    tolerance = float(entry.get("tolerance", default_tolerance))
    informational = bool(entry.get("informational", False))
    # A metric that can never fail on its value cannot fail by being absent.
    required = bool(entry.get("required", True)) and not informational
    lower = baseline * (1.0 - tolerance)
    upper = baseline * (1.0 + tolerance)

    row: Dict[str, Any] = {
        "metric": name,
        "baseline": round(baseline, 3),
        "band": f"[{lower:.3f}, {upper:.3f}]",
        "measured": None,
        "verdict": "missing",
    }

    result_path = bench_dir / entry["file"]
    if not result_path.exists():
        row["verdict"] = "missing" if required else "skipped (no result file)"
        return row
    try:
        measured = dig(json.loads(result_path.read_text()), entry["key"])
    except json.JSONDecodeError:
        measured = None
    if measured is None:
        row["verdict"] = "missing" if required else "skipped (no such key)"
        return row

    row["measured"] = round(measured, 3)
    if informational:
        row["verdict"] = "info"
    elif measured < lower:
        row["verdict"] = "regression"
    elif measured > upper:
        row["verdict"] = "improved (refresh baseline?)"
    else:
        row["verdict"] = "ok"
    return row


def run_checks(
    baselines: Dict[str, Any], bench_dir: Path
) -> Tuple[List[Dict[str, Any]], List[str]]:
    default_tolerance = float(baselines.get("tolerance", DEFAULT_TOLERANCE))
    rows = [
        check_metric(entry, bench_dir, default_tolerance)
        for entry in baselines["metrics"]
    ]
    failures = [
        f"{row['metric']}: {row['verdict']} "
        f"(measured {row['measured']}, expected {row['band']})"
        for row in rows
        if row["verdict"] in ("regression", "missing")
    ]
    return rows, failures


def update_baselines(baselines: Dict[str, Any], bench_dir: Path, path: Path) -> int:
    """Rewrite committed baselines with the current measured values."""
    updated = 0
    for entry in baselines["metrics"]:
        result_path = bench_dir / entry["file"]
        if not result_path.exists():
            continue
        measured = dig(json.loads(result_path.read_text()), entry["key"])
        if measured is None:
            continue
        entry["baseline"] = round(measured, 3)
        updated += 1
    path.write_text(json.dumps(baselines, indent=2) + "\n")
    print(f"bench-check: wrote {updated} measured baselines to {path}")
    return 0


def format_rows(rows: List[Dict[str, Any]]) -> str:
    headers = ["metric", "baseline", "band", "measured", "verdict"]
    if not rows:
        return "(no metrics configured)"
    table = [[str(row[h]) for h in headers] for row in rows]
    widths = [max(len(h), *(len(line[i]) for line in table)) for i, h in enumerate(headers)]
    render = lambda line: "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(line))
    bar = "  ".join("-" * width for width in widths)
    return "\n".join([render(headers), bar] + [render(line) for line in table])


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--baselines",
        default="benchmarks/baselines.json",
        help="committed baselines JSON (default: benchmarks/baselines.json)",
    )
    parser.add_argument(
        "--bench-dir",
        default="benchmarks",
        help="directory holding the measured BENCH_*.json files",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="rewrite the baselines file with the current measured values",
    )
    args = parser.parse_args(argv)

    baselines_path = Path(args.baselines)
    bench_dir = Path(args.bench_dir)
    baselines = load_baselines(baselines_path)

    if args.update:
        return update_baselines(baselines, bench_dir, baselines_path)

    rows, failures = run_checks(baselines, bench_dir)
    print(format_rows(rows))
    if failures:
        print()
        for failure in failures:
            print(f"bench-check: FAIL {failure}", file=sys.stderr)
        return 1
    print("\nbench-check: OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
