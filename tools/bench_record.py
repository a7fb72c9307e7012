#!/usr/bin/env python3
"""Append one line of the repo benchmark to the committed performance history.

``make bench-record`` runs ``python3 -m bench --workload all --runs N`` (the
frozen referee: every workload in a process of its own, N untraced runs on
seeds ``S .. S+N-1`` plus one traced run) and appends one summarised JSON line
to ``docs/perf/history.jsonl``: commit and tree hash, host fingerprint, and per workload the
median and quartiles of every end-to-end metric plus the traced per-layer
values, and ``"valid": false`` with a ``"reason"`` where the traced run's load
generator ran later than ``bench/README.md`` allows (``lag_limit_ms``).  One
line per PR is the trajectory ROADMAP item 1 asks for; the raw result set
lives in a temporary directory and stays out of git.

The numbers are only comparable between lines of one host class — the
fingerprint is in the line for that reason.  To *compare* two commits use
alternating pairs and ``python3 -m bench.compare``; this file only remembers.

Stdlib-only, and it lives outside ``bench/`` because that directory is frozen.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Optional

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HISTORY = os.path.join(REPO_ROOT, "docs", "perf", "history.jsonl")
WORKLOADS = os.path.join(REPO_ROOT, "bench", "workloads.json")


def lag_limit_ms() -> float:
    """``bench/README.md``'s validity rule for a ladder: the generator's lag p99
    may not exceed ``lag_limit_ms`` of ``bench/workloads.json`` (read, never edited)."""
    with open(WORKLOADS) as handle:
        return float(json.load(handle)["lag_limit_ms"])


def summarise_values(values: List[float]) -> Dict[str, float]:
    """Median and quartiles (``statistics.quantiles``, like ``bench/stats.py``)."""
    if len(values) < 2:
        return {"median": values[0], "q1": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def validity(traced: Dict[str, float], limit_ms: float) -> Dict[str, Any]:
    """``{"valid": True}``, or False with the reason: the traced run's load
    generator ran late (lag p99 above ``limit_ms``), so its ladder says more
    about the generator than about the stack."""
    lag = traced.get("loadgen.lag_ms_p99", 0.0)
    if lag > limit_ms:
        return {"valid": False,
                "reason": f"loadgen.lag_ms_p99 {lag:.1f} ms > lag_limit_ms {limit_ms:g} ms"}
    return {"valid": True}


def summarise_set(result_set: Dict[str, Any]) -> Dict[str, Any]:
    """Per workload: end-to-end metric -> median/q1/q3/unit, traced values,
    failures, and whether the run is valid (:func:`validity`)."""
    limit_ms = lag_limit_ms()
    workloads: Dict[str, Any] = {}
    for name, entry in result_set["workloads"].items():
        runs = entry["runs"]
        end_to_end = {}
        for metric, first in runs[0]["metrics"].items():
            summary = summarise_values([run["metrics"][metric]["value"] for run in runs])
            end_to_end[metric] = {**summary, "unit": first["unit"]}
        traced = entry["traced"]
        # A layer that is not on the workload's path reports 0: left out.
        values = {metric: value["value"]
                  for metric, value in traced["metrics"].items() if value["value"]}
        workloads[name] = {
            "seeds": [run["seed"] for run in runs],
            "end_to_end": end_to_end,
            "traced": values,
            "failed": sum(run["failed"] for run in runs) + traced["failed"],
            "attempted": sum(run["attempted"] for run in runs) + traced["attempted"],
            **validity(values, limit_ms),
        }
    return workloads


def git(*args: str) -> str:
    done = subprocess.run(["git", *args], cwd=REPO_ROOT, capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else ""


def tree_hash() -> str:
    """``git write-tree`` of the working tree (as ``git add -A`` sees it), through a scratch index.

    A line is recorded *before* its PR is committed, so ``commit`` names the
    parent; this names what was measured (``git rev-parse <commit>^{tree}`` of
    the PR's commit matches it when nothing else changed in between).
    """
    with tempfile.TemporaryDirectory(prefix="bench-record-index-") as scratch:
        env = dict(os.environ, GIT_INDEX_FILE=os.path.join(scratch, "index"))
        for args in (["read-tree", "HEAD"], ["add", "-A", "."]):
            if subprocess.run(["git", *args], cwd=REPO_ROOT, env=env).returncode != 0:
                return "unknown"
        done = subprocess.run(["git", "write-tree"], cwd=REPO_ROOT, env=env,
                              capture_output=True, text=True)
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def build_line(result_set: Dict[str, Any], label: str) -> Dict[str, Any]:
    host = dict(result_set["host"])
    host.pop("seed", None)
    return {
        "recorded_at": datetime.datetime.now(datetime.timezone.utc).isoformat(timespec="seconds"),
        "label": label,
        "commit": git("rev-parse", "HEAD") or "unknown",
        # Uncommitted changes: the line describes the tree, not the commit.
        "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
        "tree": tree_hash(),
        "host": host,
        "seconds": result_set["seconds"],
        "workloads": summarise_set(result_set),
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=3, help="untraced runs per workload")
    parser.add_argument("--seed", type=int, default=0, help="first seed")
    parser.add_argument("--label", default="", help="what this line is, e.g. 'PR 16'")
    args = parser.parse_args(argv)

    with tempfile.TemporaryDirectory(prefix="bench-record-") as scratch:
        set_path = os.path.join(scratch, "set.json")
        command = [sys.executable, "-m", "bench", "--workload", "all",
                   "--runs", str(args.runs), "--seed", str(args.seed),
                   "--out", os.path.join(scratch, "out"), "--set", set_path]
        status = subprocess.run(command, cwd=REPO_ROOT).returncode
        if not os.path.exists(set_path):
            print("bench-record: the benchmark wrote no result set", file=sys.stderr)
            return status or 1
        with open(set_path) as handle:
            result_set = json.load(handle)

    line = build_line(result_set, args.label)
    os.makedirs(os.path.dirname(HISTORY), exist_ok=True)
    with open(HISTORY, "a") as handle:
        handle.write(json.dumps(line, sort_keys=True) + "\n")
    failed = sum(entry["failed"] for entry in line["workloads"].values())
    print(f"bench-record: appended {line['commit'][:10]}"
          f"{' (dirty)' if line['dirty'] else ''} to {os.path.relpath(HISTORY, REPO_ROOT)}"
          f"; failed operations: {failed}")
    for name, entry in line["workloads"].items():
        if not entry["valid"]:
            print(f"bench-record: {name} is not valid: {entry['reason']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
