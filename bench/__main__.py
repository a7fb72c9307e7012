"""``python3 -m bench``: run one workload (or all) and print every metric by name.

    python3 -m bench --workload frames_1x1 --seed 0 --seconds 20 --trace 0
    python3 -m bench --workload all --runs 10 --set bench/out/set.json

With ``--trace 0`` the end-to-end metrics are measured with tracing off; with
``--trace 1`` a traced run gives the per-layer metrics and writes
``trace-<workload>.json``.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from bench.common import BENCH_DIR, REPO_ROOT, SRC_DIR, load_config, load_contract
from bench.host import pin_blas_threads


def _parse(argv: Optional[List[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(prog="python3 -m bench", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", default="all",
                        help="a workload of BENCHMARK.json, or 'all' (default)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds the frame pool and the arrival schedule")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="0: end-to-end metrics, tracing off; 1: per-layer metrics")
    parser.add_argument("--out", default=os.path.join(BENCH_DIR, "out"),
                        help="directory for result, trace and artifact files")
    parser.add_argument("--runs", type=int, default=1,
                        help="with --workload all: untraced runs per workload, "
                             "seeds --seed, --seed+1, ...")
    parser.add_argument("--set", default=None,
                        help="with --workload all: write the result set (the input "
                             "of bench/compare.py) to this file")
    return parser.parse_args(argv)


def _print_table(title: str, metrics: Dict[str, Dict[str, Any]]) -> None:
    print(title)
    width = max(len(name) for name in metrics)
    for name, entry in metrics.items():
        print(f"  {name:<{width}}  {entry['value']:>14.6g} {entry['unit']}")


def run_one(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Run one workload in this process; the last line printed is the result."""
    started = time.perf_counter()
    from bench import frames, serve                 # imports numpy and repro
    from bench.host import fingerprint, peak_rss_mb
    from bench.hostspeed import HostProbe
    from bench.spans import SpanRecorder
    from repro.utils.logging import set_verbosity

    import_s = time.perf_counter() - started
    set_verbosity("WARNING")            # the per-stage INFO lines would drown the table
    cfg = load_config()
    probe = HostProbe(cfg["probe_reference_ms"])
    import_s /= probe.factor(kernel="python")
    spec = cfg["workloads"][args.workload]
    seconds = float(args.seconds if args.seconds is not None else contract["run_seconds"])
    trace = bool(args.trace)
    os.makedirs(args.out, exist_ok=True)
    host = fingerprint(args.seed)

    rec = SpanRecorder()
    if spec["kind"] == "frames":
        outcome = frames.run(args.workload, spec, cfg, args.seed, seconds, trace, rec,
                             probe)
    else:
        outcome = serve.run(args.workload, spec, cfg, args.seed, seconds, trace, rec,
                            probe, args.out)
    measured = outcome["metrics"]
    tally = outcome["tally"]

    if trace:
        # A layer that is not on this workload's path did no work here: 0.
        wanted = contract["per_layer"]
        values = {m["name"]: float(measured.get(m["name"], 0.0)) for m in wanted}
        unknown = sorted(set(measured) - set(values))
        if unknown:
            raise RuntimeError(f"metrics not named in BENCHMARK.json: {unknown}")
    else:
        # Work moved into import time must show in set-up too.
        measured["setup_s"] += import_s
        measured["peak_rss_mb"] = peak_rss_mb()
        wanted = contract["end_to_end"]
        values = {m["name"]: float(measured[m["name"]]) for m in wanted}
    bad = [name for name, value in values.items() if not math.isfinite(value)]
    if bad:
        raise RuntimeError(f"non-finite metrics: {bad}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}

    result = {"correct": tally.failed == 0, "attempted": tally.attempted,
              "failed": tally.failed, "metrics": metrics}
    suffix = "-traced" if trace else ""
    with open(os.path.join(args.out, f"result-{args.workload}{suffix}.json"), "w") as handle:
        json.dump({**result, "workload": args.workload, "seconds": seconds,
                   "trace": int(trace), "import_s": import_s, "host": host,
                   "failures": tally.notes, "detail": outcome["detail"]}, handle, indent=1)
    if trace:
        rec.write(os.path.join(args.out, f"trace-{args.workload}.json"),
                  workload=args.workload, seed=args.seed, clock="perf_counter seconds")

    _print_table(f"{args.workload} seed={args.seed} seconds={seconds:g} "
                 f"{'per-layer (traced)' if trace else 'end-to-end (tracing off)'}", metrics)
    print(f"  operations: attempted {tally.attempted}, failed {tally.failed}")
    for note in tally.notes:
        print(f"  FAILED: {note}")
    print(json.dumps(result))
    return 0


def _child(args: argparse.Namespace, workload: str, seed: int, trace: int) -> Dict[str, Any]:
    command = [sys.executable, "-m", "bench", "--workload", workload, "--seed", str(seed),
               "--trace", str(trace), "--out", args.out]
    if args.seconds is not None:
        command += ["--seconds", str(args.seconds)]
    done = subprocess.run(command, cwd=REPO_ROOT, capture_output=True, text=True)
    sys.stdout.write(done.stdout)
    if done.returncode != 0:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{workload} (seed {seed}, trace {trace}) exited "
                           f"with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args: argparse.Namespace, contract: Dict[str, Any]) -> int:
    """Every workload in its own process: ``--runs`` untraced runs, one traced."""
    collected: Dict[str, Any] = {}
    for workload in (w["name"] for w in contract["workloads"]):
        runs = [dict(_child(args, workload, args.seed + n, 0), seed=args.seed + n)
                for n in range(args.runs)]
        collected[workload] = {"runs": runs,
                               "traced": _child(args, workload, args.seed, 1)}
    failed = sum(run["failed"] for entry in collected.values()
                 for run in entry["runs"] + [entry["traced"]])
    if args.set:
        with open(os.path.join(args.out, f"result-{contract['workloads'][0]['name']}.json")) as handle:
            host = json.load(handle)["host"]
        with open(args.set, "w") as handle:
            json.dump({"host": host, "seconds": args.seconds or contract["run_seconds"],
                       "workloads": collected}, handle, indent=1)
    print(f"all workloads done; failed operations: {failed}")
    return 0 if failed == 0 else 1


def main(argv: Optional[List[str]] = None) -> int:
    args = _parse(argv)
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        print(f"bench: {SRC_DIR}/repro not found; run from a checkout of the repository",
              file=sys.stderr)
        return 2
    contract = load_contract()
    names = [w["name"] for w in contract["workloads"]]
    if args.workload == "all":
        return run_all(args, contract)
    if args.workload not in names:
        print(f"bench: unknown workload {args.workload!r}; choose from {names}",
              file=sys.stderr)
        return 2
    pin_blas_threads()                  # before numpy; worker processes inherit it
    sys.path.insert(0, SRC_DIR)
    return run_one(args, contract)


if __name__ == "__main__":
    sys.exit(main())
