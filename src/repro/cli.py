"""Command-line interface: ``python -m repro.cli <command>``.

Commands
--------
``run``       Execute a full deployment pipeline (prune → quantize → compile →
              evaluate) from a JSON :class:`repro.pipeline.RunSpec`, print the
              report and write a reloadable :class:`DeployableArtifact`.
``prune``     Prune a model with a chosen framework (a pipeline run with the
              engine and the evaluation off), print the report and optionally
              save the pruned state dict.
``census``    Print the kernel-size census of a model (Section III motivation).
``compare``   Run the framework comparison (Figs. 4-7) on a model and print the table.
``engine``    The speedup from pruning of ``--framework`` and both R-TOSS variants:
              one pipeline run each with the engine measurement on, printing
              the measured host ratio (with its quartiles) next to the
              modelled Jetson TX2 / RTX 2080Ti speedups.
``serve``     Serve a DeployableArtifact through the dynamic micro-batching
              inference service (:mod:`repro.serving`), drive it with synthetic
              load and print a p50/p95/p99 latency + throughput report.
              ``--workers N`` (N > 1) serves through the multi-process cluster
              (:mod:`repro.serving.cluster`) instead, sharding across cores.
``metrics``   Drive a short in-process load against an artifact and dump the
              unified obs registry (:mod:`repro.obs.registry`) as Prometheus
              text or JSON lines.
``top``       Live terminal dashboard (:mod:`repro.obs.top`): per-worker rps,
              latency percentiles, queue depth, restarts and engine mode —
              either tailing the ``snapshot.json`` a concurrent
              ``repro serve --obs DIR`` refreshes, or self-driving a demo load
              against an artifact.
``models``    List the models available in the registry with their parameter counts.
``frameworks``  List the pruning frameworks available in the registry.

Every command accepts ``--log-json`` (or ``REPRO_LOG_JSON=1``) to switch the
library logs to JSON lines with automatic ``trace_id`` correlation.

``prune`` and ``engine`` build a :class:`repro.pipeline.RunSpec` from their
flags and run :class:`repro.pipeline.Pipeline`; they print what the artifact
holds, and a flag outside its spec field's bounds exits 2 with the field named.
``--framework`` choices come from :mod:`repro.pruning.registry` and every
command takes ``--seed`` for end-to-end reproducibility.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

import numpy as np

from repro.evaluation import (
    DetectorEvaluator,
    compare_frameworks,
    format_comparison,
    format_table,
)
from repro.evaluation.accuracy_proxy import BASELINE_MAP
from repro.experiments.motivation import census_for_model
from repro.models import available_models, build_model
from repro.pipeline.spec import ROUTING_POLICY_NAMES, ServeSpec
from repro.pruning.registry import (
    available_frameworks,
    framework_entries,
    framework_entry,
    paper_suite,
)
from repro.utils.rng import set_global_seed
from repro.utils.serialization import save_state_dict


#: `repro serve` flags that override the ServeSpec field of the same name:
#: the parser and the `dataclasses.replace` over the artifact's spec both read
#: this table, so a flag exists exactly when its field does.
_SERVE_OVERRIDES = {
    "requests": "total load-generation requests",
    "concurrency": "closed-loop client threads",
    "max_batch_size": "micro-batch size bound",
    "queue_capacity": "bounded admission queue",
    "workers": "worker processes; >1 serves through the multi-process cluster "
               "(repro.serving.cluster), sharding load across cores",
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--log-json", action="store_true",
                        help="emit library logs as JSON lines (with trace_id "
                             "correlation); also via REPRO_LOG_JSON=1")
    # Accept --log-json after the subcommand too (`repro serve ... --log-json`).
    # SUPPRESS keeps the subparser from clobbering a pre-subcommand flag with
    # its own default during the second parsing pass.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--log-json", action="store_true",
                        default=argparse.SUPPRESS, help=argparse.SUPPRESS)
    sub = parser.add_subparsers(dest="command", required=True)
    framework_choices = available_frameworks()

    run = sub.add_parser(
        "run", help="execute a deployment pipeline from a JSON RunSpec", parents=[common])
    run.add_argument("--spec", required=True, help="path to the RunSpec JSON file")
    run.add_argument("--artifact", default=None,
                     help="where to write the DeployableArtifact "
                          "(default: the spec's artifact_path, else artifacts/<name>.npz)")
    run.add_argument("--seed", type=int, default=None,
                     help="override the spec's seed")
    run.add_argument("--no-verify", action="store_true",
                     help="skip the reload-equivalence check of the saved artifact")
    run.add_argument("--per-layer", action="store_true",
                     help="print the per-layer pruning table")

    prune = sub.add_parser("prune", help="prune a model and print the report", parents=[common])
    prune.add_argument("--model", default="yolov5s", help="registry model name")
    prune.add_argument("--framework", default="rtoss-3ep", choices=framework_choices)
    prune.add_argument("--classes", type=int, default=3)
    prune.add_argument("--trace-size", type=int, default=64,
                       help="input resolution used to trace the graph for Algorithm 1")
    prune.add_argument("--seed", type=int, default=0, help="reproducibility seed")
    prune.add_argument("--save", default=None, help="path to save the pruned state dict")
    prune.add_argument("--per-layer", action="store_true", help="print the per-layer table")

    census = sub.add_parser("census", help="kernel-size census of a model", parents=[common])
    census.add_argument("--model", default="yolov5s")

    compare = sub.add_parser("compare", help="framework comparison (Figs. 4-7)", parents=[common])
    compare.add_argument("--model", default="yolov5s")
    compare.add_argument("--image-size", type=int, default=640)
    compare.add_argument("--seed", type=int, default=0, help="reproducibility seed")

    engine = sub.add_parser(
        "engine", help="measured speedup from pruning: fused-dense twin vs "
                       "fused-pruned engine (repro.engine)", parents=[common])
    engine.add_argument("--model", default="tiny",
                        help="registry model name (tiny is fast; larger models take longer)")
    engine.add_argument("--framework", default="rtoss-2ep", choices=framework_choices)
    engine.add_argument("--classes", type=int, default=3)
    engine.add_argument("--image-size", type=int, default=96,
                        help="input resolution of the measured forward passes")
    engine.add_argument("--batch", type=int, default=4, help="measurement batch size")
    engine.add_argument("--repeats", type=int, default=5,
                        help="paired timing rounds (median; at least 3 run)")
    engine.add_argument("--seed", type=int, default=0, help="reproducibility seed")
    engine.add_argument("--plans", action="store_true",
                        help="also print the per-layer compiled plan table")
    engine.add_argument("--profile", action="store_true",
                        help="print the per-op engine profile of the measured "
                             "compiled forwards (gather/GEMM/epilogue phase "
                             "split per conv; repro.obs.EngineProfiler)")

    serve = sub.add_parser(
        "serve", help="serve an artifact with dynamic micro-batching and report "
                      "latency percentiles + throughput", parents=[common])
    serve.add_argument("--artifact", required=True,
                       help="path to a DeployableArtifact .npz (see `run`)")
    serve_defaults = ServeSpec()
    for name, what in _SERVE_OVERRIDES.items():
        serve.add_argument(f"--{name.replace('_', '-')}", default=None,
                           type=type(getattr(serve_defaults, name)),
                           help=f"{what} (default: the artifact spec's serve.{name})")
    serve.add_argument("--routing", choices=ROUTING_POLICY_NAMES, default=None,
                       help="cluster routing policy (default: spec's serve.routing)")
    serve.add_argument("--gateway", default=None, metavar="HOST:PORT",
                       help="serve over TCP: bind the async gateway at HOST:PORT "
                            "(port 0 picks a free port) and drive the load "
                            "through the wire-level client, verifying it "
                            "returns bit-identical outputs to in-process "
                            "submits")
    serve.add_argument("--mode", choices=("closed", "open"), default="closed",
                       help="closed-loop clients (throughput) or Poisson open loop")
    serve.add_argument("--rate", type=float, default=200.0,
                       help="open-loop arrival rate in requests/s (default: 200)")
    serve.add_argument("--seed", type=int, default=0, help="reproducibility seed")
    serve.add_argument("--no-verify", action="store_true",
                       help="skip the service-vs-sequential-BatchRunner "
                            "output-equivalence check")
    serve.add_argument("--obs", default=None, metavar="DIR",
                       help="arm tracing and write observability artifacts to "
                            "DIR: snapshot.json (refreshed during the load "
                            "phase; what `repro top --obs DIR` tails), "
                            "metrics.prom, metrics.jsonl and trace.json "
                            "(Chrome trace-event format)")

    metrics = sub.add_parser(
        "metrics", help="run a short load against an artifact and dump the "
                        "unified obs metrics registry", parents=[common])
    metrics.add_argument("--artifact", required=True,
                         help="path to a DeployableArtifact .npz (see `run`)")
    metrics.add_argument("--requests", type=int, default=32,
                         help="load-generation requests before the dump")
    metrics.add_argument("--concurrency", type=int, default=4,
                         help="closed-loop client threads")
    metrics.add_argument("--format", choices=("prom", "jsonl"), default="prom",
                         help="Prometheus text exposition or JSON lines")
    metrics.add_argument("--seed", type=int, default=0, help="reproducibility seed")

    top = sub.add_parser(
        "top", help="live dashboard over serving snapshots (repro.obs.top)", parents=[common])
    top_source = top.add_mutually_exclusive_group(required=True)
    top_source.add_argument("--obs", default=None, metavar="DIR",
                            help="tail DIR/snapshot.json written by a "
                                 "concurrent `repro serve --obs DIR`")
    top_source.add_argument("--artifact", default=None,
                            help="self-drive a demo load against this artifact "
                                 "and watch it live")
    top.add_argument("--interval", type=float, default=1.0,
                     help="refresh interval in seconds")
    top.add_argument("--once", action="store_true",
                     help="render a single frame and exit (CI smoke mode)")
    top.add_argument("--plain", action="store_true",
                     help="plain frame dumps instead of the curses view")
    top.add_argument("--requests", type=int, default=256,
                     help="demo-load requests (--artifact mode)")
    top.add_argument("--seed", type=int, default=0, help="reproducibility seed")

    sub.add_parser("models", help="list available models", parents=[common])
    sub.add_parser("frameworks", help="list available pruning frameworks", parents=[common])

    # `repro lint` is listed here for -h discoverability only; main() forwards
    # its arguments verbatim to tools.reprolint before argparse runs (argparse
    # REMAINDER cannot capture leading --flags).
    sub.add_parser(
        "lint",
        help="project-aware static analysis (tools.reprolint)",
        description="Run the reprolint checkers (lock discipline, hot-path "
                    "allocation, fork/thread hygiene) over the repo. "
                    "All arguments are passed through to "
                    "`python -m tools.reprolint` (paths, --write-baseline, "
                    "--json, --list-rules, ...).", parents=[common])
    return parser


def _cmd_models() -> int:
    rows = []
    for name in available_models():
        try:
            model = build_model(name)
        except Exception as error:  # pragma: no cover - defensive
            rows.append({"model": name, "parameters (M)": f"error: {error}"})
            continue
        rows.append({"model": name, "parameters (M)": round(model.num_parameters() / 1e6, 3)})
    print(format_table(rows, title="Registered models"))
    return 0


def _cmd_frameworks() -> int:
    rows = [{"framework": entry.name, "label": entry.label,
             "paper suite": "yes" if entry.paper_suite else "",
             "description": entry.description}
            for entry in framework_entries()]
    print(format_table(rows, title="Registered pruning frameworks"))
    return 0


def _cmd_census(args: argparse.Namespace) -> int:
    model = build_model(args.model)
    census = census_for_model(model, args.model)
    print(format_table([census.as_dict()], title=f"Kernel census of {args.model}"))
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.pipeline import DeployableArtifact, Pipeline, RunSpec

    try:
        spec = RunSpec.load(args.spec)
    except (OSError, ValueError) as error:
        print(f"error: could not load spec {args.spec!r}: {error}", file=sys.stderr)
        return 2
    # Fail fast on names the registries don't know (mirrors the argparse
    # `choices` validation the flag-based commands get for free).
    try:
        framework_entry(spec.framework.name)
    except KeyError as error:
        print(f"error: {error.args[0]}", file=sys.stderr)
        return 2
    if spec.model.name.lower() not in available_models():
        print(f"error: unknown model {spec.model.name!r}; "
              f"available: {available_models()}", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec.seed = args.seed
    # Resolve the output path up front and clear spec.artifact_path so the
    # pipeline doesn't also save (the artifact is written exactly once, below).
    path = args.artifact or spec.artifact_path or f"artifacts/{spec.name}.npz"
    spec.artifact_path = None

    artifact = Pipeline.from_spec(spec).run()

    if args.per_layer:
        print(artifact.report.to_table())
        print()
    print(format_table([artifact.summary()],
                       title=f"pipeline run '{spec.name}' "
                             f"({spec.framework.name} on {spec.model.name})"))
    if artifact.metrics:
        print(format_table([artifact.metrics], title="Evaluation"))
    if artifact.measurement:
        print(format_table([artifact.measurement], title="Measured on host CPU"))
    print(format_table([artifact.timings], title="Step timings (s)"))

    written = artifact.save(path)
    print(f"deployable artifact written to {written}")

    if not args.no_verify:
        from repro.engine import max_abs_output_diff

        restored = DeployableArtifact.load(written)
        rng = np.random.default_rng(spec.seed)
        shape = spec.framework.example_shape()
        batch = rng.standard_normal(shape).astype(np.float32)
        diff = max_abs_output_diff(restored.forward_raw(batch),
                                   artifact.forward_raw(batch))
        ok = diff < 1e-5
        print(f"artifact reload equivalence (max abs diff): {diff:.2e} "
              f"{'OK' if ok else 'MISMATCH'}")
        if not ok:
            return 1
    return 0


def _cli_spec(args: argparse.Namespace, framework: str, trace_size: int,
              **sections):
    """The :class:`~repro.pipeline.RunSpec` of a flag-driven command.

    ``--model`` / ``--classes`` / ``--seed`` fill the model and the seed,
    ``framework`` is traced at ``trace_size``; ``sections`` (``engine=``,
    ``evaluation=``) replace the spec's defaults.
    """
    from repro.pipeline import RunSpec
    from repro.pipeline.spec import FrameworkSpec, ModelSpec

    return RunSpec(seed=args.seed,
                   model=ModelSpec(args.model, {"num_classes": args.classes}),
                   framework=FrameworkSpec(framework, trace_size=trace_size),
                   **sections)


def _cmd_prune(args: argparse.Namespace) -> int:
    from repro.pipeline import Pipeline
    from repro.pipeline.spec import EngineSpec, EvaluationSpec

    try:
        spec = _cli_spec(args, args.framework, args.trace_size,
                         engine=EngineSpec(enabled=False),
                         evaluation=EvaluationSpec(enabled=False))
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    artifact = Pipeline.from_spec(spec).run()
    if args.per_layer:
        print(artifact.report.to_table())
    print(format_table([artifact.report.summary()],
                       title=f"{args.framework} on {args.model}"))
    if args.save:
        path = save_state_dict(artifact.model.state_dict(), args.save)
        print(f"pruned state dict written to {path}")
    return 0


def _cmd_engine(args: argparse.Namespace) -> int:
    """The paper's claim, speedup *from pruning*, for ``--framework`` and both
    R-TOSS variants: one pipeline run each, measured on the shipped executor
    (fused-dense twin over fused-pruned engine) next to the modelled Jetson
    TX2 / RTX 2080Ti figures of the same pruned model."""
    from repro.engine import sparse_kernel_available
    from repro.pipeline import Pipeline
    from repro.pipeline.spec import EngineSpec, EvaluationSpec

    frameworks = [args.framework] + [name for name in ("rtoss-2ep", "rtoss-3ep")
                                     if name != args.framework]
    try:
        engine = EngineSpec(measure=True, image_size=args.image_size,
                            batch=args.batch, repeats=args.repeats)
        evaluation = EvaluationSpec(image_size=args.image_size,
                                    probe_size=max(32, min(args.image_size, 64)),
                                    platforms=("jetson_tx2", "rtx_2080ti"))
        specs = [_cli_spec(args, name, args.image_size, engine=engine,
                           evaluation=evaluation) for name in frameworks]
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    artifact = Pipeline.from_spec(specs[0]).run()
    compiled = artifact.compiled
    if args.profile:
        # Per-op attribution of the measured path: run the measured batch a
        # few times under a profiler, print where the time went.
        probe = np.random.default_rng(args.seed).standard_normal(
            (args.batch, 3, args.image_size, args.image_size)).astype(np.float32)
        with compiled.profiled() as profiler:
            for _ in range(args.repeats):
                compiled.forward_raw(probe)
        profile = profiler.report()
        rows = []
        for op in profile["ops"]:
            row = {k: op[k] for k in ("op", "kind", "mode", "calls",
                                      "total_ms", "mean_ms", "share")}
            phases = op.get("phases_ms")
            if phases:
                row["phases_ms"] = " ".join(f"{k}={v}" for k, v in phases.items())
            rows.append(row)
        print(format_table(
            rows, title=f"Engine profile — {args.model} "
                        f"({compiled.engine_mode} mode, {profile['runs']} runs, "
                        f"{profile['total_ms']}ms total)"))
        print()
    if args.plans:
        # The measurement already traced + fused, so the table shows the modes
        # that actually execute (e.g. "sparse-im2col-gemm+direct+bn+silu").
        print(format_table(compiled.summary(), title="Compiled layer plans"))
        print()
    print(format_table([artifact.measurement],
                       title=f"{args.framework} on {args.model} — measured on host CPU"))

    artifacts = [artifact] + [Pipeline.from_spec(spec).run() for spec in specs[1:]]
    rows = []
    for name, run in zip(frameworks, artifacts):
        measured = run.measurement
        rows.append({"framework": name,
                     "pruning_speedup[host]": run.metrics["pruning_speedup[host]"],
                     "pruning_speedup_q1": measured["pruning_speedup_q1"],
                     "pruning_speedup_q3": measured["pruning_speedup_q3"],
                     **{key: value for key, value in run.metrics.items()
                        if key.startswith("speedup[")},
                     "max_abs_diff": measured["max_abs_diff"]})
    kernel = ("native direct sparse kernel" if sparse_kernel_available()
              else "portable gather + GEMM path: zeros are multiplied, expect ~1x")
    print(format_table(
        rows, title=f"Speedup from pruning (fused-dense / fused-pruned; {kernel})"))
    # Every measured variant must compute what its pruned model computes.
    ok = all(row["max_abs_diff"] < 1e-5 for row in rows)
    print("output equivalence (max abs diff): "
          + ", ".join(f"{row['framework']} {row['max_abs_diff']:.2e}" for row in rows)
          + f" {'OK' if ok else 'MISMATCH'}")
    return 0 if ok else 1


def _write_json_atomic(path: str, payload) -> None:
    """Replace ``path`` atomically so snapshot tailers never see a torn file."""
    import json

    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump(payload, handle)
    os.replace(tmp, path)


def _snapshot(name: str, report_fn) -> dict:
    """One ``repro top`` frame: the target's report plus the obs registry."""
    import time

    from repro.obs import get_registry

    return {"ts": time.time(), "name": name, "report": report_fn(),
            "metrics": get_registry().snapshot()}


class _ObsSession:
    """The ``repro serve --obs DIR`` side-car: tracing + periodic snapshots.

    While the load phase runs, a daemon thread rewrites ``DIR/snapshot.json``
    (atomically) every ``interval`` seconds so a concurrent ``repro top --obs
    DIR`` watches the run live; :meth:`finish` writes the final snapshot plus
    ``metrics.prom``, ``metrics.jsonl`` and the Chrome-loadable ``trace.json``.
    """

    def __init__(self, directory: str, name: str, report_fn, interval: float = 0.5) -> None:
        import threading

        from repro.obs import set_tracing

        self.directory = directory
        self.name = name
        self.report_fn = report_fn
        self.interval = interval
        os.makedirs(directory, exist_ok=True)
        self._was_tracing = set_tracing(True)
        self._stop = threading.Event()
        self._writer = threading.Thread(
            target=self._loop, name="repro-obs-snapshots", daemon=True)

    def _loop(self) -> None:
        path = os.path.join(self.directory, "snapshot.json")
        while not self._stop.wait(self.interval):
            try:
                _write_json_atomic(path, _snapshot(self.name, self.report_fn))
            except Exception:  # pragma: no cover - the side-car must not kill serving
                continue

    def __enter__(self) -> "_ObsSession":
        self._writer.start()
        return self

    def __exit__(self, *exc) -> None:
        from repro.obs import get_registry, get_trace_buffer, set_tracing

        self._stop.set()
        self._writer.join(timeout=5.0)
        registry = get_registry()
        _write_json_atomic(os.path.join(self.directory, "snapshot.json"),
                           _snapshot(self.name, self.report_fn))
        with open(os.path.join(self.directory, "metrics.prom"), "w",
                  encoding="utf-8") as handle:
            handle.write(registry.to_prometheus())
        with open(os.path.join(self.directory, "metrics.jsonl"), "w",
                  encoding="utf-8") as handle:
            handle.write(registry.to_jsonlines())
        with open(os.path.join(self.directory, "trace.json"), "w",
                  encoding="utf-8") as handle:
            handle.write(get_trace_buffer().to_chrome_json())
        set_tracing(self._was_tracing)
        print(f"observability artifacts written to {self.directory}/ "
              f"(snapshot.json, metrics.prom, metrics.jsonl, trace.json; "
              f"{len(get_trace_buffer())} traces)")


def _parse_hostport(value: str):
    """``HOST:PORT`` (or a bare port) -> (host, port); raises ValueError."""
    host, _, port_text = value.rpartition(":")
    try:
        return host or "127.0.0.1", int(port_text)
    except ValueError:
        raise ValueError(
            f"invalid gateway address {value!r}; expected HOST:PORT") from None


def _load_cli_artifact(path: str):
    """Load a DeployableArtifact or print the standard CLI error (None)."""
    from repro.pipeline import DeployableArtifact

    try:
        return DeployableArtifact.load(path)
    except (OSError, ValueError) as error:
        print(f"error: could not load artifact {path!r}: {error}", file=sys.stderr)
        return None


def _with_flags(spec, args: argparse.Namespace, *flags: str):
    """``dataclasses.replace(spec, ...)`` with every listed flag the user set.

    ``flags`` are named like their spec field; one left at ``None`` keeps the
    spec's value.  The replace re-runs the spec's validator: a bad flag is a
    ``ValueError`` naming the field.
    """
    import dataclasses

    changes = {flag: getattr(args, flag) for flag in flags if getattr(args, flag) is not None}
    return dataclasses.replace(spec, **changes)


def _random_images(artifact, count: int, seed: int) -> np.ndarray:
    """``count`` seeded gaussian frames at the artifact's traced resolution."""
    shape = artifact.spec.framework.example_shape()
    return np.random.default_rng(seed).standard_normal(
        (count, *shape[1:])).astype(np.float32)


def _start_target(artifact, serve_spec, **parts):
    """``build_target`` or the standard CLI error (None): nothing left running."""
    from repro.serving import build_target

    try:
        return build_target(artifact, serve_spec, **parts)
    except (OSError, RuntimeError, ValueError) as error:
        detail = f" ({error.__cause__})" if error.__cause__ else ""
        print(f"error: could not start the serving target: {error}{detail}",
              file=sys.stderr)
        return None


def _gateway_flat_row(report) -> dict:
    """One table row summarising a GatewayMetrics report across classes."""
    requests = report["requests"]
    return {
        "connections": report["connections"]["total"],
        "accepted": sum(requests["accepted"].values()),
        "rejected": sum(requests["rejected"].values()),
        "expired": sum(requests["expired"].values()),
        "completed": sum(requests["completed"].values()),
        "failed": sum(requests["failed"].values()),
    }


def _cmd_serve(args: argparse.Namespace) -> int:
    import dataclasses
    from contextlib import nullcontext

    from repro.engine import BatchRunner, max_abs_output_diff
    from repro.serving import closed_loop, open_loop
    from repro.serving.cluster.channel import burst_images

    artifact = _load_cli_artifact(args.artifact)
    if artifact is None:
        return 2
    # CLI flags override the serving configuration baked into the artifact.
    try:
        spec = _with_flags(artifact.spec.serve, args, *_SERVE_OVERRIDES, "routing")
        gateway = None
        if args.gateway:
            host, port = _parse_hostport(args.gateway)
            gateway = dataclasses.replace(spec.gateway, host=host, port=port)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2

    name = artifact.spec.name
    images = _random_images(artifact, spec.requests, args.seed)
    # The (possibly clustered) concurrent target must produce exactly what a
    # sequential single-image BatchRunner over the same inputs does; a
    # mismatch is a correctness failure and exits non-zero.
    sequential = None
    if not args.no_verify:
        runnable = artifact.compiled if artifact.compiled is not None else artifact.model
        sequential = BatchRunner(runnable, batch_size=1).run(images)

    # Built BEFORE the target so tracing is armed before any worker forks —
    # children inherit the flag and record their spans (the ring/ambient
    # state re-arms fresh per child).  The lambda resolves `stack` lazily:
    # the writer thread only starts inside the `with obs` block below.
    obs = (_ObsSession(args.obs, name, lambda: stack.backend.report())
           if args.obs else nullcontext())
    stack = _start_target(artifact, spec, gateway=gateway)
    if stack is None:
        return 2
    with stack:
        backend = stack.backend
        if sequential is not None:
            diff = max_abs_output_diff(backend.submit_many(images), sequential)
            ok = diff < 1e-5
            print(f"{'cluster' if stack.clustered else 'service'} vs sequential "
                  f"BatchRunner (max abs diff): {diff:.2e} "
                  f"{'OK' if ok else 'MISMATCH'}")
            if not ok:
                return 1
        if stack.gateway is not None:
            print(f"gateway listening on {stack.gateway.address}")
            # The wire client must return *bit-identical* outputs to an
            # in-process submit — the serialization hop adds no numerics.
            wire = stack.target.submit_many(images)
            identical = max_abs_output_diff(wire, backend.submit_many(images)) == 0.0
            frames = -(-len(images) // burst_images(images[0].nbytes))
            print(f"gateway wire client vs in-process submit_many "
                  f"({len(images)} images in {frames} burst frame{'s' * (frames != 1)}): "
                  f"{'bit-identical OK' if identical else 'MISMATCH'}")
            if not identical:
                return 1
            if sequential is not None and max_abs_output_diff(wire, sequential) >= 1e-5:
                print("gateway wire client vs sequential BatchRunner: MISMATCH")
                return 1
            stack.gateway.metrics.reset()
        # Zero the ledgers so the tables below cover the load phase only.
        backend.metrics.reset()
        with obs:
            if args.mode == "closed":
                load = closed_loop(stack.target, images, requests=spec.requests,
                                   concurrency=spec.concurrency)
            else:
                load = open_loop(stack.target, images, requests=spec.requests,
                                 rate_hz=args.rate, seed=args.seed)
            report = backend.report()
        gateway_report = (stack.gateway.metrics.report()
                          if stack.gateway is not None else None)

    print()
    shape = (f"cluster ({spec.workers} workers, {spec.routing} routing, "
             f"{spec.requests} requests)" if stack.clustered else
             f"({spec.requests} requests, batch<= {spec.max_batch_size})")
    print(format_table([load.flat_row()],
                       title=f"repro serve — {args.mode}-loop load on {name} {shape}"))
    if stack.clustered:
        _print_cluster_tables(backend.metrics.flat_row(), report)
    else:
        _print_service_tables(report)
    if gateway_report is not None:
        print(format_table([_gateway_flat_row(gateway_report)],
                           title="Gateway front-door metrics"))
    if load.failed:
        print(f"error: {load.failed} requests failed", file=sys.stderr)
        return 1
    return 0


def _print_service_tables(report) -> None:
    """``repro serve`` tables of an in-process ``InferenceService.report()``."""
    service_row = {
        "throughput_rps": report["throughput_rps"],
        **{k: v for k, v in report["latency"].items() if k != "count"},
        "mean_batch": report["batches"]["mean_size"],
        "max_queue_depth": report["queue"]["max_depth"],
        "rejected": report["requests"]["rejected"],
    }
    print(format_table([service_row], title="Service-side metrics (incl. queueing)"))
    histogram = report["batches"]["size_histogram"]
    if histogram:
        print(format_table([histogram], title="Micro-batch size distribution"))


def _print_cluster_tables(cluster_row, report) -> None:
    """``repro serve`` tables of a ``Router.report()``."""
    print(format_table([cluster_row],
                       title="Cluster-side metrics (incl. transport + queueing)"))
    worker_rows = [{
        "worker": worker_id,
        "completed": stats["completed"],
        "failed": stats["failed"],
        "restarts": stats["restarts"],
        "p50_ms": stats["latency"]["p50_ms"],
        "p99_ms": stats["latency"]["p99_ms"],
    } for worker_id, stats in sorted(report["workers"].items())]
    if worker_rows:
        print(format_table(worker_rows, title="Per-worker breakdown"))


def _start_demo_target(args: argparse.Namespace, concurrency: int):
    """``repro metrics|top``: the artifact in-process, ready for a short load.

    Returns ``(stack, drive)`` — ``drive()`` runs the closed loop — or
    ``None`` after printing the CLI error.  In-process whatever the
    artifact's ``serve.workers`` says: both commands read this process's
    registry and service report.
    """
    import dataclasses

    from repro.serving import closed_loop

    artifact = _load_cli_artifact(args.artifact)
    if artifact is None:
        return None
    try:
        spec = dataclasses.replace(artifact.spec.serve, workers=1,
                                   requests=args.requests, concurrency=concurrency)
    except ValueError as error:
        print(f"error: {error}", file=sys.stderr)
        return None
    images = _random_images(artifact, min(spec.requests, 64), args.seed)
    stack = _start_target(artifact, spec)
    if stack is None:
        return None
    return stack, lambda: closed_loop(
        stack.target, images, requests=spec.requests, concurrency=spec.concurrency)


def _cmd_metrics(args: argparse.Namespace) -> int:
    from repro.obs import get_registry

    demo = _start_demo_target(args, args.concurrency)
    if demo is None:
        return 2
    stack, drive = demo
    with stack:
        drive()
        registry = get_registry()
        output = (registry.to_prometheus() if args.format == "prom"
                  else registry.to_jsonlines())
        print(output, end="")
    return 0


def _cmd_top(args: argparse.Namespace) -> int:
    import threading

    from repro.obs.top import TopView, file_source

    if args.obs:
        source = file_source(os.path.join(args.obs, "snapshot.json"))
        return TopView(source, interval=args.interval).run(
            once=args.once, plain=args.plain)

    # --artifact: self-driven demo load watched live.
    demo = _start_demo_target(args, 4)
    if demo is None:
        return 2
    stack, drive = demo
    with stack:
        load = threading.Thread(target=drive, name="repro-top-demo-load", daemon=True)
        load.start()
        backend = stack.backend
        view = TopView(lambda: _snapshot(backend.metrics.name, backend.report),
                       interval=args.interval)
        if args.once:
            load.join(120.0)     # one frame of the *completed* run
            return view.run(once=True)
        return view.run(plain=args.plain)


def _cmd_compare(args: argparse.Namespace) -> int:
    set_global_seed(args.seed)
    baseline_map = BASELINE_MAP.get(args.model, 60.0)
    evaluator = DetectorEvaluator(lambda: build_model(args.model), args.model, baseline_map,
                                  image_size=args.image_size, probe_size=64)
    results = compare_frameworks(evaluator, paper_suite())
    print(format_comparison(
        results,
        metrics=("compression_ratio", "mAP", "speedup[Jetson TX2]",
                 "energy_reduction_%[Jetson TX2]"),
        title=f"Framework comparison on {args.model}",
    ))
    return 0


def _cmd_lint(lint_args: Sequence[str]) -> int:
    """Run tools.reprolint in-process (it is stdlib-only and import-cheap).

    ``repro`` is importable from anywhere, but ``tools.reprolint`` lives in
    the repo tree, not in ``src/``: fall back to the current directory (the
    documented place to run ``repro lint`` from) when it is not already
    importable.
    """
    try:
        from tools.reprolint.__main__ import main as reprolint_main
    except ImportError:
        candidate = os.path.join(os.getcwd(), "tools", "reprolint")
        if not os.path.isdir(candidate):
            print("repro lint: cannot import tools.reprolint -- run from the "
                  "repository root (where the tools/ directory lives)",
                  file=sys.stderr)
            return 2
        sys.path.insert(0, os.getcwd())
        from tools.reprolint.__main__ import main as reprolint_main
    return reprolint_main(list(lint_args))


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if argv[:1] == ["lint"]:
        return _cmd_lint(argv[1:])
    args = _build_parser().parse_args(argv)
    if getattr(args, "log_json", False):
        from repro.utils.logging import use_json_logs

        use_json_logs(True)
    if args.command == "models":
        return _cmd_models()
    if args.command == "frameworks":
        return _cmd_frameworks()
    if args.command == "census":
        return _cmd_census(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "prune":
        return _cmd_prune(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "engine":
        return _cmd_engine(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "metrics":
        return _cmd_metrics(args)
    if args.command == "top":
        return _cmd_top(args)
    if args.command == "lint":
        return _cmd_lint(args)
    raise AssertionError(f"unhandled command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
