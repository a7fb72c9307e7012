"""``serve_*``: the pruned ``tiny`` artifact served to independent users.

``serve_inproc`` stops at :class:`InferenceService`; ``serve_fleet`` puts the
same artifact behind ``GatewayClient -> GatewayServer -> Router``, so the
difference between the two rows is the wire + cluster tax.

The untraced run measures what survives this host's noise: ``bulk`` (a
thousand frames handed over at once: full buckets) and the paired
``pruning_speedup`` at the bucket size.  The traced run adds the open loop —
independent users do not wait, so Poisson arrivals come from one dispatcher
thread and every request is timed from when it was due: the reference rung
with tracing off and on, the ladder of fixed rates, and the same schedule
against shorter stacks to price the cluster and the gateway.  Sparse arrivals
pay ``max_wait_ms`` where ``bulk`` fills buckets, so the batcher is used in
opposite ways inside one workload.
"""

from __future__ import annotations

import multiprocessing
import os
import time
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from bench import loadgen, stats
from bench.common import Tally, frame_pool
from bench.hostspeed import HostProbe
from bench.spans import SpanRecorder
from repro.engine import compile_model, max_abs_output_diff
from repro.models.registry import build_model
from repro.obs import get_trace_buffer, set_tracing
from repro.pipeline import DeployableArtifact, Pipeline, RunSpec
from repro.pipeline.spec import GatewaySpec
from repro.serving import (
    AdmissionRejectedError,
    BatchPolicy,
    GatewayClient,
    GatewayServer,
    InferenceService,
    ModelPool,
    QueueFullError,
    Router,
)
from repro.serving.cluster import ArrayChannel
from repro.serving.cluster.channel import encode_frame
from repro.utils.rng import set_global_seed

REFUSALS = (QueueFullError, AdmissionRejectedError)
#: ``repro.obs`` span names passed through untouched as ``obs.span.<name>_ms_p50``.
OBS_SPANS = ("queue-wait", "batch-assembly", "router-dispatch", "worker-execute",
             "gateway-queue")


class Stack:
    """A serving stack under test: where requests go, and what to close after."""

    def __init__(self) -> None:
        self.target: Any = None
        self.service: Optional[InferenceService] = None
        self.router: Optional[Router] = None
        self.gateway: Optional[GatewayServer] = None
        self.client: Optional[GatewayClient] = None

    def close(self) -> None:
        for part in (self.client, self.gateway, self.router, self.service):
            if part is not None:
                part.shutdown()
        if self.router is not None:
            for worker in self.router.workers:
                process = worker.process
                if process is not None and process.is_alive():
                    process.kill()
                    process.join()

    def batcher_reports(self) -> List[Dict[str, Any]]:
        """The ``service.report()`` of every batcher on the path."""
        if self.router is not None:
            return list(self.router.report()["worker_services"].values())
        return [self.service.report()]


def build_artifact(cfg: Dict[str, Any], path: str, rec: SpanRecorder,
                   parent: Optional[int]) -> DeployableArtifact:
    """``Pipeline.run`` then ``save``: how a deployable file comes to exist."""
    spec = RunSpec.from_dict(cfg["served"]["run_spec"])
    with rec.span("pipeline.run", parent):
        artifact = Pipeline.from_spec(spec).run()
    with rec.span("pipeline.save", parent):
        artifact.save(path)
    return artifact


def open_stack(kind: str, path: str, bulk_frames: int, rec: SpanRecorder,
               parent: Optional[int]) -> Stack:
    """Build the stack from the artifact *path* (load, re-fuse, warm, spawn, connect)."""
    policy = BatchPolicy(queue_capacity=bulk_frames)    # batch 8 / 2.0 ms: the defaults
    stack = Stack()
    try:
        if kind == "inproc":
            with rec.span("serving.service.start", parent):
                stack.service = InferenceService(path, policy=policy)
            stack.target = stack.service
        elif kind == "router":
            workers = min(2, os.cpu_count() or 1)
            with rec.span("serving.cluster.spawn", parent):
                stack.router = Router(path, workers=workers, policy=policy,
                                      routing="least-outstanding")
                for worker in stack.router.workers:
                    if not worker.wait_ready(60.0):
                        raise RuntimeError(f"{worker.worker_id} did not become ready")
            stack.target = stack.router
        else:
            raise ValueError(f"unknown stack {kind!r}")
    except BaseException:
        stack.close()
        raise
    return stack


def add_gateway(stack: Stack, bulk_frames: int, rec: SpanRecorder,
                parent: Optional[int]) -> None:
    """Put ``GatewayServer`` + one ``GatewayClient`` connection in front of the stack."""
    with rec.span("serving.gateway.connect", parent):
        stack.gateway = GatewayServer(
            stack.target, GatewaySpec(max_inflight_per_client=bulk_frames)).start()
        stack.client = GatewayClient(stack.gateway.host, stack.gateway.port)
    stack.target = stack.client


def setup(kind: str, cfg, spec, path: str, frame: np.ndarray, tally: Tally,
          rec: SpanRecorder):
    """Start of workload to ready: artifact, stack, first verified reply.

    Returns the in-memory artifact, the open stack and the seconds it took.
    """
    with rec.span("setup") as sid:
        artifact = build_artifact(cfg, path, rec, sid)
        stack = open_stack("inproc" if kind == "inproc" else "router", path,
                           spec["bulk_frames"], rec, sid)
        try:
            if kind == "fleet":
                add_gateway(stack, spec["bulk_frames"], rec, sid)
            with rec.span("first_reply", sid):
                reply = stack.target.submit(frame[0]).result(timeout=60.0)
                direct = artifact.compiled.forward_raw(frame)
                diff = max_abs_output_diff(reply, direct)
                tally.op(diff <= cfg["reply_max_abs_diff"],
                         f"first reply differs from the direct output by {diff}")
        except BaseException:
            stack.close()
            raise
    span = rec.spans[sid]
    return artifact, stack, span["end"] - span["start"]


def _submitter(target, frames: List[np.ndarray]) -> Callable[[int], Any]:
    return lambda i: target.submit(frames[i % len(frames)][0], block=False)


def _reply_check(references: List[Any], cfg) -> Callable[[int, Any], bool]:
    limit = cfg["reply_max_abs_diff"]
    return lambda i, value: (
        max_abs_output_diff(value, references[i % len(references)]) <= limit)


def open_loop_phase(target, rate: float, seconds: float, frames, references, cfg,
                    rng, tally: Tally) -> loadgen.OpenLoopRun:
    """One rung: Poisson arrivals at ``rate`` for ``seconds``; tallies its operations."""
    run = loadgen.run_open_loop(
        _submitter(target, frames), loadgen.poisson_schedule(rate, seconds, rng),
        seconds, check=_reply_check(references, cfg), refused=REFUSALS,
        drain_s=cfg["drain_s"])
    # A refusal on an overloaded rung is admission control doing its job; a
    # failed, wrong or lost reply is a failed operation.
    tally.add(len(run.outcomes) - run.count("unsent"),
              run.count("failed", "wrong", "unresolved"))
    return run


def rung_summary(run: loadgen.OpenLoopRun, rate: float, cfg) -> Dict[str, Any]:
    summary = run.summary(cfg["limit_ms"])
    summary["rate"] = rate
    summary["passed"] = loadgen.rung_passes(summary, cfg["in_limit_share"],
                                            cfg["lag_limit_ms"])
    latencies = run.latencies_ms()
    if latencies:
        summary["lat_ms"] = stats.summarize(latencies)
    return summary


def bulk_phase(target, frames, references, count: int, seconds: float, cfg,
               tally: Tally, probe: HostProbe) -> Dict[str, Any]:
    """``submit_many`` of ``count`` frames, at least three times; median img/s.

    Full buckets make this compute-bound, so each burst is paired with the
    host probe (before and after) and reported at the reference host speed.
    """
    images = [frames[i % len(frames)][0] for i in range(count)]
    expected = _tile(references, count)
    rates, raw = [], []
    deadline = time.perf_counter() + seconds
    before = probe.factor()
    while len(rates) < 3 or time.perf_counter() < deadline:
        started = time.perf_counter()
        outputs = target.submit_many(images, timeout=120.0)
        raw.append(count / (time.perf_counter() - started))
        after = probe.factor()
        rates.append(raw[-1] * (before + after) / 2.0)
        before = after
        diff = max_abs_output_diff(outputs, expected)
        tally.add(count, 0 if diff <= cfg["reply_max_abs_diff"] else count)
    return {"img_per_s": stats.percentile(rates, 50.0), "bursts": len(rates),
            "frames": count, "raw_img_per_s": stats.percentile(raw, 50.0)}


def _tile(references: List[Any], count: int):
    """The references cycled to ``count`` replies, concatenated like ``submit_many``."""
    order = [i % len(references) for i in range(count)]
    first = references[0]
    if isinstance(first, np.ndarray):
        return np.concatenate([references[i] for i in order])
    return type(first)(_tile([ref[k] for ref in references], count)
                       for k in range(len(first)))


def pruning_speedup(artifact: DeployableArtifact, cfg, frames, seconds: float,
                    tally: Tally) -> Dict[str, float]:
    """Dense-fused over 2EP-fused, same round, at the batch size the batcher forms."""
    spec = cfg["served"]["run_spec"]
    set_global_seed(spec["seed"])
    dense = compile_model(build_model(spec["model"]["name"], **spec["model"]["kwargs"]), None)
    pruned = artifact.compiled
    batch = np.concatenate(frames[:8])
    base: List[float] = []
    other: List[float] = []
    pair = ((dense, base, dense.forward_raw(batch)), (pruned, other, pruned.forward_raw(batch)))
    deadline = time.perf_counter() + seconds
    index = 0
    while time.perf_counter() < deadline or index < 20:
        for engine, sink, reference in (pair if index % 2 == 0 else pair[::-1]):
            started = time.perf_counter()
            output = engine.forward_raw(batch)
            sink.append((time.perf_counter() - started) * 1e3)
            tally.op(max_abs_output_diff(output, reference) <= cfg["reply_max_abs_diff"],
                     "batch-8 reply changed")
        index += 1
    return stats.paired_ratio(base, other)


def check_router(stack: Stack, tally: Tally) -> None:
    """No worker restarted and nothing was re-dispatched during the run."""
    if stack.router is None:
        return
    cluster = stack.router.report()["cluster"]
    tally.op(cluster["restarts"] == 0 and cluster["redispatched"] == 0,
             f"router restarts={cluster['restarts']} redispatched={cluster['redispatched']}")


def run(name: str, spec: Dict[str, Any], cfg: Dict[str, Any], seed: int, seconds: float,
        trace: bool, rec: SpanRecorder, probe: HostProbe, out_dir: str) -> Dict[str, Any]:
    """One run of a ``serve_*`` workload; returns metrics, tally and detail."""
    tally = Tally()
    kind = spec["stack"]
    frames = frame_pool(seed, cfg["pool_frames"], cfg["served"]["image_size"])
    rng = np.random.default_rng(seed)
    path = os.path.join(out_dir, f"{name}.npz")

    # Set-up several times; the median is reported and the last stack is kept.
    stack: Optional[Stack] = None
    setup_runs: List[float] = []
    for _ in range(cfg["setup_repeats"]):
        if stack is not None:
            stack.close()
        before = probe.factor(kernel="python")
        artifact, stack, took = setup(kind, cfg, spec, path, frames[0], tally, rec)
        setup_runs.append(took / ((before + probe.factor(kernel="python")) / 2.0))
    try:
        got = round(artifact.report.compression_ratio, 2)
        tally.op(got == spec["compression_x"]["2ep"],
                 f"compression {got}x, pinned {spec['compression_x']['2ep']}x")
        references = [artifact.compiled.forward_raw(frame) for frame in frames]
        detail: Dict[str, Any] = {"setup_runs_s": setup_runs, "stack": kind}
        if trace:
            metrics = _traced(stack, artifact, spec, cfg, frames, references, rng,
                              seconds, path, tally, rec, probe, detail)
        else:
            metrics = _untraced(stack, artifact, spec, cfg, frames, references,
                                seconds, tally, probe, detail)
            metrics["setup_s"] = stats.percentile(setup_runs, 50.0)
        check_router(stack, tally)
    finally:
        stack.close()
    return {"metrics": metrics, "tally": tally, "detail": detail}


def _untraced(stack, artifact, spec, cfg, frames, references, seconds, tally, probe,
              detail) -> Dict[str, float]:
    shares = spec["shares"]
    bulk = bulk_phase(stack.target, frames, references, spec["bulk_frames"],
                      seconds * shares["bulk"], cfg, tally, probe)
    ratio = pruning_speedup(artifact, cfg, frames, seconds * shares["pruning"], tally)
    detail.update({"bulk": bulk, "pruning_speedup": ratio})
    return {"pruning_speedup": ratio["median"], "bulk_img_per_s": bulk["img_per_s"]}


def ladder(stack, spec, cfg, frames, references, rng, seconds, tally) -> Dict[str, Any]:
    """Every fixed rate, lowest first; the highest that holds the limit."""
    rungs = [rung_summary(open_loop_phase(stack.target, rate, seconds, frames,
                                          references, cfg, rng, tally), rate, cfg)
             for rate in spec["rates_rps"]]
    return {"rungs": rungs,
            "rate_in_slo": loadgen.highest_passing(
                [r["rate"] for r in rungs], [r["passed"] for r in rungs])}


def _batcher_totals(reports: List[Dict[str, Any]]) -> Dict[str, float]:
    count = sum(r["batches"]["count"] for r in reports)
    return {
        "count": count,
        "size_sum": sum(r["batches"]["count"] * r["batches"]["mean_size"] for r in reports),
        "exec_ms_p50": stats.percentile([r["batches"]["p50_batch_ms"] for r in reports], 50.0),
        "queue_max_depth": max(r["queue"]["max_depth"] for r in reports),
    }


def _mean_batch(before: Dict[str, float], after: Dict[str, float]) -> float:
    batches = after["count"] - before["count"]
    return (after["size_sum"] - before["size_sum"]) / batches if batches else 0.0


def _record_requests(rec: SpanRecorder, run: loadgen.OpenLoopRun, layer: str,
                     parent: int) -> None:
    """One span per request (due -> resolved) with lag, submit and in-flight children."""
    for o in run.outcomes:
        if o.status != "ok":
            continue
        request = rec.add("request", o.due, o.resolved, parent, o.index)
        rec.add("loadgen.lag", o.due, o.sent, request, o.index)
        rec.add(f"{layer}.submit", o.sent, o.sent + o.submit_s, request, o.index)
        rec.add(f"{layer}.in_flight", o.sent + o.submit_s, o.resolved, request, o.index)


def _obs_span_medians() -> Dict[str, float]:
    """Median milliseconds per ``repro.obs`` span name over the buffered traces."""
    durations: Dict[str, List[float]] = {}
    for trace in get_trace_buffer().traces():
        for span in list(trace.spans):
            if span.end is not None:
                durations.setdefault(span.name, []).append((span.end - span.start) * 1e3)
    return {f"obs.span.{name}_ms_p50": stats.percentile(durations[name], 50.0)
            for name in OBS_SPANS if name in durations}


def _p50_latency(target, rate, seconds, frames, references, cfg, rng, tally) -> float:
    run = open_loop_phase(target, rate, seconds, frames, references, cfg, rng, tally)
    return stats.percentile(run.latencies_ms(), 50.0)


def _traced(stack, artifact, spec, cfg, frames, references, rng, seconds, path, tally,
            rec, probe, detail) -> Dict[str, float]:
    rate = spec["ref_rps"]
    layer = "serving.gateway" if stack.client is not None else "serving.service"
    args = (frames, references, cfg, rng, tally)
    metrics: Dict[str, float] = {}

    # The reference rung, tracing off then on: the gap is the tracing overhead.
    totals_start = _batcher_totals(stack.batcher_reports())
    plain = open_loop_phase(stack.target, rate, seconds * 0.15, *args)
    get_trace_buffer().clear()
    set_tracing(True)
    try:
        with rec.span("traced_ref") as sid:
            traced = open_loop_phase(stack.target, rate, seconds * 0.15, *args)
    finally:
        set_tracing(False)
    _record_requests(rec, traced, layer, sid)
    totals_ref = _batcher_totals(stack.batcher_reports())
    plain_p50 = stats.percentile(plain.latencies_ms(), 50.0)
    traced_p50 = stats.percentile(traced.latencies_ms(), 50.0)
    summary = traced.summary(cfg["limit_ms"])
    metrics.update(_obs_span_medians())
    metrics.update({
        "lat_ms_p50": plain_p50,
        "lat_ms_p95": stats.blocked_percentile(plain.latencies_ms(), 95.0),
        "obs.tracing_overhead_share": traced_p50 / plain_p50 - 1.0,
        "batcher.mean_batch.ref": _mean_batch(totals_start, totals_ref),
        "batcher.batch_exec_ms_p50": totals_ref["exec_ms_p50"],
        "batcher.queue_max_depth": totals_ref["queue_max_depth"],
        "service.submit_us_p50": stats.percentile(traced.submit_us(), 50.0),
        "service.wait_ms_p50": traced_p50 - totals_ref["exec_ms_p50"],
        "service.refused": summary["refused"],
        "service.failed": summary["failed"],
        "loadgen.lag_ms_p99": summary["lag_ms_p99"],
        "loadgen.late_share": summary["late_share"],
    })

    bulk = bulk_phase(stack.target, frames, references, spec["bulk_frames"],
                      seconds * 0.1, cfg, tally, probe)
    metrics["batcher.mean_batch.bulk"] = _mean_batch(
        totals_ref, _batcher_totals(stack.batcher_reports()))
    rates = ladder(stack, spec, cfg, frames, references, rng,
                   seconds * 0.3 / len(spec["rates_rps"]), tally)
    metrics["rate_in_slo_rps"] = rates["rate_in_slo"]

    # Set-up spans of the last set-up, by the layer that owns them.
    last = [s for s in rec.spans if s["name"] == "setup"][-1]["id"]
    durations = {s["name"]: s["end"] - s["start"] for s in rec.spans if s["parent"] == last}
    metrics.update({
        "pipeline.run_s": durations["pipeline.run"],
        "pipeline.save_s": durations["pipeline.save"],
        "pipeline.artifact_mb": os.path.getsize(path) / 2**20,
    })
    with rec.span("pipeline.load"):
        DeployableArtifact.load(path)
    metrics["pipeline.load_s"] = rec.duration("pipeline.load")

    if stack.router is not None:
        metrics.update(_fleet_layers(stack, spec, cfg, path, rate, seconds, plain_p50,
                                     bulk, durations, args, rec, probe))
    metrics.update(_batching_curve(artifact, frames))
    metrics.update(_pool_costs(path, rec))
    metrics["channel.roundtrip_us_p50"] = _channel_roundtrip(frames[0][0])
    detail.update({"ref_lat_ms": {"plain": stats.summarize(plain.latencies_ms()),
                                  "traced": stats.summarize(traced.latencies_ms())},
                   "bulk": bulk, "traced_ref": summary, "ladder": rates})
    return metrics


def _fleet_layers(stack, spec, cfg, path, rate, seconds, gateway_p50, gateway_bulk,
                  durations, args, rec, probe) -> Dict[str, float]:
    """Cluster and gateway cost, by driving shorter stacks with the same schedule."""
    frames, references, _, _, tally = args
    router_p50 = _p50_latency(stack.router, rate, seconds * 0.1, *args)
    direct = open_stack("inproc", path, spec["bulk_frames"], rec, None)
    try:
        service_p50 = _p50_latency(direct.target, rate, seconds * 0.1, *args)
        direct_bulk = bulk_phase(direct.target, frames, references, spec["bulk_frames"],
                                 0.0, cfg, tally, probe)
    finally:
        direct.close()
    completed = [w["completed"] for w in stack.router.report()["workers"].values()]
    # Bytes of one request frame: length prefix + header + the raw array bytes,
    # computed from the encoder, not read off the wire.
    frame_bytes = 4 + len(encode_frame("infer", {"id": 0, "priority": "normal"},
                                       [frames[0][0]]))
    return {
        "cluster.spawn_s": durations["serving.cluster.spawn"],
        "cluster.added_ms_p50": router_p50 - service_p50,
        "cluster.worker_balance": max(completed) / max(1, min(completed)),
        "gateway.connect_s": durations["serving.gateway.connect"],
        "gateway.added_ms_p50": gateway_p50 - router_p50,
        "gateway.bulk_ratio": gateway_bulk["img_per_s"] / direct_bulk["img_per_s"],
        "gateway.frame_bytes": frame_bytes,
    }


def _batching_curve(artifact: DeployableArtifact, frames, calls: int = 100) -> Dict[str, float]:
    """Direct forward milliseconds of the served model at batch 1, 2, 4 and 8."""
    curve = {}
    for size in (1, 2, 4, 8):
        batch = np.concatenate(frames[:size])
        artifact.compiled.forward_raw(batch)
        times = []
        for _ in range(calls):
            started = time.perf_counter()
            artifact.compiled.forward_raw(batch)
            times.append((time.perf_counter() - started) * 1e3)
        curve[f"engine.batch_ms.b{size}"] = stats.percentile(times, 50.0)
    return curve


def _pool_costs(path: str, rec: SpanRecorder, hot_gets: int = 1000) -> Dict[str, float]:
    pool = ModelPool()
    with rec.span("serving.pool.cold_get"):
        pool.get(path)
    times = []
    for _ in range(hot_gets):
        started = time.perf_counter()
        pool.get(path)
        times.append((time.perf_counter() - started) * 1e6)
    return {"pool.cold_get_s": rec.duration("serving.pool.cold_get"),
            "pool.hot_get_us": stats.percentile(times, 50.0)}


def _channel_roundtrip(image: np.ndarray, trips: int = 500) -> float:
    """One frame-sized array there and back over an ``ArrayChannel`` pipe pair."""
    near_end, far_end = multiprocessing.Pipe(duplex=True)
    near, far = ArrayChannel(near_end), ArrayChannel(far_end)
    try:
        times = []
        for _ in range(trips):
            started = time.perf_counter()
            near.send("infer", {"id": 0}, [image])
            far.send("result", {"id": 0}, far.recv().arrays)
            near.recv()
            times.append((time.perf_counter() - started) * 1e6)
    finally:
        near.close()
        far.close()
    return stats.percentile(times, 50.0)
