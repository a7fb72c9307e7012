"""``frames_*``: one caller, one frame after another, straight into the engine.

A camera pipeline waits for each frame, so the timed rounds are a closed loop
with one caller.  The arms (dense-fused, R-TOSS-2EP fused fp32 — the shipped
default —, and in the traced run 3EP and int8) run round-robin with a rotating
start so that both sides of every ratio see the same machine state.  The
measured per-frame times are then replayed behind a camera that does not wait
(fixed rates, open loop) to find the frame rate the detector sustains inside
one 30 fps frame interval.
"""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Optional

import numpy as np

from bench import loadgen, stats
from bench.common import Tally, frame_pool
from bench.hostspeed import HostProbe
from bench.spans import SpanRecorder
from repro.core.rtoss import prune_with_rtoss
from repro.engine import (
    BatchRunner,
    compile_model,
    layout_cache_stats,
    max_abs_output_diff,
    mean_abs_output_diff,
    native_available,
    reset_layout_cache_stats,
)
from repro.models.registry import build_model
from repro.utils.rng import set_global_seed

#: arm -> pattern entries kept per 3x3 kernel (``None``: unpruned).
ARM_ENTRIES = {"dense": None, "2ep": 2, "3ep": 3, "int8": 2}
#: Rounds of the traced run that are recorded as spans and profiled per op.
TRACED_ROUNDS = 200


class Arm:
    """One compiled variant of the workload's model."""

    def __init__(self, name: str, model, engine, report) -> None:
        self.name = name
        self.model = model
        self.engine = engine
        self.report = report
        #: Per pool frame, this engine's own first output (replies must repeat it).
        self.reference: List[Any] = []


def _dense_oracle(arm: Arm, frame: np.ndarray):
    """The same (pruned) model's dense no-grad forward, engine detached."""
    arm.engine.detach()
    try:
        return BatchRunner(arm.model, batch_size=frame.shape[0]).run(frame)
    finally:
        arm.engine.attach()


def _max_abs(output) -> float:
    if isinstance(output, np.ndarray):
        return float(np.abs(output).max())
    values = output.values() if isinstance(output, dict) else output
    return max(_max_abs(item) for item in values)


def _verify_against_oracle(arm: Arm, frame: np.ndarray, output, cfg, tally: Tally) -> None:
    """Fused fp32 within ``fused_max_abs_diff`` (max), int8 within its mean budget.

    Both limits are stated for outputs of order one.  A randomly initialised
    detector can put out far larger numbers (``retinanet_lite`` does), and
    rounding error scales with them, so the limits scale with the oracle's
    largest magnitude once that exceeds one.
    """
    oracle = _dense_oracle(arm, frame)
    if arm.name == "int8":
        diff, limit = mean_abs_output_diff(output, oracle), cfg["int8_mean_abs_diff"]
    else:
        diff, limit = max_abs_output_diff(output, oracle), cfg["fused_max_abs_diff"]
    limit *= max(1.0, _max_abs(oracle))
    tally.op(diff <= limit, f"{arm.name}: output differs from the dense oracle by {diff}")


def build_arm(name: str, spec: Dict[str, Any], cfg: Dict[str, Any], frame: np.ndarray,
              tally: Tally, rec: SpanRecorder, parent: Optional[int]) -> Arm:
    """Build, prune, compile, run and verify one arm: the cold-start path."""
    entries = ARM_ENTRIES[name]
    with rec.span(f"setup.{name}", parent) as sid:
        set_global_seed(cfg["model_seed"])
        with rec.span("models.build", sid):
            model = build_model(spec["model"], **spec["model_kwargs"])
        report = None
        if entries is not None:
            with rec.span("core.prune", sid):
                report = prune_with_rtoss(model, entries=entries,
                                          example_input=frame.shape)
        with rec.span("engine.compile", sid):
            engine = compile_model(model, report.masks if report else None,
                                   int8=name == "int8")
        arm = Arm(name, model, engine, report)
        with rec.span("engine.first_forward", sid):
            output = engine.forward_raw(frame)
        with rec.span("verify", sid):
            _verify_against_oracle(arm, frame, output, cfg, tally)
    return arm


def check_pruning(arm: Arm, spec: Dict[str, Any], tally: Tally) -> None:
    """Every pruned 3x3 kernel keeps at most ``entries`` weights; compression pinned."""
    entries = ARM_ENTRIES[arm.name]
    worst = 0
    for mask in arm.report.masks:
        if mask.mask.ndim == 4 and mask.mask.shape[2:] == (3, 3):
            worst = max(worst, int(mask.mask.reshape(-1, 9).sum(axis=1).max()))
    tally.op(0 < worst <= entries,
             f"{arm.name}: a 3x3 kernel keeps {worst} weights (limit {entries})")
    pinned = spec["compression_x"].get(arm.name)
    if pinned is not None:
        got = round(arm.report.compression_ratio, 2)
        tally.op(got == pinned, f"{arm.name}: compression {got}x, pinned {pinned}x")


def prepare_references(arms: List[Arm], frames: List[np.ndarray], cfg, tally: Tally) -> None:
    """Reference reply per arm and frame; the first few are checked by the oracle."""
    for arm in arms:
        arm.reference = [arm.engine.forward_raw(frame) for frame in frames]
        for index in range(1, min(cfg["oracle_frames"], len(frames))):
            _verify_against_oracle(arm, frames[index], arm.reference[index], cfg, tally)


def _same_reply(arm: Arm, index: int, output, cfg) -> bool:
    return max_abs_output_diff(output, arm.reference[index]) <= cfg["reply_max_abs_diff"]


def timed_rounds(arms: List[Arm], frames: List[np.ndarray], cfg, tally: Tally,
                 probe: HostProbe, seconds: Optional[float] = None,
                 rounds: Optional[int] = None, rec: Optional[SpanRecorder] = None,
                 parent: Optional[int] = None) -> Dict[str, List[float]]:
    """Round-robin batch-1 forwards, a host probe after every forward.

    Returns milliseconds per arm, round-aligned, at the reference host speed;
    ``raw.<arm>`` keeps the wall-clock values and ``host_factor`` the factors.
    """
    raw: Dict[str, List[float]] = {arm.name: [] for arm in arms}
    slot: Dict[str, List[int]] = {arm.name: [] for arm in arms}
    probe_ms: List[float] = []
    deadline = None if seconds is None else time.perf_counter() + seconds
    index = 0
    while (index < rounds) if rounds is not None else (time.perf_counter() < deadline):
        frame_index = index % len(frames)
        frame = frames[frame_index]
        shift = index % len(arms)
        round_start = time.perf_counter()
        round_id = None if rec is None else rec.add("round", round_start, round_start,
                                                    parent, index)
        for arm in arms[shift:] + arms[:shift]:
            started = time.perf_counter()
            output = arm.engine.forward_raw(frame)
            finished = time.perf_counter()
            raw[arm.name].append((finished - started) * 1e3)
            slot[arm.name].append(len(probe_ms))
            probe_ms.append(probe.sample())
            if rec is not None:
                rec.add(f"engine.forward.{arm.name}", started, finished, round_id, index)
            tally.op(_same_reply(arm, frame_index, output, cfg),
                     f"{arm.name}: reply for frame {frame_index} changed")
        if rec is not None:
            rec.spans[round_id]["end"] = time.perf_counter()
        index += 1
    factors = probe.rolling_factors(probe_ms)
    times = {name: [ms / factors[k] for ms, k in zip(values, slot[name])]
             for name, values in raw.items()}
    times.update({f"raw.{name}": values for name, values in raw.items()})
    times["host_factor"] = factors
    return times


def camera_ladder(service_ms: List[float], spec, cfg) -> Dict[str, Any]:
    """The frame rate the detector keeps up with inside the limit.

    Each rung replays the measured (host-normalised) per-frame times of the
    2EP arm behind a fixed-rate camera; it holds when enough frames finish
    within the limit of their due time and the backlog at the end is short.
    """
    rungs = []
    for fps in spec["camera_fps"]:
        latencies = loadgen.replay_fixed_rate(service_ms, fps)
        share = sum(1 for ms in latencies if ms <= cfg["limit_ms"]) / len(latencies)
        backlog_s = (latencies[-1] - service_ms[-1]) / 1e3
        rungs.append({"rate": fps, "frames": len(latencies), "in_limit_share": share,
                      "backlog_s": backlog_s, "lat_ms": stats.summarize(latencies),
                      "passed": share >= cfg["in_limit_share"]
                      and backlog_s <= cfg["drain_s"]})
    return {"rungs": rungs,
            "rate_in_slo": loadgen.highest_passing(
                [r["rate"] for r in rungs], [r["passed"] for r in rungs])}


def bulk_throughput(arm: Arm, frames: List[np.ndarray], seconds: float,
                    probe: HostProbe) -> Dict[str, Any]:
    """Images per second when frames are handed over eight at a time."""
    batch = np.concatenate(frames[:8])
    arm.engine.forward_raw(batch)               # settle the batch-8 layouts
    per_call, raw = [], []
    deadline = time.perf_counter() + seconds
    while time.perf_counter() < deadline or len(per_call) < 3:
        factor = probe.factor(3)
        started = time.perf_counter()
        arm.engine.forward_raw(batch)
        raw.append(batch.shape[0] / (time.perf_counter() - started))
        per_call.append(raw[-1] * factor)
    return {"img_per_s": stats.percentile(per_call, 50.0), "calls": len(per_call),
            "raw_img_per_s": stats.percentile(raw, 50.0)}


def setup_repeated(names: List[str], spec, cfg, frame, tally: Tally, rec: SpanRecorder,
                   probe: HostProbe):
    """Set up several times; returns the last arms and every run's seconds.

    A compiled model is a web of reference cycles (layer forwards close over
    their engine), so the previous set-up is collected before the next one.
    """
    arms: List[Arm] = []
    seconds: List[float] = []
    for _ in range(cfg["setup_repeats"]):
        arms = []
        gc.collect()
        before = probe.factor(kernel="python")
        with rec.span("setup") as sid:
            arms = [build_arm(name, spec, cfg, frame, tally, rec, sid) for name in names]
        span = rec.spans[sid]
        factor = (before + probe.factor(kernel="python")) / 2.0
        seconds.append((span["end"] - span["start"]) / factor)
    return arms, seconds


def _summaries(times: Dict[str, List[float]]) -> Dict[str, Any]:
    return {name: stats.summarize(values) for name, values in times.items()}


def run(name: str, spec: Dict[str, Any], cfg: Dict[str, Any], seed: int, seconds: float,
        trace: bool, rec: SpanRecorder, probe: HostProbe) -> Dict[str, Any]:
    """One run of a ``frames_*`` workload; returns metrics, tally and detail."""
    tally = Tally()
    frames = frame_pool(seed, cfg["pool_frames"], spec["image_size"])
    names = ["dense", "2ep"]
    if trace:
        names += ["3ep"] + (["int8"] if native_available() else [])

    arms, setup_runs = setup_repeated(names, spec, cfg, frames[0], tally, rec, probe)
    for arm in arms:
        if arm.report is not None:
            check_pruning(arm, spec, tally)
    prepare_references(arms, frames, cfg, tally)
    detail: Dict[str, Any] = {"setup_runs_s": setup_runs, "arms": names}
    if trace:
        metrics = _traced(arms, frames, spec, cfg, seconds, tally, rec, probe, detail)
    else:
        metrics = _untraced(arms, frames, spec, cfg, seconds, tally, probe, detail)
        metrics["setup_s"] = stats.percentile(setup_runs, 50.0)
    return {"metrics": metrics, "tally": tally, "detail": detail}


def _untraced(arms, frames, spec, cfg, seconds, tally, probe, detail) -> Dict[str, float]:
    shares = spec["shares"]
    times = timed_rounds(arms, frames, cfg, tally, probe, seconds=seconds * shares["rounds"])
    ratio = stats.paired_ratio(times["dense"], times["2ep"])
    pruned = next(arm for arm in arms if arm.name == "2ep")
    bulk = bulk_throughput(pruned, frames, seconds * shares["bulk"], probe)
    detail.update({"frame_ms": _summaries(times), "pruning_speedup": ratio, "bulk": bulk})
    return {
        "pruning_speedup": ratio["median"],
        "bulk_img_per_s": bulk["img_per_s"],
    }


#: arm -> the per-layer metric its batch-1 median is reported as.
ARM_METRICS = {"dense": "engine.dense_ms_p50", "2ep": "engine.pruned2ep_ms_p50",
               "3ep": "engine.pruned3ep_ms_p50", "int8": "engine.int8_ms_p50"}


def _traced(arms, frames, spec, cfg, seconds, tally, rec, probe, detail) -> Dict[str, float]:
    """Every arm untraced first (the base of the overhead share), then recorded
    rounds with the per-op profiler on the 2EP arm."""
    pruned = next(arm for arm in arms if arm.name == "2ep")
    plain = timed_rounds(arms, frames, cfg, tally, probe, seconds=seconds * 0.5)
    arena_before = pruned.engine.arena_stats()
    reset_layout_cache_stats()
    with rec.span("traced_rounds") as sid, pruned.engine.profiled() as profiler:
        traced = timed_rounds(arms, frames, cfg, tally, probe, rounds=TRACED_ROUNDS,
                              rec=rec, parent=sid)
    arena_after = pruned.engine.arena_stats()
    layouts = layout_cache_stats()
    profile = profiler.report(digits=6)
    camera = camera_ladder(plain["2ep"], spec, cfg)

    metrics = {ARM_METRICS[arm.name]: stats.percentile(plain[arm.name], 50.0)
               for arm in arms}
    metrics["engine.speedup_3ep"] = stats.paired_ratio(plain["dense"], plain["3ep"])["median"]
    if "int8" in plain:
        metrics["engine.int8_speedup"] = stats.paired_ratio(plain["2ep"], plain["int8"])["median"]
    else:
        detail["int8"] = "skipped: the native int8 kernel is not available on this host"
    metrics.update(_phase_metrics(profile, stats.percentile(traced["host_factor"], 50.0)))
    metrics.update({
        "lat_ms_p50": stats.percentile(plain["2ep"], 50.0),
        "lat_ms_p95": stats.blocked_percentile(plain["2ep"], 95.0),
        "rate_in_slo_rps": camera["rate_in_slo"],
        "core.prune_s": _last_child(rec, "setup.2ep", "core.prune"),
        "engine.compile_s": _last_child(rec, "setup.2ep", "engine.compile"),
        "engine.first_forward_s": _last_child(rec, "setup.2ep", "engine.first_forward"),
        "engine.kept_columns_share": (pruned.engine.kept_columns()
                                      / pruned.engine.total_columns()),
        "engine.arena_misses_per_forward": (
            (arena_after["misses"] - arena_before["misses"]) / TRACED_ROUNDS),
        "engine.layout_cache_hit_share": (
            layouts.hits / max(1, layouts.hits + layouts.misses)),
        "engine.fused_steps": sum(1 for row in pruned.engine.summary()
                                  if "+" in str(row["mode"])),
        "obs.tracing_overhead_share": (stats.percentile(traced["2ep"], 50.0)
                                       / stats.percentile(plain["2ep"], 50.0) - 1.0),
    })
    detail.update({"frame_ms": _summaries(plain), "traced_frame_ms": _summaries(traced),
                   "profile": {k: v for k, v in profile.items() if k != "ops"},
                   "arena": arena_after, "camera": camera})
    return metrics


def _last_child(rec: SpanRecorder, parent_name: str, name: str) -> float:
    """Duration of span ``name`` under the last span called ``parent_name``."""
    parent = [s for s in rec.spans if s["name"] == parent_name][-1]["id"]
    return sum(s["end"] - s["start"] for s in rec.spans
               if s["name"] == name and s["parent"] == parent)


def _phase_metrics(profile: Dict[str, Any], host_factor: float) -> Dict[str, float]:
    """Per-forward milliseconds of the 2EP arm, grouped by the op's ``mode``.

    ``unattributed`` is the forward's wall time minus every conv phase and
    every other op: executor glue plus the part of a conv outside its phases.
    The profiler only keeps totals, so one factor (the traced rounds' median)
    brings them to the reference host speed.
    """
    runs = max(1, profile["runs"]) * host_factor
    groups = {"pointwise": {}, "im2col": {}}
    other = 0.0
    for row in profile["ops"]:
        mode = str(row["mode"])
        group = ("pointwise" if mode.startswith("pointwise-gemm") else
                 "im2col" if mode.startswith("sparse-im2col-gemm") else None)
        if group is None or "phases_ms" not in row:
            other += row["total_ms"]
            continue
        for phase, ms in row["phases_ms"].items():
            groups[group][phase] = groups[group].get(phase, 0.0) + ms
    metrics = {"engine.other_ops_ms": other / runs}
    attributed = other
    for group, phases in groups.items():
        for phase in ("gather", "gemm", "epilogue"):
            metrics[f"engine.{group}.{phase}_ms"] = phases.get(phase, 0.0) / runs
        attributed += sum(phases.values())
    metrics["engine.unattributed_ms"] = (profile["total_ms"] - attributed) / runs
    return metrics
