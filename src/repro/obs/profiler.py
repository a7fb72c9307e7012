"""Per-op engine profiler for the fused executor.

An :class:`EngineProfiler` attaches to one thread's forwards of a
``FusedProgram`` (``CompiledModel.profiled`` / ``FusedProgram.profiled``) and
aggregates wall time per graph op.  Compiled
convolutions additionally split into their pipeline phases — ``gather``
(im2col column build / pointwise channel take), ``gemm`` (matmul + bias) and
``epilogue`` (fused activation) — so a slow layer shows *where* inside the
conv the time went, and the op's ``mode`` string says which kernel ran it.

When no profiler is attached the executors pay a single ``is None`` check per
forward; ``benchmarks/test_obs_overhead.py`` gates that at ≤2%.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional

__all__ = ["EngineProfiler", "OpStat"]


class OpStat:
    """Accumulated timing for one graph op across profiled forwards."""

    __slots__ = ("name", "kind", "mode", "calls", "seconds", "phases")

    def __init__(self, name: str, kind: str, mode: str) -> None:
        self.name = name
        self.kind = kind
        self.mode = mode
        self.calls = 0
        self.seconds = 0.0
        self.phases: Dict[str, float] = {}

    def as_dict(self, total_seconds: float, digits: int = 3) -> Dict[str, Any]:
        share = self.seconds / total_seconds if total_seconds > 0 else 0.0
        row: Dict[str, Any] = {
            "op": self.name,
            "kind": self.kind,
            "mode": self.mode,
            "calls": self.calls,
            "total_ms": round(self.seconds * 1e3, digits),
            "mean_ms": round(self.seconds / self.calls * 1e3, digits) if self.calls else 0.0,
            "share": round(share, 4),
        }
        if self.phases:
            row["phases_ms"] = {
                phase: round(seconds * 1e3, digits)
                for phase, seconds in sorted(self.phases.items())
            }
        return row


class EngineProfiler:
    """Thread-safe per-op timing sink the executors report into."""

    _guarded_by_ = {"_ops": "_lock", "_runs": "_lock", "_run_seconds": "_lock"}

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._ops: Dict[str, OpStat] = {}
        self._runs = 0
        self._run_seconds = 0.0

    # -- recording (called from executor hot loops, profiled mode only) ------

    def record_op(
        self,
        name: str,
        kind: str,
        mode: str,
        seconds: float,
        phases: Optional[Dict[str, float]] = None,
    ) -> None:
        self.record_ops([(name, kind, mode, seconds, phases)])

    def record_ops(self, rows) -> None:
        """:meth:`record_op` for each ``(name, kind, mode, seconds, phases)``
        row, under one acquisition of the lock: a native segment's steps."""
        with self._lock:
            for name, kind, mode, seconds, phases in rows:
                stat = self._ops.get(name)
                if stat is None:
                    stat = self._ops[name] = OpStat(name, kind, mode)
                stat.calls += 1
                stat.seconds += seconds
                if phases:
                    for phase, phase_seconds in phases.items():
                        stat.phases[phase] = stat.phases.get(phase, 0.0) + phase_seconds

    def record_run(self, seconds: float) -> None:
        with self._lock:
            self._runs += 1
            self._run_seconds += seconds

    # -- reporting -----------------------------------------------------------

    def report(self, digits: int = 3) -> Dict[str, Any]:
        """Per-op rows sorted by total time, plus run-level aggregates."""
        with self._lock:
            stats = sorted(self._ops.values(), key=lambda s: s.seconds, reverse=True)
            runs = self._runs
            run_seconds = self._run_seconds
        op_seconds = sum(s.seconds for s in stats)
        return {
            "runs": runs,
            "total_ms": round(run_seconds * 1e3, digits),
            "op_total_ms": round(op_seconds * 1e3, digits),
            "ops": [s.as_dict(op_seconds, digits) for s in stats],
        }

    def top_ops(self, limit: int = 8, digits: int = 3) -> Dict[str, float]:
        """Compact ``{op: total_ms}`` view — what trace spans attach as args."""
        with self._lock:
            stats = sorted(self._ops.values(), key=lambda s: s.seconds, reverse=True)
        return {s.name: round(s.seconds * 1e3, digits) for s in stats[:limit]}

    def table(self, limit: int = 0) -> str:
        """Fixed-width text table for ``repro engine --profile``."""
        report = self.report()
        rows: List[Dict[str, Any]] = report["ops"]
        if limit:
            rows = rows[:limit]
        header = f"{'op':<28} {'mode':<22} {'calls':>6} {'total_ms':>10} {'mean_ms':>9} {'share':>7}  phases"
        lines = [header, "-" * len(header)]
        for row in rows:
            phases = row.get("phases_ms", {})
            phase_text = " ".join(f"{k}={v:.2f}" for k, v in phases.items())
            lines.append(
                f"{row['op']:<28.28} {row['mode']:<22.22} {row['calls']:>6} "
                f"{row['total_ms']:>10.3f} {row['mean_ms']:>9.3f} "
                f"{row['share']:>6.1%}  {phase_text}"
            )
        lines.append(
            f"{report['runs']} profiled forward(s), "
            f"{report['op_total_ms']:.3f} ms attributed across {len(report['ops'])} ops"
        )
        return "\n".join(lines)

    def reset(self) -> None:
        with self._lock:
            self._ops.clear()
            self._runs = 0
            self._run_seconds = 0.0
