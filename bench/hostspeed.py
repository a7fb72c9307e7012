"""Host-speed probe: a calibration kernel every compute-bound timing is paired with.

On a small shared host the same code runs at speeds that differ by a factor
of up to two for seconds at a time (no steal time shows it; another tenant on
the sibling hardware thread does it).  Ten runs of a raw wall-clock median
then spread by ~25 %, wider than any bound worth gating on.  So, in the same
way both arms of ``pruning_speedup`` share a round, every compute-bound timing
here shares its moment with a fixed probe kernel of the same nature (a
single-thread GEMM of an engine-like shape for engine work, a stretch of pure
Python for set-up), and is reported *at the reference host speed*:
``raw * (reference probe time / probe time around the measurement)``.
Medians over a second of forwards that spread by 24 % raw spread by 3 % after
this pairing.  The raw values and the factors are kept in the result file.
Timer-bound numbers (open-loop latency from the due time, the 33.3 ms limit)
are never scaled.
"""

from __future__ import annotations

import time
from typing import Callable, Dict, List, Sequence

import numpy as np

from bench.stats import percentile


def _interpreter_kernel() -> int:
    """A fixed stretch of pure-Python work (dict, integer and loop bytecode), ~0.65 ms."""
    total = 0
    table = {}
    for i in range(4000):
        table[i & 63] = total
        total += (i * i) ^ table.get(i & 31, 0)
    return total


class HostProbe:
    """Two fixed kernels, one per kind of work a timing can be bound by.

    ``gemm``: a ``(64 x 576) @ (576 x 1600)`` float32 GEMM (~1.6 ms on the seed
    host) for engine work.  ``python``: interpreter-bound work for set-up, which
    is mostly Python; when a neighbour evicts this host's caches the
    interpreter slows down far more than a blocked GEMM does.
    """

    def __init__(self, reference_ms: Dict[str, float]) -> None:
        rng = np.random.default_rng(0)
        self.reference_ms = reference_ms
        a = rng.standard_normal((64, 576)).astype(np.float32)
        b = rng.standard_normal((576, 1600)).astype(np.float32)
        out = np.empty((64, 1600), dtype=np.float32)
        self._kernels: Dict[str, Callable[[], object]] = {
            "gemm": lambda: np.matmul(a, b, out=out), "python": _interpreter_kernel}
        for kernel in self._kernels:
            self.factor(10, kernel)

    def sample(self, kernel: str = "gemm") -> float:
        """Milliseconds of one run of ``kernel``."""
        run = self._kernels[kernel]
        started = time.perf_counter()
        run()
        return (time.perf_counter() - started) * 1e3

    def factor(self, samples: int = 5, kernel: str = "gemm") -> float:
        """How slow the host is right now: median probe time over the reference."""
        return (percentile([self.sample(kernel) for _ in range(samples)], 50.0)
                / self.reference_ms[kernel])

    def rolling_factors(self, probe_ms: Sequence[float], window: int = 5) -> List[float]:
        """Per-sample GEMM factor: the median of the ``window`` probes nearest in time."""
        half = window // 2
        reference = self.reference_ms["gemm"]
        return [percentile(probe_ms[max(0, i - half):i + half + 1], 50.0) / reference
                for i in range(len(probe_ms))]
