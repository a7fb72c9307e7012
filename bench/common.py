"""What both workload kinds share: configuration, frame pool, operation tally."""

from __future__ import annotations

import json
import os
from typing import TYPE_CHECKING, Any, Dict, List

if TYPE_CHECKING:
    import numpy as np

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(BENCH_DIR)
SRC_DIR = os.path.join(REPO_ROOT, "src")


def load_config() -> Dict[str, Any]:
    with open(os.path.join(BENCH_DIR, "workloads.json")) as handle:
        return json.load(handle)


def load_contract() -> Dict[str, Any]:
    """``BENCHMARK.json``: the one place metric names, units and bounds live."""
    with open(os.path.join(REPO_ROOT, "BENCHMARK.json")) as handle:
        return json.load(handle)


def frame_pool(seed: int, count: int, image_size: int) -> List[np.ndarray]:
    """``count`` seeded standard-normal ``(1, 3, S, S)`` frames, cycled by index."""
    # Deferred: bench/__main__.py imports this module before it pins the BLAS threads.
    import numpy as np

    rng = np.random.default_rng(seed)
    return [rng.standard_normal((1, 3, image_size, image_size)).astype(np.float32)
            for _ in range(count)]


class Tally:
    """Operations attempted and failed; a wrong output is a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.notes: List[str] = []

    def op(self, ok: bool, note: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if note and len(self.notes) < 20:
                self.notes.append(note)

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed
