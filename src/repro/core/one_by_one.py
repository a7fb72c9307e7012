"""Algorithm 3: 1x1 kernel transformation ("1x1 kernel pooling").

Modern detectors are dominated by 1x1 kernels (68.42 % of YOLOv5s kernels, Section
III), which classic pattern pruning cannot touch.  R-TOSS therefore:

1. flattens a layer's 1x1 kernel weights into one long vector (line 2),
2. groups every 9 consecutive weights into a temporary 3x3 matrix (lines 5-11);
   a final group with fewer than 9 weights is treated as all-zero, i.e. pruned
   (line 13),
3. runs the 3x3 pattern pruning of Algorithm 2 on the temporary matrices (line 14),
4. scatters the surviving weights back to their original 1x1 positions (lines 15-16).

The net effect is an unstructured-looking but *pattern-aligned* sparsity on the 1x1
kernels, which removes the need for connectivity pruning.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.kernel_pruning import PatternAssignment, assign_patterns
from repro.core.patterns import KERNEL_CELLS, KERNEL_SIDE, PatternLibrary
from repro.nn.layers.conv import Conv2d


@dataclass
class PointwiseAssignment:
    """Result of Algorithm 3 for one 1x1 convolution layer.

    Attributes
    ----------
    mask:
        Boolean keep-mask with the layer's original weight shape (O, I, 1, 1).
    num_temporary_kernels:
        How many temporary 3x3 matrices were formed.
    num_leftover_weights:
        Weights in the final, incomplete group (pruned entirely per line 13).
    pattern_usage:
        Histogram of patterns chosen for the temporary matrices.
    """

    mask: np.ndarray
    num_temporary_kernels: int
    num_leftover_weights: int
    pattern_usage: Dict[int, int]

    @property
    def sparsity(self) -> float:
        return float(1.0 - self.mask.mean()) if self.mask.size else 0.0


def pool_flat_weights(flat_weights: np.ndarray) -> Tuple[np.ndarray, int]:
    """Group a flat weight vector into (N, 3, 3) temporary matrices (lines 5-11).

    Returns the stacked temporary matrices and the number of leftover weights that
    did not fill a complete 3x3 matrix (those are pruned).
    """
    flat_weights = np.asarray(flat_weights, dtype=np.float32).reshape(-1)
    num_complete = flat_weights.size // KERNEL_CELLS
    leftover = int(flat_weights.size - num_complete * KERNEL_CELLS)
    if num_complete == 0:
        return np.zeros((0, KERNEL_SIDE, KERNEL_SIDE), dtype=np.float32), leftover
    complete = flat_weights[: num_complete * KERNEL_CELLS]
    return complete.reshape(num_complete, KERNEL_SIDE, KERNEL_SIDE), leftover


def prune_pointwise_weights(weights: np.ndarray, library: PatternLibrary,
                            allowed_patterns: Optional[Dict[int, int]] = None
                            ) -> PointwiseAssignment:
    """Apply Algorithm 3 to a (O, I, 1, 1) weight tensor and return its keep-mask."""
    weights = np.asarray(weights, dtype=np.float32)
    if weights.ndim != 4 or weights.shape[2:] != (1, 1):
        raise ValueError(f"expected (O, I, 1, 1) weights, got shape {weights.shape}")

    flat = weights.reshape(-1)                                   # line 2 (FL)
    temporary, leftover = pool_flat_weights(flat)                # lines 5-11

    flat_mask = np.zeros(flat.shape, dtype=bool)                 # leftover stays pruned
    usage: Dict[int, int] = {}
    if temporary.shape[0]:
        # Algorithm 2 on the temporary matrices (line 14).  The matrices are treated
        # as a (N, 1, 3, 3) "layer" so the same selection code is reused verbatim.
        search_library = library
        index_remap = None
        if allowed_patterns:
            subset_indices = sorted(allowed_patterns)
            search_library = library.subset(subset_indices)
            index_remap = dict(enumerate(subset_indices))
        assignment: PatternAssignment = assign_patterns(
            temporary.reshape(-1, 1, KERNEL_SIDE, KERNEL_SIDE), search_library,
        )
        temp_mask = assignment.mask.reshape(-1, KERNEL_CELLS)    # (N, 9)
        flat_mask[: temp_mask.size] = temp_mask.reshape(-1)       # lines 15-16
        for local_idx, count in assignment.pattern_usage.items():
            global_idx = index_remap[local_idx] if index_remap else local_idx
            usage[global_idx] = usage.get(global_idx, 0) + count

    mask = flat_mask.reshape(weights.shape)
    return PointwiseAssignment(mask, int(temporary.shape[0]), leftover, usage)


def prune_pointwise_layer(layer: Conv2d, library: PatternLibrary,
                          allowed_patterns: Optional[Dict[int, int]] = None
                          ) -> PointwiseAssignment:
    """Apply Algorithm 3 to a 1x1 :class:`Conv2d` layer."""
    if not layer.is_pointwise:
        raise ValueError(
            f"prune_pointwise_layer expects a 1x1 convolution, got kernel {layer.kernel_size}"
        )
    return prune_pointwise_weights(layer.weight.data, library, allowed_patterns)
