"""Algorithm 2: 3x3 kernel pattern pruning.

For every 3x3 kernel of a layer the pattern that retains the largest L2 norm is
selected from the pattern library; the kernel is then masked with that pattern.
Two implementations are provided:

* :func:`assign_patterns_reference` — a literal transcription of the paper's
  pseudo-code (per-kernel Python loop).  Used by the tests as ground truth and by
  the ablation benchmark to quantify the vectorisation speed-up.
* :func:`assign_patterns` — a vectorised version: the retained energy of every
  kernel under every pattern is a single matrix product.

Note on the paper's pseudo-code: line 13 of Algorithm 2 writes ``KW[i, j, index] = 1``
for the best-fit pattern positions.  Taken literally that would overwrite surviving
weights with the constant 1; the intent (consistent with the rest of the paper and
with all pattern-pruning literature) is that positions *outside* the best pattern
are zeroed and positions inside it keep their values, which is what both
implementations below do.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro.core.patterns import KERNEL_CELLS, KERNEL_SIDE, PatternLibrary
from repro.nn.layers.conv import Conv2d


@dataclass
class PatternAssignment:
    """Result of pattern selection for one layer.

    Attributes
    ----------
    pattern_indices:
        (out_channels, in_channels) index of the chosen pattern per kernel.
    mask:
        Boolean keep-mask of the full weight tensor (same shape as the weights).
    pattern_usage:
        Histogram {pattern index: number of kernels} — children of a DFS group are
        restricted to their parent's used patterns.
    """

    pattern_indices: np.ndarray
    mask: np.ndarray
    pattern_usage: Dict[int, int]

    @property
    def sparsity(self) -> float:
        return float(1.0 - self.mask.mean()) if self.mask.size else 0.0


def _check_3x3(weights: np.ndarray) -> Tuple[int, int]:
    if weights.ndim != 4 or weights.shape[2:] != (KERNEL_SIDE, KERNEL_SIDE):
        raise ValueError(f"expected (O, I, 3, 3) weights, got shape {weights.shape}")
    return weights.shape[0], weights.shape[1]


def assign_patterns(weights: np.ndarray, library: PatternLibrary) -> PatternAssignment:
    """Vectorised per-kernel pattern selection by retained L2 norm."""
    out_channels, in_channels = _check_3x3(weights)
    flat = weights.reshape(out_channels * in_channels, KERNEL_CELLS).astype(np.float32)
    masks = library.mask_matrix()                            # (P, 9)
    retained_energy = (flat**2) @ masks.T                    # (K, P)
    best = retained_energy.argmax(axis=1)                    # (K,)

    kernel_masks = (masks != 0)[best]                         # (K, 9) bool
    mask = kernel_masks.reshape(out_channels, in_channels, KERNEL_SIDE, KERNEL_SIDE)
    indices = best.reshape(out_channels, in_channels)
    usage: Dict[int, int] = {}
    for index, count in zip(*np.unique(best, return_counts=True)):
        usage[int(index)] = int(count)
    return PatternAssignment(indices, mask, usage)


def assign_patterns_reference(weights: np.ndarray, library: PatternLibrary) -> PatternAssignment:
    """Literal Algorithm 2: loop over kernels, loop over patterns, compare L2 norms."""
    out_channels, in_channels = _check_3x3(weights)
    mask = np.zeros(weights.shape, dtype=bool)
    indices = np.zeros((out_channels, in_channels), dtype=np.int64)
    usage: Dict[int, int] = {}

    for i in range(out_channels):                    # line 3
        for j in range(in_channels):                 # line 4
            temp_kernel = weights[i, j].copy()       # line 5
            l2_by_pattern = {}                       # line 6 (L2_dict)
            for key, pattern in enumerate(library):  # line 7
                masked = temp_kernel * pattern.mask()
                l2_by_pattern[key] = float(np.linalg.norm(masked))   # lines 8-10
            bestfit = max(l2_by_pattern, key=l2_by_pattern.get)      # line 11
            indices[i, j] = bestfit
            mask[i, j] = library[bestfit].mask() != 0                 # lines 12-14
            usage[bestfit] = usage.get(bestfit, 0) + 1
    return PatternAssignment(indices, mask, usage)


def prune_3x3_layer(
    layer: Conv2d,
    library: PatternLibrary,
    allowed_patterns: Optional[Dict[int, int]] = None,
    use_reference: bool = False,
) -> PatternAssignment:
    """Select patterns for a 3x3 convolution layer and return the assignment.

    Parameters
    ----------
    layer:
        A 3x3 :class:`Conv2d` (grouped convolutions are handled transparently: the
        weight tensor is already (O, I/groups, 3, 3)).
    library:
        The pattern library of the chosen R-TOSS variant.
    allowed_patterns:
        When given (the pattern usage of the group parent), the search is restricted
        to those patterns — this is the "children share the parent's kernel
        patterns" optimisation of Algorithm 1/2.
    use_reference:
        Use the literal per-kernel loop instead of the vectorised path.
    """
    if not layer.is_spatial_3x3:
        raise ValueError(
            f"prune_3x3_layer expects a 3x3 convolution, got kernel {layer.kernel_size}"
        )
    search_library = library
    index_remap = None
    if allowed_patterns:
        subset_indices = sorted(allowed_patterns)
        search_library = library.subset(subset_indices)
        index_remap = {local: global_idx for local, global_idx in enumerate(subset_indices)}

    assign = assign_patterns_reference if use_reference else assign_patterns
    assignment = assign(layer.weight.data, search_library)

    if index_remap is not None:
        remapped = np.vectorize(index_remap.get)(assignment.pattern_indices)
        usage = {}
        for local_idx, count in assignment.pattern_usage.items():
            usage[index_remap[local_idx]] = count
        assignment = PatternAssignment(remapped.astype(np.int64), assignment.mask, usage)
    return assignment
