"""Connectivity (whole-kernel) pruning.

Connectivity pruning removes entire kernels — the (out_channel, in_channel)
connections with the least information — and is what prior pattern-pruning work
(PATDNN, YOLObile) combines with 4-entry patterns to reach useful sparsity.
R-TOSS explicitly avoids it (Section III: the "last kernel per layer" criterion
discards important information); it lives here for the PATDNN baseline and for the
connectivity-pruning ablation.
"""

from __future__ import annotations

import numpy as np


def connectivity_mask(weights: np.ndarray, ratio: float,
                      protect_last_kernel: bool = False) -> np.ndarray:
    """Keep-mask that zeroes the ``ratio`` fraction of kernels with smallest L2 norm.

    Parameters
    ----------
    weights:
        (O, I, kh, kw) convolution weights.
    ratio:
        Fraction of kernels (connections) to remove.
    protect_last_kernel:
        When True, ensure every output filter keeps at least one kernel so no filter
        goes completely dark (the heuristic criticised by the paper is *not*
        protecting it — the default reproduces that behaviour).
    """
    if not 0.0 <= ratio < 1.0:
        raise ValueError(f"ratio must be in [0, 1), got {ratio}")
    weights = np.asarray(weights, dtype=np.float32)
    out_channels, in_channels = weights.shape[:2]
    mask = np.ones_like(weights, dtype=np.float32)
    num_prune = int(round(out_channels * in_channels * ratio))
    if num_prune == 0:
        return mask

    norms = np.sqrt((weights.reshape(out_channels, in_channels, -1) ** 2).sum(axis=2))
    flat_order = np.argsort(norms.reshape(-1))
    to_prune = flat_order[:num_prune]
    rows, cols = np.unravel_index(to_prune, (out_channels, in_channels))
    mask[rows, cols] = 0.0

    if protect_last_kernel:
        dead_filters = np.where(mask.reshape(out_channels, in_channels, -1).sum(axis=(1, 2)) == 0)[0]
        for filter_idx in dead_filters:
            best_kernel = int(norms[filter_idx].argmax())
            mask[filter_idx, best_kernel] = 1.0
    return mask

