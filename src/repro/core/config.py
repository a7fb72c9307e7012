"""Configuration of the R-TOSS pruning framework."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Tuple


@dataclass
class RTOSSConfig:
    """All knobs of the R-TOSS framework.

    Attributes
    ----------
    entries:
        Non-zero weights kept per 3x3 kernel pattern.  The paper proposes 3 (3EP)
        and 2 (2EP); 4 and 5 exist for the Table 3 sensitivity study.
    max_patterns:
        Size of the pattern library (the paper converges on 21 patterns).
    use_dfs_grouping:
        Run Algorithm 1 and share parent patterns with children.  Disabling this is
        the "no grouping" ablation: every layer searches the full library.
    prune_pointwise:
        Run Algorithm 3 on 1x1 convolutions.  Disabling reproduces classic pattern
        pruning that leaves 1x1 kernels dense.
    use_connectivity_pruning:
        R-TOSS deliberately avoids connectivity pruning (Section III); the switch
        exists only for ablations and is off by default.
    connectivity_ratio:
        Fraction of kernels removed per layer when connectivity pruning is enabled.
    min_channels:
        Layers with fewer weights than one pattern group (O*I*k < 9) are left dense.
    calibration_kernels / seed:
        Pattern-library calibration parameters (Section IV.B).
    prune_detection_head:
        Whether the final prediction convolutions (detection heads) are pruned.
        The paper prunes the whole detector; keep True for parity.
    dense_layer_names:
        Substrings of layer names that must be left dense (not pruned).  Used by the
        RetinaNet experiments to reproduce the paper's eligible-weight fraction
        (its reported ratios imply the FPN extra levels and the stem stayed dense);
        empty by default.
    """

    entries: int = 3
    max_patterns: Optional[int] = 21
    use_dfs_grouping: bool = True
    prune_pointwise: bool = True
    use_connectivity_pruning: bool = False
    connectivity_ratio: float = 0.125
    min_channels: int = 1
    calibration_kernels: int = 2000
    seed: int = 0
    prune_detection_head: bool = True
    use_reference_kernel_pruning: bool = False
    dense_layer_names: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not 1 <= self.entries <= 8:
            raise ValueError(f"entries must be in [1, 8], got {self.entries}")
        if self.max_patterns is not None and self.max_patterns < 1:
            raise ValueError("max_patterns must be positive or None")
        if not 0.0 <= self.connectivity_ratio < 1.0:
            raise ValueError("connectivity_ratio must be in [0, 1)")

    @property
    def variant_name(self) -> str:
        """Paper-style name, e.g. 'R-TOSS-3EP'."""
        return f"R-TOSS-{self.entries}EP"
