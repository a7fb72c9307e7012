"""Pruning masks: the common currency of every pruner in the library.

A pruner never mutates weights directly; it produces a :class:`MaskSet` whose
binary masks are then applied to the model.  This keeps three things possible:

* fine-tuning with pruned weights pinned at zero (re-apply the mask after every
  optimiser step),
* exact sparsity / compression accounting in :mod:`repro.hardware`,
* ablations that compare mask choices without re-running the pruner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

from repro.nn.module import Module


@dataclass
class PruningMask:
    """A binary keep-mask for one parameter of one layer.

    ``mask`` is held as bool, one byte per weight; a float or integer 0/1
    input (an artifact stores uint8) is checked and converted.
    """

    layer_name: str
    parameter_name: str
    mask: np.ndarray

    def __post_init__(self) -> None:
        mask = np.asarray(self.mask)
        if mask.dtype != np.bool_:
            keep = mask != 0
            if not np.all(mask == keep):          # O(n), where np.unique sorts
                raise ValueError("pruning masks must be binary (0/1)")
            mask = keep
        self.mask = mask

    @property
    def full_name(self) -> str:
        return f"{self.layer_name}.{self.parameter_name}"

    @property
    def sparsity(self) -> float:
        """Fraction of pruned (zeroed) entries."""
        return float(1.0 - self.mask.mean()) if self.mask.size else 0.0

    @property
    def kept(self) -> int:
        return int(self.mask.sum())

    @property
    def total(self) -> int:
        return int(self.mask.size)


class MaskSet:
    """Collection of pruning masks for a model.

    A ``MaskSet`` is what every pruner in the library returns (inside its
    :class:`repro.core.report.PruningReport`) and what downstream consumers
    operate on:

    * :meth:`apply` zeroes the masked weights of a model and registers each
      mask on its layer (``layer.pruning_masks``),
    * :meth:`reapply` pins pruned weights back to zero after fine-tuning steps,
    * :mod:`repro.hardware` reads the per-layer sparsities for the latency /
      energy / storage models,
    * :func:`repro.engine.compile_model` compiles the masked layers into
      masked weight-matrix plans; :meth:`signature` provides the stable key
      that identifies one pattern assignment.

    Example
    -------
    >>> from repro.core import MaskSet, PruningMask
    >>> import numpy as np
    >>> masks = MaskSet([PruningMask("stem.conv", "weight", np.ones((8, 3, 3, 3)))])
    >>> masks.overall_sparsity()
    0.0
    """

    def __init__(self, masks: Optional[List[PruningMask]] = None) -> None:
        self._masks: Dict[str, PruningMask] = {}
        for mask in masks or []:
            self.add(mask)

    # ------------------------------------------------------------------ container
    def add(self, mask: PruningMask) -> None:
        existing = self._masks.get(mask.full_name)
        if existing is not None:
            # Intersect with any previously registered mask for the same parameter.
            if existing.mask.shape != mask.mask.shape:
                raise ValueError(f"conflicting mask shapes for {mask.full_name}")
            mask = PruningMask(mask.layer_name, mask.parameter_name,
                               existing.mask & mask.mask)
        self._masks[mask.full_name] = mask

    def __len__(self) -> int:
        return len(self._masks)

    def __iter__(self) -> Iterator[PruningMask]:
        return iter(self._masks.values())

    def __contains__(self, full_name: str) -> bool:
        return full_name in self._masks

    def get(self, full_name: str) -> Optional[PruningMask]:
        return self._masks.get(full_name)

    def merge(self, other: "MaskSet") -> "MaskSet":
        """Combine two mask sets (intersecting masks on shared parameters)."""
        merged = MaskSet(list(self))
        for mask in other:
            merged.add(mask)
        return merged

    def signature(self) -> str:
        """Stable content hash of the whole mask set.

        Two mask sets with identical masks on identical parameters produce the
        same signature, so callers can cheaply check whether a model was pruned
        with the same pattern assignment (e.g. whether a compiled engine built
        for one report is still valid for another).  The execution engine
        records it on :class:`repro.engine.compiler.CompiledModel`, and a saved
        artifact checks its masks against it on load.
        """
        import hashlib

        digest = hashlib.sha256()
        for full_name in sorted(self._masks):
            mask = self._masks[full_name]
            digest.update(full_name.encode("utf-8"))
            digest.update(str(mask.mask.shape).encode("utf-8"))
            digest.update(np.packbits(mask.mask).tobytes())
        return digest.hexdigest()[:16]

    # ------------------------------------------------------------------ application
    def apply(self, model: Module) -> None:
        """Zero the masked weights of ``model`` and remember the masks on each layer."""
        modules = dict(model.named_modules())
        for mask in self:
            module = modules.get(mask.layer_name)
            if module is None:
                raise KeyError(f"model has no module named {mask.layer_name!r}")
            param = getattr(module, mask.parameter_name, None)
            if param is None:
                raise KeyError(f"{mask.layer_name} has no parameter {mask.parameter_name!r}")
            if param.data.shape != mask.mask.shape:
                raise ValueError(
                    f"mask shape {mask.mask.shape} does not match parameter "
                    f"{mask.full_name} of shape {param.data.shape}"
                )
            param.data *= mask.mask
            if hasattr(module, "pruning_masks"):
                module.pruning_masks[mask.parameter_name] = mask.mask

    def reapply(self, model: Module) -> None:
        """Re-zero masked weights (call after every fine-tuning optimiser step)."""
        self.apply(model)

    # ------------------------------------------------------------------ statistics
    def masked_parameters(self) -> int:
        return sum(mask.total for mask in self)

    def pruned_parameters(self) -> int:
        return sum(mask.total - mask.kept for mask in self)

    def overall_sparsity(self) -> float:
        """Sparsity over the masked parameters only."""
        total = self.masked_parameters()
        if total == 0:
            return 0.0
        return self.pruned_parameters() / total

    def compression_ratio(self, model: Module) -> float:
        """Dense-parameter to kept-parameter ratio of the whole model.

        This is the "compression rate" the paper reports (e.g. 4.4x for R-TOSS-2EP on
        YOLOv5s): total parameters divided by the parameters that remain non-zero.
        """
        total = model.num_parameters()
        kept = total - self.pruned_parameters()
        return total / max(kept, 1)
