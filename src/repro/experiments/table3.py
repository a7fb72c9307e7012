"""Table 3: sensitivity of R-TOSS to the entry-pattern size (5EP/4EP/3EP/2EP).

For YOLOv5s and RetinaNet, the four R-TOSS variants are applied and the reduction
(compression) ratio, estimated mAP, RTX 2080Ti inference time and energy usage are
reported — the same four columns the paper's Table 3 shows per model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.config import RTOSSConfig
from repro.core.rtoss import RTOSSPruner
from repro.evaluation.accuracy_proxy import baseline_map_for
from repro.evaluation.evaluator import DetectorEvaluator, FrameworkResult, built_once
from repro.hardware.platform import RTX_2080TI, PlatformSpec
from repro.models import retinanet_resnet50, yolov5s

# The paper's reference values (used only for reporting side by side, never to
# produce our numbers).
PAPER_TABLE3 = {
    "yolov5s": {
        5: {"reduction": 1.79, "map": 72.6, "ms": 11.09, "joules": 0.97},
        4: {"reduction": 2.24, "map": 70.45, "ms": 10.98, "joules": 0.91},
        3: {"reduction": 2.9, "map": 78.58, "ms": 6.9, "joules": 0.478},
        2: {"reduction": 4.4, "map": 76.42, "ms": 6.5, "joules": 0.454},
    },
    "retinanet": {
        5: {"reduction": 1.45, "map": 66.09, "ms": 157.24, "joules": 14.27},
        4: {"reduction": 1.6, "map": 75.8, "ms": 150.58, "joules": 13.62},
        3: {"reduction": 2.4, "map": 79.45, "ms": 72.98, "joules": 6.45},
        2: {"reduction": 2.89, "map": 82.9, "ms": 64.83, "joules": 5.50},
    },
}

# RetinaNet layers the paper's reported ratios imply were left dense (see DESIGN.md).
RETINANET_DENSE_LAYERS: Tuple[str, ...] = ("fpn.p6", "fpn.p7", "backbone.stem_conv")


@dataclass
class Table3Row:
    """One (model, entry-pattern) row of Table 3."""

    model: str
    entries: int
    reduction_ratio: float
    map_estimate: float
    inference_ms: float
    energy_joules: float

    def as_dict(self) -> Dict[str, object]:
        paper = PAPER_TABLE3[self.model][self.entries]
        return {
            "Model": self.model,
            "Variant": f"R-TOSS ({self.entries}EP)",
            "Reduction ratio (ours)": round(self.reduction_ratio, 2),
            "Reduction ratio (paper)": paper["reduction"],
            "mAP (ours, est.)": round(self.map_estimate, 2),
            "mAP (paper)": paper["map"],
            "Inference time (ours, ms)": round(self.inference_ms, 2),
            "Inference time (paper, ms)": paper["ms"],
            "Energy (ours, J)": round(self.energy_joules, 3),
            "Energy (paper, J)": paper["joules"],
        }


def paper_evaluator(model_key: str, image_size: int, probe_size: int,
                    platforms: Optional[List[PlatformSpec]] = None,
                    ) -> Tuple[DetectorEvaluator, Tuple[str, ...]]:
    """The evaluator of one of the paper's two detectors, with the layer names
    its R-TOSS runs keep dense (none for YOLOv5s, ``RETINANET_DENSE_LAYERS``
    for RetinaNet); ``platforms`` as :class:`DetectorEvaluator` takes them."""
    builders = {"yolov5s": (yolov5s, ()),
                "retinanet": (retinanet_resnet50, RETINANET_DENSE_LAYERS)}
    if model_key not in builders:
        raise KeyError(f"the paper's detectors are 'yolov5s' and 'retinanet', "
                       f"not {model_key!r}")
    build, dense_layers = builders[model_key]
    evaluator = DetectorEvaluator(built_once(build), model_key, baseline_map_for(model_key),
                                  image_size=image_size, probe_size=probe_size,
                                  platforms=platforms)
    return evaluator, dense_layers


def run_table3(models: Tuple[str, ...] = ("yolov5s", "retinanet"),
               entry_sizes: Tuple[int, ...] = (5, 4, 3, 2),
               image_size: int = 640, probe_size: int = 64) -> List[Table3Row]:
    """Regenerate Table 3 for the requested models and entry-pattern sizes."""
    rows: List[Table3Row] = []
    for model_key in models:
        evaluator, dense_layers = paper_evaluator(model_key, image_size, probe_size,
                                                   platforms=[RTX_2080TI])
        evaluator.evaluate_baseline()
        for entries in entry_sizes:
            pruner = RTOSSPruner(RTOSSConfig(entries=entries, dense_layer_names=dense_layers))
            result: FrameworkResult = evaluator.evaluate(pruner)
            rows.append(Table3Row(
                model=model_key,
                entries=entries,
                reduction_ratio=result.compression_ratio,
                map_estimate=result.map_estimate,
                inference_ms=result.latency_seconds[RTX_2080TI.name] * 1e3,
                energy_joules=result.energy_joules[RTX_2080TI.name],
            ))
    return rows


def table3_checks(rows: List[Table3Row]) -> Dict[str, bool]:
    """Shape checks corresponding to the paper's Table 3 observations."""
    checks: Dict[str, bool] = {}
    by_model: Dict[str, Dict[int, Table3Row]] = {}
    for row in rows:
        by_model.setdefault(row.model, {})[row.entries] = row

    for model, variants in by_model.items():
        if {2, 3, 4, 5} <= set(variants):
            checks[f"reduction_monotonic[{model}]"] = (
                variants[2].reduction_ratio > variants[3].reduction_ratio
                > variants[4].reduction_ratio > variants[5].reduction_ratio
            )
            checks[f"2EP_fastest[{model}]"] = variants[2].inference_ms == min(
                v.inference_ms for v in variants.values()
            )
            checks[f"2EP_least_energy[{model}]"] = variants[2].energy_joules == min(
                v.energy_joules for v in variants.values()
            )
    if "yolov5s" in by_model and {2, 3} <= set(by_model["yolov5s"]):
        checks["3EP_better_map_on_yolov5s"] = (
            by_model["yolov5s"][3].map_estimate > by_model["yolov5s"][2].map_estimate
        )
    if "retinanet" in by_model and {2, 3} <= set(by_model["retinanet"]):
        checks["2EP_better_map_on_retinanet"] = (
            by_model["retinanet"][2].map_estimate > by_model["retinanet"][3].map_estimate
        )
    return checks
