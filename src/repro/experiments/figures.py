"""Figure drivers: Figs. 4, 5, 6 and 7 of the paper.

Each driver extracts one metric per framework (for YOLOv5s and RetinaNet) from the
shared comparison suite and returns a plain mapping plus the qualitative checks the
paper's text makes about that figure.
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.evaluation.comparison import normalised_metric, results_by_framework
from repro.evaluation.evaluator import FrameworkResult
from repro.experiments.comparison_suite import comparison_results
from repro.hardware.platform import JETSON_TX2, RTX_2080TI


# --------------------------------------------------------------------------- Fig. 4
def run_fig4_sparsity(model_key: str = "yolov5s", image_size: int = 640,
                      results: Optional[List[FrameworkResult]] = None) -> Dict[str, float]:
    """Fig. 4: compression (sparsity) ratio per framework, normalised to BM."""
    results = results or comparison_results(model_key, image_size)
    return normalised_metric(results, "compression_ratio")


def fig4_checks(ratios: Dict[str, float]) -> Dict[str, bool]:
    others = [v for k, v in ratios.items() if k not in ("R-TOSS-2EP", "BM")]
    return {
        "rtoss_2ep_highest_compression": ratios["R-TOSS-2EP"] >= max(others),
        "rtoss_2ep_above_3ep": ratios["R-TOSS-2EP"] > ratios["R-TOSS-3EP"],
        "all_frameworks_above_baseline": all(
            v >= 1.0 for k, v in ratios.items() if k != "BM"
        ),
    }


# --------------------------------------------------------------------------- Fig. 5
def run_fig5_map(model_key: str = "yolov5s", image_size: int = 640,
                 results: Optional[List[FrameworkResult]] = None) -> Dict[str, float]:
    """Fig. 5: mAP per framework (estimated for the full-size models)."""
    results = results or comparison_results(model_key, image_size)
    return normalised_metric(results, "mAP")


def fig5_checks(maps: Dict[str, float], model_key: str) -> Dict[str, bool]:
    checks = {
        "rtoss_beats_unstructured_nms": max(maps["R-TOSS-3EP"], maps["R-TOSS-2EP"]) > maps["NMS"],
        "rtoss_beats_structured_ns_pf": min(maps["R-TOSS-3EP"], maps["R-TOSS-2EP"])
        > max(maps["NS"], maps["PF"]),
    }
    if model_key == "retinanet":
        checks["2ep_best_on_retinanet"] = maps["R-TOSS-2EP"] >= max(
            v for k, v in maps.items() if k != "R-TOSS-2EP"
        )
    if model_key == "yolov5s":
        checks["3ep_above_2ep_on_yolov5s"] = maps["R-TOSS-3EP"] > maps["R-TOSS-2EP"]
        checks["rtoss_3ep_above_baseline"] = maps["R-TOSS-3EP"] > maps["BM"]
    return checks


# --------------------------------------------------------------------------- Fig. 6
def run_fig6_speedup(model_key: str = "yolov5s", image_size: int = 640,
                     results: Optional[List[FrameworkResult]] = None) -> Dict[str, Dict[str, float]]:
    """Fig. 6: speedup over BM on both platforms, per framework."""
    results = results or comparison_results(model_key, image_size)
    return {
        RTX_2080TI.name: normalised_metric(results, "speedup", RTX_2080TI.name),
        JETSON_TX2.name: normalised_metric(results, "speedup", JETSON_TX2.name),
    }


def fig6_checks(speedups: Dict[str, Dict[str, float]]) -> Dict[str, bool]:
    checks = {}
    for platform, values in speedups.items():
        others = [v for k, v in values.items() if k not in ("R-TOSS-2EP", "BM")]
        checks[f"rtoss_2ep_fastest[{platform}]"] = values["R-TOSS-2EP"] >= max(others)
        checks[f"rtoss_3ep_above_pd[{platform}]"] = values["R-TOSS-3EP"] > values["PD"]
        checks[f"all_speedups_above_1[{platform}]"] = all(
            v >= 1.0 for k, v in values.items() if k != "BM"
        )
    return checks


# --------------------------------------------------------------------------- Fig. 7
def run_fig7_energy(model_key: str = "yolov5s", image_size: int = 640,
                    results: Optional[List[FrameworkResult]] = None) -> Dict[str, Dict[str, float]]:
    """Fig. 7: energy reduction (%) over BM on both platforms, per framework."""
    results = results or comparison_results(model_key, image_size)
    by_name = results_by_framework(results)
    out: Dict[str, Dict[str, float]] = {}
    for platform in (RTX_2080TI.name, JETSON_TX2.name):
        out[platform] = {
            name: result.energy_reduction_percent.get(platform, 0.0)
            for name, result in by_name.items()
        }
    return out


def fig7_checks(reductions: Dict[str, Dict[str, float]]) -> Dict[str, bool]:
    checks = {}
    for platform, values in reductions.items():
        others = [v for k, v in values.items() if k not in ("R-TOSS-2EP", "BM")]
        checks[f"rtoss_2ep_largest_energy_reduction[{platform}]"] = (
            values["R-TOSS-2EP"] >= max(others)
        )
        checks[f"rtoss_reductions_substantial[{platform}]"] = values["R-TOSS-2EP"] > 40.0
        checks[f"rtoss_beats_pd[{platform}]"] = values["R-TOSS-2EP"] > values["PD"]
    return checks
