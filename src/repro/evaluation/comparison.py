"""Multi-framework comparison runner (drives Figs. 4-7).

The paper compares the base model (BM) with PATDNN (PD), Neural Magic SparseML
(NMS), Network Slimming (NS), Pruning Filters (PF), Neural Pruning (NP) and the two
R-TOSS variants (3EP, 2EP).  :func:`default_framework_suite` builds those pruners at
their default operating points; :func:`compare_frameworks` runs all of them through a
:class:`DetectorEvaluator` and returns one row per framework.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.evaluation.evaluator import DetectorEvaluator, FrameworkResult
from repro.pruning.registry import paper_suite

PrunerFactory = Callable[[], object]

def default_framework_suite(dense_layer_names: Tuple[str, ...] = ()) -> Dict[str, PrunerFactory]:
    """Pruner factories for every compared framework at its default operating point.

    Thin wrapper over :func:`repro.pruning.registry.paper_suite`, kept for
    backward compatibility — the framework table itself lives in the registry.
    ``dense_layer_names`` is forwarded to the frameworks that support it (the
    R-TOSS variants; used by the RetinaNet experiments to reproduce the paper's
    eligible-weight fraction).
    """
    return paper_suite(dense_layer_names)


def compare_frameworks(
    evaluator: DetectorEvaluator,
    frameworks: Optional[Dict[str, PrunerFactory]] = None,
    include_baseline: bool = True,
) -> List[FrameworkResult]:
    """Evaluate every framework on the evaluator's model; returns ordered results."""
    frameworks = frameworks if frameworks is not None else default_framework_suite()
    results: List[FrameworkResult] = []
    if include_baseline:
        results.append(evaluator.evaluate_baseline())
    for name, factory in frameworks.items():
        results.append(evaluator.evaluate(factory(), framework_name=name))
    return results


def results_by_framework(results: Sequence[FrameworkResult]) -> Dict[str, FrameworkResult]:
    return {result.framework: result for result in results}


def normalised_metric(results: Sequence[FrameworkResult], metric: str,
                      platform: Optional[str] = None) -> Dict[str, float]:
    """A metric for every framework normalised to the BM baseline (Fig. 4 style).

    ``metric`` is one of 'compression_ratio', 'sparsity', 'speedup', 'energy'.
    """
    by_name = results_by_framework(results)
    baseline = by_name.get("BM")
    out: Dict[str, float] = {}
    for result in results:
        if metric == "compression_ratio":
            out[result.framework] = result.compression_ratio
        elif metric == "storage_compression_ratio":
            out[result.framework] = result.storage_compression_ratio
        elif metric == "sparsity":
            out[result.framework] = result.overall_sparsity
        elif metric == "mAP":
            out[result.framework] = result.map_estimate
        elif metric == "speedup":
            if platform is None:
                raise ValueError("speedup requires a platform name")
            out[result.framework] = result.speedup[platform]
        elif metric == "energy":
            if platform is None or baseline is None:
                raise ValueError("energy requires a platform name and a BM baseline")
            out[result.framework] = result.energy_joules[platform] / baseline.energy_joules[platform]
        else:
            raise KeyError(f"unknown metric {metric!r}")
    return out
