"""RetinaNet pruning study: reproduce the paper's framework comparison on RetinaNet.

Run with:  python examples/retinanet_pruning_study.py [--quick]

Applies every compared framework (PD, NMS, NS, PF, NP, R-TOSS-3EP, R-TOSS-2EP) to
RetinaNet (ResNet-50 + FPN, ~36.4 M parameters), then prints the Fig. 4-7 style
comparison: compression, estimated mAP, speedup and energy reduction on both
platforms.  ``--quick`` uses the lightweight RetinaNet so the script finishes in a
few seconds on any machine.
"""

import argparse

from repro.evaluation import (
    DetectorEvaluator,
    baseline_map_for,
    compare_frameworks,
    format_comparison,
)
from repro.experiments.table3 import RETINANET_DENSE_LAYERS
from repro.models import retinanet_lite, retinanet_resnet50
from repro.pruning.registry import paper_suite


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--quick", action="store_true",
                        help="use the lightweight RetinaNet (ResNet-18, thin FPN)")
    args = parser.parse_args()

    if args.quick:
        factory = lambda: retinanet_lite(num_classes=3)           # noqa: E731
        model_key = "retinanet-lite"
        baseline_map = 60.0
        dense_layers = ()
    else:
        factory = lambda: retinanet_resnet50(num_classes=3)       # noqa: E731
        model_key = "retinanet"
        baseline_map = baseline_map_for("retinanet")
        dense_layers = RETINANET_DENSE_LAYERS

    print(f"building and evaluating {model_key} "
          f"({factory().num_parameters() / 1e6:.1f} M parameters)...")
    evaluator = DetectorEvaluator(factory, model_key, baseline_map,
                                  image_size=640, probe_size=64)
    results = compare_frameworks(evaluator, paper_suite(dense_layers))

    print()
    print(format_comparison(
        results,
        metrics=(
            "compression_ratio", "sparsity", "mAP",
            "speedup[RTX 2080Ti]", "speedup[Jetson TX2]",
            "energy_reduction_%[RTX 2080Ti]", "energy_reduction_%[Jetson TX2]",
        ),
        title=f"Framework comparison on {model_key} (Figs. 4-7 of the paper)",
    ))
    print("\nPaper reference points: R-TOSS-2EP reaches 2.89x compression, 82.9 mAP, "
          "1.87x TX2 speedup and 56.3% TX2 energy reduction on RetinaNet.")


if __name__ == "__main__":
    main()
