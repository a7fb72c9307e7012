"""Fig. 6 — inference speedup over the base model on RTX 2080Ti and Jetson TX2."""

import pytest

from repro.evaluation.tables import format_bar_chart
from repro.experiments.figures import fig6_checks, run_fig6_speedup


def test_fig6_speedup_yolov5s(yolov5s_comparison):
    speedups = run_fig6_speedup(model_key="yolov5s", results=yolov5s_comparison)

    print()
    for platform, values in speedups.items():
        print(format_bar_chart(values, title=f"Fig. 6(a) speedup on {platform} (YOLOv5s)",
                               unit="x"))
    checks = fig6_checks(speedups)
    assert all(checks.values()), checks

    # Paper: 2.15x / 2.12x on the TX2 and 1.97x / 1.86x on the 2080Ti for 2EP / 3EP.
    tx2 = speedups["Jetson TX2"]
    assert tx2["R-TOSS-2EP"] == pytest.approx(2.15, rel=0.15)
    assert tx2["R-TOSS-3EP"] == pytest.approx(2.12, rel=0.20)
    rtx = speedups["RTX 2080Ti"]
    assert rtx["R-TOSS-2EP"] == pytest.approx(1.97, rel=0.20)


def test_fig6_speedup_retinanet(retinanet_comparison):
    speedups = run_fig6_speedup(model_key="retinanet", results=retinanet_comparison)

    print()
    for platform, values in speedups.items():
        print(format_bar_chart(values, title=f"Fig. 6(b) speedup on {platform} (RetinaNet)",
                               unit="x"))
    checks = fig6_checks(speedups)
    assert all(checks.values()), checks

    # Paper: up to 2.1x (RTX 2080Ti) and 1.87x (TX2); ours land in the same band and
    # preserve "R-TOSS fastest, 2EP above 3EP".
    for platform in ("RTX 2080Ti", "Jetson TX2"):
        values = speedups[platform]
        assert 1.5 < values["R-TOSS-2EP"] < 3.0
        assert values["R-TOSS-2EP"] > values["R-TOSS-3EP"] > values["NMS"]
