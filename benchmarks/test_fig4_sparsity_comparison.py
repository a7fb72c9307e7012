"""Fig. 4 — sparsity (compression) ratio of every framework, normalised to BM."""

import pytest

from repro.evaluation.tables import format_bar_chart
from repro.experiments.figures import fig4_checks, run_fig4_sparsity


def test_fig4_sparsity_yolov5s(yolov5s_comparison):
    ratios = run_fig4_sparsity(model_key="yolov5s", results=yolov5s_comparison)

    print()
    print(format_bar_chart(ratios, title="Fig. 4(a) compression ratio vs BM (YOLOv5s)", unit="x"))
    assert all(fig4_checks(ratios).values()), fig4_checks(ratios)

    # Paper: 4.4x (2EP) and 2.9x (3EP) on YOLOv5s.
    assert ratios["R-TOSS-2EP"] == pytest.approx(4.4, rel=0.25)
    assert ratios["R-TOSS-3EP"] == pytest.approx(2.9, rel=0.25)


def test_fig4_sparsity_retinanet(retinanet_comparison):
    ratios = run_fig4_sparsity(model_key="retinanet", results=retinanet_comparison)

    print()
    print(format_bar_chart(ratios, title="Fig. 4(b) compression ratio vs BM (RetinaNet)", unit="x"))
    assert all(fig4_checks(ratios).values()), fig4_checks(ratios)

    # Paper: 2.89x (2EP) and 2.4x (3EP) on RetinaNet.
    assert ratios["R-TOSS-2EP"] == pytest.approx(2.89, rel=0.25)
    assert ratios["R-TOSS-3EP"] == pytest.approx(2.4, rel=0.25)
