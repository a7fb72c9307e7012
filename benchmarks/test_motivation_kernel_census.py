"""Section III motivation — 1x1-kernel census of YOLOv5s, RetinaNet and DETR."""

import pytest

from repro.evaluation.tables import format_table
from repro.experiments.motivation import motivation_checks, run_kernel_census


def test_motivation_kernel_census():
    censuses = run_kernel_census()

    print()
    print(format_table([c.as_dict() for c in censuses],
                       title="Section III: 1x1 kernel share of modern detectors"))

    checks = motivation_checks(censuses)
    assert all(checks.values()), checks

    by_model = {c.model: c for c in censuses}
    # Paper: 68.42 % (YOLOv5s), 56.14 % (RetinaNet), 63.46 % (DETR).
    assert by_model["yolov5s"].pointwise_share == pytest.approx(0.6842, abs=0.08)
    assert by_model["retinanet"].pointwise_share == pytest.approx(0.5614, abs=0.08)
    assert by_model["detr"].pointwise_share == pytest.approx(0.6346, abs=0.10)
