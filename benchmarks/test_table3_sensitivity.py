"""Table 3 — sensitivity of R-TOSS to the entry-pattern size (5EP/4EP/3EP/2EP).

Regenerates the reduction ratio, estimated mAP, RTX 2080Ti inference time and energy
for every entry-pattern variant on YOLOv5s and RetinaNet, printed next to the paper's
reference values.
"""

import pytest

from repro.evaluation.tables import format_table
from repro.experiments.table3 import PAPER_TABLE3, run_table3, table3_checks


def test_table3_sensitivity():
    rows = run_table3()

    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Table 3: R-TOSS entry-pattern sensitivity (RTX 2080Ti)"))

    checks = table3_checks(rows)
    assert all(checks.values()), checks

    by_key = {(row.model, row.entries): row for row in rows}

    # Reduction ratios must land near the paper's values (same "roughly what factor").
    for model in ("yolov5s", "retinanet"):
        for entries in (2, 3):
            ours = by_key[(model, entries)].reduction_ratio
            paper = PAPER_TABLE3[model][entries]["reduction"]
            assert ours == pytest.approx(paper, rel=0.25), (model, entries, ours, paper)

    # Inference time ordering matches the paper: 2EP fastest, 5EP slowest.
    for model in ("yolov5s", "retinanet"):
        times = {e: by_key[(model, e)].inference_ms for e in (2, 3, 4, 5)}
        assert times[2] < times[3] < times[4] <= times[5] * 1.05

    # The crossover the paper highlights: 3EP has the better mAP on YOLOv5s, 2EP on
    # RetinaNet.
    assert by_key[("yolov5s", 3)].map_estimate > by_key[("yolov5s", 2)].map_estimate
    assert by_key[("retinanet", 2)].map_estimate > by_key[("retinanet", 3)].map_estimate
