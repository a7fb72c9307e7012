"""Table 2 — model size vs execution time on the Jetson TX2.

Constructs every detector the paper lists (YOLOv5, YOLOX, RetinaNet, YOLOv7, YOLOR,
DETR), counts parameters and estimates the dense 640x640 execution time on the TX2
platform model.
"""

from repro.evaluation.tables import format_table
from repro.experiments.table2 import run_table2, table2_checks


def test_table2_model_size_vs_latency():
    rows = run_table2()

    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Table 2: model size vs Jetson TX2 execution time"))

    checks = table2_checks(rows)
    assert all(checks.values()), checks

    by_name = {row.name: row for row in rows}
    # Who wins and by roughly what factor: YOLOv5s stays under a second on the TX2
    # while every >30 M-parameter model takes multiple seconds (paper: 0.74 s vs
    # 6.5-7.6 s).
    assert by_name["YOLOv5"].measured_execution_seconds < 1.0
    assert by_name["RetinaNet"].measured_execution_seconds > 4.0
    assert by_name["DETR"].measured_execution_seconds > 3.0
