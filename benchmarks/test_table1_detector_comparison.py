"""Table 1 — two-stage vs single-stage detector comparison.

Regenerates the paper's Table 1: the published mAP / fps reference numbers next to
the inference rate our hardware model predicts for the detectors we construct.
"""

from repro.evaluation.tables import format_table
from repro.experiments.table1 import run_table1, table1_checks


def test_table1_detector_comparison():
    rows = run_table1()

    print()
    print(format_table([row.as_dict() for row in rows],
                       title="Table 1: two-stage vs single-stage detectors"))

    checks = table1_checks(rows)
    assert all(checks.values()), checks

    # The qualitative shape of Table 1: our constructed single-stage detectors run at
    # real-time rates on the desktop GPU model while two-stage references do not.
    measured = {row.name: row.measured_fps for row in rows if row.measured_fps is not None}
    assert measured["YOLOv5"] > 30.0
    assert measured["YOLOv5"] > measured["RetinaNet"]
