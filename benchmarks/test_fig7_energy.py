"""Fig. 7 — energy reduction over the base model on both platforms."""

from repro.evaluation.tables import format_bar_chart
from repro.experiments.figures import fig7_checks, run_fig7_energy


def test_fig7_energy_yolov5s(yolov5s_comparison):
    reductions = run_fig7_energy(model_key="yolov5s", results=yolov5s_comparison)

    print()
    for platform, values in reductions.items():
        print(format_bar_chart(values, title=f"Fig. 7(a) energy reduction on {platform} "
                                             f"(YOLOv5s)", unit="%"))
    checks = fig7_checks(reductions)
    assert all(checks.values()), checks

    # Paper: 54.9 % / 57.0 % reduction on the TX2 and 45.5 % / 48.2 % on the 2080Ti.
    tx2 = reductions["Jetson TX2"]
    assert 40.0 < tx2["R-TOSS-2EP"] < 65.0
    rtx = reductions["RTX 2080Ti"]
    assert 35.0 < rtx["R-TOSS-2EP"] < 60.0


def test_fig7_energy_retinanet(retinanet_comparison):
    reductions = run_fig7_energy(model_key="retinanet", results=retinanet_comparison)

    print()
    for platform, values in reductions.items():
        print(format_bar_chart(values, title=f"Fig. 7(b) energy reduction on {platform} "
                                             f"(RetinaNet)", unit="%"))
    checks = fig7_checks(reductions)
    assert all(checks.values()), checks

    # Paper: 56.3 % / 70.1 % on the TX2 and 48 % / 55.8 % on the 2080Ti for 2EP / 3EP;
    # ours must stay in the same band with R-TOSS-2EP the largest reduction.
    for platform, values in reductions.items():
        assert 40.0 < values["R-TOSS-2EP"] < 75.0
        assert values["R-TOSS-2EP"] > values["PD"]
