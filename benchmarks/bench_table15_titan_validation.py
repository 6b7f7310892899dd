"""Table 15: large-scale prediction on a leading-edge machine (Titan / GPU2).

Calibrates each renderer's model from a small number of experiments on the
``gpu2-titan-k20`` architecture (the Titan substitution), then predicts a
1024-task rendering at 2048^2 and compares against the "measured" (synthesized
out-of-sample) run time -- the Table 15 workflow.
"""

from __future__ import annotations

from common import print_table
from repro.machines import KernelCostModel
from repro.modeling import RenderingConfiguration, map_configuration_to_features
from repro.study.calibration import MachineCalibration, validate_large_scale_prediction

TECHNIQUES = ("raytrace", "volume", "raster")


def test_table15_titan_scale_prediction(benchmark):
    calibrator = MachineCalibration("gpu2-titan-k20", simulation="cloverleaf", calibration_samples=10, seed=41)
    oracle = KernelCostModel("gpu2-titan-k20", seed=314)

    rows = []
    differences = {}
    for technique in TECHNIQUES:
        calibration = calibrator.calibrate(technique)
        config = RenderingConfiguration(
            technique=technique,
            architecture="gpu2-titan-k20",
            num_tasks=1024,
            cells_per_task=252,   # 1024 * 252^3 ~ 16.4 billion cells, as in the paper
            image_width=2048,
            image_height=2048,
        )
        features = map_configuration_to_features(config)
        measured = oracle.total(technique, features, include_build=False)
        row = validate_large_scale_prediction(calibration, config, measured)
        differences[technique] = row["difference_percent"]
        rows.append(
            [
                technique,
                f"{row['actual_seconds']:.4f}s",
                f"{row['predicted_seconds']:.4f}s",
                f"{row['difference_percent']:+.1f}%",
                int(row["sample_points"]),
            ]
        )
    print_table(
        "Table 15: Titan-scale prediction after small-sample calibration (1024 tasks, 2048^2, ~16B cells)",
        ["technique", "actual", "predicted", "difference", "sample points"],
        rows,
    )

    benchmark(lambda: calibrator.calibrate("raster"))
    # Surface renderers predict within tens of percent (paper: -6% and +18%);
    # volume rendering is allowed to be far off (paper: -79%).
    assert abs(differences["raytrace"]) < 60.0
    assert abs(differences["raster"]) < 60.0
