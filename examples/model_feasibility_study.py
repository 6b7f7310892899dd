"""End-to-end reproduction of the Chapter V modeling workflow.

Run with ``python examples/model_feasibility_study.py``.  The script

1. runs the study sweep (host-measured CPU experiments + synthesized GPU
   experiments at paper scale),
2. fits the six single-node models and the compositing model, printing their
   R^2 values and coefficients (Tables 12 and 17),
3. cross-validates each model (Table 13),
4. calibrates a Titan-like machine from a small sample and predicts a
   1024-task rendering (Table 15), and
5. answers the ray-tracing-versus-rasterization feasibility question
   (Figure 15).
"""

from __future__ import annotations

import numpy as np

from repro.machines import KernelCostModel
from repro.modeling import RenderingConfiguration, map_configuration_to_features
from repro.study.calibration import MachineCalibration, validate_large_scale_prediction
from repro.modeling.feasibility import raytracing_vs_rasterization
from repro.modeling.study import COMPOSITING_ARCHITECTURE, StudyConfiguration
from repro.study import run_study


def main() -> None:
    print("running the study sweep (this renders a few dozen small images)...")
    corpus = run_study(StudyConfiguration(samples_per_technique=10, seed=2016))
    print(f"gathered {len(corpus.records)} rendering experiments "
          f"and {len(corpus.compositing_records)} compositing experiments\n")

    models = corpus.fit_all_models()
    print("model fits (R^2) and coefficients:")
    for (architecture, technique), model in sorted(models.items()):
        coefficients = ", ".join(f"{k}={v:.2e}" for k, v in model.coefficients.items())
        print(f"  {architecture:<10} {technique:<9} R^2={model.r_squared:.4f}  {coefficients}")

    print("\n3-fold cross-validation accuracy:")
    for (architecture, technique) in sorted(models):
        row = corpus.cross_validate(architecture, technique, k=3, seed=13).accuracy_row()
        print(f"  {architecture:<10} {technique:<9} within 50/25/10/5%: "
              f"{row['within_50']:.0f}/{row['within_25']:.0f}/{row['within_10']:.0f}/{row['within_5']:.0f}  "
              f"avg err {row['average_percent']:.1f}%")

    compositing = corpus.fit_model(COMPOSITING_ARCHITECTURE, "compositing")
    print(f"\ncompositing model R^2 = {compositing.r_squared:.3f}")

    print("\nTitan-style calibration and large-scale prediction:")
    calibrator = MachineCalibration("gpu2-titan-k20", calibration_samples=10, seed=41)
    oracle = KernelCostModel("gpu2-titan-k20", seed=314)
    for technique in ("raytrace", "volume", "raster"):
        calibration = calibrator.calibrate(technique)
        config = RenderingConfiguration(technique, "gpu2-titan-k20", 1024, 252, 2048, 2048)
        measured = oracle.total(technique, map_configuration_to_features(config), include_build=False)
        row = validate_large_scale_prediction(calibration, config, measured)
        print(f"  {technique:<9} actual {row['actual_seconds']:.4f}s  predicted {row['predicted_seconds']:.4f}s  "
              f"({row['difference_percent']:+.1f}%, {int(row['sample_points'])} calibration points)")

    print("\nray tracing vs rasterization (ratio > 1 means ray tracing wins):")
    heat = raytracing_vs_rasterization(
        models[("gpu1-k40m", "raytrace")],
        models[("gpu1-k40m", "raster")],
        "gpu1-k40m",
        image_sizes=np.array([384, 1024, 1920, 4096]),
        data_sizes=np.array([100, 300, 500]),
    )
    header = "           " + "".join(f"{size:>8}^2" for size in heat["image_sizes"])
    print(header)
    for row, cells in enumerate(heat["data_sizes"]):
        values = "".join(f"{heat['ratio'][row, column]:>10.2f}" for column in range(len(heat["image_sizes"])))
        print(f"  {cells:>5}^3 {values}")


if __name__ == "__main__":
    main()
