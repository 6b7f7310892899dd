"""Small-sample calibration for a new machine and large-scale prediction (Section 5.7).

The paper validates its methodology on ORNL's Titan by running only 20-31
small calibration experiments per renderer, re-fitting the architecture
coefficients, and then predicting a 1024-node, 16-billion-element rendering.
:class:`MachineCalibration` reproduces that workflow against any registered
architecture: it gathers a small calibration corpus (synthesized for
non-host devices, measured for the host), fits the technique's model, and
predicts arbitrary large configurations through the Section 5.8 mapping.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

from repro.modeling.features import RenderingConfiguration, map_configuration_to_features
from repro.modeling.models import PerformanceModel
from repro.modeling.study import StudyConfiguration
from repro.study import run_study

__all__ = ["CalibrationResult", "MachineCalibration"]


@dataclass
class CalibrationResult:
    """A fitted model plus the size of the corpus used to calibrate it."""

    architecture: str
    technique: str
    model: PerformanceModel
    sample_points: int

    def predict_configuration(self, config: RenderingConfiguration, include_build: bool = True) -> float:
        """Predict the per-task render time of a configuration via the mapping."""
        return self.model.predict(map_configuration_to_features(config), include_build=include_build)


@dataclass
class MachineCalibration:
    """Calibrate the models for one architecture from a small experiment sample.

    Parameters
    ----------
    architecture:
        Registered architecture name (e.g. ``"gpu2-titan-k20"``).
    simulation:
        Which synthetic simulation field the calibration runs use
        (CloverLeaf3D in the paper's Titan study).
    calibration_samples:
        Number of stratified calibration experiments per technique (the paper
        used 20-31).
    """

    architecture: str
    simulation: str = "cloverleaf"
    calibration_samples: int = 10
    seed: int = 77
    task_counts: tuple[int, ...] = (1, 2, 4, 8)
    _config: StudyConfiguration = field(init=False)

    def __post_init__(self) -> None:
        # Only the target architecture is planned: rows of any other one are
        # never selected by the fit, and a host row costs a real render.
        self._config = StudyConfiguration(
            architectures=(self.architecture,),
            simulations=(self.simulation,),
            task_counts=self.task_counts,
            samples_per_technique=self.calibration_samples,
            seed=self.seed,
        )

    def calibrate(self, technique: str) -> CalibrationResult:
        """Run the calibration experiments for one technique and fit its model."""
        corpus = self._run_technique(technique)
        model = corpus.fit_model(self.architecture, technique)
        return CalibrationResult(
            architecture=self.architecture,
            technique=technique,
            model=model,
            sample_points=len(corpus.select(self.architecture, technique)),
        )

    # -- internals -------------------------------------------------------------------
    def _run_technique(self, technique: str):
        """Run only the requested technique's calibration sweep.

        The sweep is handed a single-technique copy of the calibration
        configuration; the stored configuration itself is never mutated, so
        repeated/interleaved ``calibrate`` calls stay independent.
        """
        return run_study(replace(self._config, techniques=(technique,)), include_compositing=False)


def validate_large_scale_prediction(
    calibration: CalibrationResult,
    config: RenderingConfiguration,
    measured_seconds: float,
) -> dict[str, float]:
    """Compare a mapped-input prediction against a measured (or synthesized) time.

    Returns the Table 15 row: actual, predicted, and percentage difference
    ``100 * (predicted - actual) / actual`` (negative = under-prediction).
    """
    predicted = calibration.predict_configuration(config, include_build=False)
    difference = 100.0 * (predicted - measured_seconds) / max(measured_seconds, 1e-12)
    return {
        "actual_seconds": float(measured_seconds),
        "predicted_seconds": float(predicted),
        "difference_percent": float(difference),
        "sample_points": float(calibration.sample_points),
    }
