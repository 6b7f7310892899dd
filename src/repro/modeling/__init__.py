"""Performance modeling of in situ rendering (the paper's primary contribution).

The package implements the full Chapter V methodology:

* :mod:`repro.modeling.regression` -- multiple linear regression (ordinary
  least squares), R-squared, residual standard deviation.
* :mod:`repro.modeling.crossval` -- k-fold cross validation and the accuracy
  summaries (fraction of predictions within 50/25/10/5 percent, average
  relative error) reported in Tables 13 and 14.
* :mod:`repro.modeling.features` -- the model input variables (Objects,
  Active Pixels, Visible Objects, Pixels Per Triangle, Samples Per Ray, Cells
  Spanned) and the a-priori mapping from user-facing rendering configurations
  to those variables (Section 5.8).
* :mod:`repro.modeling.models` -- the per-technique performance models of
  Equations 5.1-5.3 and 5.5 (ray tracing, rasterization, volume rendering,
  image compositing): one model type over a registry table of term groups.
* :mod:`repro.modeling.study` -- the study's data model: the sweep
  configuration, the corpus rows with their JSON codecs and digest, and the
  one function that turns a corpus slice into a model and its regression
  inputs (:mod:`repro.study` gathers the corpus, and
  :meth:`repro.reporting.ModelSuite.fit_corpus` fits it; the Section 5.7
  calibration is a small one-architecture corpus like any other).
* :mod:`repro.modeling.feasibility` -- the in situ viability analyses of
  Section 5.9 (images within a time budget; ray tracing versus
  rasterization).
"""

from repro.modeling.crossval import CrossValidationSummary, k_fold_cross_validation
from repro.modeling.features import (
    RenderingConfiguration,
    feature_arrays,
    map_configuration_batch,
    map_configuration_to_features,
)
from repro.modeling.models import PerformanceModel, make_model
from repro.modeling.regression import LinearRegressionResult, fit_linear_model
from repro.modeling.study import (
    ExperimentRecord,
    FailureRecord,
    StudyConfiguration,
    StudyCorpus,
)

__all__ = [
    "CrossValidationSummary",
    "ExperimentRecord",
    "FailureRecord",
    "LinearRegressionResult",
    "PerformanceModel",
    "RenderingConfiguration",
    "StudyConfiguration",
    "StudyCorpus",
    "feature_arrays",
    "fit_linear_model",
    "k_fold_cross_validation",
    "make_model",
    "map_configuration_batch",
    "map_configuration_to_features",
]
